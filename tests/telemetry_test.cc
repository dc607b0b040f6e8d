// Unit suite for the continuous-telemetry layer (src/common/telemetry): the
// verdict fold (multi-window SLO burn rates with the stock objectives, the
// EWMA + z-score anomaly verdicts), the JSONL journal's sample encoding and
// its decoder, the OpenMetrics and Chrome trace-event exporters, and the
// strict JSON reader beneath the decoder.

#include <cmath>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/durable_io.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/telemetry.h"
#include "gtest/gtest.h"

namespace rasa {
namespace {

// --- The verdict fold: SLO burn rates ------------------------------------

// A sample that meets both stock objectives (p50 at ipc latency, low
// modeled error).
CycleSample MakeSample(int cycle) {
  CycleSample s;
  s.cycle = cycle;
  s.seconds = 2.0;
  s.affinity_before = 0.3;
  s.gained_affinity = 0.7;
  s.optimality_gap = 0.05;
  s.lp_pivots = 100.0;
  s.refactorizations = 4.0;
  s.latency_p50 = 0.2;
  s.latency_p95 = 0.9;
  s.latency_p99 = 1.0;
  s.error_rate = 0.004;
  s.executed = true;
  return s;
}

// Folds one cycle whose latency objective is healthy or violated; returns
// the latency objective's status.
SloStatus FoldLatency(TelemetryPipeline& fold, int cycle, bool violate) {
  CycleSample s = MakeSample(cycle);
  s.latency_p50 = violate ? 0.9 : 0.2;
  const CycleTelemetry derived = fold.RecordCycle(s);
  EXPECT_EQ(derived.slo.size(), DefaultSloObjectives().size());
  EXPECT_EQ(derived.slo[0].name, "latency_p50");
  return derived.slo[0];
}

TEST(TelemetryFoldTest, HealthySamplesStayOk) {
  TelemetryPipeline fold;
  for (int c = 0; c < 40; ++c) {
    const CycleTelemetry derived = fold.RecordCycle(MakeSample(c));
    EXPECT_TRUE(derived.populated);
    for (const SloStatus& status : derived.slo) {
      EXPECT_TRUE(status.has_value) << status.name;
      EXPECT_FALSE(status.violated) << status.name;
      EXPECT_EQ(status.alert, SloAlertState::kOk) << status.name;
      EXPECT_EQ(status.fast_burn_rate, 0.0) << status.name;
    }
  }
}

TEST(TelemetryFoldTest, DefaultObjectivesTrackPlacementQuality) {
  TelemetryPipeline fold;
  // A well-localized placement meets both stock objectives ...
  CycleTelemetry derived = fold.RecordCycle(MakeSample(0));
  for (const SloStatus& status : derived.slo) {
    EXPECT_FALSE(status.violated) << status.name;
  }
  // ... and a fully remote one violates both.
  CycleSample bad = MakeSample(1);
  bad.latency_p50 = 1.0;
  bad.error_rate = 0.010;
  derived = fold.RecordCycle(bad);
  for (const SloStatus& status : derived.slo) {
    EXPECT_TRUE(status.violated) << status.name;
  }
}

TEST(TelemetryFoldTest, BurnLadderFastThenPage) {
  TelemetryPipeline fold;
  // A full slow window of healthy cycles.
  for (int c = 0; c < kSloSlowWindow; ++c) FoldLatency(fold, c, false);
  // One violation: the fast window burns 1/6 / 1% = 16.7 (>= 14.4) but the
  // slow window only 1/36 / 1% = 2.8 (< 6) -> fast-burn only.
  SloStatus status = FoldLatency(fold, kSloSlowWindow, true);
  EXPECT_TRUE(status.violated);
  EXPECT_EQ(status.alert, SloAlertState::kFastBurn);
  EXPECT_DOUBLE_EQ(status.fast_burn_rate, 100.0 / 6.0);
  // Two violations: the slow window is at 2/36 / 1% = 5.6, still cold.
  status = FoldLatency(fold, kSloSlowWindow + 1, true);
  EXPECT_EQ(status.alert, SloAlertState::kFastBurn);
  // The third crosses it (3/36 / 1% = 8.3): page, both windows hot.
  status = FoldLatency(fold, kSloSlowWindow + 2, true);
  EXPECT_EQ(status.alert, SloAlertState::kPage);
  EXPECT_DOUBLE_EQ(status.slow_burn_rate, 300.0 / 36.0);
}

TEST(TelemetryFoldTest, RecoveryDrainsTheFastWindowFirst) {
  TelemetryPipeline fold;
  SloStatus status;
  for (int c = 0; c < kSloSlowWindow; ++c) status = FoldLatency(fold, c, true);
  EXPECT_EQ(status.alert, SloAlertState::kPage);
  // Five healthy cycles leave one violation in the 6-cycle fast window ...
  int cycle = kSloSlowWindow;
  for (int i = 0; i < kSloFastWindow - 1; ++i) {
    status = FoldLatency(fold, cycle++, false);
  }
  EXPECT_EQ(status.alert, SloAlertState::kPage);
  // ... the sixth empties it, while the slow window still holds 30/36 of
  // violations: slow-burn, the "budget already spent" tail of an incident.
  status = FoldLatency(fold, cycle++, false);
  EXPECT_EQ(status.alert, SloAlertState::kSlowBurn);
  EXPECT_EQ(status.fast_burn_rate, 0.0);
  EXPECT_DOUBLE_EQ(status.slow_burn_rate, 3000.0 / 36.0);
}

TEST(TelemetryFoldTest, WindowsCoverOnlyTheCyclesSeenSoFar) {
  // Before a window fills, its mean runs over the cycles folded so far:
  // one violation in the first cycle burns both windows at 100.
  TelemetryPipeline fold;
  const SloStatus status = FoldLatency(fold, 0, true);
  EXPECT_EQ(status.fast_burn_rate, 100.0);
  EXPECT_EQ(status.slow_burn_rate, 100.0);
  EXPECT_EQ(status.alert, SloAlertState::kPage);
}

TEST(TelemetryFoldTest, MissingSignalNeverCountsAsViolation) {
  TelemetryPipeline fold;
  CycleSample s = MakeSample(0);
  s.latency_p50 = std::numeric_limits<double>::quiet_NaN();
  s.error_rate = std::numeric_limits<double>::infinity();
  for (int c = 0; c < kSloFastWindow; ++c) {
    s.cycle = c;
    const CycleTelemetry derived = fold.RecordCycle(s);
    for (const SloStatus& status : derived.slo) {
      EXPECT_FALSE(status.has_value) << status.name;
      EXPECT_FALSE(status.violated) << status.name;
      EXPECT_EQ(status.alert, SloAlertState::kOk) << status.name;
    }
    EXPECT_TRUE(std::isnan(derived.slo[0].value));
  }
}

// --- The verdict fold: anomaly detection -----------------------------------

// Folds one cycle with the given optimality gap; returns the gap verdict.
AnomalyStatus FoldGap(TelemetryPipeline& fold, double gap) {
  CycleSample s = MakeSample(0);
  s.optimality_gap = gap;
  return fold.RecordCycle(s).gap;
}

TEST(TelemetryFoldTest, WarmupNeverFlags) {
  TelemetryPipeline fold;
  // Wild swings inside the warm-up stay unflagged: the baseline is still
  // forming.
  const double swings[] = {1.0, 100.0, -50.0, 1.0, 80.0};
  static_assert(std::size(swings) == kAnomalyWarmup);
  for (double v : swings) EXPECT_FALSE(FoldGap(fold, v).anomalous) << v;
}

TEST(TelemetryFoldTest, SpikeAfterStableBaselineFlags) {
  TelemetryPipeline fold;
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(FoldGap(fold, 10.0 + 0.01 * (i % 3)).anomalous)
        << "point " << i;
  }
  const AnomalyStatus spike = FoldGap(fold, 25.0);
  EXPECT_TRUE(spike.anomalous);
  EXPECT_GT(spike.zscore, kAnomalyZThreshold);
  EXPECT_NEAR(spike.ewma, 10.0, 0.1);  // verdict uses the pre-spike mean
}

TEST(TelemetryFoldTest, ClampedFoldInKeepsDetectingRepeatSpikes) {
  TelemetryPipeline fold;
  for (int i = 0; i < 20; ++i) FoldGap(fold, 10.0 + 0.01 * (i % 3));
  const AnomalyStatus first = FoldGap(fold, 25.0);
  ASSERT_TRUE(first.anomalous);
  // The spike was folded in at exactly the threshold deviation, so the
  // mean moved by alpha * z * std, not by alpha * 15 ...
  const AnomalyStatus second = FoldGap(fold, 25.0);
  EXPECT_DOUBLE_EQ(second.ewma, first.ewma + kAnomalyAlpha *
                                                 kAnomalyZThreshold *
                                                 first.ewm_std);
  // ... and a second identical spike right after still flags.
  EXPECT_TRUE(second.anomalous);
}

TEST(TelemetryFoldTest, ConstantSeriesToleratesTinyWiggle) {
  TelemetryPipeline fold;
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(FoldGap(fold, 1.0).anomalous);
  // Without the min_std floor the variance would be exactly 0 and this
  // 1-ulp wiggle would divide by zero / flag.
  const AnomalyStatus status = FoldGap(fold, 1.0 + 1e-15);
  EXPECT_FALSE(status.anomalous);
  EXPECT_EQ(status.ewm_std, kAnomalyMinStd);
}

// --- The journal: one sample per line ---------------------------------------

void ExpectSameSample(const CycleSample& a, const CycleSample& b) {
  EXPECT_EQ(a.cycle, b.cycle);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.affinity_before, b.affinity_before);
  EXPECT_EQ(a.gained_affinity, b.gained_affinity);
  EXPECT_EQ(a.optimality_gap, b.optimality_gap);
  EXPECT_EQ(a.migration_truncation, b.migration_truncation);
  EXPECT_EQ(a.dirty_subproblems, b.dirty_subproblems);
  EXPECT_EQ(a.reused_subproblems, b.reused_subproblems);
  EXPECT_EQ(a.lp_pivots, b.lp_pivots);
  EXPECT_EQ(a.refactorizations, b.refactorizations);
  EXPECT_EQ(a.latency_p50, b.latency_p50);
  EXPECT_EQ(a.latency_p95, b.latency_p95);
  EXPECT_EQ(a.latency_p99, b.latency_p99);
  EXPECT_EQ(a.error_rate, b.error_rate);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.rolled_back, b.rolled_back);
  EXPECT_EQ(a.solver_failed, b.solver_failed);
}

StatusOr<CycleSample> DecodeLine(const std::string& line) {
  StatusOr<JsonValue> json = ParseJson(line);
  if (!json.ok()) return json.status();
  return ParseCycleSample(*json);
}

TEST(TelemetryJournalTest, LineHoldsOnlyTheVersionedSample) {
  const std::string line = CycleSampleJson(MakeSample(3));
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one record per line
  StatusOr<JsonValue> parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->kind, JsonValue::Kind::kObject);
  EXPECT_EQ(parsed->object.front().first, "v");
  EXPECT_EQ(parsed->Get("v")->number, 2.0);  // schema version
  EXPECT_EQ(parsed->Get("cycle")->number, 3.0);
  EXPECT_EQ(parsed->Get("gained_affinity")->number, 0.7);
  EXPECT_TRUE(parsed->Get("executed")->boolean);
  // The verdicts are derived on read, never recorded.
  for (const char* key : {"slo", "cost_anomaly", "gap_anomaly"}) {
    EXPECT_EQ(parsed->Get(key), nullptr) << key;
  }
}

TEST(TelemetryJournalTest, SampleRoundTripsExactly) {
  CycleSample s = MakeSample(7);
  // Awkward doubles: %.17g must carry every bit.
  s.seconds = 0.1 + 0.2;
  s.affinity_before = 1e-300;
  s.gained_affinity = 2.0 / 3.0;
  s.migration_truncation = -1.25e-17;
  s.dirty_subproblems = 11;
  s.reused_subproblems = 42;
  s.rolled_back = true;
  s.solver_failed = true;
  const StatusOr<CycleSample> decoded = DecodeLine(CycleSampleJson(s));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameSample(*decoded, s);
}

TEST(TelemetryJournalTest, NanLatencyRoundTripsAsMissingSignal) {
  CycleSample s = MakeSample(0);
  s.latency_p50 = std::numeric_limits<double>::quiet_NaN();
  const std::string line = CycleSampleJson(s);
  EXPECT_NE(line.find("\"latency_p50\": null"), std::string::npos) << line;
  const StatusOr<CycleSample> decoded = DecodeLine(line);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(std::isnan(decoded->latency_p50));
  TelemetryPipeline fold;
  const CycleTelemetry derived = fold.RecordCycle(*decoded);
  EXPECT_FALSE(derived.slo[0].has_value);
  EXPECT_FALSE(derived.slo[0].violated);
}

// A line as the version-1 writer emitted it: the sample followed by the
// verdicts it used to record.
constexpr char kVersion1Line[] =
    R"({"v": 1, "cycle": 3, "seconds": 2, "affinity_before": 0.29999999999999999, "gained_affinity": 0.69999999999999996, "optimality_gap": 0.050000000000000003, "migration_truncation": 0.10000000000000001, "dirty_subproblems": 4, "reused_subproblems": 9, "lp_pivots": 100, "refactorizations": 4, "latency_p50": 0.20000000000000001, "latency_p95": 0.90000000000000002, "latency_p99": 1, "error_rate": 0.0040000000000000001, "executed": true, "rolled_back": false, "solver_failed": false, "slo": [{"name": "latency_p50", "value": 0.20000000000000001, "violated": false, "fast_burn": 0, "slow_burn": 0, "alert": "ok"}, {"name": "error_rate", "value": 0.0040000000000000001, "violated": false, "fast_burn": 0, "slow_burn": 0, "alert": "ok"}], "cost_anomaly": {"anomalous": false, "zscore": 0, "ewma": 0}, "gap_anomaly": {"anomalous": false, "zscore": 0, "ewma": 0}})";

TEST(TelemetryJournalTest, DecodesVersion1Lines) {
  CycleSample expected = MakeSample(3);
  expected.migration_truncation = 0.1;
  expected.dirty_subproblems = 4;
  expected.reused_subproblems = 9;
  const StatusOr<CycleSample> decoded = DecodeLine(kVersion1Line);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameSample(*decoded, expected);
}

// Replaces the first occurrence of `from` in the version-2 encoding of
// MakeSample(3).
std::string EditedLine(const std::string& from, const std::string& to) {
  std::string line = CycleSampleJson(MakeSample(3));
  const size_t at = line.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return line.replace(at, from.size(), to);
}

TEST(TelemetryJournalTest, RejectsMalformedSamples) {
  const std::string bad[] = {
      EditedLine("\"error_rate\": 0.0040000000000000001, ", ""),  // missing
      EditedLine("\"v\": 2, ", ""),                 // no version
      EditedLine("\"v\": 2", "\"v\": 3"),           // unknown version
      EditedLine("\"v\": 2", "\"v\": \"2\""),       // mistyped version
      EditedLine("\"cycle\": 3", "\"cycle\": \"3\""),   // string, not int
      EditedLine("\"cycle\": 3", "\"cycle\": 3.5"),     // fractional int
      EditedLine("\"cycle\": 3", "\"cycle\": null"),    // null int
      EditedLine("\"executed\": true", "\"executed\": 1"),  // int, not bool
      EditedLine("\"seconds\": 2", "\"seconds\": \"2\""),  // string double
      "[1, 2]",                                     // not an object
  };
  for (const std::string& line : bad) {
    const StatusOr<CycleSample> decoded = DecodeLine(line);
    EXPECT_FALSE(decoded.ok()) << "accepted: " << line;
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(TelemetryJournalTest, JournalDropsOnlyATornFinalLine) {
  const std::string text = CycleSampleJson(MakeSample(0)) + "\n" +
                           CycleSampleJson(MakeSample(1)) + "\n" +
                           CycleSampleJson(MakeSample(2)).substr(0, 40);
  const StatusOr<std::vector<CycleSample>> samples =
      ParseTelemetryJournal(text);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  ASSERT_EQ(samples->size(), 2u);
  EXPECT_EQ((*samples)[1].cycle, 1);
  EXPECT_TRUE(ParseTelemetryJournal("").ok());
}

TEST(TelemetryJournalTest, JournalRejectsBadLinesAndCycleOrder) {
  const std::string line0 = CycleSampleJson(MakeSample(0)) + "\n";
  const std::string line1 = CycleSampleJson(MakeSample(1)) + "\n";
  const std::string bad[] = {
      line0 + line1 + line1,         // repeated cycle
      line1 + line0,                 // cycle goes backwards
      line0 + "{\"v\": 2}\n" + line1,  // a complete but malformed line
      line0 + "\n" + line1,          // an empty line
      line0 + "not json\n",
  };
  for (const std::string& text : bad) {
    const StatusOr<std::vector<CycleSample>> samples =
        ParseTelemetryJournal(text);
    EXPECT_FALSE(samples.ok()) << "accepted: " << text;
    if (!samples.ok()) {
      EXPECT_EQ(samples.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(samples.status().message().find("line"), std::string::npos);
    }
  }
}

// --- OpenMetrics exposition ------------------------------------------------

TEST(OpenMetricsTest, NameSanitization) {
  EXPECT_EQ(OpenMetricsName("rasa.runs"), "rasa_runs");
  EXPECT_EQ(OpenMetricsName("solver.lp_pivots"), "solver_lp_pivots");
  EXPECT_EQ(OpenMetricsName("weird-name!"), "weird_name_");
  EXPECT_EQ(OpenMetricsName("9starts_with_digit"), "_9starts_with_digit");
}

TEST(OpenMetricsTest, ExpositionFormatRoundTrip) {
  Histogram histogram;
  histogram.Observe(0.5);
  histogram.Observe(2.0);
  histogram.Observe(2.0);
  MetricsSnapshot snapshot;
  snapshot.counters = {{"rasa.runs", 7}};
  snapshot.gauges = {{"rasa.certificate_gap", 0.125}};
  snapshot.histograms = {{"solve.seconds", histogram.Scrape()}};

  const std::string text = OpenMetricsText(snapshot);
  // The mandatory terminator.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
  // Counter: TYPE line + `_total` sample.
  EXPECT_NE(text.find("# TYPE rasa_runs counter"), std::string::npos);
  EXPECT_NE(text.find("rasa_runs_total 7"), std::string::npos);
  // Gauge: plain sample, round-trip precision.
  EXPECT_NE(text.find("# TYPE rasa_certificate_gap gauge"),
            std::string::npos);
  EXPECT_NE(text.find("rasa_certificate_gap 0.125"), std::string::npos);
  // Histogram: cumulative buckets ending at +Inf, then _sum and _count.
  EXPECT_NE(text.find("# TYPE solve_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("solve_seconds_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("solve_seconds_sum 4.5"), std::string::npos);
  EXPECT_NE(text.find("solve_seconds_count 3"), std::string::npos);

  // Round-trip: the cumulative bucket counts must be monotone and the
  // +Inf bucket must equal _count — the invariants a Prometheus scraper
  // checks on ingest.
  uint64_t previous = 0;
  size_t buckets_seen = 0;
  size_t pos = 0;
  while ((pos = text.find("solve_seconds_bucket{le=\"", pos)) !=
         std::string::npos) {
    const size_t value_at = text.find("} ", pos);
    ASSERT_NE(value_at, std::string::npos);
    const uint64_t cumulative =
        std::strtoull(text.c_str() + value_at + 2, nullptr, 10);
    EXPECT_GE(cumulative, previous);
    previous = cumulative;
    ++buckets_seen;
    pos = value_at;
  }
  EXPECT_GT(buckets_seen, 0u);
  EXPECT_EQ(previous, 3u);
}

// --- Chrome trace-event export ---------------------------------------------

TEST(ChromeTraceTest, SchemaHasTheRequiredKeys) {
  std::vector<TraceEvent> events;
  TraceEvent root;
  root.id = 0;
  root.parent = -1;
  root.tid = 0;
  root.name = "optimize";
  root.start_seconds = 1.0;
  root.duration_seconds = 0.5;
  TraceEvent child;
  child.id = 1;
  child.parent = 0;
  child.tid = 3;
  child.name = "partition";
  child.start_seconds = 1.1;
  child.duration_seconds = 0.2;
  TraceEvent open;  // never ended: must be skipped
  open.id = 2;
  open.name = "still_open";
  open.start_seconds = 1.2;
  open.duration_seconds = -1.0;
  events = {root, child, open};

  const std::string json = ChromeTraceJson(events);
  StatusOr<JsonValue> parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* trace_events = parsed->Get("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_EQ(trace_events->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(trace_events->array.size(), 2u);  // the open span is dropped

  for (const JsonValue& event : trace_events->array) {
    // The complete-event schema chrome://tracing and Perfetto load.
    for (const char* key : {"ph", "ts", "dur", "pid", "tid", "name"}) {
      ASSERT_NE(event.Get(key), nullptr) << key;
    }
    EXPECT_EQ(event.Get("ph")->string, "X");
    EXPECT_EQ(event.Get("pid")->number, 1.0);
  }
  const JsonValue& first = trace_events->array[0];
  EXPECT_EQ(first.Get("name")->string, "optimize");
  EXPECT_EQ(first.Get("ts")->number, 1.0e6);   // microseconds
  EXPECT_EQ(first.Get("dur")->number, 0.5e6);
  const JsonValue& second = trace_events->array[1];
  EXPECT_EQ(second.Get("tid")->number, 3.0);
  ASSERT_NE(second.Get("args"), nullptr);
  EXPECT_EQ(second.Get("args")->Get("parent")->number, 0.0);
}

// --- JSONL sink (the journal's writer + the log mirror) ---------------------

TEST(JsonlWriterTest, AppendsWholeLinesAndSurvivesReopen) {
  const std::string path = ::testing::TempDir() + "/jsonl_writer_test.jsonl";
  std::remove(path.c_str());
  {
    JsonlWriter writer;
    ASSERT_TRUE(writer.Open(path));
    EXPECT_TRUE(writer.Append("{\"a\": 1}"));
  }
  {
    JsonlWriter writer;  // "ab": a reopen appends, never truncates
    ASSERT_TRUE(writer.Open(path));
    EXPECT_TRUE(writer.Append("{\"a\": 2}"));
  }
  StatusOr<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  EXPECT_EQ(*content, "{\"a\": 1}\n{\"a\": 2}\n");
  std::remove(path.c_str());
}

TEST(JsonlWriterTest, AppendWithoutOpenFails) {
  JsonlWriter writer;
  EXPECT_FALSE(writer.is_open());
  EXPECT_FALSE(writer.Append("{}"));
}

TEST(LogJsonlSinkTest, MirrorsRecordsThatPassTheSeverityFilter) {
  const std::string path = ::testing::TempDir() + "/log_sink_test.jsonl";
  std::remove(path.c_str());
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  SetLogJsonlPath(path);
  RASA_LOG(Warning) << "telemetry sink probe";
  RASA_LOG(Debug) << "filtered out";  // below the threshold: not mirrored
  SetLogJsonlPath("");                // detach before reading
  SetLogLevel(saved);

  StatusOr<std::string> content = ReadFileToString(path);
  ASSERT_TRUE(content.ok()) << content.status().ToString();
  StatusOr<JsonValue> record =
      ParseJson(content->substr(0, content->find('\n')));
  ASSERT_TRUE(record.ok()) << record.status().ToString();
  EXPECT_EQ(record->Get("severity")->string, "warning");
  EXPECT_EQ(record->Get("message")->string, "telemetry sink probe");
  EXPECT_NE(record->Get("subsystem"), nullptr);
  EXPECT_GT(record->Get("ts")->number, 0.0);
  EXPECT_EQ(content->find("filtered out"), std::string::npos);
  std::remove(path.c_str());
}

// --- Strict JSON reader ----------------------------------------------------

TEST(ParseJsonTest, ParsesScalarsArraysAndObjects) {
  StatusOr<JsonValue> v = ParseJson(
      " {\"a\": [1, -2.5, 1e3], \"b\": {\"c\": true, \"d\": null}, "
      "\"e\": \"text\"} ");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  const JsonValue* a = v->Get("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[0].number, 1.0);
  EXPECT_EQ(a->array[1].number, -2.5);
  EXPECT_EQ(a->array[2].number, 1000.0);
  EXPECT_TRUE(v->Get("b")->Get("c")->boolean);
  EXPECT_EQ(v->Get("b")->Get("d")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(v->Get("e")->string, "text");
  EXPECT_EQ(v->Get("missing"), nullptr);
}

TEST(ParseJsonTest, DecodesEscapesIncludingUnicode) {
  StatusOr<JsonValue> v =
      ParseJson("\"a\\n\\t\\\"\\\\\\u0041\\u00e9\"");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->string, "a\n\t\"\\A\xc3\xa9");  // \u00e9 -> UTF-8 é
}

TEST(ParseJsonTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",                    // empty
      "{",                   // unterminated object
      "[1, 2",               // unterminated array
      "{\"a\" 1}",           // missing colon
      "{\"a\": 1,}",         // trailing comma
      "[1] trailing",        // trailing non-whitespace
      "\"unterminated",      // unterminated string
      "\"bad \\x escape\"",  // unknown escape
      "01",                  // leading zero
      "1.",                  // bare decimal point
      "+1",                  // leading plus
      "nul",                 // truncated keyword
      "NaN",                 // not a JSON number
  };
  for (const char* text : bad) {
    StatusOr<JsonValue> v = ParseJson(text);
    EXPECT_FALSE(v.ok()) << "accepted: " << text;
    if (!v.ok()) {
      // Every rejection carries a byte offset for debuggability.
      EXPECT_NE(v.status().ToString().find("byte"), std::string::npos)
          << v.status().ToString();
    }
  }
}

TEST(ParseJsonTest, RejectsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  StatusOr<JsonValue> v = ParseJson(deep);
  EXPECT_FALSE(v.ok());  // hostile input must not smash the stack
}

TEST(ParseJsonTest, ObjectKeepsInsertionOrderAndGetReturnsFirst) {
  StatusOr<JsonValue> v = ParseJson("{\"k\": 1, \"z\": 2, \"k\": 3}");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_EQ(v->object.size(), 3u);
  EXPECT_EQ(v->object[0].first, "k");
  EXPECT_EQ(v->object[1].first, "z");
  EXPECT_EQ(v->Get("k")->number, 1.0);
}

}  // namespace
}  // namespace rasa
