#ifndef RASA_COMMON_TELEMETRY_H_
#define RASA_COMMON_TELEMETRY_H_

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/statusor.h"

namespace rasa {

/// Continuous-operation telemetry (DESIGN.md "Continuous telemetry").
///
/// The metrics registry (common/metrics) answers "what happened since the
/// process started"; this layer answers "what is happening cycle over
/// cycle". A control loop records one CycleSample per cycle (deltas of the
/// registry scrape plus the cycle's own report fields). The SLO burn-rate
/// and anomaly verdicts are a fold over the sample sequence, so the
/// recorded samples (`telemetry.jsonl`) are all a resume or `rasa_cli tail`
/// needs to rebuild them.
///
/// Everything here is strictly observation-only, like the metrics layer
/// beneath it: nothing reads a verdict back into an algorithm, so
/// placements and reports are bit-identical with telemetry on or off at
/// every thread count (asserted by telemetry_determinism_test).

/// Flat per-cycle sample: the one recorded telemetry fact (the workflow
/// builds it from CycleReport + the registry delta; keeping it flat here
/// keeps common/ free of sim/ types).
struct CycleSample {
  int cycle = 0;
  double seconds = 0.0;
  double affinity_before = 0.0;
  double gained_affinity = 0.0;
  double optimality_gap = 0.0;
  double migration_truncation = 0.0;
  int dirty_subproblems = 0;
  int reused_subproblems = 0;
  /// The cycle's LP pivots and refactorizations, summed over its records.
  double lp_pivots = 0.0;
  double refactorizations = 0.0;
  /// Deterministic request-latency model quantiles of the live placement
  /// (normalized units; see EstimateTrafficQuantiles in sim/workflow.h).
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  double error_rate = 0.0;
  bool executed = false;
  bool rolled_back = false;
  bool solver_failed = false;
};

// ---------------------------------------------------------------------------
// SLO objectives with multi-window burn-rate alerting
// ---------------------------------------------------------------------------

/// One stock objective: a cycle violates it unless `value < threshold`.
/// Each objective's violation history drives two burn-rate windows (the
/// SRE fast/slow pattern): burn = (violating share of the window) /
/// kSloBudgetFraction, so burn 1.0 consumes the error budget exactly at the
/// sustainable rate and burn 100 means every cycle burns.
struct SloObjective {
  const char* name;            // label, also the sample's journal key
  double CycleSample::*value;  // the sample field the objective reads
  double threshold;
};

/// The stock objectives: median request latency and modeled error rate of
/// the placement latency model, thresholds in the production model's
/// normalized units (rpc latency 1.0 / ipc 0.12, rpc error 1% / ipc
/// 0.08%). The latency objective is on the *median*: p99 is pinned at the
/// rpc latency whenever even 1% of traffic crosses machines, so it cannot
/// distinguish placements, while p50 < 0.5 holds exactly when most traffic
/// is localized. A placement that localizes the heavy pairs meets both; a
/// drifted or rolled-back cluster violates them.
constexpr std::array<SloObjective, 2> DefaultSloObjectives() {
  return {{{"latency_p50", &CycleSample::latency_p50, 0.5},
           {"error_rate", &CycleSample::error_rate, 0.0095}}};
}

/// Error budget: tolerated violating-cycle fraction over the long run.
inline constexpr double kSloBudgetFraction = 0.01;
/// Burn windows in cycles (the last 3 and 18 hours at 30 min/cycle).
inline constexpr int kSloFastWindow = 6;
inline constexpr int kSloSlowWindow = 36;
/// Alert thresholds on the burn rates (SRE handbook defaults: the fast
/// window pages on a 14.4x burn — budget gone in ~2 days at 1% — and the
/// slow window confirms a sustained 6x burn).
inline constexpr double kSloFastBurnThreshold = 14.4;
inline constexpr double kSloSlowBurnThreshold = 6.0;

/// Alert ladder: kPage requires BOTH windows to burn above their
/// thresholds (the multi-window AND that keeps one-cycle blips from
/// paging); a single hot window reports which one.
enum class SloAlertState { kOk, kFastBurn, kSlowBurn, kPage };

const char* SloAlertStateName(SloAlertState state);

/// Per-cycle evaluation result of one objective.
struct SloStatus {
  std::string name;
  /// The sample value this cycle; has_value is false when it is not finite
  /// — a missing signal never counts as a violation, it is surfaced as
  /// has_value == false instead.
  double value = std::numeric_limits<double>::quiet_NaN();
  bool has_value = false;
  bool violated = false;  // this cycle
  double fast_burn_rate = 0.0;
  double slow_burn_rate = 0.0;
  SloAlertState alert = SloAlertState::kOk;
};

// ---------------------------------------------------------------------------
// EWMA + z-score anomaly detection
// ---------------------------------------------------------------------------

/// EWMA smoothing factor for the running mean and variance.
inline constexpr double kAnomalyAlpha = 0.25;
/// |x - ewma| / std above this flags the point.
inline constexpr double kAnomalyZThreshold = 3.5;
/// Points folded in before any flagging (the baseline warm-up).
inline constexpr int kAnomalyWarmup = 5;
/// Standard-deviation floor: series that sit at an exact constant would
/// otherwise flag the first 1-ulp wiggle.
inline constexpr double kAnomalyMinStd = 1e-9;

struct AnomalyStatus {
  bool anomalous = false;
  double zscore = 0.0;
  double ewma = 0.0;  // mean *before* folding the current point in
  double ewm_std = 0.0;
};

// ---------------------------------------------------------------------------
// The verdict fold
// ---------------------------------------------------------------------------

/// What the fold derived for one cycle; attached to CycleReport so report
/// consumers see alert states without re-deriving them.
struct CycleTelemetry {
  bool populated = false;
  std::vector<SloStatus> slo;  // in DefaultSloObjectives() order
  /// Anomaly verdicts on the cycle-cost (seconds) and optimality-gap
  /// samples. Cost z-scores depend on wall-clock timings; determinism
  /// comparisons must strip them like any other timing field.
  AnomalyStatus cost;
  AnomalyStatus gap;
};

struct TelemetryOptions {
  bool enabled = false;
};

/// The verdict fold over a cycle-sample sequence. RecordCycle is one fold
/// step; the state between steps is only what the verdicts read: each
/// objective's newest kSloSlowWindow violation bits and each EWMA's mean,
/// variance and point count. Two folds over the same samples give the same
/// verdicts, which is what lets a resume or `rasa_cli tail` rebuild them
/// by replaying `telemetry.jsonl`.
class TelemetryPipeline {
 public:
  /// The options carry only the on/off switch, which the caller acts on.
  explicit TelemetryPipeline(const TelemetryOptions& options = {});

  /// Folds one cycle in and returns its verdicts. Burn rates are window
  /// means over the newest min(window, cycles folded) violation bits;
  /// anomaly z-scores use the pre-fold baseline.
  CycleTelemetry RecordCycle(const CycleSample& sample);

 private:
  // Running EWMA of one sample series. Update returns the verdict for x and
  // then folds x in (anomalous points with their deviation clamped to the
  // threshold, so one spike does not blind the detector to the next).
  struct Ewma {
    AnomalyStatus Update(double x);
    double mean = 0.0;
    double variance = 0.0;
    int points = 0;
  };

  // Bit 0 is the newest cycle; the newest `filled_` bits (<= kSloSlowWindow)
  // are meaningful.
  std::array<uint64_t, DefaultSloObjectives().size()> violations_{};
  int filled_ = 0;
  Ewma cost_;
  Ewma gap_;
};

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// OpenMetrics text exposition of a registry scrape. Metric names are
/// sanitized to [a-zA-Z0-9_:] (dots become underscores); counters get the
/// `_total` suffix and `# TYPE ... counter`, gauges `gauge`, histograms the
/// cumulative `_bucket{le="..."}` / `_sum` / `_count` triplet. Ends with
/// the mandatory `# EOF` line.
std::string OpenMetricsText(const MetricsSnapshot& snapshot);

/// Sanitized OpenMetrics metric name (exposed for the round-trip test).
std::string OpenMetricsName(const std::string& name);

/// Chrome trace-event JSON (the object form: {"traceEvents": [...]},
/// loadable by Perfetto / chrome://tracing). Each completed span becomes a
/// complete event: {"ph": "X", "ts": <µs>, "dur": <µs>, "pid": 1,
/// "tid": <recording thread>, "name": ...,
/// "args": {"id": ..., "parent": ...}}. Open spans are skipped.
std::string ChromeTraceJson(const std::vector<TraceEvent>& events);

// ---------------------------------------------------------------------------
// Strict JSON reader (for the journal decoder and the schema tests)
// ---------------------------------------------------------------------------

/// Parsed JSON value tree. Numbers are doubles (the only number form the
/// writers emit); object keys keep insertion order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// First member with `key`; nullptr when absent or not an object.
  const JsonValue* Get(const std::string& key) const;
};

/// Strict parse of exactly one JSON document: trailing non-whitespace,
/// unterminated strings, bad escapes, and malformed numbers are all
/// kInvalidArgument with a byte offset. Never crashes on hostile input.
StatusOr<JsonValue> ParseJson(const std::string& text);

// ---------------------------------------------------------------------------
// The journal: one sample per line
// ---------------------------------------------------------------------------

/// One `telemetry.jsonl` line (no trailing newline): the sample,
/// schema-versioned ("v": 2), stable key order. Non-finite doubles are
/// written as `null`; finite ones round-trip exactly (%.17g).
std::string CycleSampleJson(const CycleSample& sample);

/// Decodes one journal line. Reads "v" 1 (which also carried verdicts) and
/// 2, ignores unknown keys, and maps `null` doubles back to NaN. A missing
/// or mistyped sample key, or any other version, is kInvalidArgument.
StatusOr<CycleSample> ParseCycleSample(const JsonValue& line);

/// Decodes a whole journal. A final line without its newline (torn by a
/// crash mid-append, or still being written) is dropped; every complete
/// line must decode and carry a larger cycle than the one before it, or
/// the result is kInvalidArgument naming the line.
StatusOr<std::vector<CycleSample>> ParseTelemetryJournal(
    const std::string& text);

}  // namespace rasa

#endif  // RASA_COMMON_TELEMETRY_H_
