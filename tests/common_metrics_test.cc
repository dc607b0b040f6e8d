// Unit suite for the observability layer (src/common/metrics): counters,
// gauges, log-scale histograms, concurrent writes under a parallel
// burst, the registry, the tracer's span hierarchy, and the JSON export.
//
// The registry and tracer are process-wide singletons shared by every test
// in this binary, so each test uses its own metric names and restores the
// global enabled flags it flips.

#include <atomic>
#include <cmath>
#include <string>
#include <vector>

#include "common/json_writer.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"

namespace rasa {
namespace {

TEST(CounterTest, IncrementsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(1.5);
  gauge.Set(-2.5);
  EXPECT_EQ(gauge.Value(), -2.5);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0.0);
}

TEST(MetricsEnabledTest, DisabledMutationsAreNoOps) {
  Counter counter;
  Gauge gauge;
  Histogram histogram;
  SetMetricsEnabled(false);
  counter.Increment(7);
  gauge.Set(3.0);
  histogram.Observe(1.0);
  SetMetricsEnabled(true);
  EXPECT_EQ(counter.Value(), 0u);
  EXPECT_EQ(gauge.Value(), 0.0);
  EXPECT_EQ(histogram.Scrape().count, 0u);
}

TEST(HistogramTest, BucketMath) {
  // Underflow bucket: everything below kMinBound, plus NaN.
  EXPECT_EQ(Histogram::BucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-1.0), 0);
  EXPECT_EQ(Histogram::BucketIndex(0.5 * Histogram::kMinBound), 0);
  EXPECT_EQ(Histogram::BucketIndex(std::nan("")), 0);
  // First octave starts exactly at kMinBound.
  EXPECT_EQ(Histogram::BucketIndex(Histogram::kMinBound), 1);
  EXPECT_EQ(Histogram::BucketIndex(1.5 * Histogram::kMinBound), 1);
  EXPECT_EQ(Histogram::BucketIndex(2.0 * Histogram::kMinBound), 2);
  // Overflow bucket.
  EXPECT_EQ(Histogram::BucketIndex(Histogram::kMinBound *
                                   std::exp2(Histogram::kLogBuckets)),
            Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex(1e300), Histogram::kNumBuckets - 1);

  // Bounds are monotone and bracket each bucket's members.
  for (int b = 1; b < Histogram::kNumBuckets - 1; ++b) {
    EXPECT_LT(Histogram::BucketUpperBound(b - 1),
              Histogram::BucketUpperBound(b));
    const double inside = 1.5 * Histogram::BucketUpperBound(b - 1);
    EXPECT_EQ(Histogram::BucketIndex(inside), b) << "bucket " << b;
  }
  EXPECT_TRUE(
      std::isinf(Histogram::BucketUpperBound(Histogram::kNumBuckets - 1)));
}

TEST(HistogramTest, ObserveAggregatesCountSumMinMax) {
  Histogram histogram;
  for (double v : {1.0, 2.0, 3.0}) histogram.Observe(v);
  const Histogram::Snapshot snap = histogram.Scrape();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 6.0);
  EXPECT_EQ(snap.min, 1.0);
  EXPECT_EQ(snap.max, 3.0);
  uint64_t bucket_total = 0;
  for (uint64_t n : snap.buckets) bucket_total += n;
  EXPECT_EQ(bucket_total, snap.count);

  histogram.Reset();
  EXPECT_EQ(histogram.Scrape().count, 0u);
}

TEST(HistogramQuantileTest, EmptyIsNaNAndEndpointsAreExact) {
  Histogram histogram;
  EXPECT_TRUE(std::isnan(histogram.Scrape().Quantile(0.5)));

  for (double v : {1.0, 2.0, 3.0, 40.0}) histogram.Observe(v);
  const Histogram::Snapshot snap = histogram.Scrape();
  // p0 == min and p100 == max exactly (clamped, not interpolated), and
  // out-of-range q degrades to the endpoints.
  EXPECT_EQ(snap.Quantile(0.0), 1.0);
  EXPECT_EQ(snap.Quantile(1.0), 40.0);
  EXPECT_EQ(snap.Quantile(-0.5), 1.0);
  EXPECT_EQ(snap.Quantile(2.0), 40.0);
}

TEST(HistogramQuantileTest, SingleValueEveryQuantileIsThatValue) {
  Histogram histogram;
  histogram.Observe(5.0);
  const Histogram::Snapshot snap = histogram.Scrape();
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(snap.Quantile(q), 5.0) << "q=" << q;
  }
}

TEST(HistogramQuantileTest, BimodalDistributionSplitsAtTheRank) {
  // 50 observations at 1.0 and 50 at 1000.0: quantiles below the median
  // clamp onto the low mode; above it they land in the high mode's bucket
  // (within the log bucket's <= 2x relative error).
  Histogram histogram;
  for (int i = 0; i < 50; ++i) histogram.Observe(1.0);
  for (int i = 0; i < 50; ++i) histogram.Observe(1000.0);
  const Histogram::Snapshot snap = histogram.Scrape();
  EXPECT_EQ(snap.Quantile(0.25), 1.0);
  const double p75 = snap.Quantile(0.75);
  EXPECT_GE(p75, 500.0);
  EXPECT_LE(p75, 1000.0);
}

TEST(HistogramQuantileTest, MonotoneAndWithinLogBucketError) {
  Histogram histogram;
  for (int v = 1; v <= 100; ++v) histogram.Observe(static_cast<double>(v));
  const Histogram::Snapshot snap = histogram.Scrape();
  double previous = snap.Quantile(0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double value = snap.Quantile(q);
    EXPECT_GE(value, previous) << "q=" << q;
    EXPECT_GE(value, snap.min);
    EXPECT_LE(value, snap.max);
    previous = value;
  }
  // Interior quantiles carry at most the bucket's 2x relative error.
  const double p50 = snap.Quantile(0.5);
  EXPECT_GE(p50, 25.0);
  EXPECT_LE(p50, 101.0);
  const double p99 = snap.Quantile(0.99);
  EXPECT_GE(p99, 50.0);
  EXPECT_LE(p99, 100.0);  // clamped to the observed max
}

// Concurrent writes lose nothing: after a parallel burst from a pool, the
// scrape-side totals equal the number of observations and the bucket
// counts sum to the aggregate count.
TEST(HistogramTest, ConcurrentWritesSumExactlyUnderParallelBurst) {
  constexpr int kTasks = 10'000;
  MetricRegistry& reg = MetricRegistry::Default();
  Counter& counter = reg.GetCounter("test.burst_counter");
  Histogram& histogram = reg.GetHistogram("test.burst_histogram");
  counter.Reset();
  histogram.Reset();

  ThreadPool pool(8);
  pool.ParallelFor(kTasks, [&](int i) {
    counter.Increment();
    histogram.Observe(1.0 + static_cast<double>(i % 32));
  });

  EXPECT_EQ(counter.Value(), static_cast<uint64_t>(kTasks));
  const Histogram::Snapshot snap = histogram.Scrape();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kTasks));
  uint64_t bucket_total = 0;
  for (uint64_t n : snap.buckets) bucket_total += n;
  EXPECT_EQ(bucket_total, snap.count);
  EXPECT_EQ(snap.min, 1.0);
  EXPECT_EQ(snap.max, 32.0);
}

TEST(MetricRegistryTest, ReturnsStableReferences) {
  MetricRegistry& reg = MetricRegistry::Default();
  Counter& a = reg.GetCounter("test.stable");
  Counter& b = reg.GetCounter("test.stable");
  EXPECT_EQ(&a, &b);
  a.Reset();
  a.Increment(3);
  EXPECT_EQ(b.Value(), 3u);
}

TEST(MetricRegistryTest, ScrapeIsSortedAndJsonSerializable) {
  MetricRegistry& reg = MetricRegistry::Default();
  reg.GetCounter("test.scrape_b").Reset();
  reg.GetCounter("test.scrape_a").Reset();
  reg.GetCounter("test.scrape_a").Increment(5);
  reg.GetGauge("test.scrape_gauge").Set(0.25);
  reg.GetHistogram("test.scrape_histogram").Reset();
  reg.GetHistogram("test.scrape_histogram").Observe(2.0);

  const MetricsSnapshot snap = reg.Scrape();
  for (size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].first, snap.counters[i].first);
  }
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"test.scrape_a\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"test.scrape_gauge\": 0.25"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"test.scrape_histogram\""), std::string::npos);
  // Two scrapes of identical state serialize identically.
  EXPECT_EQ(json, reg.Scrape().ToJson());
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer& tracer = Tracer::Default();
  tracer.Reset();
  ASSERT_FALSE(tracer.enabled());
  {
    TraceSpan span("ignored");
    EXPECT_EQ(span.id(), -1);
  }
  EXPECT_TRUE(tracer.Events().empty());
}

TEST(TracerTest, NestedSpansParentImplicitly) {
  Tracer& tracer = Tracer::Default();
  tracer.Reset();
  tracer.Enable(true);
  {
    TraceSpan outer("outer");
    { TraceSpan inner("inner"); }
    { TraceSpan sibling("sibling"); }
  }
  tracer.Enable(false);

  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);
  // id == index; "outer" began first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].parent, -1);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].parent, events[0].id);
  EXPECT_EQ(events[2].name, "sibling");
  EXPECT_EQ(events[2].parent, events[0].id);
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.duration_seconds, 0.0) << e.name;
  }

  const std::string tree = tracer.SummaryTree();
  EXPECT_NE(tree.find("outer"), std::string::npos);
  EXPECT_NE(tree.find("  inner"), std::string::npos);
  tracer.Reset();
}

// Cross-thread fan-out: children created on pool workers parent to the id
// captured before the fan-out, not to the workers' (empty) span stacks.
TEST(TracerTest, ExplicitParentSpansCrossThreads) {
  Tracer& tracer = Tracer::Default();
  tracer.Reset();
  tracer.Enable(true);
  int64_t parent_id = -1;
  {
    TraceSpan parent("fanout");
    parent_id = parent.id();
    ThreadPool pool(4);
    pool.ParallelFor(16, [&](int i) {
      TraceSpan child("task_" + std::to_string(i), parent_id);
    });
  }
  tracer.Enable(false);

  const std::vector<TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 17u);
  int children = 0;
  for (const TraceEvent& e : events) {
    if (e.id == parent_id) continue;
    EXPECT_EQ(e.parent, parent_id) << e.name;
    ++children;
  }
  EXPECT_EQ(children, 16);
  tracer.Reset();
}

TEST(TracerTest, JsonExportSkipsOpenSpans) {
  Tracer& tracer = Tracer::Default();
  tracer.Reset();
  tracer.Enable(true);
  const int64_t open = tracer.Begin("still_open");
  { TraceSpan done("done"); }
  JsonWriter w;
  tracer.AppendJson(w);
  const std::string json = w.str();
  EXPECT_NE(json.find("\"done\""), std::string::npos) << json;
  EXPECT_EQ(json.find("still_open"), std::string::npos) << json;
  tracer.End(open);
  tracer.Enable(false);
  tracer.Reset();
}

// --- MetricsSnapshot::Diff -------------------------------------------------

TEST(SnapshotDiffTest, CountersSubtractAndHandleResets) {
  MetricsSnapshot prev;
  prev.counters = {{"a", 10}, {"gone", 5}, {"reset", 100}};
  MetricsSnapshot cur;
  cur.counters = {{"a", 17}, {"fresh", 3}, {"reset", 2}};
  const MetricsSnapshot delta = cur.Diff(prev);
  ASSERT_EQ(delta.counters.size(), 3u);
  EXPECT_EQ(delta.counters[0], (std::pair<std::string, uint64_t>("a", 7)));
  // Absent from prev: the whole current value is the delta.
  EXPECT_EQ(delta.counters[1],
            (std::pair<std::string, uint64_t>("fresh", 3)));
  // Shrank (registry Reset between scrapes): report the current value
  // rather than an underflowed subtraction.
  EXPECT_EQ(delta.counters[2],
            (std::pair<std::string, uint64_t>("reset", 2)));
  // Absent from cur ("gone") is dropped, not resurrected.
}

TEST(SnapshotDiffTest, GaugesKeepTheCurrentValue) {
  MetricsSnapshot prev;
  prev.gauges = {{"g", 10.0}};
  MetricsSnapshot cur;
  cur.gauges = {{"g", 2.5}};
  const MetricsSnapshot delta = cur.Diff(prev);
  ASSERT_EQ(delta.gauges.size(), 1u);
  // An instantaneous last-write-wins reading has no meaningful delta: the
  // per-window value IS the current value.
  EXPECT_EQ(delta.gauges[0].second, 2.5);
}

TEST(SnapshotDiffTest, HistogramsSubtractBucketwise) {
  Histogram histogram;
  histogram.Observe(1.0);
  histogram.Observe(1.0);
  MetricsSnapshot prev;
  prev.histograms = {{"h", histogram.Scrape()}};
  histogram.Observe(5.0);
  MetricsSnapshot cur;
  cur.histograms = {{"h", histogram.Scrape()}};

  const MetricsSnapshot delta = cur.Diff(prev);
  ASSERT_EQ(delta.histograms.size(), 1u);
  const Histogram::Snapshot& d = delta.histograms[0].second;
  EXPECT_EQ(d.count, 1u);
  EXPECT_NEAR(d.sum, 5.0, 1e-12);
  uint64_t bucket_total = 0;
  for (uint64_t n : d.buckets) bucket_total += n;
  EXPECT_EQ(bucket_total, 1u);
  // min/max are estimated from the delta buckets' edges: the only delta
  // observation is 5.0, so both must bracket it — and the min estimate
  // must be tighter than the cumulative min of 1.0.
  EXPECT_LE(d.min, 5.0);
  EXPECT_GE(d.max, 5.0);
  EXPECT_GT(d.min, 1.0);
}

TEST(SnapshotDiffTest, EmptyWindowYieldsZeroCounts) {
  Histogram histogram;
  histogram.Observe(2.0);
  MetricsSnapshot prev;
  prev.counters = {{"c", 4}};
  prev.histograms = {{"h", histogram.Scrape()}};
  const MetricsSnapshot delta = prev.Diff(prev);
  EXPECT_EQ(delta.counters[0].second, 0u);
  EXPECT_EQ(delta.histograms[0].second.count, 0u);
  EXPECT_EQ(delta.histograms[0].second.sum, 0.0);
}

}  // namespace
}  // namespace rasa
