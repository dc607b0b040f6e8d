#ifndef RASA_COMMON_METRICS_H_
#define RASA_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rasa {

class JsonWriter;

/// Observability layer (DESIGN.md "Observability").
///
/// Everything here is strictly observation-only: no algorithm reads a
/// metric back, so placements and reports are bit-identical with metrics
/// on/off and at every thread count (asserted by metrics_determinism_test).
///
/// Write paths are lock-free: each counter and histogram is one slot of
/// relaxed atomics. An Optimize call records tens of metric writes, so
/// contention is immaterial and a scrape reads each atomic once. Registry
/// lookups take a mutex — instrumented call sites cache the returned
/// pointer (function-local static or member), which stays valid forever:
/// the registry never deletes a metric, Reset() only zeroes values.

/// Process-wide metrics switch. Default on; when off every mutation method
/// is a cheap early-return (one relaxed atomic load).
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    if (!MetricsEnabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) {
    if (!MetricsEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed log-scale histogram: one underflow bucket below kMinBound, then
/// kLogBuckets power-of-two buckets [kMinBound * 2^i, kMinBound * 2^(i+1)),
/// then one overflow bucket. kMinBound = 1e-6 with 48 octaves covers
/// [1 microsecond, ~78 hours] of latencies and [1, ~2.8e8] of counts with
/// <= 2x relative error — one shape for every metric in the repo.
class Histogram {
 public:
  static constexpr double kMinBound = 1e-6;
  static constexpr int kLogBuckets = 48;
  static constexpr int kNumBuckets = kLogBuckets + 2;  // under/overflow

  void Observe(double value);

  /// Inclusive upper bound of `bucket` ("le" in the JSON export);
  /// +inf for the overflow bucket.
  static double BucketUpperBound(int bucket);
  /// Bucket a value lands in (exposed for tests).
  static int BucketIndex(double value);

  struct Snapshot {
    uint64_t count = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();
    std::array<uint64_t, kNumBuckets> buckets{};

    /// Estimated q-quantile (q in [0, 1]) from the log-scale buckets:
    /// linear interpolation inside the bucket the rank lands in, clamped
    /// to the observed [min, max] (so p0 == min and p100 == max exactly;
    /// interior quantiles carry the bucket's <= 2x relative error). NaN
    /// when the histogram is empty.
    double Quantile(double q) const;
  };
  Snapshot Scrape() const;
  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> counts_{};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Point-in-time aggregate of a whole registry; names are sorted, so two
/// scrapes of identical state serialize identically.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;

  /// Appends {"counters": {...}, "gauges": {...}, "histograms": {...}} as
  /// one JSON object value.
  void AppendJson(JsonWriter& w) const;
  std::string ToJson() const;

  /// What happened between `prev` and this scrape of the same registry.
  /// Counters subtract (a counter that shrank — registry Reset between the
  /// scrapes — reports its current value); gauges keep the current value
  /// (the delta of a last-write-wins instantaneous reading is meaningless);
  /// histograms subtract bucket-wise with count and sum, and estimate the
  /// window's min/max from the delta buckets' edges clamped to the
  /// cumulative min/max (exact only when the window's extremes fall in
  /// buckets untouched before `prev`). Metrics absent from `prev` pass
  /// through unchanged; metrics absent from `this` are dropped.
  MetricsSnapshot Diff(const MetricsSnapshot& prev) const;
};

/// Name -> metric map. Get-or-create is mutex-protected (cold path);
/// returned references are stable for the registry's lifetime.
class MetricRegistry {
 public:
  /// The process-wide registry every subsystem reports into. Leaked on
  /// purpose so worker threads may record during static destruction.
  static MetricRegistry& Default();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  MetricsSnapshot Scrape() const;
  /// Zeroes every metric's value; never removes registered metrics, so
  /// cached Counter*/Gauge*/Histogram* stay valid.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// One completed trace span. `start_seconds` is relative to the tracer's
/// epoch (construction or last Reset).
struct TraceEvent {
  int64_t id = -1;
  int64_t parent = -1;  // -1 = root
  /// Small stable id of the thread that recorded the span (creation order),
  /// the "tid" of the Chrome trace-event export.
  int tid = 0;
  std::string name;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

/// Hierarchical phase timeline. Spans nest via a per-thread current-span
/// stack; work fanned out to pool workers passes the parent span id
/// explicitly (see TraceSpan's two constructors). Recording is
/// mutex-protected — spans are coarse (phases, subproblems, migration
/// batches), never per-inner-loop.
class Tracer {
 public:
  /// Process-wide tracer, leaked like the default registry.
  static Tracer& Default();

  /// Disabled by default; when disabled Begin returns -1 and spans no-op.
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Starts a span; parent -1 roots it under the calling thread's current
  /// span (or at the top level). Returns the span id, -1 when disabled.
  int64_t Begin(const std::string& name, int64_t parent = -1);
  void End(int64_t id);

  /// Completed spans, in completion order.
  std::vector<TraceEvent> Events() const;
  void Reset();

  /// Appends the completed spans as a JSON array value.
  void AppendJson(JsonWriter& w) const;
  /// Human-readable indented tree with durations (the --trace output).
  std::string SummaryTree() const;

 private:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;  // id == index
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span handle. Construction begins the span, destruction ends it.
/// A span must begin and end on the same thread.
class TraceSpan {
 public:
  /// Child of the calling thread's current span.
  explicit TraceSpan(const std::string& name)
      : id_(Tracer::Default().Begin(name)) {}
  /// Child of an explicit parent — the cross-thread form: capture
  /// `parent_span.id()` before fanning out, pass it inside the task.
  TraceSpan(const std::string& name, int64_t parent)
      : id_(Tracer::Default().Begin(name, parent)) {}
  ~TraceSpan() { Tracer::Default().End(id_); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Span id for parenting cross-thread children; -1 when tracing is off.
  int64_t id() const { return id_; }

 private:
  int64_t id_;
};

}  // namespace rasa

#endif  // RASA_COMMON_METRICS_H_
