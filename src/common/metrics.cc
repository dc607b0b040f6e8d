#include "common/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/json_writer.h"
#include "common/strings.h"

namespace rasa {
namespace {

std::atomic<bool> g_metrics_enabled{true};

// Relaxed CAS add for atomic<double>: no reader orders other memory on a
// metric value, so relaxed ordering is sufficient and TSan-clean.
void AtomicAdd(std::atomic<double>& slot, double delta) {
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& slot, double v) {
  double cur = slot.load(std::memory_order_relaxed);
  while (v < cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& slot, double v) {
  double cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AppendHistogramJson(JsonWriter& w, const Histogram::Snapshot& h) {
  w.BeginObject();
  w.Key("count").Value(static_cast<unsigned long long>(h.count));
  w.Key("sum").Value(h.sum);
  if (h.count > 0) {
    w.Key("min").Value(h.min);
    w.Key("max").Value(h.max);
    w.Key("mean").Value(h.sum / static_cast<double>(h.count));
  }
  // Sparse bucket list: only non-empty buckets, as {"le": bound, "n": c}.
  w.Key("buckets").BeginArray();
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    if (h.buckets[b] == 0) continue;
    w.BeginObject();
    w.Key("le").Value(Histogram::BucketUpperBound(b));
    w.Key("n").Value(static_cast<unsigned long long>(h.buckets[b]));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

// Per-thread stack of open span ids (for implicit parenting).
thread_local std::vector<int64_t> tls_span_stack;

// Small stable per-thread id for TraceEvent::tid, in thread creation order,
// so distinct threads never alias in the trace view.
int CurrentTraceTid() {
  static std::atomic<int> next{0};
  thread_local const int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

int Histogram::BucketIndex(double value) {
  if (!(value >= kMinBound)) return 0;  // underflow; also catches NaN
  const int octave = static_cast<int>(std::floor(std::log2(value / kMinBound)));
  if (octave >= kLogBuckets) return kNumBuckets - 1;  // overflow
  return 1 + std::max(0, octave);
}

double Histogram::BucketUpperBound(int bucket) {
  if (bucket <= 0) return kMinBound;
  if (bucket >= kNumBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return kMinBound * std::exp2(static_cast<double>(bucket));
}

void Histogram::Observe(double value) {
  if (!MetricsEnabled()) return;
  counts_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(sum_, value);
  AtomicMin(min_, value);
  AtomicMax(max_, value);
}

double Histogram::Snapshot::Quantile(double q) const {
  if (count == 0) return std::numeric_limits<double>::quiet_NaN();
  if (q <= 0.0) return min;
  if (q >= 1.0) return max;
  const double target = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const uint64_t next = cumulative + buckets[b];
    if (static_cast<double>(next) >= target) {
      // Bucket edges: the underflow bucket starts at 0, the overflow
      // bucket has no finite upper edge — the observed max stands in.
      double lo = b == 0 ? 0.0 : Histogram::BucketUpperBound(b - 1);
      double hi = Histogram::BucketUpperBound(b);
      if (!std::isfinite(hi)) hi = max;
      const double fraction =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(buckets[b]);
      const double value = lo + fraction * (hi - lo);
      return std::min(std::max(value, min), max);
    }
    cumulative = next;
  }
  return max;
}

Histogram::Snapshot Histogram::Scrape() const {
  Snapshot out;
  for (int b = 0; b < kNumBuckets; ++b) {
    out.buckets[b] = counts_[b].load(std::memory_order_relaxed);
    out.count += out.buckets[b];
  }
  out.sum = sum_.load(std::memory_order_relaxed);
  out.min = min_.load(std::memory_order_relaxed);
  out.max = max_.load(std::memory_order_relaxed);
  return out;
}

void Histogram::Reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

void MetricsSnapshot::AppendJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("counters").BeginObject();
  for (const auto& [name, value] : counters) {
    w.Key(name).Value(static_cast<unsigned long long>(value));
  }
  w.EndObject();
  w.Key("gauges").BeginObject();
  for (const auto& [name, value] : gauges) w.Key(name).Value(value);
  w.EndObject();
  w.Key("histograms").BeginObject();
  for (const auto& [name, value] : histograms) {
    w.Key(name);
    AppendHistogramJson(w, value);
  }
  w.EndObject();
  w.EndObject();
}

std::string MetricsSnapshot::ToJson() const {
  JsonWriter w;
  AppendJson(w);
  return w.str();
}

namespace {

Histogram::Snapshot DiffHistogram(const Histogram::Snapshot& cur,
                                  const Histogram::Snapshot& prev) {
  Histogram::Snapshot out;
  out.count = cur.count >= prev.count ? cur.count - prev.count : cur.count;
  out.sum = cur.count >= prev.count ? cur.sum - prev.sum : cur.sum;
  // min/max of just the window are not recoverable from cumulative
  // extremes; estimate them from the delta buckets' edges, clamped to the
  // cumulative bounds (see the header comment on Diff).
  int first = -1;
  int last = -1;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    const uint64_t c = cur.buckets[b];
    const uint64_t p = prev.buckets[b];
    out.buckets[b] = c >= p ? c - p : c;
    if (out.buckets[b] > 0) {
      if (first < 0) first = b;
      last = b;
    }
  }
  if (out.count > 0) {
    const double lo = first <= 0 ? 0.0 : Histogram::BucketUpperBound(first - 1);
    double hi = Histogram::BucketUpperBound(last);
    if (!std::isfinite(hi)) hi = cur.max;
    out.min = std::max(lo, cur.min);
    out.max = std::min(hi, cur.max);
  }
  return out;
}

// Merges two sorted-by-name vectors: pairs present in both diff via
// `combine`, pairs only in `cur` pass through, pairs only in `prev` drop.
template <typename T, typename Combine>
std::vector<std::pair<std::string, T>> DiffSorted(
    const std::vector<std::pair<std::string, T>>& cur,
    const std::vector<std::pair<std::string, T>>& prev, Combine combine) {
  std::vector<std::pair<std::string, T>> out;
  out.reserve(cur.size());
  size_t j = 0;
  for (const auto& [name, value] : cur) {
    while (j < prev.size() && prev[j].first < name) ++j;
    if (j < prev.size() && prev[j].first == name) {
      out.emplace_back(name, combine(value, prev[j].second));
    } else {
      out.emplace_back(name, value);
    }
  }
  return out;
}

}  // namespace

MetricsSnapshot MetricsSnapshot::Diff(const MetricsSnapshot& prev) const {
  MetricsSnapshot out;
  out.counters = DiffSorted(counters, prev.counters,
                            [](uint64_t cur, uint64_t old) {
                              return cur >= old ? cur - old : cur;
                            });
  out.gauges = DiffSorted(gauges, prev.gauges,
                          [](double cur, double) { return cur; });
  out.histograms = DiffSorted(histograms, prev.histograms, DiffHistogram);
  return out;
}

MetricRegistry& MetricRegistry::Default() {
  static MetricRegistry* registry = new MetricRegistry();  // leaked
  return *registry;
}

Counter& MetricRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricRegistry::Scrape() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.emplace_back(name, counter->Value());
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.emplace_back(name, gauge->Value());
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    out.histograms.emplace_back(name, histogram->Scrape());
  }
  return out;
}

void MetricRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

Tracer& Tracer::Default() {
  static Tracer* tracer = new Tracer();  // leaked
  return *tracer;
}

int64_t Tracer::Begin(const std::string& name, int64_t parent) {
  if (!enabled()) return -1;
  const double now = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - epoch_)
                         .count();
  std::vector<int64_t>& stack = tls_span_stack;
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int64_t>(events_.size());
    TraceEvent event;
    event.id = id;
    event.parent = parent >= 0 ? parent : (stack.empty() ? -1 : stack.back());
    event.tid = CurrentTraceTid();
    event.name = name;
    event.start_seconds = now;
    event.duration_seconds = -1.0;  // open
    events_.push_back(std::move(event));
  }
  stack.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const double now = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - epoch_)
                         .count();
  std::vector<int64_t>& stack = tls_span_stack;
  // Stack discipline: spans end on their own thread in LIFO order; a
  // Reset() between Begin and End leaves the stack holding stale ids,
  // which the erase below tolerates.
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (*it == id) {
      stack.erase(std::next(it).base());
      break;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (id < static_cast<int64_t>(events_.size())) {
    TraceEvent& event = events_[id];
    event.duration_seconds = now - event.start_seconds;
  }
}

std::vector<TraceEvent> Tracer::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  epoch_ = std::chrono::steady_clock::now();
}

void Tracer::AppendJson(JsonWriter& w) const {
  const std::vector<TraceEvent> events = Events();
  w.BeginArray();
  for (const TraceEvent& e : events) {
    if (e.duration_seconds < 0.0) continue;  // still open
    w.BeginObject();
    w.Key("id").Value(static_cast<long>(e.id));
    w.Key("parent").Value(static_cast<long>(e.parent));
    w.Key("name").Value(e.name);
    w.Key("start_s").Value(e.start_seconds);
    w.Key("duration_s").Value(e.duration_seconds);
    w.EndObject();
  }
  w.EndArray();
}

std::string Tracer::SummaryTree() const {
  const std::vector<TraceEvent> events = Events();
  std::vector<std::vector<int64_t>> children(events.size());
  std::vector<int64_t> roots;
  for (const TraceEvent& e : events) {
    if (e.duration_seconds < 0.0) continue;
    if (e.parent >= 0 && e.parent < static_cast<int64_t>(events.size())) {
      children[e.parent].push_back(e.id);
    } else {
      roots.push_back(e.id);
    }
  }
  // Children render in start order so the tree reads as a timeline.
  auto by_start = [&](int64_t a, int64_t b) {
    return events[a].start_seconds < events[b].start_seconds;
  };
  for (auto& c : children) std::sort(c.begin(), c.end(), by_start);
  std::sort(roots.begin(), roots.end(), by_start);

  constexpr int kMaxChildrenShown = 16;
  std::string out;
  auto render = [&](auto&& self, int64_t id, int depth) -> void {
    const TraceEvent& e = events[id];
    out += StrFormat("%*s%s  %.3f ms\n", 2 * depth, "", e.name.c_str(),
                     1e3 * e.duration_seconds);
    const auto& kids = children[id];
    const int shown =
        std::min<int>(kMaxChildrenShown, static_cast<int>(kids.size()));
    for (int i = 0; i < shown; ++i) self(self, kids[i], depth + 1);
    if (static_cast<int>(kids.size()) > shown) {
      double rest = 0.0;
      for (size_t i = shown; i < kids.size(); ++i) {
        rest += events[kids[i]].duration_seconds;
      }
      out += StrFormat("%*s... %d more spans, %.3f ms\n", 2 * (depth + 1), "",
                       static_cast<int>(kids.size()) - shown, 1e3 * rest);
    }
  };
  for (int64_t root : roots) render(render, root, 0);
  return out;
}

}  // namespace rasa
