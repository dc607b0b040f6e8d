#ifndef RASA_TESTS_RASA_TEST_UTIL_H_
#define RASA_TESTS_RASA_TEST_UTIL_H_

// Helpers for the suites that run the whole optimizer: generated fixtures
// and one canonical, timing-free rendering of a RasaResult that the
// determinism and golden-digest suites compare bit for bit.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>

#include "cluster/generator.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "core/explain.h"
#include "core/rasa.h"

namespace rasa::testing {

/// FNV-1a of `text` as 16 hex digits: the golden suites' digest.
inline std::string Fnv1a(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

/// `spec` generated with generator seed `seed`.
inline ClusterSnapshot MakeSnapshot(ClusterSpec spec, uint64_t seed) {
  spec.seed = seed;
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
  RASA_CHECK(snapshot.ok()) << snapshot.status().ToString();
  return *std::move(snapshot);
}

/// Optimize with the heuristic selector and small subproblems (12
/// services), which keep the exact solvers' worst case well inside a
/// generous timeout: bounded, scheduling-independent work.
inline RasaResult OptimizeSmallSubproblems(const ClusterSnapshot& snapshot,
                                           RasaOptions options,
                                           int threads) {
  options.num_threads = threads;
  options.partitioning.max_subproblem_services = 12;
  const RasaOptimizer optimizer(options,
                                AlgorithmSelector(SelectorPolicy::kHeuristic));
  StatusOr<RasaResult> result =
      optimizer.Optimize(*snapshot.cluster, snapshot.original_placement);
  RASA_CHECK(result.ok()) << result.status().ToString();
  return *std::move(result);
}

/// Everything a run decides, as JSON with doubles at %.17g and without
/// wall-clock timings: the placement triples, every RasaResult counter,
/// each SubproblemReport without `seconds`, and the explain report without
/// timings (every ledger record and certificate term).
inline void AppendCanonicalResult(JsonWriter& w, const RasaResult& r) {
  w.BeginObject();
  w.Key("placement").BeginArray();
  const Placement& p = r.new_placement;
  for (int m = 0; m < p.cluster()->num_machines(); ++m) {
    for (const auto& [s, count] : p.ServicesOn(m)) {
      w.BeginArray().Value(m).Value(s).Value(count).EndArray();
    }
  }
  w.EndArray();
  const PartitionStats& ps = r.partition_stats;
  const std::pair<const char*, double> counters[] = {
      {"should_execute", r.should_execute},
      {"original", r.original_gained_affinity},
      {"gained", r.new_gained_affinity},
      {"lost", r.lost_containers},
      {"moved", r.moved_containers},
      {"solver_failures", r.solver_failures},
      {"secondary_successes", r.secondary_successes},
      {"greedy_fallbacks", r.greedy_fallbacks},
      {"breaker_skips", r.breaker_skips},
      {"pop_splits", r.pop_splits},
      {"pop_quality_loss", r.pop_quality_loss},
      {"incremental", r.incremental},
      {"dirty", r.dirty_subproblems},
      {"reused", r.reused_subproblems},
      {"batches", static_cast<double>(r.migration.batches.size())},
      {"deletes", r.migration.total_deletes},
      {"creates", r.migration.total_creates},
      {"stranded", r.migration.stranded_deletes},
      {"trivial", ps.num_trivial_services},
      {"crucial", ps.num_crucial_services},
      {"subproblems", ps.num_subproblems},
      {"master_ratio", ps.master_ratio},
      {"master_affinity", ps.master_affinity},
      {"crucial_internal", ps.crucial_internal_affinity},
  };
  for (const auto& [key, value] : counters) w.Key(key).Value(value);
  w.Key("reason").Value(r.incremental_reason);
  w.Key("reports").BeginArray();
  for (const SubproblemReport& s : r.subproblems) {
    w.BeginArray().Value(s.num_services).Value(s.num_machines);
    w.Value(s.internal_affinity).Value(static_cast<int>(s.algorithm));
    w.Value(s.gained_affinity).Value(s.unplaced_containers).Value(s.failed);
    w.Value(s.used_secondary).Value(s.used_pop).Value(s.pop_replicas);
    w.Value(s.pop_cut_affinity).Value(s.pop_quality_loss).EndArray();
  }
  w.EndArray();
  w.Key("explain");
  AppendExplainJson(w, r.report, /*include_timings=*/false);
  w.EndObject();
}

inline std::string CanonicalResultJson(const RasaResult& r) {
  JsonWriter w;
  AppendCanonicalResult(w, r);
  return w.str();
}

}  // namespace rasa::testing

#endif  // RASA_TESTS_RASA_TEST_UTIL_H_
