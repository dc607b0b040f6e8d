#include "core/algorithm_pool.h"

#include "common/metrics.h"
#include "core/cg.h"
#include "core/mip_algorithm.h"

namespace rasa {
namespace {

// Per-algorithm pick/outcome/latency metrics (observation-only; MIP
// gap/node metrics are recorded next to the solver in mip_algorithm.cc).
struct PoolMetrics {
  Counter& picks;
  Counter& failures;
  Histogram& seconds;
};

PoolMetrics& MetricsFor(PoolAlgorithm algorithm) {
  MetricRegistry& reg = MetricRegistry::Default();
  static PoolMetrics cg{reg.GetCounter("pool.cg_picks"),
                        reg.GetCounter("pool.cg_failures"),
                        reg.GetHistogram("pool.cg_seconds")};
  static PoolMetrics mip{reg.GetCounter("pool.mip_picks"),
                         reg.GetCounter("pool.mip_failures"),
                         reg.GetHistogram("pool.mip_seconds")};
  return algorithm == PoolAlgorithm::kCg ? cg : mip;
}

}  // namespace

const char* PoolAlgorithmToString(PoolAlgorithm algorithm) {
  switch (algorithm) {
    case PoolAlgorithm::kCg:
      return "CG";
    case PoolAlgorithm::kMip:
      return "MIP";
  }
  return "UNKNOWN";
}

StatusOr<SubproblemSolution> RunPoolAlgorithm(
    PoolAlgorithm algorithm, const Cluster& cluster,
    const Subproblem& subproblem, const Placement& base,
    const Placement& original, const Deadline& deadline, uint64_t seed,
    PoolAttemptStats* stats, const Placement* mip_incumbent) {
  PoolMetrics& metrics = MetricsFor(algorithm);
  metrics.picks.Increment();
  Stopwatch timer;
  StatusOr<SubproblemSolution> result =
      InvalidArgumentError("unknown pool algorithm");
  if (stats != nullptr) *stats = PoolAttemptStats{};
  switch (algorithm) {
    case PoolAlgorithm::kCg: {
      CgOptions options;
      options.deadline = deadline;
      options.seed = seed;
      CgStats cg_stats;
      result = SolveSubproblemCg(cluster, subproblem, base, original, options,
                                 &cg_stats);
      MetricRegistry& reg = MetricRegistry::Default();
      static Histogram& rounds = reg.GetHistogram("pool.cg_rounds");
      static Histogram& patterns = reg.GetHistogram("pool.cg_patterns");
      rounds.Observe(static_cast<double>(cg_stats.rounds));
      patterns.Observe(static_cast<double>(cg_stats.patterns_generated));
      // Solver-core introspection: master basis reuse across CG rounds.
      static Counter& masters = reg.GetCounter("solver.cg_master_solves");
      static Counter& warm = reg.GetCounter("solver.cg_master_warm_started");
      static Counter& refactor = reg.GetCounter("solver.refactorizations");
      static Counter& lp_pivots = reg.GetCounter("solver.lp_pivots");
      static Histogram& eta = reg.GetHistogram("solver.max_eta_length");
      masters.Increment(static_cast<uint64_t>(cg_stats.master_solves));
      warm.Increment(static_cast<uint64_t>(cg_stats.master_warm_started));
      refactor.Increment(static_cast<uint64_t>(cg_stats.refactorizations));
      lp_pivots.Increment(static_cast<uint64_t>(cg_stats.lp_iterations));
      eta.Observe(static_cast<double>(cg_stats.max_eta_length));
      if (stats != nullptr) {
        stats->has_cg = true;
        stats->cg = cg_stats;
      }
      break;
    }
    case PoolAlgorithm::kMip: {
      MipAlgorithmOptions options;
      options.deadline = deadline;
      options.seed = seed;
      options.incumbent_hint = mip_incumbent;
      result = SolveSubproblemMip(cluster, subproblem, base, options,
                                  stats != nullptr ? &stats->mip : nullptr);
      if (stats != nullptr) stats->has_mip = true;
      break;
    }
  }
  const double seconds = timer.ElapsedSeconds();
  metrics.seconds.Observe(seconds);
  if (stats != nullptr) {
    stats->algorithm = algorithm;
    stats->seconds = seconds;
  }
  if (!result.ok()) metrics.failures.Increment();
  return result;
}

bool PoolAlgorithmFails(PoolAlgorithm algorithm, const Cluster& cluster,
                        const Subproblem& subproblem) {
  return algorithm == PoolAlgorithm::kMip &&
         SubproblemMipRows(cluster, subproblem) >
             MipAlgorithmOptions().max_model_rows;
}

}  // namespace rasa
