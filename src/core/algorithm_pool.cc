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

const char* AttemptOutcomeToString(AttemptOutcome outcome) {
  switch (outcome) {
    case AttemptOutcome::kNotRun:
      return "not_run";
    case AttemptOutcome::kOk:
      return "ok";
    case AttemptOutcome::kFailed:
      return "failed";
    case AttemptOutcome::kExpired:
      return "expired";
    case AttemptOutcome::kPruned:
      return "pruned";
  }
  return "unknown";
}

StatusOr<SubproblemSolution> RunPoolAlgorithm(
    PoolAlgorithm algorithm, const Cluster& cluster,
    const Subproblem& subproblem, const Placement& base,
    const Placement& original, const Deadline& deadline,
    SolveAttempt* attempt, const Placement* mip_incumbent) {
  PoolMetrics& metrics = MetricsFor(algorithm);
  metrics.picks.Increment();
  Stopwatch timer;
  StatusOr<SubproblemSolution> result =
      InvalidArgumentError("unknown pool algorithm");
  SolveAttempt run;
  run.algorithm = algorithm;
  switch (algorithm) {
    case PoolAlgorithm::kCg: {
      CgOptions options;
      options.deadline = deadline;
      result = SolveSubproblemCg(cluster, subproblem, base, original, options,
                                 &run.cg);
      run.has_cg = true;
      const CgStats& cg_stats = run.cg;
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
      break;
    }
    case PoolAlgorithm::kMip: {
      MipAlgorithmOptions options;
      options.deadline = deadline;
      options.incumbent_hint = mip_incumbent;
      result = SolveSubproblemMip(cluster, subproblem, base, options, &run.mip);
      run.has_mip = true;
      break;
    }
  }
  run.seconds = timer.ElapsedSeconds();
  run.outcome = result.ok() ? AttemptOutcome::kOk : AttemptOutcome::kFailed;
  metrics.seconds.Observe(run.seconds);
  if (!result.ok()) metrics.failures.Increment();
  if (attempt != nullptr) *attempt = run;
  return result;
}

bool PoolAlgorithmFails(PoolAlgorithm algorithm, const Cluster& cluster,
                        const Subproblem& subproblem) {
  return algorithm == PoolAlgorithm::kMip &&
         SubproblemMipRows(cluster, subproblem) >
             MipAlgorithmOptions().max_model_rows;
}

}  // namespace rasa
