#include "core/algorithm_pool.h"

#include <algorithm>

#include "core/cg.h"
#include "core/mip_algorithm.h"

namespace rasa {

// Branch-and-bound work per planned budget second, in simplex iterations
// times model rows (an iteration costs more on a larger model): under half
// the slowest rate measured in the production build (DESIGN.md "Planned
// budgets, work caps"), so a capped B&B stops on its cap, not the deadline.
constexpr double kRowIterationsPerSecond = 1.2e6;

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
    const Placement& original, const Deadline& deadline, double budget_seconds,
    SolveAttempt* attempt, const Placement* mip_incumbent) {
  Stopwatch timer;
  StatusOr<SubproblemSolution> result =
      InvalidArgumentError("unknown pool algorithm");
  *attempt = SolveAttempt{};
  attempt->algorithm = algorithm;
  switch (algorithm) {
    case PoolAlgorithm::kCg: {
      CgOptions options;
      options.deadline = deadline;
      result = SolveSubproblemCg(cluster, subproblem, base, original, options,
                                 &attempt->cg);
      attempt->has_cg = true;
      break;
    }
    case PoolAlgorithm::kMip: {
      MipAlgorithmOptions options;
      options.deadline = deadline;
      options.incumbent_hint = mip_incumbent;
      // An infinite budget caps at 1e9 iterations, that is, not at all.
      options.max_lp_iterations = static_cast<int>(std::clamp(
          budget_seconds * kRowIterationsPerSecond /
              std::max(1LL, SubproblemMipRows(cluster, subproblem)),
          1.0, 1e9));
      result = SolveSubproblemMip(cluster, subproblem, base, options,
                                  &attempt->mip);
      attempt->has_mip = true;
      break;
    }
  }
  attempt->seconds = timer.ElapsedSeconds();
  attempt->outcome =
      result.ok() ? AttemptOutcome::kOk : AttemptOutcome::kFailed;
  return result;
}

bool PoolAlgorithmFails(PoolAlgorithm algorithm, const Cluster& cluster,
                        const Subproblem& subproblem) {
  return algorithm == PoolAlgorithm::kMip &&
         SubproblemMipRows(cluster, subproblem) >
             MipAlgorithmOptions().max_model_rows;
}

}  // namespace rasa
