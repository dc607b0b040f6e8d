#include "core/algorithm_pool.h"

#include "core/cg.h"
#include "core/mip_algorithm.h"

namespace rasa {

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
