#ifndef RASA_CORE_ALGORITHM_POOL_H_
#define RASA_CORE_ALGORITHM_POOL_H_

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "common/statusor.h"
#include "common/timer.h"
#include "core/cg.h"
#include "core/mip_algorithm.h"
#include "core/subproblem.h"

namespace rasa {

/// The scheduling algorithm pool (§IV-C): column generation and MIP.
enum class PoolAlgorithm { kCg = 0, kMip = 1 };

const char* PoolAlgorithmToString(PoolAlgorithm algorithm);

/// How one rung of the degradation ladder ended for a subproblem.
enum class AttemptOutcome {
  kNotRun,   // the ladder never reached this rung
  kOk,       // solver returned a solution
  kFailed,   // solver ran and failed (OOT / infeasible model / error)
  kExpired,  // global budget was gone before the attempt
  kPruned,   // planned away by an open circuit breaker; never started
};

const char* AttemptOutcomeToString(AttemptOutcome outcome);

/// One rung of a subproblem's ladder: which algorithm ran, how it ended,
/// and its solver introspection (observation-only; nothing here ever
/// feeds back into the solve).
struct SolveAttempt {
  PoolAlgorithm algorithm = PoolAlgorithm::kCg;
  AttemptOutcome outcome = AttemptOutcome::kNotRun;
  double seconds = 0.0;
  /// At most one of the two is populated, matching `algorithm`, and only
  /// when the solver actually ran. On a POP split they hold the work of
  /// the replicas that ran and no bound or objective (see pop.h).
  bool has_cg = false;
  CgStats cg;
  bool has_mip = false;
  SubproblemMipStats mip;
};

/// Runs one pool algorithm on a subproblem. `base` holds the trivial
/// residents (defines residual capacities); `original` is the pre-RASA
/// placement (CG seeds patterns from it). Neither is modified. No solver
/// reads `budget_seconds` as a clock: with the model's rows it sets the MIP
/// branch's work cap; `deadline` is only a safety cap.
/// `attempt` is overwritten with the run: algorithm, kOk or kFailed,
/// wall-clock and solver introspection. It is the run's only record: the
/// registry's pool and solver series are folded from the optimizer's
/// ledger records. `mip_incumbent`, when non-null, offers an extra
/// feasible placement (the incremental path's prior incumbent) as the MIP
/// warm start — see MipAlgorithmOptions::incumbent_hint; the CG branch
/// ignores it (CG warm starts from `original`).
StatusOr<SubproblemSolution> RunPoolAlgorithm(
    PoolAlgorithm algorithm, const Cluster& cluster,
    const Subproblem& subproblem, const Placement& base,
    const Placement& original, const Deadline& deadline, double budget_seconds,
    SolveAttempt* attempt, const Placement* mip_incumbent = nullptr);


/// True iff RunPoolAlgorithm on `subproblem` returns an error, whatever
/// the placements and deadline: CG never does (it falls back to the
/// greedy), and MIP does exactly when its model is over the row cap.
bool PoolAlgorithmFails(PoolAlgorithm algorithm, const Cluster& cluster,
                        const Subproblem& subproblem);

}  // namespace rasa

#endif  // RASA_CORE_ALGORITHM_POOL_H_
