#ifndef RASA_CORE_POP_H_
#define RASA_CORE_POP_H_

#include <cstdint>

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "common/statusor.h"
#include "common/timer.h"
#include "core/algorithm_pool.h"
#include "core/subproblem.h"

namespace rasa {

/// POP-style replica splitting for oversized subproblems (after Narayanan
/// et al., "Solving Large-Scale Granular Resource Allocation Problems
/// Efficiently with POP"). When the partitioner hands the pool a
/// subproblem too large for the exact solvers to finish inside its planned
/// budget, the subproblem is split into k random replicas — services dealt
/// round-robin after a seeded shuffle, machines likewise — each replica is
/// solved with the same pool algorithm on an even share of the budget, and
/// the per-replica assignments are unioned. Edges crossing replicas are
/// invisible to the replica solvers, so the union is a heuristic: its loss
/// is surfaced against the optimality-gap certificate, whose term stays at
/// the trivial bound (source "pop", never tightened).
struct PopOptions {
  /// Subproblems with strictly more services than this are split before
  /// solving. 0 disables POP entirely (the default: the paper-scale tier-1
  /// fixtures never trigger it, so their placements are unchanged).
  int max_services = 0;
  /// Number of replicas of the split (clamped to at least 2 and at most
  /// the subproblem's service/machine counts).
  int num_replicas = 2;
};

/// What one POP split did, surfaced per subproblem in SubproblemReport.
struct PopStats {
  /// Replicas the subproblem was actually split into (0 = POP not used).
  int replicas = 0;
  /// Total weight of affinity edges crossing replica boundaries: the
  /// affinity the replica solvers could not see. An a-priori upper bound
  /// on the quality this split gives up versus an exact solve.
  double cut_affinity = 0.0;
};

/// True when `options` asks for a POP split of `subproblem`.
bool ShouldUsePop(const PopOptions& options, const Subproblem& subproblem);

/// RunPoolAlgorithm with POP as its strategy for oversized subproblems:
/// exactly RunPoolAlgorithm unless ShouldUsePop(options, subproblem), else
/// `subproblem` is solved via a POP replica split (`pop_stats` says how).
/// The split is a function of `seed` alone. Replicas run sequentially in
/// the caller's thread (the caller already occupies a worker slot; nesting
/// into the pool could deadlock), each under `deadline` on a budget of
/// `budget_seconds / k`. On a split, `attempt` receives the outcome, the
/// total timing and the summed solver work of the replicas that ran (a
/// failing replica ends the split) — never a CG/MIP bound or objective,
/// because replica-local bounds do not bound the full subproblem, keeping
/// the certificate sound by construction. A split whose replicas ran
/// branch-and-bound reads MIP status kFeasible. The returned solution's
/// gained_affinity is re-priced over the *full* subproblem's edges, so
/// cross-replica co-location luck is credited.
StatusOr<SubproblemSolution> RunPoolAlgorithmPop(
    PoolAlgorithm algorithm, const Cluster& cluster,
    const Subproblem& subproblem, const Placement& base,
    const Placement& original, const Deadline& deadline, double budget_seconds,
    uint64_t seed, const PopOptions& options, SolveAttempt* attempt,
    const Placement* mip_incumbent = nullptr, PopStats* pop_stats = nullptr);

/// True iff RunPoolAlgorithmPop with the same algorithm, subproblem, seed
/// and options returns an error, whatever the placements and deadline:
/// the direct solve fails (PoolAlgorithmFails), or one replica of the same
/// seeded split does.
bool PopAttemptFails(PoolAlgorithm algorithm, const Cluster& cluster,
                     const Subproblem& subproblem, uint64_t seed,
                     const PopOptions& options);

}  // namespace rasa

#endif  // RASA_CORE_POP_H_
