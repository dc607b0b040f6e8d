#ifndef RASA_CORE_MIP_ALGORITHM_H_
#define RASA_CORE_MIP_ALGORITHM_H_

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "common/statusor.h"
#include "common/timer.h"
#include "core/subproblem.h"
#include "lp/model.h"
#include "mip/solver.h"

namespace rasa {

/// Introspection of one subproblem MIP solve, surfaced to the solve ledger
/// (observation-only; nothing reads it back into the algorithm).
struct SubproblemMipStats {
  /// A branch-and-bound actually ran (the model fit under the row cap and
  /// was handed to SolveMip; false when the greedy warm start was returned
  /// without a solve, e.g. an empty subproblem).
  bool solved = false;
  MipStatus status = MipStatus::kError;
  /// Incumbent objective (model sense: gained affinity inside the
  /// subproblem) and the best proven upper bound on it.
  double objective = 0.0;
  double best_bound = 0.0;
  /// `best_bound` is a genuine dual bound (see MipResult::bound_proven);
  /// when false it merely echoes the incumbent.
  bool bound_proven = false;
  double root_lp_objective = 0.0;
  bool has_root_lp = false;
  double relative_gap = 0.0;
  int nodes = 0;
  /// What stopped the branch-and-bound (MipResult::stop).
  MipStop stop = MipStop::kNone;
  /// LpResult::iterations over all node and dive LPs: the capped work.
  int lp_iterations = 0;
  /// Node LPs that accepted a parent-basis warm start (the root is always
  /// cold, so the hit-rate denominator is nodes - 1).
  int warm_started_nodes = 0;
  /// Largest single node-LP pivot count.
  int max_node_pivots = 0;
  /// Basis refactorizations / longest eta file across all node LP solves.
  int refactorizations = 0;
  int max_eta_length = 0;
};

struct MipAlgorithmOptions {
  Deadline deadline = Deadline::Infinite();
  /// Refuse to build models bigger than this many constraint rows: the
  /// simplex would not finish a single relaxation, which the benches
  /// report as OOT (the NO-PARTITION behaviour of §V-B).
  int max_model_rows = 2000;
  /// Branch-and-bound work cap (MipOptions::max_lp_iterations); <= 0: none.
  int max_lp_iterations = 0;
  /// Optional feasible placement (the incremental path's prior incumbent)
  /// offered as the branch-and-bound warm start when it beats the greedy
  /// one. Only its counts on the subproblem's own (service, machine) pairs
  /// are read; not owned, must outlive the solve.
  const Placement* incumbent_hint = nullptr;
};

/// Builds the MIP of expressions (2)-(9) restricted to a subproblem:
/// integer x_{s,m} per (service, machine), continuous a_{e,m} per
/// (affinity edge, machine) with the two min-linearization rows, residual
/// resource capacities, residual anti-affinity limits, and schedulability
/// bounds. The SLA row is relaxed to sum_m x_{s,m} <= d_s — the paper
/// tolerates failed deployments, which the default scheduler absorbs.
///
/// `x_index(i, j)` of the returned mapping gives the column of service
/// subproblem.services[i] on machine subproblem.machines[j].
struct SubproblemMip {
  LpModel model;
  std::vector<std::vector<int>> x_index;  // [service_local][machine_local]
};
StatusOr<SubproblemMip> BuildSubproblemMip(const Cluster& cluster,
                                           const Subproblem& subproblem,
                                           const Placement& base,
                                           int max_model_rows);

/// The row count BuildSubproblemMip checks against `max_model_rows`: the
/// build fails exactly when this exceeds the cap. Depends only on the
/// subproblem's shape and the cluster's rules, never on a placement.
long long SubproblemMipRows(const Cluster& cluster,
                            const Subproblem& subproblem);

/// The MIP-based pool algorithm (§IV-C1): greedy warm start, then LP-based
/// branch-and-bound until optimal or deadline. `base` holds the trivial
/// residents and is NOT modified. Fails with kResourceExhausted when the
/// model exceeds `max_model_rows` (reported as OOT upstream). `stats`, when
/// non-null, receives the solver introspection for the solve ledger.
StatusOr<SubproblemSolution> SolveSubproblemMip(
    const Cluster& cluster, const Subproblem& subproblem,
    const Placement& base, const MipAlgorithmOptions& options = {},
    SubproblemMipStats* stats = nullptr);

/// The grouped variant of the RASA MIP, following the paper's formulation
/// literally: gained-affinity variables a_{s,s',g} are indexed by machine
/// *groups* g in F (machines with the same spec and platform), and the
/// resource/anti-affinity rows aggregate each group's residuals. This cuts
/// the model size by ~|group| but (a) the objective over-counts collocation
/// across a group's machines, and (b) the group solution must be
/// disaggregated onto real machines afterwards, where some of the predicted
/// affinity is lost. SolveSubproblemMipGrouped performs both steps and
/// reports the *realized* gained affinity. The ablation bench quantifies
/// this trade-off against the per-machine model.
StatusOr<SubproblemSolution> SolveSubproblemMipGrouped(
    const Cluster& cluster, const Subproblem& subproblem,
    const Placement& base, const MipAlgorithmOptions& options = {});

}  // namespace rasa

#endif  // RASA_CORE_MIP_ALGORITHM_H_
