#ifndef RASA_CORE_CG_H_
#define RASA_CORE_CG_H_

#include <vector>

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "common/statusor.h"
#include "common/timer.h"
#include "core/subproblem.h"

namespace rasa {

struct CgOptions {
  Deadline deadline = Deadline::Infinite();
  /// Stop after this many pricing rounds even if improving patterns remain.
  int max_rounds = 40;
  /// Pricing also evaluates adding both endpoints of an affinity edge at
  /// once, which lets the greedy escape "first container looks
  /// unprofitable" traps. Disable for the ablation bench.
  bool pair_pricing = true;
  /// Column management: cap on patterns kept per machine between rounds
  /// (<= 0 keeps everything; masters then grow quadratically).
  int max_patterns_per_machine = 14;
  /// After rounding, greedily place demand the clipped patterns missed.
  bool greedy_completion = true;
};

struct CgStats {
  int rounds = 0;
  int patterns_generated = 0;
  int master_solves = 0;
  bool hit_deadline = false;
  /// Objective of the last successfully solved restricted master LP: the
  /// CG dual estimate of the subproblem's achievable gained affinity. It
  /// upper-bounds any integral selection of the *generated* patterns, but
  /// greedy completion may round above it — certificate consumers must cap
  /// it with the realized value (see explain.h).
  double lp_objective = 0.0;
  bool has_lp_bound = false;
  /// LpResult::iterations over all master solves, with the phase-1 share.
  int lp_iterations = 0;
  int lp_phase1_iterations = 0;
  /// Master solves that started from a supplied basis: the slack crash
  /// basis for the first master, the previous optimal basis after that.
  /// Equal to master_solves unless the kernel rejected a basis and solved
  /// that master cold.
  int master_warm_started = 0;
  /// Basis refactorizations summed over all master solves.
  int refactorizations = 0;
  /// Longest eta file reached in any master solve.
  int max_eta_length = 0;
};

/// The column-generation pool algorithm (§IV-C2, Algorithm 1).
///
/// Works on the cutting-stock reformulation: each machine picks one
/// feasible *pattern* (a container-count vector over subproblem services
/// satisfying its residual resources, anti-affinity, and schedulability).
/// The restricted master LP
///    max  sum v(p) y_{m,p}
///    s.t. sum_p y_{m,p} = 1            (per machine)
///         sum_{m,p} p_s y_{m,p} <= d_s (per service)
/// is one model for the whole solve: the first master starts from the
/// slack crash basis (each machine's empty pattern plus every demand slack,
/// primal feasible, so no phase 1), pricing appends columns, column
/// management deletes only non-basic ones, and each round re-solves from
/// the previous optimal basis. Pricing maximizes
/// v(p) - sum_s pi_s p_s - mu_m per machine with a marginal-gain greedy
/// over single-container and edge-pair additions. Terminates when no
/// pattern with positive reduced cost is found (IsTerminate) or at the
/// deadline, then rounds y to an integral per-machine pattern choice.
StatusOr<SubproblemSolution> SolveSubproblemCg(const Cluster& cluster,
                                               const Subproblem& subproblem,
                                               const Placement& base,
                                               const Placement& original,
                                               const CgOptions& options = {},
                                               CgStats* stats = nullptr);

}  // namespace rasa

#endif  // RASA_CORE_CG_H_
