#ifndef RASA_MIP_SOLVER_H_
#define RASA_MIP_SOLVER_H_

#include <vector>

#include "common/timer.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace rasa {

enum class MipStatus {
  kOptimal,           // proved optimal within gap tolerance
  kFeasible,          // stopped early (deadline, node/work cap), incumbent
  kInfeasible,        // proved infeasible
  kNoSolutionFound,   // stopped early without an incumbent
  kUnbounded,
  kError,
};

const char* MipStatusToString(MipStatus status);

/// What stopped a branch-and-bound before it exhausted its tree.
enum class MipStop {
  kNone,      // no cap or deadline: the tree was exhausted (or a node LP
              // failed and was dropped)
  kWorkCap,   // MipOptions::max_lp_iterations
  kNodeCap,   // MipOptions::max_nodes (or its automatic value)
  kDeadline,  // MipOptions::deadline
};

const char* MipStopToString(MipStop stop);

struct MipOptions {
  Deadline deadline = Deadline::Infinite();
  /// Stop when |best_bound - incumbent| <= gap * max(1, |incumbent|).
  double relative_gap = 1e-6;
  /// Hard cap on explored nodes. <= 0 means automatic.
  int max_nodes = 0;
  /// Work cap on `MipResult::lp_iterations`, which no node or dive LP runs
  /// past; it reads no clock. <= 0 means no cap.
  int max_lp_iterations = 0;
  /// Options forwarded to each node LP solve (deadline is overridden).
  LpOptions lp_options;
  /// Known feasible solution used as the initial incumbent / cutoff.
  std::vector<double> initial_solution;
  /// Every `dive_frequency`-th node additionally runs a fix-and-dive
  /// heuristic to manufacture incumbents early. <= 0 disables diving.
  int dive_frequency = 16;
  /// Warm-start child node LPs from the parent's optimal basis (dual
  /// simplex repair). Purely a speed knob: any
  /// warm solve the solver cannot accept falls back to a cold solve.
  bool warm_start_nodes = true;
};

struct MipResult {
  MipStatus status = MipStatus::kError;
  /// Objective of `solution` in the model's sense (valid unless
  /// kNoSolutionFound / kInfeasible / kError).
  double objective = 0.0;
  /// Best proven bound on the optimum (model sense).
  double best_bound = 0.0;
  /// False when the search stopped before any finite dual bound existed
  /// (e.g. the root LP never finished): `best_bound` then degrades to the
  /// incumbent objective for reporting and must NOT be used as a
  /// certificate of optimality.
  bool bound_proven = true;
  /// Objective of the root LP relaxation (model sense); only meaningful
  /// when `has_root_lp`. The classic gap reference for solver reports.
  double root_lp_objective = 0.0;
  bool has_root_lp = false;
  /// What stopped the search: the first of the work cap, the node cap and
  /// the deadline that held when it stopped, in that order, so a run its
  /// work cap stopped reports kWorkCap whatever the clock reads.
  MipStop stop = MipStop::kNone;
  std::vector<double> solution;
  int nodes_explored = 0;
  int lp_iterations = 0;
  /// Node LP solves that accepted a parent-basis warm start (the hit rate
  /// denominator is nodes_explored; the root is always cold).
  int warm_started_nodes = 0;
  /// Largest single node-LP pivot count (the root usually dominates once
  /// warm starts shrink the interior nodes to a handful of pivots).
  int max_node_pivots = 0;
  /// Basis refactorizations summed over all LP solves.
  int refactorizations = 0;
  /// Longest eta file reached in any LP solve.
  int max_eta_length = 0;

  bool has_solution() const {
    return status == MipStatus::kOptimal || status == MipStatus::kFeasible;
  }
  /// Relative optimality gap; 0 when proved optimal.
  double Gap() const;
};

/// Solves the mixed-integer program `model` (variables marked via
/// LpModel::SetInteger) with LP-relaxation branch-and-bound:
/// best-bound node selection, most-fractional branching, and a periodic
/// fix-and-dive rounding heuristic for early incumbents. Anytime: honors
/// `deadline` and both caps, and returns the best incumbent found so far.
MipResult SolveMip(const LpModel& model, const MipOptions& options = {});

}  // namespace rasa

#endif  // RASA_MIP_SOLVER_H_
