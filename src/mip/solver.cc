#include "mip/solver.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <queue>

#include "common/logging.h"

namespace rasa {

const char* MipStatusToString(MipStatus status) {
  switch (status) {
    case MipStatus::kOptimal:
      return "OPTIMAL";
    case MipStatus::kFeasible:
      return "FEASIBLE";
    case MipStatus::kInfeasible:
      return "INFEASIBLE";
    case MipStatus::kNoSolutionFound:
      return "NO_SOLUTION_FOUND";
    case MipStatus::kUnbounded:
      return "UNBOUNDED";
    case MipStatus::kError:
      return "ERROR";
  }
  return "UNKNOWN";
}

const char* MipStopToString(MipStop stop) {
  switch (stop) {
    case MipStop::kNone:
      return "none";
    case MipStop::kWorkCap:
      return "work-cap";
    case MipStop::kNodeCap:
      return "node-cap";
    case MipStop::kDeadline:
      return "deadline";
  }
  return "unknown";
}

double MipResult::Gap() const {
  if (!has_solution()) return std::numeric_limits<double>::infinity();
  return std::abs(best_bound - objective) / std::max(1.0, std::abs(objective));
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// A relaxation value within this of an integer counts as integral.
constexpr double kIntegralityTolerance = 1e-6;

struct BoundChange {
  int variable;
  double lower;
  double upper;
};

// Nodes live in one deque per solve, which keeps their addresses stable as
// it grows: the open queue holds raw pointers, and everything is reclaimed
// when the solve ends (the node count is bounded by max_nodes, so holding
// explored nodes to the end costs a few MB at worst).
struct Node {
  // Bound tightenings along the path from the root.
  std::vector<BoundChange> changes;
  // LP bound of the parent (model sense); used for best-bound ordering.
  double bound;
  int depth = 0;
  // Optimal basis of the parent LP, shared by both children. A child only
  // tightens bounds, so this basis stays dual feasible and the simplex
  // can repair it with a few dual pivots instead of a full solve.
  std::shared_ptr<const LpBasis> parent_basis;
};

class BranchAndBound {
 public:
  BranchAndBound(const LpModel& model, const MipOptions& options)
      : model_(model), options_(options),
        maximize_(model.objective_sense() == ObjectiveSense::kMaximize),
        work_cap_(options.max_lp_iterations > 0
                      ? options.max_lp_iterations
                      : std::numeric_limits<int>::max()) {}

  MipResult Solve();

 private:
  // Returns objective `a` expressed as "higher is better".
  double Score(double objective) const {
    return maximize_ ? objective : -objective;
  }
  // The looser of two bounds on the optimum.
  double Looser(double a, double b) const {
    return Score(a) >= Score(b) ? a : b;
  }

  bool IsIntegral(const std::vector<double>& x, int* branch_var) const;
  void ApplyChanges(LpModel& scratch, const std::vector<BoundChange>& changes,
                    bool undo) const;
  void OfferIncumbent(const std::vector<double>& x, double objective);
  // Fix-and-dive heuristic starting from an LP-feasible fractional point.
  // `start_basis` (may be null) seeds the warm-start chain along the dive.
  void Dive(LpModel& scratch, const Node& node,
            const std::vector<double>& relaxation, const LpBasis* start_basis);
  void RecordLpStats(const LpResult& lp);
  int WorkLeft() const { return work_cap_ - lp_iterations_; }
  // What stops the search before its next node, if anything: the
  // deterministic caps first, then the clock.
  MipStop StopBeforeNode(int max_nodes) const {
    if (WorkLeft() <= 0) return MipStop::kWorkCap;
    if (nodes_ >= max_nodes) return MipStop::kNodeCap;
    if (options_.deadline.Expired()) return MipStop::kDeadline;
    return MipStop::kNone;
  }
  // The next node or dive LP's options: the deadline, and at most the
  // iterations the work cap has left, so no LP runs past it.
  LpOptions NextLpOptions() const {
    LpOptions lp_opts = options_.lp_options;
    lp_opts.deadline = options_.deadline;
    if (lp_opts.max_iterations <= 0 || WorkLeft() < lp_opts.max_iterations) {
      lp_opts.max_iterations = WorkLeft();
    }
    return lp_opts;
  }

  const LpModel& model_;
  const MipOptions& options_;
  const bool maximize_;
  const int work_cap_;  // in simplex iterations

  bool has_incumbent_ = false;
  double incumbent_objective_ = 0.0;
  std::vector<double> incumbent_;
  int nodes_ = 0;
  int lp_iterations_ = 0;
  int warm_started_nodes_ = 0;
  int max_node_pivots_ = 0;
  int refactorizations_ = 0;
  int max_eta_length_ = 0;
};

bool BranchAndBound::IsIntegral(const std::vector<double>& x,
                                int* branch_var) const {
  double worst = kIntegralityTolerance;
  int chosen = -1;
  for (int v = 0; v < model_.num_variables(); ++v) {
    if (!model_.is_integer(v)) continue;
    const double frac = std::abs(x[v] - std::round(x[v]));
    // Most-fractional branching: pick the variable closest to .5.
    const double dist_to_half = std::abs(frac - 0.5);
    if (frac > kIntegralityTolerance) {
      if (chosen < 0 || dist_to_half < worst) {
        worst = dist_to_half;
        chosen = v;
      }
    }
  }
  if (branch_var != nullptr) *branch_var = chosen;
  return chosen < 0;
}

void BranchAndBound::ApplyChanges(LpModel& scratch,
                                  const std::vector<BoundChange>& changes,
                                  bool undo) const {
  if (!undo) {
    for (const BoundChange& ch : changes) {
      // Intersect with existing bounds so nested tightenings compose.
      const double lo = std::max(scratch.lower_bound(ch.variable), ch.lower);
      const double hi = std::min(scratch.upper_bound(ch.variable), ch.upper);
      scratch.SetBounds(ch.variable, lo, hi);
    }
  } else {
    for (const BoundChange& ch : changes) {
      scratch.SetBounds(ch.variable, model_.lower_bound(ch.variable),
                        model_.upper_bound(ch.variable));
    }
  }
}

void BranchAndBound::OfferIncumbent(const std::vector<double>& x,
                                    double objective) {
  if (has_incumbent_ && Score(objective) <= Score(incumbent_objective_)) {
    return;
  }
  // Round integer variables exactly before the final feasibility audit.
  std::vector<double> snapped = x;
  for (int v = 0; v < model_.num_variables(); ++v) {
    if (model_.is_integer(v)) snapped[v] = std::round(snapped[v]);
  }
  // Audit tolerance derives from the integrality and LP feasibility
  // tolerances (one decade of slack over each) instead of a free-standing
  // literal: with the default LP options this is the historical 1e-5, and
  // it tracks any caller override of the LP tolerance.
  const double audit_tolerance =
      std::max(10.0 * kIntegralityTolerance,
               options_.lp_options.FeasibilityTolerance());
  if (!model_.CheckFeasible(snapped, audit_tolerance).ok()) return;
  has_incumbent_ = true;
  incumbent_ = snapped;
  incumbent_objective_ = model_.ObjectiveValue(snapped);
}

void BranchAndBound::RecordLpStats(const LpResult& lp) {
  lp_iterations_ += lp.iterations;
  refactorizations_ += lp.refactorizations;
  max_eta_length_ = std::max(max_eta_length_, lp.max_eta_length);
}

void BranchAndBound::Dive(LpModel& scratch, const Node& node,
                          const std::vector<double>& relaxation,
                          const LpBasis* start_basis) {
  // Iteratively fix the least-fractional integer variable to its nearest
  // integer and re-solve; stop on integrality, infeasibility, or depth cap.
  std::vector<BoundChange> fixes;
  std::vector<double> x = relaxation;
  // Each fix only tightens bounds, so the previous basis warm-starts the
  // next solve all the way down the dive.
  LpBasis chain_basis;
  bool have_basis = false;
  if (options_.warm_start_nodes && start_basis != nullptr &&
      !start_basis->empty()) {
    chain_basis = *start_basis;
    have_basis = true;
  }
  const int max_depth = 2 * model_.num_integer_variables() + 8;
  for (int step = 0; step < max_depth; ++step) {
    if (options_.deadline.Expired() || WorkLeft() <= 0) break;
    int dummy = -1;
    if (IsIntegral(x, &dummy)) {
      OfferIncumbent(x, model_.ObjectiveValue(x));
      break;
    }
    // Least-fractional variable: cheapest to round without breaking the LP.
    int pick = -1;
    double best_frac = 2.0;
    for (int v = 0; v < model_.num_variables(); ++v) {
      if (!model_.is_integer(v)) continue;
      const double frac = std::abs(x[v] - std::round(x[v]));
      if (frac <= kIntegralityTolerance) continue;
      if (frac < best_frac) {
        best_frac = frac;
        pick = v;
      }
    }
    if (pick < 0) break;
    const double target = std::round(x[pick]);
    fixes.push_back({pick, target, target});
    ApplyChanges(scratch, {fixes.back()}, /*undo=*/false);
    LpOptions lp_opts = NextLpOptions();
    LpBasis next_basis;
    if (have_basis) lp_opts.warm_basis = &chain_basis;
    lp_opts.result_basis = &next_basis;
    LpResult lp = SolveLp(scratch, lp_opts);
    RecordLpStats(lp);
    if (lp.status != LpStatus::kOptimal) break;
    if (!next_basis.empty()) {
      chain_basis = std::move(next_basis);
      have_basis = true;
    }
    x = lp.primal;
  }
  // Restore bounds touched by the dive back to this node's state.
  ApplyChanges(scratch, fixes, /*undo=*/true);
  ApplyChanges(scratch, node.changes, /*undo=*/false);
}

MipResult BranchAndBound::Solve() {
  MipResult result;
  Status valid = model_.Validate();
  if (!valid.ok()) {
    RASA_LOG(Warning) << "invalid MIP model: " << valid.ToString();
    return result;
  }

  if (!options_.initial_solution.empty()) {
    OfferIncumbent(options_.initial_solution,
                   model_.ObjectiveValue(options_.initial_solution));
  }

  LpModel scratch = model_;
  const int max_nodes = options_.max_nodes > 0
                            ? options_.max_nodes
                            : 40 * model_.num_integer_variables() + 2000;

  // Best-bound first: explore the node with the most promising parent bound.
  auto cmp = [this](const Node* a, const Node* b) {
    if (Score(a->bound) != Score(b->bound)) {
      return Score(a->bound) < Score(b->bound);
    }
    return a->depth < b->depth;  // deeper first on ties -> finds leaves
  };
  std::priority_queue<Node*, std::vector<Node*>, decltype(cmp)> open(cmp);
  std::deque<Node> nodes;  // owns every Node of this solve

  Node* root = &nodes.emplace_back();
  root->bound = maximize_ ? kInf : -kInf;
  open.push(root);

  double best_open_bound = root->bound;
  // Loosest parent bound among nodes whose LP did not finish: their
  // subtrees were never searched, so the final bound must still cover them.
  double unfinished_bound = maximize_ ? -kInf : kInf;
  bool stopped_early = false;
  bool root_unbounded = false;

  while (!open.empty()) {
    result.stop = StopBeforeNode(max_nodes);
    if (result.stop != MipStop::kNone) {
      stopped_early = true;
      break;
    }
    Node* node = open.top();
    open.pop();
    best_open_bound = node->bound;

    // Bound-based pruning against the incumbent.
    if (has_incumbent_) {
      const double cutoff = Score(incumbent_objective_);
      if (Score(node->bound) <= cutoff + 1e-9) continue;
      if (std::abs(node->bound - incumbent_objective_) <=
          options_.relative_gap *
              std::max(1.0, std::abs(incumbent_objective_))) {
        continue;
      }
    }

    ++nodes_;
    ApplyChanges(scratch, node->changes, /*undo=*/false);
    LpOptions lp_opts = NextLpOptions();
    LpBasis node_basis;
    if (options_.warm_start_nodes && node->parent_basis != nullptr) {
      lp_opts.warm_basis = node->parent_basis.get();
    }
    lp_opts.result_basis = &node_basis;
    LpResult lp = SolveLp(scratch, lp_opts);
    RecordLpStats(lp);
    if (lp.warm_started) ++warm_started_nodes_;
    max_node_pivots_ = std::max(max_node_pivots_, lp.iterations);

    if (lp.status == LpStatus::kInfeasible) {
      ApplyChanges(scratch, node->changes, /*undo=*/true);
      continue;
    }
    if (lp.status == LpStatus::kUnbounded) {
      ApplyChanges(scratch, node->changes, /*undo=*/true);
      if (node->depth == 0) root_unbounded = true;
      break;
    }
    if (lp.status != LpStatus::kOptimal) {
      // Deadline, iteration limit or kernel error inside the LP: the node
      // is dropped unsearched, so only its parent bound still holds.
      ApplyChanges(scratch, node->changes, /*undo=*/true);
      stopped_early = true;
      unfinished_bound = Looser(unfinished_bound, node->bound);
      result.stop = StopBeforeNode(max_nodes);
      if (result.stop != MipStop::kNone) break;
      continue;
    }

    const double node_bound = lp.objective;
    if (node->depth == 0 && !result.has_root_lp) {
      result.root_lp_objective = node_bound;
      result.has_root_lp = true;
    }
    if (has_incumbent_ &&
        Score(node_bound) <= Score(incumbent_objective_) + 1e-9) {
      ApplyChanges(scratch, node->changes, /*undo=*/true);
      continue;
    }

    int branch_var = -1;
    if (IsIntegral(lp.primal, &branch_var)) {
      OfferIncumbent(lp.primal, lp.objective);
      ApplyChanges(scratch, node->changes, /*undo=*/true);
      continue;
    }

    if (options_.dive_frequency > 0 &&
        (nodes_ == 1 || nodes_ % options_.dive_frequency == 0)) {
      // Restores node bounds itself.
      Dive(scratch, *node, lp.primal, node_basis.empty() ? nullptr : &node_basis);
    }

    // Clamp defensively: LP noise must never create an empty bound box.
    const double value =
        std::clamp(lp.primal[branch_var], scratch.lower_bound(branch_var),
                   scratch.upper_bound(branch_var));
    std::shared_ptr<const LpBasis> child_basis;
    if (options_.warm_start_nodes && !node_basis.empty()) {
      child_basis = std::make_shared<const LpBasis>(std::move(node_basis));
    }
    Node* down = &nodes.emplace_back();
    down->changes = node->changes;
    down->changes.push_back({branch_var, -kInf, std::floor(value)});
    down->bound = node_bound;
    down->depth = node->depth + 1;
    down->parent_basis = child_basis;
    Node* up = &nodes.emplace_back();
    up->changes = node->changes;
    up->changes.push_back({branch_var, std::ceil(value), kInf});
    up->bound = node_bound;
    up->depth = node->depth + 1;
    up->parent_basis = child_basis;
    open.push(down);
    open.push(up);

    ApplyChanges(scratch, node->changes, /*undo=*/true);
  }

  result.nodes_explored = nodes_;
  result.lp_iterations = lp_iterations_;
  result.warm_started_nodes = warm_started_nodes_;
  result.max_node_pivots = max_node_pivots_;
  result.refactorizations = refactorizations_;
  result.max_eta_length = max_eta_length_;

  if (root_unbounded && !has_incumbent_) {
    result.status = MipStatus::kUnbounded;
    return result;
  }

  if (has_incumbent_) {
    result.solution = incumbent_;
    result.objective = incumbent_objective_;
    if (!stopped_early && open.empty()) {
      result.status = MipStatus::kOptimal;
      result.best_bound = incumbent_objective_;
    } else {
      result.status = MipStatus::kFeasible;
      // The best open bound and every unfinished node's bound still bound
      // the optimum.
      double bound = open.empty() ? best_open_bound : open.top()->bound;
      if (!std::isfinite(bound)) bound = best_open_bound;
      result.best_bound =
          Looser(Looser(bound, unfinished_bound), incumbent_objective_);
      if (!std::isfinite(result.best_bound)) {
        // No node ever produced a finite dual bound; report the incumbent
        // so gaps stay finite, but flag the bound as unproven.
        result.best_bound = incumbent_objective_;
        result.bound_proven = false;
      }
      // Exhausting the tree without early stops proves optimality even if
      // the last nodes were pruned by bound.
      if (!stopped_early) result.status = MipStatus::kOptimal;
    }
  } else if (!stopped_early && open.empty()) {
    result.status = MipStatus::kInfeasible;
  } else {
    result.status = MipStatus::kNoSolutionFound;
    result.best_bound = Looser(best_open_bound, unfinished_bound);
  }
  return result;
}

}  // namespace

MipResult SolveMip(const LpModel& model, const MipOptions& options) {
  BranchAndBound solver(model, options);
  return solver.Solve();
}

}  // namespace rasa
