// Warm-start property tests on the fig-9 / fig-10 style subproblem
// instances: branch-and-bound with parent-basis warm starts must be a
// speed knob only.
//
// What that means precisely: a warm-started node solve must reach the
// SAME relaxation objective and status as a from-scratch solve of the
// identical node LP. It may land on a different optimal *vertex* — these
// packing relaxations are massively degenerate, so the optimal face has
// many corners and the dual-repair path ends on a different one than the
// cold two-phase path. Branching reads the vertex, so the explored trees
// can legitimately differ node-for-node; what cannot differ is any bound
// or relaxation value either tree reports. The first test pins that down
// by replaying one tree and solving every node LP both ways; the second
// checks the end-to-end search still engages warm starts and pays fewer
// pivots for it.

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/generator.h"
#include "core/mip_algorithm.h"
#include "core/partitioning.h"
#include "gtest/gtest.h"
#include "mip/solver.h"

namespace rasa {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// First fig-9/fig-10 style instance: Table II's M1 cluster partitioned
// into crucial subproblems, each yielding one subproblem MIP.
// LP-relaxation feasibility: bounds and rows only. LpModel::CheckFeasible
// also enforces integrality, which relaxation vertices do not satisfy.
void ExpectRelaxationFeasible(const LpModel& model,
                              const std::vector<double>& x, double tol,
                              int depth) {
  ASSERT_EQ(static_cast<int>(x.size()), model.num_variables());
  for (int v = 0; v < model.num_variables(); ++v) {
    EXPECT_GE(x[v], model.lower_bound(v) - tol) << "depth " << depth;
    EXPECT_LE(x[v], model.upper_bound(v) + tol) << "depth " << depth;
  }
  for (int c = 0; c < model.num_constraints(); ++c) {
    double lhs = 0.0;
    for (const LinearTerm& t : model.constraint_terms(c)) {
      lhs += t.coefficient * x[t.variable];
    }
    switch (model.constraint_type(c)) {
      case ConstraintType::kLessEqual:
        EXPECT_LE(lhs, model.rhs(c) + tol) << "depth " << depth;
        break;
      case ConstraintType::kGreaterEqual:
        EXPECT_GE(lhs, model.rhs(c) - tol) << "depth " << depth;
        break;
      case ConstraintType::kEqual:
        EXPECT_NEAR(lhs, model.rhs(c), tol) << "depth " << depth;
        break;
    }
  }
}

LpModel FirstEligibleSubproblemModel(double scale) {
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(M1Spec(scale));
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  if (!snapshot.ok()) return LpModel();
  PartitionResult partition = PartitionServices(
      *snapshot->cluster, snapshot->original_placement, {});
  for (const Subproblem& sp : partition.subproblems) {
    if (sp.services.empty() || sp.machines.empty()) continue;
    StatusOr<SubproblemMip> mip =
        BuildSubproblemMip(*snapshot->cluster, sp, partition.base_placement,
                           /*max_model_rows=*/2000);
    if (!mip.ok()) continue;
    const int rows = mip->model.num_constraints();
    if (rows < 8 || rows > 400) continue;
    return mip->model;
  }
  return LpModel();
}

struct ReplayNode {
  // Cumulative (variable, lower, upper) tightenings from the root.
  std::vector<std::array<double, 3>> bounds;
  std::shared_ptr<const LpBasis> parent_basis;
  int depth = 0;
};

// Replays a branch-and-bound expansion driven by the cold solves and, at
// every node, also solves the identical LP warm-started from the parent
// basis. Objectives and statuses must match exactly; vertices may not.
TEST(MipWarmStartTest, NodeRelaxationsMatchColdSolves) {
  const LpModel model = FirstEligibleSubproblemModel(48.0);
  ASSERT_GE(model.num_constraints(), 8) << "generator produced no instance";

  std::deque<ReplayNode> open;
  open.push_back({});
  int solved = 0;
  int warm_engaged = 0;
  int warm_eligible = 0;
  while (!open.empty() && solved < 32) {
    ReplayNode node = std::move(open.front());
    open.pop_front();
    LpModel scratch = model;
    for (const auto& b : node.bounds) {
      const int v = static_cast<int>(b[0]);
      scratch.SetBounds(v, std::max(scratch.lower_bound(v), b[1]),
                        std::min(scratch.upper_bound(v), b[2]));
    }

    LpOptions cold_opts;
    LpBasis cold_basis;
    cold_opts.result_basis = &cold_basis;
    const LpResult cold = SolveLp(scratch, cold_opts);

    LpOptions warm_opts;
    if (node.parent_basis != nullptr) {
      warm_opts.warm_basis = node.parent_basis.get();
      ++warm_eligible;
    }
    const LpResult warm = SolveLp(scratch, warm_opts);
    ++solved;

    ASSERT_EQ(cold.status, warm.status) << "depth " << node.depth;
    EXPECT_FALSE(cold.warm_started);
    if (warm.warm_started) ++warm_engaged;
    if (cold.status != LpStatus::kOptimal) continue;
    EXPECT_NEAR(cold.objective, warm.objective,
                1e-9 * std::max(1.0, std::abs(cold.objective)))
        << "depth " << node.depth;
    // Both vertices must satisfy the node LP even when they differ.
    ExpectRelaxationFeasible(scratch, cold.primal, 1e-5, node.depth);
    ExpectRelaxationFeasible(scratch, warm.primal, 1e-5, node.depth);

    // Branch on the most fractional integer of the cold solution, exactly
    // like the production node loop.
    int pick = -1;
    double best = 1e-6;
    for (int v = 0; v < scratch.num_variables(); ++v) {
      if (!scratch.is_integer(v)) continue;
      const double f = std::abs(cold.primal[v] - std::round(cold.primal[v]));
      const double dist = std::min(f, 1.0 - f);
      if (dist > best) {
        best = dist;
        pick = v;
      }
    }
    if (pick < 0 || node.depth >= 6) continue;
    auto basis = std::make_shared<const LpBasis>(std::move(cold_basis));
    ReplayNode down = node;
    ReplayNode up = node;
    down.depth = up.depth = node.depth + 1;
    down.parent_basis = up.parent_basis = basis;
    const double value = cold.primal[pick];
    down.bounds.push_back({static_cast<double>(pick), -kInf,
                           std::floor(value)});
    up.bounds.push_back({static_cast<double>(pick), std::ceil(value), kInf});
    open.push_back(std::move(down));
    open.push_back(std::move(up));
  }
  EXPECT_GE(solved, 16) << "replay tree collapsed too early";
  // The warm machinery must actually engage on most interior nodes; a
  // repair that fails its pivot budget cold-restarts (warm_started=false),
  // which is allowed but must stay the exception.
  EXPECT_GT(warm_eligible, 0);
  EXPECT_GE(warm_engaged * 2, warm_eligible);
}

// End to end: the warm-started search must engage on interior nodes, pay
// fewer simplex pivots than the cold search for the same node budget, and
// keep producing feasible incumbents. Both runs are deterministic, so the
// comparison is stable run to run.
TEST(MipWarmStartTest, WarmSearchEngagesAndSavesPivots) {
  const LpModel model = FirstEligibleSubproblemModel(40.0);
  ASSERT_GE(model.num_constraints(), 8) << "generator produced no instance";

  auto run = [&](bool warm) {
    MipOptions options;
    options.warm_start_nodes = warm;
    options.max_nodes = 60;
    options.relative_gap = 1e-4;  // the pool's production gap
    return SolveMip(model, options);
  };
  const MipResult cold = run(false);
  const MipResult warm = run(true);

  EXPECT_EQ(cold.warm_started_nodes, 0);
  ASSERT_GT(warm.nodes_explored, 1);
  EXPECT_GT(warm.warm_started_nodes, 0);
  ASSERT_TRUE(cold.has_solution());
  ASSERT_TRUE(warm.has_solution());
  EXPECT_TRUE(model.CheckFeasible(cold.solution, 1e-5).ok());
  EXPECT_TRUE(model.CheckFeasible(warm.solution, 1e-5).ok());
  // The speed-knob property: same node budget, strictly fewer pivots.
  EXPECT_LT(warm.lp_iterations, cold.lp_iterations);
  // Reported bounds must bracket the incumbents in both runs.
  const bool maximize =
      model.objective_sense() == ObjectiveSense::kMaximize;
  const double slack = 1e-6;
  if (maximize) {
    EXPECT_GE(cold.best_bound + slack, cold.objective);
    EXPECT_GE(warm.best_bound + slack, warm.objective);
  } else {
    EXPECT_LE(cold.best_bound - slack, cold.objective);
    EXPECT_LE(warm.best_bound - slack, warm.objective);
  }
}

}  // namespace
}  // namespace rasa
