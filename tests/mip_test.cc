#include <cmath>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "mip/solver.h"

namespace rasa {
namespace {

// Exhaustively enumerates all integer points of a small model (integer vars
// must have finite bounds) and returns the best feasible objective, or
// nullopt if none is feasible.
std::optional<double> BruteForce(const LpModel& m) {
  const int n = m.num_variables();
  std::vector<double> x(n, 0.0);
  std::optional<double> best;
  const bool maximize = m.objective_sense() == ObjectiveSense::kMaximize;
  std::function<void(int)> rec = [&](int j) {
    if (j == n) {
      if (m.CheckFeasible(x, 1e-9).ok()) {
        const double v = m.ObjectiveValue(x);
        if (!best || (maximize ? v > *best : v < *best)) best = v;
      }
      return;
    }
    const int lo = static_cast<int>(std::ceil(m.lower_bound(j)));
    const int hi = static_cast<int>(std::floor(m.upper_bound(j)));
    for (int v = lo; v <= hi; ++v) {
      x[j] = v;
      rec(j + 1);
    }
    x[j] = 0.0;
  };
  rec(0);
  return best;
}

TEST(MipTest, SolvesSmallKnapsack) {
  // max 10a + 13b + 7c st 3a + 4b + 2c <= 6, binary -> a=0? best: a+c (17)
  // vs b+c (20, weight 6) -> 20.
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  int a = m.AddVariable(0, 1, 10);
  int b = m.AddVariable(0, 1, 13);
  int c = m.AddVariable(0, 1, 7);
  for (int v : {a, b, c}) m.SetInteger(v);
  m.AddConstraint(ConstraintType::kLessEqual, 6.0,
                  {{a, 3.0}, {b, 4.0}, {c, 2.0}});
  MipResult r = SolveMip(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 20.0, 1e-6);
  EXPECT_NEAR(r.solution[b], 1.0, 1e-9);
  EXPECT_NEAR(r.solution[c], 1.0, 1e-9);
}

TEST(MipTest, IntegralityChangesOptimum) {
  // LP relaxation gives x=2.5; MIP must give 2.
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, 10, 1.0);
  m.SetInteger(x);
  m.AddConstraint(ConstraintType::kLessEqual, 5.0, {{x, 2.0}});
  MipResult r = SolveMip(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-9);
}

TEST(MipTest, MixedIntegerKeepsContinuousFree) {
  // max x + y, x integer <= 2.5 cap, y continuous <= 2.5 cap.
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, 10, 1.0);
  int y = m.AddVariable(0, 10, 1.0);
  m.SetInteger(x);
  m.AddConstraint(ConstraintType::kLessEqual, 2.5, {{x, 1.0}});
  m.AddConstraint(ConstraintType::kLessEqual, 2.5, {{y, 1.0}});
  MipResult r = SolveMip(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.solution[x], 2.0, 1e-9);
  EXPECT_NEAR(r.solution[y], 2.5, 1e-6);
}

TEST(MipTest, DetectsInfeasible) {
  LpModel m;
  int x = m.AddVariable(0, 3, 1.0);
  m.SetInteger(x);
  // 2x == 3 has no integer solution in [0, 3].
  m.AddConstraint(ConstraintType::kEqual, 3.0, {{x, 2.0}});
  MipResult r = SolveMip(m);
  EXPECT_EQ(r.status, MipStatus::kInfeasible);
}

TEST(MipTest, InfeasibleLpRelaxationIsInfeasible) {
  LpModel m;
  int x = m.AddVariable(0, 1, 1.0);
  m.SetInteger(x);
  m.AddConstraint(ConstraintType::kGreaterEqual, 5.0, {{x, 1.0}});
  EXPECT_EQ(SolveMip(m).status, MipStatus::kInfeasible);
}

TEST(MipTest, PureLpPassesThrough) {
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, 4, 1.0);
  m.AddConstraint(ConstraintType::kLessEqual, 2.5, {{x, 1.0}});
  MipResult r = SolveMip(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.5, 1e-6);
}

TEST(MipTest, InitialSolutionActsAsIncumbent) {
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, 8, 1.0);
  m.SetInteger(x);
  m.AddConstraint(ConstraintType::kLessEqual, 13.0, {{x, 2.0}});
  MipOptions options;
  options.initial_solution = {5.0};
  MipResult r = SolveMip(m, options);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 6.0, 1e-9);  // improves past the warm start
}

TEST(MipTest, InfeasibleWarmStartIsIgnored) {
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, 3, 1.0);
  m.SetInteger(x);
  MipOptions options;
  options.initial_solution = {99.0};  // violates bounds
  MipResult r = SolveMip(m, options);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-9);
}

TEST(MipTest, ExpiredDeadlineStillReturnsGracefully) {
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, 5, 1.0);
  m.SetInteger(x);
  MipOptions options;
  options.deadline = Deadline::AfterSeconds(0.0);
  MipResult r = SolveMip(m, options);
  EXPECT_TRUE(r.status == MipStatus::kNoSolutionFound ||
              r.status == MipStatus::kFeasible ||
              r.status == MipStatus::kOptimal);
  EXPECT_EQ(r.stop, MipStop::kDeadline);
}

TEST(MipTest, GapIsZeroWhenOptimal) {
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, 3, 1.0);
  m.SetInteger(x);
  MipResult r = SolveMip(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.Gap(), 0.0, 1e-9);
}

// A knapsack-ish model with enough branching to exceed 1 node.
LpModel BranchingKnapsack() {
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  Rng rng(4);
  std::vector<LinearTerm> terms;
  for (int j = 0; j < 12; ++j) {
    int v = m.AddVariable(0, 1, rng.NextDouble(1.0, 10.0));
    m.SetInteger(v);
    terms.push_back({v, rng.NextDouble(1.0, 5.0)});
  }
  m.AddConstraint(ConstraintType::kLessEqual, 10.0, std::move(terms));
  return m;
}

TEST(MipTest, NodeLimitStopsEarly) {
  MipOptions options;
  options.max_nodes = 2;
  options.dive_frequency = 0;  // no heuristic help
  MipResult r = SolveMip(BranchingKnapsack(), options);
  EXPECT_LE(r.nodes_explored, 2);
  EXPECT_NE(r.status, MipStatus::kOptimal);
  EXPECT_EQ(r.stop, MipStop::kNodeCap);
}

TEST(MipTest, WorkCapStopsEarly) {
  const LpModel m = BranchingKnapsack();
  const MipResult full = SolveMip(m);
  ASSERT_EQ(full.status, MipStatus::kOptimal);
  EXPECT_EQ(full.stop, MipStop::kNone);
  MipOptions options;
  options.max_lp_iterations = 1;
  const MipResult r = SolveMip(m, options);
  EXPECT_LE(r.lp_iterations, 1);
  EXPECT_EQ(r.stop, MipStop::kWorkCap);
}


TEST(MipTest, BestBoundBracketsOptimum) {
  // Stop early by node limit: the reported bound must be >= the true
  // optimum (maximization) and >= the incumbent.
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  Rng rng(11);
  std::vector<LinearTerm> terms;
  for (int j = 0; j < 14; ++j) {
    int v = m.AddVariable(0, 1, rng.NextDouble(1.0, 9.0));
    m.SetInteger(v);
    terms.push_back({v, rng.NextDouble(1.0, 4.0)});
  }
  m.AddConstraint(ConstraintType::kLessEqual, 12.0, std::move(terms));
  MipResult full = SolveMip(m);
  ASSERT_EQ(full.status, MipStatus::kOptimal);
  MipOptions limited;
  limited.max_nodes = 3;
  MipResult partial = SolveMip(m, limited);
  if (partial.has_solution()) {
    EXPECT_LE(partial.objective, full.objective + 1e-6);
    EXPECT_GE(partial.best_bound, full.objective - 1e-6);
    EXPECT_GE(partial.Gap(), 0.0);
  }
}

TEST(MipTest, UnfinishedNodeKeepsItsBound) {
  // A per-solve pivot cap that the root LP fits under but some cold child
  // LPs exceed: those nodes end at the iteration limit and are dropped
  // unsearched. Their parent bound must stay in the reported bound, so it
  // can never be tighter than the true optimum.
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  Rng rng(1);
  const int n = 10;
  for (int j = 0; j < n; ++j) {
    m.SetInteger(m.AddVariable(0, 1, rng.NextDouble(1.0, 9.0)));
  }
  for (int r = 0; r < 3; ++r) {
    std::vector<LinearTerm> terms;
    for (int j = 0; j < n; ++j) terms.push_back({j, rng.NextDouble(1.0, 4.0)});
    m.AddConstraint(ConstraintType::kLessEqual, 9.0, std::move(terms));
  }
  const MipResult full = SolveMip(m);
  ASSERT_EQ(full.status, MipStatus::kOptimal);
  const LpResult root = SolveLp(m);
  ASSERT_EQ(root.status, LpStatus::kOptimal);

  int capped_runs = 0;
  for (int cap = root.iterations; cap < root.iterations + 6; ++cap) {
    MipOptions options;
    options.lp_options.max_iterations = cap;
    options.warm_start_nodes = false;  // every child solves cold
    options.dive_frequency = 0;
    const MipResult r = SolveMip(m, options);
    ASSERT_TRUE(r.has_root_lp) << "cap " << cap;
    if (r.status != MipStatus::kOptimal) ++capped_runs;
    EXPECT_GE(r.best_bound, full.objective - 1e-6)
        << "cap " << cap << ": " << MipStatusToString(r.status);
    if (r.has_solution()) {
      EXPECT_LE(r.objective, full.objective + 1e-6) << "cap " << cap;
    }
  }
  EXPECT_GT(capped_runs, 0);
}

TEST(MipTest, MinimizationMirrorsMaximization) {
  // min c'x == -max (-c)'x on the same feasible set.
  Rng rng(13);
  LpModel min_model;
  LpModel max_model;
  max_model.SetObjectiveSense(ObjectiveSense::kMaximize);
  std::vector<LinearTerm> t1, t2;
  for (int j = 0; j < 6; ++j) {
    const double c = rng.NextDouble(-3.0, 3.0);
    int a = min_model.AddVariable(0, 3, c);
    int b = max_model.AddVariable(0, 3, -c);
    min_model.SetInteger(a);
    max_model.SetInteger(b);
    const double w = rng.NextDouble(0.5, 2.0);
    t1.push_back({a, w});
    t2.push_back({b, w});
  }
  min_model.AddConstraint(ConstraintType::kGreaterEqual, 4.0, std::move(t1));
  max_model.AddConstraint(ConstraintType::kGreaterEqual, 4.0, std::move(t2));
  MipResult rmin = SolveMip(min_model);
  MipResult rmax = SolveMip(max_model);
  ASSERT_EQ(rmin.status, MipStatus::kOptimal);
  ASSERT_EQ(rmax.status, MipStatus::kOptimal);
  EXPECT_NEAR(rmin.objective, -rmax.objective, 1e-6);
}

// Property: B&B matches exhaustive enumeration on random small MIPs.
class RandomMipTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomMipTest, MatchesBruteForce) {
  Rng rng(500 + GetParam());
  const int n = 2 + static_cast<int>(rng.NextUint64(4));  // 2..5 vars
  const bool maximize = rng.NextBool(0.5);
  LpModel m;
  m.SetObjectiveSense(maximize ? ObjectiveSense::kMaximize
                               : ObjectiveSense::kMinimize);
  for (int j = 0; j < n; ++j) {
    int v = m.AddVariable(0, 1 + rng.NextUint64(3), rng.NextDouble(-3, 3));
    m.SetInteger(v);
  }
  const int k = 1 + static_cast<int>(rng.NextUint64(3));
  for (int c = 0; c < k; ++c) {
    std::vector<LinearTerm> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.NextBool(0.8)) terms.push_back({j, rng.NextDouble(-1.0, 2.0)});
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    const double rhs = rng.NextDouble(-1.0, 6.0);
    m.AddConstraint(rng.NextBool(0.7) ? ConstraintType::kLessEqual
                                      : ConstraintType::kGreaterEqual,
                    rhs, std::move(terms));
  }

  std::optional<double> expected = BruteForce(m);
  MipResult r = SolveMip(m);
  if (!expected.has_value()) {
    EXPECT_EQ(r.status, MipStatus::kInfeasible) << "param " << GetParam();
  } else {
    ASSERT_EQ(r.status, MipStatus::kOptimal) << "param " << GetParam();
    EXPECT_NEAR(r.objective, *expected, 1e-5) << "param " << GetParam();
    EXPECT_TRUE(m.CheckFeasible(r.solution, 1e-6).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMipTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace rasa
