#include <cmath>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace rasa {
namespace {

// ------------------------------------------------------------- LpModel ----

TEST(LpModelTest, BuildsAndValidates) {
  LpModel m;
  int x = m.AddVariable(0, 10, 1.0, "x");
  int y = m.AddVariable(0, kLpInfinity, 2.0);
  m.AddConstraint(ConstraintType::kLessEqual, 5.0, {{x, 1.0}, {y, 1.0}});
  EXPECT_EQ(m.num_variables(), 2);
  EXPECT_EQ(m.num_constraints(), 1);
  EXPECT_TRUE(m.Validate().ok());
}

TEST(LpModelTest, MergesDuplicateTerms) {
  LpModel m;
  int x = m.AddVariable(0, 1, 0.0);
  m.AddConstraint(ConstraintType::kEqual, 3.0, {{x, 1.0}, {x, 2.0}});
  ASSERT_EQ(m.constraint_terms(0).size(), 1u);
  EXPECT_DOUBLE_EQ(m.constraint_terms(0)[0].coefficient, 3.0);
}

TEST(LpModelTest, DropsZeroCoefficients) {
  LpModel m;
  int x = m.AddVariable(0, 1, 0.0);
  int y = m.AddVariable(0, 1, 0.0);
  m.AddConstraint(ConstraintType::kEqual, 1.0, {{x, 1.0}, {y, 0.0}});
  EXPECT_EQ(m.constraint_terms(0).size(), 1u);
}

TEST(LpModelTest, ValidateCatchesBadBounds) {
  LpModel m;
  m.AddVariable(2.0, 1.0, 0.0);
  EXPECT_FALSE(m.Validate().ok());
}

TEST(LpModelTest, ValidateCatchesBadVariableIndex) {
  LpModel m;
  m.AddVariable(0, 1, 0);
  m.AddConstraint(ConstraintType::kEqual, 0.0, {{5, 1.0}});
  EXPECT_FALSE(m.Validate().ok());
}

TEST(LpModelTest, CheckFeasibleDetectsViolations) {
  LpModel m;
  int x = m.AddVariable(0, 10, 1.0);
  m.SetInteger(x);
  m.AddConstraint(ConstraintType::kLessEqual, 5.0, {{x, 1.0}});
  EXPECT_TRUE(m.CheckFeasible({4.0}).ok());
  EXPECT_FALSE(m.CheckFeasible({6.0}).ok());    // constraint
  EXPECT_FALSE(m.CheckFeasible({-1.0}).ok());   // bound
  EXPECT_FALSE(m.CheckFeasible({2.5}).ok());    // integrality
  EXPECT_FALSE(m.CheckFeasible({1.0, 2.0}).ok());  // size
}

// The audit tolerance is tied to the kernel tolerance
// (LpOptions::FeasibilityTolerance() == 10 * tolerance): solutions the
// kernel would accept pass the audit at the derived tolerance on both
// sides of the boundary, and the coupling tracks overrides.
TEST(LpModelTest, FeasibilityToleranceTracksKernelTolerance) {
  LpOptions options;  // tolerance = 1e-7
  EXPECT_DOUBLE_EQ(options.FeasibilityTolerance(), 1e-6);
  options.tolerance = 1e-9;
  EXPECT_DOUBLE_EQ(options.FeasibilityTolerance(), 1e-8);

  LpModel m;
  int x = m.AddVariable(0, 10, 1.0);
  m.AddConstraint(ConstraintType::kLessEqual, 5.0, {{x, 1.0}});
  // Violation between the two derived tolerances: the default audit
  // accepts it, the tightened audit rejects it — a differential that only
  // holds while the audit tolerance derives from the kernel tolerance.
  const std::vector<double> boundary = {5.0 + 1e-7};
  LpOptions defaults;
  EXPECT_TRUE(m.CheckFeasible(boundary, defaults.FeasibilityTolerance()).ok());
  EXPECT_FALSE(m.CheckFeasible(boundary, options.FeasibilityTolerance()).ok());
  // Just inside even the tightened audit: both accept.
  const std::vector<double> inside = {5.0 + 1e-9};
  EXPECT_TRUE(m.CheckFeasible(inside, defaults.FeasibilityTolerance()).ok());
  EXPECT_TRUE(m.CheckFeasible(inside, options.FeasibilityTolerance()).ok());
}

TEST(LpModelTest, ObjectiveValue) {
  LpModel m;
  int x = m.AddVariable(0, 10, 2.0);
  int y = m.AddVariable(0, 10, -1.0);
  (void)x;
  (void)y;
  EXPECT_DOUBLE_EQ(m.ObjectiveValue({3.0, 4.0}), 2.0);
}

// ------------------------------------------------------------- Simplex ----

TEST(SimplexTest, SolvesTextbookMaximization) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18; optimum (2, 6) = 36.
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, kLpInfinity, 3.0);
  int y = m.AddVariable(0, kLpInfinity, 5.0);
  m.AddConstraint(ConstraintType::kLessEqual, 4.0, {{x, 1.0}});
  m.AddConstraint(ConstraintType::kLessEqual, 12.0, {{y, 2.0}});
  m.AddConstraint(ConstraintType::kLessEqual, 18.0, {{x, 3.0}, {y, 2.0}});
  LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 36.0, 1e-6);
  EXPECT_NEAR(r.primal[x], 2.0, 1e-6);
  EXPECT_NEAR(r.primal[y], 6.0, 1e-6);
}

TEST(SimplexTest, SolvesMinimizationWithEqualities) {
  // min x + 2y st x + y == 3, x - y == 1 -> x=2, y=1, obj=4.
  LpModel m;
  int x = m.AddVariable(0, kLpInfinity, 1.0);
  int y = m.AddVariable(0, kLpInfinity, 2.0);
  m.AddConstraint(ConstraintType::kEqual, 3.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintType::kEqual, 1.0, {{x, 1.0}, {y, -1.0}});
  LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-6);
  EXPECT_NEAR(r.primal[x], 2.0, 1e-6);
  EXPECT_NEAR(r.primal[y], 1.0, 1e-6);
}

TEST(SimplexTest, IterationsSplitIntoPhases) {
  // The textbook model pivots in both phases (the solver starts from an
  // all-artificial basis, so phase 1 works whenever b != 0) and the split
  // must account for every pivot exactly.
  LpModel easy;
  easy.SetObjectiveSense(ObjectiveSense::kMaximize);
  int x = easy.AddVariable(0, kLpInfinity, 3.0);
  int y = easy.AddVariable(0, kLpInfinity, 5.0);
  easy.AddConstraint(ConstraintType::kLessEqual, 4.0, {{x, 1.0}});
  easy.AddConstraint(ConstraintType::kLessEqual, 12.0, {{y, 2.0}});
  easy.AddConstraint(ConstraintType::kLessEqual, 18.0, {{x, 3.0}, {y, 2.0}});
  LpResult r = SolveLp(easy);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_GE(r.phase1_iterations, 0);
  EXPECT_GT(r.phase2_iterations, 0);
  EXPECT_EQ(r.iterations, r.phase1_iterations + r.phase2_iterations);

  // Equality rows always force a phase-1 feasibility search.
  LpModel eq;
  x = eq.AddVariable(0, kLpInfinity, 1.0);
  y = eq.AddVariable(0, kLpInfinity, 2.0);
  eq.AddConstraint(ConstraintType::kEqual, 3.0, {{x, 1.0}, {y, 1.0}});
  eq.AddConstraint(ConstraintType::kEqual, 1.0, {{x, 1.0}, {y, -1.0}});
  LpResult req = SolveLp(eq);
  ASSERT_EQ(req.status, LpStatus::kOptimal);
  EXPECT_GT(req.phase1_iterations, 0);
  EXPECT_EQ(req.iterations, req.phase1_iterations + req.phase2_iterations);

  // A model feasible at the origin (b == 0 rows only) needs no phase 1.
  LpModel zero;
  zero.SetObjectiveSense(ObjectiveSense::kMaximize);
  x = zero.AddVariable(0, 2.0, 1.0);
  y = zero.AddVariable(0, 2.0, 1.0);
  zero.AddConstraint(ConstraintType::kLessEqual, 0.0, {{x, 1.0}, {y, -1.0}});
  LpResult rz = SolveLp(zero);
  ASSERT_EQ(rz.status, LpStatus::kOptimal);
  EXPECT_EQ(rz.phase1_iterations, 0);
  EXPECT_EQ(rz.iterations, rz.phase1_iterations + rz.phase2_iterations);
}

TEST(SimplexTest, GreaterEqualConstraints) {
  // min 2x + 3y st x + y >= 4, x >= 1 -> (4, 0) obj 8.
  LpModel m;
  int x = m.AddVariable(0, kLpInfinity, 2.0);
  int y = m.AddVariable(0, kLpInfinity, 3.0);
  m.AddConstraint(ConstraintType::kGreaterEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintType::kGreaterEqual, 1.0, {{x, 1.0}});
  LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 8.0, 1e-6);
}

TEST(SimplexTest, DetectsInfeasible) {
  LpModel m;
  int x = m.AddVariable(0, 1, 1.0);
  m.AddConstraint(ConstraintType::kGreaterEqual, 5.0, {{x, 1.0}});
  EXPECT_EQ(SolveLp(m).status, LpStatus::kInfeasible);
}

TEST(SimplexTest, DetectsInfeasibleEqualitySystem) {
  LpModel m;
  int x = m.AddVariable(0, kLpInfinity, 1.0);
  m.AddConstraint(ConstraintType::kEqual, 1.0, {{x, 1.0}});
  m.AddConstraint(ConstraintType::kEqual, 2.0, {{x, 1.0}});
  EXPECT_EQ(SolveLp(m).status, LpStatus::kInfeasible);
}

// Regression: the post-phase-1 feasibility re-check used a hardcoded 1e-6
// while the entry check honored options.tolerance, so a caller-loosened
// tolerance was ignored — a system infeasible by 5e-4 must count as
// feasible at tolerance 1e-2 (and stay infeasible at the 1e-7 default).
TEST(SimplexTest, PhaseOneRecheckHonorsNonDefaultTolerance) {
  LpModel m;
  int x = m.AddVariable(0, kLpInfinity, 1.0);
  m.AddConstraint(ConstraintType::kEqual, 1.0, {{x, 1.0}});
  m.AddConstraint(ConstraintType::kEqual, 1.0005, {{x, 1.0}});

  EXPECT_EQ(SolveLp(m).status, LpStatus::kInfeasible);

  LpOptions loose;
  loose.tolerance = 1e-2;
  const LpResult r = SolveLp(m, loose);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.primal[x], 1.0, 1e-2);
}

TEST(SimplexTest, DetectsUnbounded) {
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, kLpInfinity, 1.0);
  int y = m.AddVariable(0, kLpInfinity, 0.0);
  m.AddConstraint(ConstraintType::kGreaterEqual, 0.0, {{x, 1.0}, {y, -1.0}});
  EXPECT_EQ(SolveLp(m).status, LpStatus::kUnbounded);
}

TEST(SimplexTest, HandlesBoundedVariablesViaFlips) {
  // max x + y with 1 <= x <= 2, 0 <= y <= 3 and x + y <= 4 -> (2, 2)? No:
  // optimum total 4 with x=2, y=2 (constraint binds). obj = 4.
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  int x = m.AddVariable(1, 2, 1.0);
  int y = m.AddVariable(0, 3, 1.0);
  m.AddConstraint(ConstraintType::kLessEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-6);
  EXPECT_GE(r.primal[x], 1.0 - 1e-9);
}

TEST(SimplexTest, HandlesNegativeLowerBounds) {
  // min x st x >= -5 (bound), x + 3 >= 0 -> x = -3.
  LpModel m;
  int x = m.AddVariable(-5, kLpInfinity, 1.0);
  m.AddConstraint(ConstraintType::kGreaterEqual, -3.0, {{x, 1.0}});
  LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.primal[x], -3.0, 1e-6);
}

TEST(SimplexTest, HandlesFreeVariables) {
  // min y st y >= x - 4, y >= -x, x free, y free: optimum y = -2 at x = 2.
  LpModel m;
  int x = m.AddVariable(-kLpInfinity, kLpInfinity, 0.0);
  int y = m.AddVariable(-kLpInfinity, kLpInfinity, 1.0);
  m.AddConstraint(ConstraintType::kGreaterEqual, -4.0, {{y, 1.0}, {x, -1.0}});
  m.AddConstraint(ConstraintType::kGreaterEqual, 0.0, {{y, 1.0}, {x, 1.0}});
  LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -2.0, 1e-6);
}

TEST(SimplexTest, FixedVariablesRespected) {
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  int x = m.AddVariable(2, 2, 1.0);  // fixed at 2
  int y = m.AddVariable(0, 10, 1.0);
  m.AddConstraint(ConstraintType::kLessEqual, 5.0, {{x, 1.0}, {y, 1.0}});
  LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.primal[x], 2.0, 1e-9);
  EXPECT_NEAR(r.primal[y], 3.0, 1e-6);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the same vertex.
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, kLpInfinity, 1.0);
  int y = m.AddVariable(0, kLpInfinity, 1.0);
  m.AddConstraint(ConstraintType::kLessEqual, 2.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintType::kLessEqual, 2.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintType::kLessEqual, 4.0, {{x, 2.0}, {y, 2.0}});
  m.AddConstraint(ConstraintType::kLessEqual, 2.0, {{x, 1.0}});
  m.AddConstraint(ConstraintType::kLessEqual, 2.0, {{y, 1.0}});
  LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);
}

TEST(SimplexTest, RedundantEqualityRowsAreHandled) {
  LpModel m;
  int x = m.AddVariable(0, kLpInfinity, 1.0);
  int y = m.AddVariable(0, kLpInfinity, 1.0);
  m.AddConstraint(ConstraintType::kEqual, 2.0, {{x, 1.0}, {y, 1.0}});
  m.AddConstraint(ConstraintType::kEqual, 4.0, {{x, 2.0}, {y, 2.0}});  // 2x first
  LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);
}

TEST(SimplexTest, EmptyModelIsTriviallyOptimal) {
  LpModel m;
  LpResult r = SolveLp(m);
  EXPECT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.objective, 0.0);
}

TEST(SimplexTest, NoConstraintsUsesBounds) {
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  int x = m.AddVariable(-1, 7, 2.0);
  int y = m.AddVariable(-3, 5, -1.0);
  LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.primal[x], 7.0, 1e-9);
  EXPECT_NEAR(r.primal[y], -3.0, 1e-9);
  EXPECT_NEAR(r.objective, 17.0, 1e-9);
}

TEST(SimplexTest, DualsSatisfyStrongDualityOnKnownLp) {
  // max 3x + 5y as in the textbook case; duals (0, 1.5, 1) -> y.b = 36.
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0, kLpInfinity, 3.0);
  int y = m.AddVariable(0, kLpInfinity, 5.0);
  m.AddConstraint(ConstraintType::kLessEqual, 4.0, {{x, 1.0}});
  m.AddConstraint(ConstraintType::kLessEqual, 12.0, {{y, 2.0}});
  m.AddConstraint(ConstraintType::kLessEqual, 18.0, {{x, 3.0}, {y, 2.0}});
  LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  ASSERT_EQ(r.dual.size(), 3u);
  double dual_obj = 4.0 * r.dual[0] + 12.0 * r.dual[1] + 18.0 * r.dual[2];
  EXPECT_NEAR(dual_obj, 36.0, 1e-6);
  EXPECT_NEAR(r.dual[1], 1.5, 1e-6);
  EXPECT_NEAR(r.dual[2], 1.0, 1e-6);
  // Reduced costs of basic variables vanish.
  EXPECT_NEAR(r.reduced_costs[x], 0.0, 1e-6);
  EXPECT_NEAR(r.reduced_costs[y], 0.0, 1e-6);
}


TEST(SimplexTest, GreaterEqualDualsHaveModelSenseSigns) {
  // min 2x st x >= 3: dual of the >= row should price the rhs: obj = 6.
  LpModel m;
  int x = m.AddVariable(0, kLpInfinity, 2.0);
  m.AddConstraint(ConstraintType::kGreaterEqual, 3.0, {{x, 1.0}});
  LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 6.0, 1e-9);
  ASSERT_EQ(r.dual.size(), 1u);
  EXPECT_NEAR(r.dual[0] * 3.0, 6.0, 1e-6);  // strong duality
}

TEST(SimplexTest, ManyPivotsStayNumericallyInBounds) {
  // A chain of coupled rows forces a long pivot sequence; the periodic
  // basic-value refresh must keep the returned primal inside its bounds.
  Rng rng(99);
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  const int n = 60;
  std::vector<int> vars;
  for (int j = 0; j < n; ++j) {
    vars.push_back(m.AddVariable(0.0, 3.0, rng.NextDouble(0.5, 2.0)));
  }
  for (int j = 0; j + 1 < n; ++j) {
    m.AddConstraint(ConstraintType::kLessEqual, rng.NextDouble(2.0, 5.0),
                    {{vars[j], 1.0}, {vars[j + 1], rng.NextDouble(0.5, 1.5)}});
  }
  LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  for (int j = 0; j < n; ++j) {
    EXPECT_GE(r.primal[j], -1e-9);
    EXPECT_LE(r.primal[j], 3.0 + 1e-9);
  }
  EXPECT_TRUE(m.CheckFeasible(r.primal, 1e-5).ok());
}
TEST(SimplexTest, SlackLeavesFirstOnDegenerateTie) {
  // max z  s.t.  y + z = 0,  z <= 0, started from the basis {y, slack of
  // row 1}, both at 0. z enters and both basics reach their bound at
  // t = 0 with |w| = 1: the slack leaves, the structural y stays basic.
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  const int y = m.AddVariable(0, kLpInfinity, 0.0);
  const int z = m.AddVariable(0, kLpInfinity, 1.0);
  m.AddConstraint(ConstraintType::kEqual, 0.0, {{y, 1.0}, {z, 1.0}});
  m.AddConstraint(ConstraintType::kLessEqual, 0.0, {{z, 1.0}});
  const int n = m.num_variables();
  LpBasis start;
  start.basic = {y, n + 1};
  start.state = {LpVarStatus::kBasic, LpVarStatus::kAtLower,
                 LpVarStatus::kAtLower, LpVarStatus::kBasic};
  LpBasis final_basis;
  LpOptions options;
  options.warm_basis = &start;
  options.result_basis = &final_basis;
  LpResult r = SolveLp(m, options);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_TRUE(r.warm_started);
  EXPECT_EQ(r.phase1_iterations, 0);
  ASSERT_EQ(final_basis.state.size(), 4u);
  EXPECT_EQ(final_basis.state[y], LpVarStatus::kBasic);
  EXPECT_EQ(final_basis.state[z], LpVarStatus::kBasic);
  EXPECT_NE(final_basis.state[n + 1], LpVarStatus::kBasic);
}

TEST(LpModelTest, AddColumnAndRemoveVariablesKeepColumnsInStep) {
  LpModel m;
  m.AddConstraint(ConstraintType::kEqual, 1.0, {});
  m.AddConstraint(ConstraintType::kLessEqual, 4.0, {});
  const int a = m.AddColumn(0, 1, 1.0, {{1, 2.0}, {0, 1.0}});
  m.column(a);  // compile the column view, which AddColumn must keep valid
  const int b = m.AddColumn(0, 1, 2.0, {{0, 1.0}, {1, 0.0}});
  const int c = m.AddColumn(0, 1, 3.0, {{0, 1.0}, {1, 3.0}});
  ASSERT_EQ(m.column(b).size, 1);
  ASSERT_EQ(m.column(c).size, 2);
  EXPECT_EQ(m.column(c).data[1].row, 1);
  EXPECT_TRUE(m.Validate().ok());

  const std::vector<int> new_index = m.RemoveVariables({0, 1, 0});
  EXPECT_EQ(new_index, (std::vector<int>{0, -1, 1}));
  ASSERT_EQ(m.num_variables(), 2);
  EXPECT_DOUBLE_EQ(m.objective_coefficient(1), 3.0);
  ASSERT_EQ(m.constraint_terms(1).size(), 2u);
  EXPECT_EQ(m.constraint_terms(1)[1].variable, 1);
  EXPECT_DOUBLE_EQ(m.constraint_terms(1)[1].coefficient, 3.0);
  ASSERT_EQ(m.column(1).size, 2);
  EXPECT_DOUBLE_EQ(m.column(1).data[1].value, 3.0);
  EXPECT_TRUE(m.Validate().ok());
}

TEST(SimplexTest, DeadlineIsHonored) {
  LpOptions options;
  options.deadline = Deadline::AfterSeconds(0.0);
  LpModel m;
  int x = m.AddVariable(0, kLpInfinity, -1.0);
  m.AddConstraint(ConstraintType::kLessEqual, 1.0, {{x, 1.0}});
  LpResult r = SolveLp(m, options);
  // With an already-expired deadline we get a deadline status (the model is
  // not solved to optimality) unless it terminated before the first check.
  EXPECT_TRUE(r.status == LpStatus::kDeadlineExceeded ||
              r.status == LpStatus::kOptimal);
}

TEST(SimplexTest, IterationLimitReported) {
  LpOptions options;
  options.max_iterations = 1;
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  std::vector<int> vars;
  for (int i = 0; i < 6; ++i) vars.push_back(m.AddVariable(0, 10, 1.0 + i));
  for (int i = 0; i < 6; ++i) {
    m.AddConstraint(ConstraintType::kLessEqual, 5.0,
                    {{vars[i], 1.0}, {vars[(i + 1) % 6], 1.0}});
  }
  LpResult r = SolveLp(m, options);
  EXPECT_EQ(r.status, LpStatus::kIterationLimit);
}

// Property test: on random feasible LPs the simplex solution must be
// feasible and at least as good as a large random feasible sample.
class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, FeasibleAndNotBeatenByRandomSearch) {
  Rng rng(1000 + GetParam());
  const int n = 2 + static_cast<int>(rng.NextUint64(4));
  const int k = 1 + static_cast<int>(rng.NextUint64(4));
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  std::vector<double> ub(n);
  for (int j = 0; j < n; ++j) {
    ub[j] = 1.0 + rng.NextDouble() * 9.0;
    m.AddVariable(0.0, ub[j], rng.NextDouble(-2.0, 3.0));
  }
  // Constraints with nonnegative coefficients and rhs >= 0: x = 0 feasible.
  for (int c = 0; c < k; ++c) {
    std::vector<LinearTerm> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.NextBool(0.7)) terms.push_back({j, rng.NextDouble(0.1, 2.0)});
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    m.AddConstraint(ConstraintType::kLessEqual, rng.NextDouble(1.0, 10.0),
                    std::move(terms));
  }
  LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal) << "param " << GetParam();
  EXPECT_TRUE(m.CheckFeasible(r.primal, 1e-5).ok());

  // Random search must not beat the simplex.
  double best_random = -1e300;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<double> x(n);
    for (int j = 0; j < n; ++j) x[j] = rng.NextDouble() * ub[j];
    if (!m.CheckFeasible(x, 1e-9).ok()) {
      // Scale down until feasible (cheap repair).
      for (double f = 0.9; f > 0.05; f *= 0.8) {
        std::vector<double> y(n);
        for (int j = 0; j < n; ++j) y[j] = x[j] * f;
        if (m.CheckFeasible(y, 1e-9).ok()) {
          x = y;
          break;
        }
      }
      if (!m.CheckFeasible(x, 1e-9).ok()) continue;
    }
    best_random = std::max(best_random, m.ObjectiveValue(x));
  }
  EXPECT_GE(r.objective, best_random - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpTest, ::testing::Range(0, 25));

// Property: strong duality on random equality-constrained LPs with finite
// optimum — primal objective equals b'y + bound contributions.
class RandomDualityTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomDualityTest, ComplementarySlackness) {
  Rng rng(7000 + GetParam());
  const int n = 3 + static_cast<int>(rng.NextUint64(3));
  LpModel m;
  std::vector<double> ub(n);
  for (int j = 0; j < n; ++j) {
    ub[j] = 2.0 + rng.NextDouble() * 5.0;
    m.AddVariable(0.0, ub[j], rng.NextDouble(-1.0, 2.0));
  }
  const int k = 2;
  for (int c = 0; c < k; ++c) {
    std::vector<LinearTerm> terms;
    for (int j = 0; j < n; ++j) terms.push_back({j, rng.NextDouble(0.2, 1.5)});
    m.AddConstraint(ConstraintType::kLessEqual, rng.NextDouble(2.0, 8.0),
                    std::move(terms));
  }
  LpResult r = SolveLp(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  // For each constraint: dual != 0 implies the row is tight.
  for (int c = 0; c < m.num_constraints(); ++c) {
    double lhs = 0.0;
    for (const LinearTerm& t : m.constraint_terms(c)) {
      lhs += t.coefficient * r.primal[t.variable];
    }
    if (std::abs(r.dual[c]) > 1e-6) {
      EXPECT_NEAR(lhs, m.rhs(c), 1e-5) << "constraint " << c;
    }
  }
  // For each variable strictly inside its bounds, reduced cost ~ 0.
  for (int j = 0; j < n; ++j) {
    if (r.primal[j] > 1e-6 && r.primal[j] < ub[j] - 1e-6) {
      EXPECT_NEAR(r.reduced_costs[j], 0.0, 1e-5) << "variable " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDualityTest, ::testing::Range(0, 15));

}  // namespace
}  // namespace rasa
