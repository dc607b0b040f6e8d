// Differential fuzz: SolveLp (the sparse revised simplex) against the
// dense-tableau reference in dense_tableau_oracle.h on seeded random LPs
// (degenerate, infeasible, and unbounded instances included). Both kernels
// implement the same standard form and pivot rules, so statuses must agree
// exactly and optimal objectives to within tolerance; primal points are
// additionally audited for feasibility against the model, not against each
// other (degenerate optima may differ vertex-by-vertex).

#include <cmath>

#include "common/rng.h"
#include "dense_tableau_oracle.h"
#include "gtest/gtest.h"
#include "lp/model.h"
#include "lp/simplex.h"

namespace rasa {
namespace {

constexpr double kTol = 1e-6;

// Audits `primal` against the model's bounds and rows.
void ExpectFeasible(const LpModel& model, const std::vector<double>& primal,
                    uint64_t seed) {
  ASSERT_EQ(static_cast<int>(primal.size()), model.num_variables());
  for (int v = 0; v < model.num_variables(); ++v) {
    EXPECT_GE(primal[v], model.lower_bound(v) - kTol) << "seed " << seed;
    EXPECT_LE(primal[v], model.upper_bound(v) + kTol) << "seed " << seed;
  }
  for (int c = 0; c < model.num_constraints(); ++c) {
    double lhs = 0.0;
    for (const LinearTerm& t : model.constraint_terms(c)) {
      lhs += t.coefficient * primal[t.variable];
    }
    const double rhs = model.rhs(c);
    const double slack = lhs - rhs;
    switch (model.constraint_type(c)) {
      case ConstraintType::kLessEqual:
        EXPECT_LE(slack, kTol) << "seed " << seed << " row " << c;
        break;
      case ConstraintType::kGreaterEqual:
        EXPECT_GE(slack, -kTol) << "seed " << seed << " row " << c;
        break;
      case ConstraintType::kEqual:
        EXPECT_NEAR(slack, 0.0, kTol) << "seed " << seed << " row " << c;
        break;
    }
  }
}

// Seeded random LP with deliberate degeneracy (integer data, duplicate
// rows, zero right-hand sides) and occasional built-in contradictions.
LpModel RandomModel(uint64_t seed) {
  Rng rng(seed * 2654435761ULL + 17);
  LpModel m;
  m.SetObjectiveSense(rng.NextBool(0.5) ? ObjectiveSense::kMaximize
                                        : ObjectiveSense::kMinimize);
  const bool big = seed % 7 == 0;
  const int n = 1 + static_cast<int>(rng.NextUint64(big ? 48 : 12));
  const int rows = 1 + static_cast<int>(rng.NextUint64(big ? 24 : 10));
  for (int v = 0; v < n; ++v) {
    const double c = static_cast<double>(rng.NextInt(-5, 5));
    const double roll = rng.NextDouble();
    if (roll < 0.55) {
      m.AddVariable(0.0, rng.NextBool(0.5) ? kLpInfinity
                                           : static_cast<double>(
                                                 rng.NextInt(1, 10)),
                    c);
    } else if (roll < 0.65) {
      m.AddVariable(-kLpInfinity, kLpInfinity, c);  // free
    } else if (roll < 0.75) {
      const double lo = static_cast<double>(rng.NextInt(-6, 0));
      m.AddVariable(lo, lo + static_cast<double>(rng.NextInt(0, 8)), c);
    } else if (roll < 0.85) {
      const double fix = static_cast<double>(rng.NextInt(-3, 3));
      m.AddVariable(fix, fix, c);  // fixed
    } else {
      m.AddVariable(-kLpInfinity, static_cast<double>(rng.NextInt(-2, 8)),
                    c);  // upper-bounded only
    }
  }
  std::vector<LinearTerm> last;
  for (int r = 0; r < rows; ++r) {
    std::vector<LinearTerm> terms;
    if (r > 0 && !last.empty() && rng.NextBool(0.15)) {
      terms = last;  // duplicate row: forced degeneracy
    } else {
      for (int v = 0; v < n; ++v) {
        if (!rng.NextBool(0.4)) continue;
        const double a = static_cast<double>(rng.NextInt(1, 4)) *
                         (rng.NextBool(0.5) ? 1.0 : -1.0);
        terms.push_back({v, a});
      }
      if (terms.empty()) terms.push_back({0, 1.0});
    }
    last = terms;
    const ConstraintType type =
        rng.NextBool(0.4) ? ConstraintType::kLessEqual
        : rng.NextBool(0.5) ? ConstraintType::kGreaterEqual
                            : ConstraintType::kEqual;
    const double rhs = rng.NextBool(0.2)
                           ? 0.0
                           : static_cast<double>(rng.NextInt(-10, 10));
    m.AddConstraint(type, rhs, std::move(terms));
  }
  return m;
}

void CompareOnce(const LpModel& model, uint64_t seed) {
  const LpResult dense = testing::SolveLpDenseTableau(model);
  const LpResult revised = SolveLp(model);

  ASSERT_EQ(dense.status, revised.status)
      << "seed " << seed << ": dense " << LpStatusToString(dense.status)
      << " vs revised " << LpStatusToString(revised.status);
  if (dense.status != LpStatus::kOptimal) return;
  EXPECT_NEAR(dense.objective, revised.objective,
              kTol * std::max(1.0, std::abs(dense.objective)))
      << "seed " << seed;
  ExpectFeasible(model, dense.primal, seed);
  ExpectFeasible(model, revised.primal, seed);
  EXPECT_GE(revised.refactorizations, 1) << "seed " << seed;
}

TEST(SolverDifferentialTest, RandomInstancesAgree) {
  for (uint64_t seed = 0; seed < 250; ++seed) {
    LpModel model = RandomModel(seed);
    ASSERT_TRUE(model.Validate().ok()) << "seed " << seed;
    CompareOnce(model, seed);
  }
}

TEST(SolverDifferentialTest, InfeasibleInstanceAgrees) {
  LpModel m;
  int x = m.AddVariable(0.0, kLpInfinity, 1.0);
  m.AddConstraint(ConstraintType::kGreaterEqual, 2.0, {{x, 1.0}});
  m.AddConstraint(ConstraintType::kLessEqual, 1.0, {{x, 1.0}});
  CompareOnce(m, 9001);
}

TEST(SolverDifferentialTest, UnboundedInstanceAgrees) {
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  int x = m.AddVariable(0.0, kLpInfinity, 1.0);
  int y = m.AddVariable(0.0, kLpInfinity, 0.0);
  m.AddConstraint(ConstraintType::kGreaterEqual, 0.0, {{x, 1.0}, {y, -1.0}});
  CompareOnce(m, 9002);
}

TEST(SolverDifferentialTest, DegenerateTransportAgrees) {
  // Highly degenerate assignment structure: many alternate optima, zero
  // right-hand-side balance rows.
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMinimize);
  const int k = 4;
  std::vector<std::vector<int>> x(k, std::vector<int>(k));
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < k; ++j) {
      x[i][j] = m.AddVariable(0.0, 1.0, (i == j) ? 1.0 : 1.0);
    }
  }
  for (int i = 0; i < k; ++i) {
    std::vector<LinearTerm> row, col;
    for (int j = 0; j < k; ++j) {
      row.push_back({x[i][j], 1.0});
      col.push_back({x[j][i], 1.0});
    }
    m.AddConstraint(ConstraintType::kEqual, 1.0, std::move(row));
    m.AddConstraint(ConstraintType::kEqual, 1.0, std::move(col));
  }
  CompareOnce(m, 9003);
}

// The revised kernel must report its factorization telemetry.
TEST(SolverDifferentialTest, RevisedReportsFactorizationStats) {
  LpModel m = RandomModel(3);
  LpResult r = SolveLp(m);
  EXPECT_GE(r.refactorizations, 1);
  EXPECT_GE(r.max_eta_length, 0);
  EXPECT_FALSE(r.warm_started);
}

}  // namespace
}  // namespace rasa
