#ifndef RASA_TESTS_DENSE_TABLEAU_ORACLE_H_
#define RASA_TESTS_DENSE_TABLEAU_ORACLE_H_

// The dense-tableau two-phase simplex the revised kernel replaced: the
// same standard form, cold start, pricing rules and degeneracy control,
// but with the basis inverse held as an explicit dense matrix and updated
// in full on every pivot. It is kept only as the reference
// solver_differential_test holds SolveLp to; it ignores warm_basis and
// result_basis.

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "lp/simplex.h"

namespace rasa::testing {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Where a nonbasic variable currently sits.
enum class VarState : uint8_t { kBasic, kAtLower, kAtUpper, kFreeAtZero };

// Internal solver working on the equality standard form
//   min c'x  s.t.  A x = b,  l <= x <= u
// with columns ordered [structural | slack | artificial]. The basis inverse
// is kept as a dense matrix and updated by elementary row operations on each
// pivot (product-form update applied eagerly).
class Simplex {
 public:
  Simplex(const LpModel& model, const LpOptions& options)
      : model_(model), options_(options) {}

  LpResult Solve();

 private:
  // Column-wise sparse matrix entry.
  struct Entry {
    int row;
    double value;
  };

  void BuildStandardForm();
  void SetupInitialBasis();
  // Recomputes basic variable values from the basis inverse and the exact
  // nonbasic values, flushing the drift the incremental updates accumulate.
  void RefreshBasicValues();
  // Runs simplex pivots with the current cost vector until optimal or limit.
  // Returns the terminating status (kOptimal means "no improving column").
  LpStatus Iterate(bool phase_one);
  double ColumnDot(int col, const std::vector<double>& vec) const;
  void ComputeDuals(const std::vector<double>& costs,
                    std::vector<double>& y) const;
  double PhaseOneInfeasibility() const;
  void PivotOutArtificials();
  LpResult ExtractResult(LpStatus status);

  const LpModel& model_;
  const LpOptions& options_;

  int m_ = 0;        // rows
  int n_struct_ = 0; // structural columns
  int n_total_ = 0;  // structural + slack + artificial
  int n_art_begin_ = 0;

  std::vector<std::vector<Entry>> cols_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> cost_;       // phase-2 costs (minimization)
  std::vector<double> cost_p1_;    // phase-1 costs
  std::vector<double> b_;

  std::vector<double> x_;          // current values, all columns
  std::vector<int> basis_;         // column index per row
  std::vector<VarState> state_;
  std::vector<std::vector<double>> binv_;  // dense m x m basis inverse

  int iterations_ = 0;
  int phase1_iterations_ = 0;  // pivots spent before phase 2 began
  int max_iterations_ = 0;
  bool use_bland_ = false;
  int stall_count_ = 0;
  double sign_ = 1.0;  // +1 minimize, -1 maximize (costs pre-multiplied)
};

inline void Simplex::BuildStandardForm() {
  m_ = model_.num_constraints();
  n_struct_ = model_.num_variables();
  sign_ = model_.objective_sense() == ObjectiveSense::kMinimize ? 1.0 : -1.0;

  const int n_slack = m_;
  n_art_begin_ = n_struct_ + n_slack;
  n_total_ = n_art_begin_ + m_;  // one artificial per row (pruned later)

  cols_.assign(n_total_, {});
  lower_.assign(n_total_, 0.0);
  upper_.assign(n_total_, 0.0);
  cost_.assign(n_total_, 0.0);
  cost_p1_.assign(n_total_, 0.0);
  b_.assign(m_, 0.0);

  for (int v = 0; v < n_struct_; ++v) {
    lower_[v] = model_.lower_bound(v);
    upper_[v] = model_.upper_bound(v);
    cost_[v] = sign_ * model_.objective_coefficient(v);
  }
  for (int c = 0; c < m_; ++c) {
    b_[c] = model_.rhs(c);
    for (const LinearTerm& t : model_.constraint_terms(c)) {
      cols_[t.variable].push_back({c, t.coefficient});
    }
    const int slack = n_struct_ + c;
    cols_[slack].push_back({c, 1.0});
    switch (model_.constraint_type(c)) {
      case ConstraintType::kLessEqual:
        lower_[slack] = 0.0;
        upper_[slack] = kInf;
        break;
      case ConstraintType::kGreaterEqual:
        lower_[slack] = -kInf;
        upper_[slack] = 0.0;
        break;
      case ConstraintType::kEqual:
        lower_[slack] = 0.0;
        upper_[slack] = 0.0;
        break;
    }
  }
}

inline void Simplex::SetupInitialBasis() {
  x_.assign(n_total_, 0.0);
  state_.assign(n_total_, VarState::kAtLower);

  // Nonbasic columns rest at the finite bound nearest zero.
  for (int j = 0; j < n_art_begin_; ++j) {
    const double lo = lower_[j];
    const double hi = upper_[j];
    if (lo == -kInf && hi == kInf) {
      state_[j] = VarState::kFreeAtZero;
      x_[j] = 0.0;
    } else if (lo == -kInf) {
      state_[j] = VarState::kAtUpper;
      x_[j] = hi;
    } else if (hi == kInf) {
      state_[j] = VarState::kAtLower;
      x_[j] = lo;
    } else {
      // Both finite: pick the bound with smaller magnitude.
      if (std::abs(lo) <= std::abs(hi)) {
        state_[j] = VarState::kAtLower;
        x_[j] = lo;
      } else {
        state_[j] = VarState::kAtUpper;
        x_[j] = hi;
      }
    }
  }

  // Residual the artificials must absorb.
  std::vector<double> residual = b_;
  for (int j = 0; j < n_art_begin_; ++j) {
    if (x_[j] == 0.0) continue;
    for (const Entry& e : cols_[j]) residual[e.row] -= e.value * x_[j];
  }

  basis_.assign(m_, -1);
  binv_.assign(m_, std::vector<double>(m_, 0.0));
  for (int i = 0; i < m_; ++i) {
    const int art = n_art_begin_ + i;
    const double sgn = residual[i] >= 0.0 ? 1.0 : -1.0;
    cols_[art].push_back({i, sgn});
    lower_[art] = 0.0;
    upper_[art] = kInf;
    cost_p1_[art] = 1.0;
    x_[art] = std::abs(residual[i]);
    basis_[i] = art;
    state_[art] = VarState::kBasic;
    binv_[i][i] = sgn;  // inverse of the +/-1 diagonal artificial basis
  }
}

inline void Simplex::RefreshBasicValues() {
  std::vector<double> residual = b_;
  std::vector<char> is_basic(n_total_, 0);
  for (int i = 0; i < m_; ++i) is_basic[basis_[i]] = 1;
  for (int j = 0; j < n_total_; ++j) {
    if (is_basic[j] || x_[j] == 0.0) continue;
    for (const Entry& e : cols_[j]) residual[e.row] -= e.value * x_[j];
  }
  for (int i = 0; i < m_; ++i) {
    double v = 0.0;
    const std::vector<double>& row = binv_[i];
    for (int k = 0; k < m_; ++k) v += row[k] * residual[k];
    x_[basis_[i]] = v;
  }
}

inline double Simplex::ColumnDot(int col,
                                 const std::vector<double>& vec) const {
  double acc = 0.0;
  for (const Entry& e : cols_[col]) acc += e.value * vec[e.row];
  return acc;
}

inline void Simplex::ComputeDuals(const std::vector<double>& costs,
                                  std::vector<double>& y) const {
  y.assign(m_, 0.0);
  for (int i = 0; i < m_; ++i) {
    const double cb = costs[basis_[i]];
    if (cb == 0.0) continue;
    const std::vector<double>& row = binv_[i];
    for (int k = 0; k < m_; ++k) y[k] += cb * row[k];
  }
}

inline double Simplex::PhaseOneInfeasibility() const {
  double total = 0.0;
  for (int j = n_art_begin_; j < n_total_; ++j) total += x_[j];
  return total;
}

inline LpStatus Simplex::Iterate(bool phase_one) {
  const std::vector<double>& costs = phase_one ? cost_p1_ : cost_;
  const double tol = options_.tolerance;
  std::vector<double> y;
  std::vector<double> w(m_);

  double last_objective = kInf;
  stall_count_ = 0;
  use_bland_ = false;

  while (true) {
    if (iterations_ >= max_iterations_) return LpStatus::kIterationLimit;
    // One clock read per pivot is negligible next to the O(m^2) pivot work
    // and keeps large models honest about their deadline.
    if (options_.deadline.Expired()) return LpStatus::kDeadlineExceeded;
    ++iterations_;
    // Periodically flush accumulated drift in the incremental x updates.
    if ((iterations_ & 127) == 0) RefreshBasicValues();

    ComputeDuals(costs, y);

    // Pricing: find an improving nonbasic column. Artificials are never
    // priced: they start basic and must not re-enter once they leave.
    int entering = -1;
    double entering_dir = 0.0;
    double best_violation = tol;
    const int n_price = n_art_begin_;
    for (int j = 0; j < n_price; ++j) {
      const VarState st = state_[j];
      if (st == VarState::kBasic) continue;
      if (!phase_one && lower_[j] == upper_[j]) continue;  // fixed
      const double d = costs[j] - ColumnDot(j, y);
      double violation = 0.0;
      double dir = 0.0;
      if (st == VarState::kAtLower || st == VarState::kFreeAtZero) {
        if (d < -tol) {
          violation = -d;
          dir = 1.0;
        }
      }
      if (violation == 0.0 &&
          (st == VarState::kAtUpper || st == VarState::kFreeAtZero)) {
        if (d > tol) {
          violation = d;
          dir = -1.0;
        }
      }
      if (violation == 0.0) continue;
      if (use_bland_) {
        entering = j;
        entering_dir = dir;
        break;  // Bland: first improving index.
      }
      if (violation > best_violation) {
        best_violation = violation;
        entering = j;
        entering_dir = dir;
      }
    }
    if (entering < 0) return LpStatus::kOptimal;

    // Direction of basic variables: w = Binv * A_entering.
    std::fill(w.begin(), w.end(), 0.0);
    for (const Entry& e : cols_[entering]) {
      if (e.value == 0.0) continue;
      for (int i = 0; i < m_; ++i) w[i] += binv_[i][e.row] * e.value;
    }

    // Ratio test. x_entering moves by entering_dir * t, basics move by
    // -entering_dir * t * w.
    double t_max = kInf;
    int leaving_row = -1;
    double leaving_bound = 0.0;  // value the leaving basic hits
    const double pivot_tol = 1e-9;
    for (int i = 0; i < m_; ++i) {
      const double rate = entering_dir * w[i];
      const int bj = basis_[i];
      if (rate > pivot_tol) {
        if (lower_[bj] == -kInf) continue;
        const double t = (x_[bj] - lower_[bj]) / rate;
        if (t < t_max - 1e-12 ||
            (t < t_max + 1e-12 && leaving_row >= 0 &&
             std::abs(w[i]) > std::abs(w[leaving_row]))) {
          t_max = std::max(t, 0.0);
          leaving_row = i;
          leaving_bound = lower_[bj];
        }
      } else if (rate < -pivot_tol) {
        if (upper_[bj] == kInf) continue;
        const double t = (x_[bj] - upper_[bj]) / rate;
        if (t < t_max - 1e-12 ||
            (t < t_max + 1e-12 && leaving_row >= 0 &&
             std::abs(w[i]) > std::abs(w[leaving_row]))) {
          t_max = std::max(t, 0.0);
          leaving_row = i;
          leaving_bound = upper_[bj];
        }
      }
    }
    // The entering variable may hit its own opposite bound first.
    double t_flip = kInf;
    if (lower_[entering] != -kInf && upper_[entering] != kInf) {
      t_flip = upper_[entering] - lower_[entering];
    }
    if (t_flip < t_max) {
      // Bound flip: no basis change.
      const double t = t_flip;
      x_[entering] += entering_dir * t;
      for (int i = 0; i < m_; ++i) x_[basis_[i]] -= entering_dir * t * w[i];
      state_[entering] = entering_dir > 0 ? VarState::kAtUpper
                                          : VarState::kAtLower;
      continue;
    }
    if (leaving_row < 0) {
      return phase_one ? LpStatus::kError : LpStatus::kUnbounded;
    }

    // Apply the step.
    const double t = t_max;
    x_[entering] += entering_dir * t;
    for (int i = 0; i < m_; ++i) x_[basis_[i]] -= entering_dir * t * w[i];

    const int leaving = basis_[leaving_row];
    x_[leaving] = leaving_bound;  // snap to its bound exactly
    state_[leaving] = (leaving_bound == lower_[leaving]) ? VarState::kAtLower
                                                         : VarState::kAtUpper;
    basis_[leaving_row] = entering;
    state_[entering] = VarState::kBasic;

    // Update the dense basis inverse: eliminate column `entering` from all
    // rows except leaving_row.
    const double pivot = w[leaving_row];
    std::vector<double>& prow = binv_[leaving_row];
    const double inv_pivot = 1.0 / pivot;
    for (int k = 0; k < m_; ++k) prow[k] *= inv_pivot;
    for (int i = 0; i < m_; ++i) {
      if (i == leaving_row) continue;
      const double f = w[i];
      if (f == 0.0) continue;
      std::vector<double>& row = binv_[i];
      for (int k = 0; k < m_; ++k) row[k] -= f * prow[k];
    }

    // Degeneracy control: if the objective stalls for many pivots, fall back
    // to Bland's rule, which guarantees termination.
    double objective = 0.0;
    for (int i = 0; i < m_; ++i) objective += costs[basis_[i]] * x_[basis_[i]];
    if (objective >= last_objective - 1e-12) {
      if (++stall_count_ > 2 * (m_ + n_struct_) + 64) use_bland_ = true;
    } else {
      stall_count_ = 0;
      last_objective = objective;
    }
  }
}

inline void Simplex::PivotOutArtificials() {
  // Any artificial still basic at value ~0 is swapped for a non-artificial
  // column with a nonzero pivot in its row; if none exists the row is
  // redundant and the artificial stays, pinned to zero.
  for (int i = 0; i < m_; ++i) {
    const int bj = basis_[i];
    if (bj < n_art_begin_) continue;
    int replacement = -1;
    double best_abs = 1e-7;
    for (int j = 0; j < n_art_begin_; ++j) {
      if (state_[j] == VarState::kBasic) continue;
      // (Binv * A_j)[i]
      double wij = 0.0;
      for (const Entry& e : cols_[j]) wij += binv_[i][e.row] * e.value;
      if (std::abs(wij) > best_abs) {
        best_abs = std::abs(wij);
        replacement = j;
      }
    }
    if (replacement < 0) continue;
    // Pivot with step 0 (the artificial is at 0, so x does not change).
    std::vector<double> w(m_, 0.0);
    for (const Entry& e : cols_[replacement]) {
      for (int r = 0; r < m_; ++r) w[r] += binv_[r][e.row] * e.value;
    }
    const double pivot = w[i];
    state_[bj] = VarState::kAtLower;
    x_[bj] = 0.0;
    basis_[i] = replacement;
    state_[replacement] = VarState::kBasic;
    std::vector<double>& prow = binv_[i];
    const double inv_pivot = 1.0 / pivot;
    for (int k = 0; k < m_; ++k) prow[k] *= inv_pivot;
    for (int r = 0; r < m_; ++r) {
      if (r == i) continue;
      const double f = w[r];
      if (f == 0.0) continue;
      for (int k = 0; k < m_; ++k) binv_[r][k] -= f * prow[k];
    }
  }
}

inline LpResult Simplex::ExtractResult(LpStatus status) {
  LpResult result;
  result.status = status;
  result.iterations = iterations_;
  result.phase1_iterations = phase1_iterations_;
  result.phase2_iterations = iterations_ - phase1_iterations_;
  RefreshBasicValues();
  result.primal.assign(n_struct_, 0.0);
  for (int v = 0; v < n_struct_; ++v) {
    double val = x_[v];
    // Snap numerical noise onto bounds; never return out-of-bound values.
    if (lower_[v] != -kInf) val = std::max(val, lower_[v]);
    if (upper_[v] != kInf) val = std::min(val, upper_[v]);
    result.primal[v] = val;
  }
  result.objective = model_.ObjectiveValue(result.primal);

  if (status == LpStatus::kOptimal || status == LpStatus::kIterationLimit ||
      status == LpStatus::kDeadlineExceeded) {
    std::vector<double> y;
    ComputeDuals(cost_, y);
    // Internal costs were sign_ * original; duals and reduced costs convert
    // back to the model's own sense.
    result.dual.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) result.dual[i] = sign_ * y[i];
    result.reduced_costs.assign(n_struct_, 0.0);
    for (int v = 0; v < n_struct_; ++v) {
      result.reduced_costs[v] = sign_ * (cost_[v] - ColumnDot(v, y));
    }
  }
  return result;
}

inline LpResult Simplex::Solve() {
  LpResult result;
  Status valid = model_.Validate();
  if (!valid.ok()) {
    RASA_LOG(Warning) << "invalid LP model: " << valid.ToString();
    result.status = LpStatus::kError;
    return result;
  }

  BuildStandardForm();
  SetupInitialBasis();

  max_iterations_ = options_.max_iterations > 0
                        ? options_.max_iterations
                        : 200 * (m_ + n_struct_) + 2000;

  // Phase 1: drive artificials to zero.
  if (PhaseOneInfeasibility() > options_.tolerance) {
    LpStatus p1 = Iterate(/*phase_one=*/true);
    phase1_iterations_ = iterations_;
    if (p1 == LpStatus::kDeadlineExceeded || p1 == LpStatus::kIterationLimit) {
      result.status = p1;
      result.iterations = iterations_;
      result.phase1_iterations = phase1_iterations_;
      // Snapshot of the (possibly infeasible) point so callers always get a
      // primal of the right size; duals stay empty. Clamped to bounds.
      result.primal.assign(x_.begin(), x_.begin() + n_struct_);
      for (int v = 0; v < n_struct_; ++v) {
        if (lower_[v] != -kInf) result.primal[v] = std::max(result.primal[v], lower_[v]);
        if (upper_[v] != kInf) result.primal[v] = std::min(result.primal[v], upper_[v]);
      }
      result.objective = model_.ObjectiveValue(result.primal);
      return result;
    }
    if (p1 == LpStatus::kError) {
      result.status = LpStatus::kError;
      return result;
    }
    // Same tolerance as the phase-1 entry check above: a hardcoded
    // constant here would ignore caller-tightened tolerances and reject
    // feasible-within-tolerance problems under loosened ones.
    if (PhaseOneInfeasibility() > options_.tolerance) {
      result.status = LpStatus::kInfeasible;
      result.iterations = iterations_;
      result.phase1_iterations = phase1_iterations_;
      return result;
    }
  }
  PivotOutArtificials();
  // Pin every artificial to zero for phase 2.
  for (int j = n_art_begin_; j < n_total_; ++j) {
    upper_[j] = 0.0;
    if (state_[j] != VarState::kBasic) {
      state_[j] = VarState::kAtLower;
      x_[j] = 0.0;
    }
  }

  LpStatus p2 = Iterate(/*phase_one=*/false);
  return ExtractResult(p2);
}

inline LpResult SolveLpDenseTableau(const LpModel& model,
                                   const LpOptions& options = {}) {
  Simplex solver(model, options);
  return solver.Solve();
}

}  // namespace rasa::testing

#endif  // RASA_TESTS_DENSE_TABLEAU_ORACLE_H_
