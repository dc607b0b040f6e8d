#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/logging.h"
#include "linalg/sparse.h"

namespace rasa {

const char* LpStatusToString(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "OPTIMAL";
    case LpStatus::kInfeasible:
      return "INFEASIBLE";
    case LpStatus::kUnbounded:
      return "UNBOUNDED";
    case LpStatus::kIterationLimit:
      return "ITERATION_LIMIT";
    case LpStatus::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case LpStatus::kError:
      return "ERROR";
  }
  return "UNKNOWN";
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Minimum pivot magnitude accepted by the ratio tests.
constexpr double kPivotTol = 1e-9;
// A pivot below this is too small to append as an eta update; the basis is
// refactorized (with full partial pivoting) instead.
constexpr double kUpdateTol = 1e-7;
// Eta updates accumulated on top of a fresh factorization before the next
// periodic refactorization.
constexpr int kRefactorInterval = 64;
// Partial pricing engages only above this many priced columns; below it a
// full Dantzig sweep costs the same and picks the most violated column.
constexpr int kPartialPricingMinColumns = 2048;
// Columns examined per partial-pricing block.
constexpr int kPricingBlock = 512;

// Where a nonbasic variable currently sits.
enum class VarState : uint8_t { kBasic, kAtLower, kAtUpper, kFreeAtZero };

// Revised simplex on the equality standard form
//   min c'x  s.t.  A x = b,  l <= x <= u
// with columns ordered [structural | slack | artificial], the basis
// inverse held as an eta file (linalg/sparse.h). Cold starts cover every
// row with an artificial; pricing is Dantzig (partial above
// kPartialPricingMinColumns) with a Bland fallback when the objective
// stalls, and on ratio-test ties logical columns leave first.
class RevisedSimplex {
 public:
  RevisedSimplex(const LpModel& model, const LpOptions& options)
      : model_(model), options_(options) {}

  LpResult Solve();

 private:
  SparseColumnView Column(int j) const {
    if (j < n_struct_) return model_.column(j);
    if (j < n_art_begin_) return {&slack_entries_[j - n_struct_], 1};
    return {&art_entries_[j - n_art_begin_], 1};
  }

  void BuildStandardForm();
  void SetupInitialBasis();
  bool TryWarmStart();
  void SetNonbasicAt(int j, LpVarStatus want);
  bool RefactorizeNow();
  // Appends the eta for the pivot at `position` (entering column's FTRAN
  // image is still in the factorization scratch) or refactorizes when the
  // pivot is too small / the eta file hit its cap. False on singularity.
  bool UpdateOrRefactorize(int position);
  void RefreshBasicValues();
  void ComputeDuals(const std::vector<double>& costs, std::vector<double>& y);
  double ColumnDot(int col, const std::vector<double>& vec) const;
  double PhaseOneInfeasibility() const;
  bool PrimalFeasibleBasics() const;
  bool DualFeasible();
  // Prices nonbasic columns against duals `y`; returns the entering column
  // or -1, with its movement direction in *dir.
  int Price(const std::vector<double>& costs, const std::vector<double>& y,
            bool phase_one, double* dir);
  LpStatus Iterate(bool phase_one);
  // Bounded-variable dual simplex: restores primal feasibility while
  // keeping dual feasibility. kOptimal means "primal feasible now";
  // kInfeasible means a bound violation nothing can repair.
  LpStatus DualIterate();
  bool PivotOutArtificials();
  LpResult ExtractResult(LpStatus status);
  void FillStats(LpResult& result) const;
  LpResult SnapshotPrimal(LpStatus status);

  const LpModel& model_;
  const LpOptions& options_;

  int m_ = 0;
  int n_struct_ = 0;
  int n_total_ = 0;
  int n_art_begin_ = 0;

  std::vector<SparseEntry> slack_entries_;
  std::vector<SparseEntry> art_entries_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> cost_;     // phase-2 costs (minimization)
  std::vector<double> cost_p1_;  // phase-1 costs
  std::vector<double> b_;

  std::vector<double> x_;
  std::vector<int> basis_;  // column index per basis position
  std::vector<VarState> state_;
  BasisFactorization fact_;
  std::vector<SparseColumnView> basis_views_;

  // Work vectors reused across pivots.
  std::vector<double> y_;
  std::vector<double> w_;
  std::vector<double> rho_;
  std::vector<double> cb_;
  std::vector<double> rhs_scratch_;

  int iterations_ = 0;
  int phase1_iterations_ = 0;
  int max_iterations_ = 0;
  bool use_bland_ = false;
  int stall_count_ = 0;
  int pricing_cursor_ = 0;
  double sign_ = 1.0;

  int refactorizations_ = 0;
  int max_eta_length_ = 0;
  bool warm_started_ = false;
};

void RevisedSimplex::BuildStandardForm() {
  m_ = model_.num_constraints();
  n_struct_ = model_.num_variables();
  sign_ = model_.objective_sense() == ObjectiveSense::kMinimize ? 1.0 : -1.0;

  n_art_begin_ = n_struct_ + m_;
  n_total_ = n_art_begin_ + m_;

  slack_entries_.resize(m_);
  art_entries_.resize(m_);
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
    slack_entries_[c] = {c, 1.0};
    art_entries_[c] = {c, 1.0};  // sign fixed at cold start
    const int slack = n_struct_ + c;
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

void RevisedSimplex::SetupInitialBasis() {
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
    } else if (std::abs(lo) <= std::abs(hi)) {
      state_[j] = VarState::kAtLower;
      x_[j] = lo;
    } else {
      state_[j] = VarState::kAtUpper;
      x_[j] = hi;
    }
  }

  std::vector<double> residual = b_;
  for (int j = 0; j < n_art_begin_; ++j) {
    if (x_[j] == 0.0) continue;
    for (const SparseEntry& e : Column(j)) residual[e.row] -= e.value * x_[j];
  }

  basis_.assign(m_, -1);
  for (int i = 0; i < m_; ++i) {
    const int art = n_art_begin_ + i;
    const double sgn = residual[i] >= 0.0 ? 1.0 : -1.0;
    art_entries_[i] = {i, sgn};
    lower_[art] = 0.0;
    upper_[art] = kInf;
    cost_p1_[art] = 1.0;
    x_[art] = std::abs(residual[i]);
    basis_[i] = art;
    state_[art] = VarState::kBasic;
  }
}

void RevisedSimplex::SetNonbasicAt(int j, LpVarStatus want) {
  const double lo = lower_[j];
  const double hi = upper_[j];
  VarState st;
  if (want == LpVarStatus::kAtLower && lo != -kInf) {
    st = VarState::kAtLower;
  } else if (want == LpVarStatus::kAtUpper && hi != kInf) {
    st = VarState::kAtUpper;
  } else if (want == LpVarStatus::kFreeZero && lo == -kInf && hi == kInf) {
    st = VarState::kFreeAtZero;
  } else if (lo != -kInf) {
    // The remembered bound no longer exists (a child node moved it);
    // deterministic coercion onto a bound that does.
    st = VarState::kAtLower;
  } else if (hi != kInf) {
    st = VarState::kAtUpper;
  } else {
    st = VarState::kFreeAtZero;
  }
  state_[j] = st;
  x_[j] = st == VarState::kAtLower ? lo : st == VarState::kAtUpper ? hi : 0.0;
}

bool RevisedSimplex::TryWarmStart() {
  const LpBasis& wb = *options_.warm_basis;
  if (static_cast<int>(wb.basic.size()) != m_) return false;
  if (static_cast<int>(wb.state.size()) != n_art_begin_) return false;

  x_.assign(n_total_, 0.0);
  state_.assign(n_total_, VarState::kAtLower);
  basis_.assign(m_, -1);
  std::vector<char> used(n_total_, 0);
  // All artificial slots stay fixed at zero; basic ones are re-synthesized
  // with a +1 entry in their row.
  for (int i = 0; i < m_; ++i) art_entries_[i] = {i, 1.0};

  for (int k = 0; k < m_; ++k) {
    int col = wb.basic[k];
    if (col < 0) {
      const int row = -1 - col;
      if (row < 0 || row >= m_) return false;
      col = n_art_begin_ + row;
    } else {
      if (col >= n_art_begin_) return false;
      if (wb.state[col] != LpVarStatus::kBasic) return false;
    }
    if (used[col]) return false;
    used[col] = 1;
    basis_[k] = col;
    state_[col] = VarState::kBasic;
  }
  for (int j = 0; j < n_art_begin_; ++j) {
    if (state_[j] == VarState::kBasic) continue;
    if (wb.state[j] == LpVarStatus::kBasic) return false;  // not in basic[]
    SetNonbasicAt(j, wb.state[j]);
  }
  return RefactorizeNow();
}

bool RevisedSimplex::RefactorizeNow() {
  max_eta_length_ = std::max(max_eta_length_, fact_.eta_count());
  basis_views_.resize(m_);
  for (int k = 0; k < m_; ++k) basis_views_[k] = Column(basis_[k]);
  ++refactorizations_;
  return fact_.Refactorize(m_, basis_views_);
}

bool RevisedSimplex::UpdateOrRefactorize(int position) {
  if (fact_.eta_count() - m_ < kRefactorInterval &&
      fact_.Update(position, kUpdateTol)) {
    max_eta_length_ = std::max(max_eta_length_, fact_.eta_count());
    return true;
  }
  return RefactorizeNow();
}

void RevisedSimplex::RefreshBasicValues() {
  rhs_scratch_ = b_;
  for (int j = 0; j < n_total_; ++j) {
    if (state_[j] == VarState::kBasic || x_[j] == 0.0) continue;
    for (const SparseEntry& e : Column(j)) {
      rhs_scratch_[e.row] -= e.value * x_[j];
    }
  }
  fact_.FtranDense(rhs_scratch_, w_);
  for (int k = 0; k < m_; ++k) x_[basis_[k]] = w_[k];
}

void RevisedSimplex::ComputeDuals(const std::vector<double>& costs,
                                  std::vector<double>& y) {
  cb_.resize(m_);
  for (int k = 0; k < m_; ++k) cb_[k] = costs[basis_[k]];
  fact_.Btran(cb_, y);
}

double RevisedSimplex::ColumnDot(int col,
                                 const std::vector<double>& vec) const {
  double acc = 0.0;
  for (const SparseEntry& e : Column(col)) acc += e.value * vec[e.row];
  return acc;
}

double RevisedSimplex::PhaseOneInfeasibility() const {
  double total = 0.0;
  for (int j = n_art_begin_; j < n_total_; ++j) total += x_[j];
  return total;
}

bool RevisedSimplex::PrimalFeasibleBasics() const {
  const double tol = options_.tolerance;
  for (int k = 0; k < m_; ++k) {
    const int bj = basis_[k];
    if (lower_[bj] != -kInf && x_[bj] < lower_[bj] - tol) return false;
    if (upper_[bj] != kInf && x_[bj] > upper_[bj] + tol) return false;
  }
  return true;
}

bool RevisedSimplex::DualFeasible() {
  const double tol = options_.tolerance;
  ComputeDuals(cost_, y_);
  for (int j = 0; j < n_art_begin_; ++j) {
    const VarState st = state_[j];
    if (st == VarState::kBasic) continue;
    if (lower_[j] == upper_[j]) continue;  // fixed: any sign is fine
    const double d = cost_[j] - ColumnDot(j, y_);
    if ((st == VarState::kAtLower || st == VarState::kFreeAtZero) &&
        d < -tol) {
      return false;
    }
    if ((st == VarState::kAtUpper || st == VarState::kFreeAtZero) && d > tol) {
      return false;
    }
  }
  return true;
}

int RevisedSimplex::Price(const std::vector<double>& costs,
                          const std::vector<double>& y, bool phase_one,
                          double* dir) {
  const double tol = options_.tolerance;
  const int n_price = n_art_begin_;

  // Violation of column j, or 0 when it is not an improving candidate.
  auto violation_of = [&](int j, double* d_out) -> double {
    const VarState st = state_[j];
    if (st == VarState::kBasic) return 0.0;
    if (!phase_one && lower_[j] == upper_[j]) return 0.0;  // fixed
    const double d = costs[j] - ColumnDot(j, y);
    if ((st == VarState::kAtLower || st == VarState::kFreeAtZero) &&
        d < -tol) {
      *d_out = 1.0;
      return -d;
    }
    if ((st == VarState::kAtUpper || st == VarState::kFreeAtZero) && d > tol) {
      *d_out = -1.0;
      return d;
    }
    return 0.0;
  };

  if (use_bland_ || n_price <= kPartialPricingMinColumns) {
    int entering = -1;
    double best_violation = tol;
    for (int j = 0; j < n_price; ++j) {
      double dj = 0.0;
      const double v = violation_of(j, &dj);
      if (v == 0.0) continue;
      if (use_bland_) {
        *dir = dj;
        return j;  // Bland: first improving index.
      }
      if (v > best_violation) {
        best_violation = v;
        entering = j;
        *dir = dj;
      }
    }
    return entering;
  }

  // Partial (block) pricing: sweep fixed-size blocks from a cursor that
  // persists across pivots; the first block containing an improving column
  // supplies the (Dantzig-best within the block) entering column. A full
  // wrap with nothing improving proves optimality. Deterministic: the
  // cursor's evolution depends only on the pivot sequence.
  int scanned = 0;
  while (scanned < n_price) {
    int entering = -1;
    double best_violation = tol;
    const int block = std::min(kPricingBlock, n_price - scanned);
    // The modular window [cursor, cursor + block) decomposed into at most
    // two contiguous segments: the same columns in the same order as the
    // per-element modular walk (so the chosen entering column is
    // bit-identical), but the inner loop streams linearly through the
    // state/cost/column arrays instead of paying a div per element.
    auto scan_segment = [&](int begin, int end) {
      for (int j = begin; j < end; ++j) {
        double dj = 0.0;
        const double v = violation_of(j, &dj);
        if (v > best_violation) {
          best_violation = v;
          entering = j;
          *dir = dj;
        }
      }
    };
    const int first = std::min(block, n_price - pricing_cursor_);
    scan_segment(pricing_cursor_, pricing_cursor_ + first);
    scan_segment(0, block - first);
    pricing_cursor_ = (pricing_cursor_ + block) % n_price;
    scanned += block;
    if (entering >= 0) return entering;
  }
  return -1;
}

LpStatus RevisedSimplex::Iterate(bool phase_one) {
  const std::vector<double>& costs = phase_one ? cost_p1_ : cost_;

  double last_objective = kInf;
  stall_count_ = 0;
  use_bland_ = false;

  while (true) {
    if (iterations_ >= max_iterations_) return LpStatus::kIterationLimit;
    if (options_.deadline.Expired()) return LpStatus::kDeadlineExceeded;
    ++iterations_;
    // Periodically flush accumulated drift in the incremental x updates.
    if ((iterations_ & 127) == 0) RefreshBasicValues();

    ComputeDuals(costs, y_);
    double entering_dir = 0.0;
    const int entering = Price(costs, y_, phase_one, &entering_dir);
    if (entering < 0) return LpStatus::kOptimal;

    // Direction of basics: w = Binv * A_entering, over basis positions.
    // (The factorization keeps the row-space image for the eta update.)
    fact_.FtranColumn(Column(entering), w_);

    // Ratio test: x_entering moves by entering_dir * t, basics move by
    // -entering_dir * t * w. On a tie (|dt| <= 1e-12) a logical column
    // (slack or artificial) leaves before a structural one, then the larger
    // |w| wins. Keeping structurals basic on degenerate steps matters for
    // column generation: a tight demand row whose slack stays basic at 0
    // reports a zero dual and stops pricing early.
    double t_max = kInf;
    int leaving_pos = -1;
    double leaving_bound = 0.0;
    auto leaves_before = [&](int k, double t) {
      if (t < t_max - 1e-12) return true;
      if (t >= t_max + 1e-12 || leaving_pos < 0) return false;
      const bool logical = basis_[k] >= n_struct_;
      if (logical != (basis_[leaving_pos] >= n_struct_)) return logical;
      return std::abs(w_[k]) > std::abs(w_[leaving_pos]);
    };
    for (int k = 0; k < m_; ++k) {
      const double rate = entering_dir * w_[k];
      const int bj = basis_[k];
      if (rate > kPivotTol) {
        if (lower_[bj] == -kInf) continue;
        const double t = (x_[bj] - lower_[bj]) / rate;
        if (leaves_before(k, t)) {
          t_max = std::max(t, 0.0);
          leaving_pos = k;
          leaving_bound = lower_[bj];
        }
      } else if (rate < -kPivotTol) {
        if (upper_[bj] == kInf) continue;
        const double t = (x_[bj] - upper_[bj]) / rate;
        if (leaves_before(k, t)) {
          t_max = std::max(t, 0.0);
          leaving_pos = k;
          leaving_bound = upper_[bj];
        }
      }
    }
    double t_flip = kInf;
    if (lower_[entering] != -kInf && upper_[entering] != kInf) {
      t_flip = upper_[entering] - lower_[entering];
    }
    if (t_flip < t_max) {
      // Bound flip: no basis change.
      x_[entering] += entering_dir * t_flip;
      for (int k = 0; k < m_; ++k) {
        x_[basis_[k]] -= entering_dir * t_flip * w_[k];
      }
      state_[entering] =
          entering_dir > 0 ? VarState::kAtUpper : VarState::kAtLower;
      continue;
    }
    if (leaving_pos < 0) {
      return phase_one ? LpStatus::kError : LpStatus::kUnbounded;
    }

    x_[entering] += entering_dir * t_max;
    for (int k = 0; k < m_; ++k) {
      x_[basis_[k]] -= entering_dir * t_max * w_[k];
    }
    const int leaving = basis_[leaving_pos];
    x_[leaving] = leaving_bound;  // snap to its bound exactly
    state_[leaving] = (leaving_bound == lower_[leaving])
                          ? VarState::kAtLower
                          : VarState::kAtUpper;
    basis_[leaving_pos] = entering;
    state_[entering] = VarState::kBasic;

    if (!UpdateOrRefactorize(leaving_pos)) return LpStatus::kError;

    // Degeneracy control: if the objective stalls for many pivots, fall
    // back to Bland's rule, which guarantees termination.
    double objective = 0.0;
    for (int k = 0; k < m_; ++k) {
      objective += costs[basis_[k]] * x_[basis_[k]];
    }
    if (objective >= last_objective - 1e-12) {
      if (++stall_count_ > 2 * (m_ + n_struct_) + 64) use_bland_ = true;
    } else {
      stall_count_ = 0;
      last_objective = objective;
    }
  }
}

LpStatus RevisedSimplex::DualIterate() {
  const double tol = options_.tolerance;

  // Degenerate dual pivots (zero-ratio steps on ties) can cycle, and unlike
  // the primal loop there is no Bland fallback here. A repair that has not
  // reached primal feasibility within a basis-sized pivot budget is treated
  // as failed: Solve() converts the kError into a cold restart, so the node
  // is solved exactly as a from-scratch solve would instead of burning the
  // whole iteration budget in a cycle.
  const int budget = 2 * (m_ + n_struct_) + 64;
  int pivots = 0;

  while (true) {
    if (iterations_ >= max_iterations_) return LpStatus::kIterationLimit;
    if (options_.deadline.Expired()) return LpStatus::kDeadlineExceeded;

    // Leaving: the basic variable with the largest bound violation
    // (lowest position on ties).
    int r = -1;
    bool below = false;
    double best_viol = tol;
    for (int k = 0; k < m_; ++k) {
      const int bj = basis_[k];
      if (lower_[bj] != -kInf && lower_[bj] - x_[bj] > best_viol) {
        best_viol = lower_[bj] - x_[bj];
        r = k;
        below = true;
      }
      if (upper_[bj] != kInf && x_[bj] - upper_[bj] > best_viol) {
        best_viol = x_[bj] - upper_[bj];
        r = k;
        below = false;
      }
    }
    if (r < 0) return LpStatus::kOptimal;  // primal feasible
    if (++pivots > budget) return LpStatus::kError;

    ++iterations_;
    if ((iterations_ & 127) == 0) RefreshBasicValues();

    fact_.BtranUnit(r, rho_);
    ComputeDuals(cost_, y_);

    // Dual ratio test. Normalize to the "leaving variable must increase"
    // case: q_j = sgn * (B^-1 A_j)[r] with sgn = +1 below lower, -1 above
    // upper. Entering candidates must move x_r toward its bound without
    // breaking dual feasibility; pick the minimum |d_j / q_j| ratio, with
    // larger |q_j| then lower index on ties.
    const double sgn = below ? 1.0 : -1.0;
    int entering = -1;
    double best_ratio = kInf;
    double best_q = 0.0;
    for (int j = 0; j < n_art_begin_; ++j) {
      const VarState st = state_[j];
      if (st == VarState::kBasic) continue;
      if (lower_[j] == upper_[j]) continue;  // fixed: cannot move
      const double q = sgn * ColumnDot(j, rho_);
      double ratio;
      if ((st == VarState::kAtLower || st == VarState::kFreeAtZero) &&
          q < -kPivotTol) {
        // d_j may be a hair negative within tolerance; clamping keeps the
        // ratio nonnegative so such columns compete on pivot size alone.
        ratio = std::max(cost_[j] - ColumnDot(j, y_), 0.0) / -q;
      } else if ((st == VarState::kAtUpper || st == VarState::kFreeAtZero) &&
                 q > kPivotTol) {
        ratio = std::max(-(cost_[j] - ColumnDot(j, y_)), 0.0) / q;
      } else {
        continue;
      }
      if (ratio < best_ratio - 1e-12 ||
          (ratio < best_ratio + 1e-12 && entering >= 0 &&
           std::abs(q) > std::abs(best_q))) {
        best_ratio = ratio;
        entering = j;
        best_q = q;
      }
    }
    if (entering < 0) {
      // The violated row cannot be repaired by any column: the tightened
      // bounds are primal infeasible.
      return LpStatus::kInfeasible;
    }

    fact_.FtranColumn(Column(entering), w_);
    const double alpha = w_[r];
    if (std::abs(alpha) < kPivotTol) {
      // rho-based q and the FTRAN disagree badly; numbers are off.
      return LpStatus::kError;
    }
    const int bj = basis_[r];
    const double bound_r = below ? lower_[bj] : upper_[bj];
    const double dx = (x_[bj] - bound_r) / alpha;
    for (int k = 0; k < m_; ++k) x_[basis_[k]] -= dx * w_[k];
    x_[entering] += dx;
    x_[bj] = bound_r;  // snap
    state_[bj] = below ? VarState::kAtLower : VarState::kAtUpper;
    basis_[r] = entering;
    state_[entering] = VarState::kBasic;

    if (!UpdateOrRefactorize(r)) return LpStatus::kError;
  }
}

bool RevisedSimplex::PivotOutArtificials() {
  // Any artificial still basic at value ~0 is swapped for a non-artificial
  // column with a nonzero pivot in its basis position; if none exists the
  // row is redundant and the artificial stays, pinned to zero.
  for (int k = 0; k < m_; ++k) {
    const int bj = basis_[k];
    if (bj < n_art_begin_) continue;
    fact_.BtranUnit(k, rho_);
    int replacement = -1;
    double best_abs = 1e-7;
    for (int j = 0; j < n_art_begin_; ++j) {
      if (state_[j] == VarState::kBasic) continue;
      const double wkj = ColumnDot(j, rho_);  // (Binv * A_j)[k]
      if (std::abs(wkj) > best_abs) {
        best_abs = std::abs(wkj);
        replacement = j;
      }
    }
    if (replacement < 0) continue;
    // Pivot with step 0 (the artificial is at 0, so x does not change).
    fact_.FtranColumn(Column(replacement), w_);
    state_[bj] = VarState::kAtLower;
    x_[bj] = 0.0;
    basis_[k] = replacement;
    state_[replacement] = VarState::kBasic;
    if (!UpdateOrRefactorize(k)) return false;
  }
  return true;
}

void RevisedSimplex::FillStats(LpResult& result) const {
  result.refactorizations = refactorizations_;
  result.max_eta_length = max_eta_length_;
  result.warm_started = warm_started_;
}

LpResult RevisedSimplex::SnapshotPrimal(LpStatus status) {
  // Limit hit before feasibility: snapshot of the (possibly infeasible)
  // point so callers always get a primal of the right size; duals stay
  // empty. Clamped to bounds.
  LpResult result;
  result.status = status;
  result.iterations = iterations_;
  result.phase1_iterations = phase1_iterations_;
  result.primal.assign(x_.begin(), x_.begin() + n_struct_);
  for (int v = 0; v < n_struct_; ++v) {
    if (lower_[v] != -kInf) result.primal[v] = std::max(result.primal[v], lower_[v]);
    if (upper_[v] != kInf) result.primal[v] = std::min(result.primal[v], upper_[v]);
  }
  result.objective = model_.ObjectiveValue(result.primal);
  FillStats(result);
  return result;
}

LpResult RevisedSimplex::ExtractResult(LpStatus status) {
  // Deterministic extraction: rebuild the factorization so the reported
  // numbers depend only on the final basis, not on the eta-update history
  // (a warm solve ending in the same basis as a cold one must return
  // bit-identical values).
  if (status != LpStatus::kError && !RefactorizeNow()) {
    status = LpStatus::kError;
  }
  LpResult result;
  result.status = status;
  result.iterations = iterations_;
  result.phase1_iterations = phase1_iterations_;
  result.phase2_iterations = iterations_ - phase1_iterations_;
  FillStats(result);
  if (status == LpStatus::kError) return result;

  RefreshBasicValues();
  result.primal.assign(n_struct_, 0.0);
  for (int v = 0; v < n_struct_; ++v) {
    double val = x_[v];
    if (lower_[v] != -kInf) val = std::max(val, lower_[v]);
    if (upper_[v] != kInf) val = std::min(val, upper_[v]);
    result.primal[v] = val;
  }
  result.objective = model_.ObjectiveValue(result.primal);

  if (status == LpStatus::kOptimal || status == LpStatus::kIterationLimit ||
      status == LpStatus::kDeadlineExceeded) {
    ComputeDuals(cost_, y_);
    result.dual.assign(m_, 0.0);
    for (int i = 0; i < m_; ++i) result.dual[i] = sign_ * y_[i];
    result.reduced_costs.assign(n_struct_, 0.0);
    for (int v = 0; v < n_struct_; ++v) {
      result.reduced_costs[v] = sign_ * (cost_[v] - ColumnDot(v, y_));
    }
  }
  if (status == LpStatus::kOptimal && options_.result_basis != nullptr) {
    LpBasis& out = *options_.result_basis;
    out.basic.resize(m_);
    for (int k = 0; k < m_; ++k) {
      const int bj = basis_[k];
      out.basic[k] = bj < n_art_begin_ ? bj : -(1 + (bj - n_art_begin_));
    }
    out.state.assign(n_art_begin_, LpVarStatus::kAtLower);
    for (int j = 0; j < n_art_begin_; ++j) {
      switch (state_[j]) {
        case VarState::kBasic:
          out.state[j] = LpVarStatus::kBasic;
          break;
        case VarState::kAtLower:
          out.state[j] = LpVarStatus::kAtLower;
          break;
        case VarState::kAtUpper:
          out.state[j] = LpVarStatus::kAtUpper;
          break;
        case VarState::kFreeAtZero:
          out.state[j] = LpVarStatus::kFreeZero;
          break;
      }
    }
  }
  return result;
}

LpResult RevisedSimplex::Solve() {
  LpResult result;
  Status valid = model_.Validate();
  if (!valid.ok()) {
    RASA_LOG(Warning) << "invalid LP model: " << valid.ToString();
    result.status = LpStatus::kError;
    return result;
  }

  BuildStandardForm();
  max_iterations_ = 200 * (m_ + n_struct_) + 2000;
  if (options_.max_iterations > 0) {
    max_iterations_ = std::min(max_iterations_, options_.max_iterations);
  }

  if (options_.warm_basis != nullptr && !options_.warm_basis->empty() &&
      TryWarmStart()) {
    warm_started_ = true;
    RefreshBasicValues();
    bool warm_usable = true;
    if (!PrimalFeasibleBasics()) {
      if (DualFeasible()) {
        const LpStatus d = DualIterate();
        phase1_iterations_ = iterations_;
        if (d == LpStatus::kInfeasible) {
          result.status = LpStatus::kInfeasible;
          result.iterations = iterations_;
          result.phase1_iterations = phase1_iterations_;
          FillStats(result);
          return result;
        }
        if (d == LpStatus::kIterationLimit ||
            d == LpStatus::kDeadlineExceeded) {
          return SnapshotPrimal(d);
        }
        if (d == LpStatus::kError) warm_usable = false;
      } else {
        warm_usable = false;
      }
    }
    if (warm_usable) {
      const LpStatus p2 = Iterate(/*phase_one=*/false);
      return ExtractResult(p2);
    }
    // Warm basis too far gone (neither primal nor dual feasible, or the
    // dual repair hit numerical trouble): restart cold below.
    warm_started_ = false;
    iterations_ = 0;
    phase1_iterations_ = 0;
    BuildStandardForm();  // reset artificial signs/bounds
  }

  SetupInitialBasis();
  if (!RefactorizeNow()) {
    result.status = LpStatus::kError;
    FillStats(result);
    return result;
  }

  // Phase 1: drive artificials to zero.
  if (PhaseOneInfeasibility() > options_.tolerance) {
    const LpStatus p1 = Iterate(/*phase_one=*/true);
    phase1_iterations_ = iterations_;
    if (p1 == LpStatus::kDeadlineExceeded || p1 == LpStatus::kIterationLimit) {
      return SnapshotPrimal(p1);
    }
    if (p1 == LpStatus::kError) {
      result.status = LpStatus::kError;
      FillStats(result);
      return result;
    }
    // Same tolerance as the phase-1 entry check above: a hardcoded constant
    // would ignore caller-tightened tolerances.
    if (PhaseOneInfeasibility() > options_.tolerance) {
      result.status = LpStatus::kInfeasible;
      result.iterations = iterations_;
      result.phase1_iterations = phase1_iterations_;
      FillStats(result);
      return result;
    }
  }
  if (!PivotOutArtificials()) {
    result.status = LpStatus::kError;
    FillStats(result);
    return result;
  }
  // Pin every artificial to zero for phase 2.
  for (int j = n_art_begin_; j < n_total_; ++j) {
    upper_[j] = 0.0;
    if (state_[j] != VarState::kBasic) {
      state_[j] = VarState::kAtLower;
      x_[j] = 0.0;
    }
  }

  const LpStatus p2 = Iterate(/*phase_one=*/false);
  return ExtractResult(p2);
}

}  // namespace

LpResult SolveLp(const LpModel& model, const LpOptions& options) {
  RevisedSimplex solver(model, options);
  return solver.Solve();
}

}  // namespace rasa
