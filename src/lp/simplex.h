#ifndef RASA_LP_SIMPLEX_H_
#define RASA_LP_SIMPLEX_H_

#include <cstdint>
#include <vector>

#include "common/timer.h"
#include "lp/model.h"

namespace rasa {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kDeadlineExceeded,
  kError,
};

const char* LpStatusToString(LpStatus status);

/// Status of one column (structural variable or slack) in a simplex basis.
enum class LpVarStatus : uint8_t {
  kAtLower = 0,
  kAtUpper = 1,
  kBasic = 2,
  /// Free variable resting at zero.
  kFreeZero = 3,
};

/// A simplex basis snapshot in model space, usable to warm-start a later
/// solve of a model with the same constraint rows (bounds, objective and
/// appended columns may differ). Column indexing: 0..n-1 are the model's
/// structural variables, n..n+m-1 are the slack of rows 0..m-1.
struct LpBasis {
  /// For each basis position, the basic column in the indexing above, or
  /// -(1 + row) when the solver had a (zero-valued) artificial covering
  /// `row` left in the basis (redundant row); warm starts re-synthesize a
  /// fixed artificial there.
  std::vector<int> basic;
  /// Status of every structural and slack column, size n + m.
  std::vector<LpVarStatus> state;

  bool empty() const { return basic.empty(); }
};

struct LpOptions {
  /// Hard cap on LpResult::iterations across both phases, at most the
  /// automatic one (which scales with model size). <= 0 means automatic.
  int max_iterations = 0;
  Deadline deadline = Deadline::Infinite();
  /// Feasibility / optimality tolerance of the simplex kernels.
  double tolerance = 1e-7;
  /// Tolerance for auditing a *solution* against the model
  /// (LpModel::CheckFeasible): one decade looser than the pivoting
  /// tolerance, so an answer the kernel accepts never fails its own audit
  /// on accumulated round-off. Callers auditing simplex output should pass
  /// this instead of restating a literal — keeping the two tied to one
  /// knob is what makes tightening `tolerance` safe.
  double FeasibilityTolerance() const { return 10.0 * tolerance; }
  /// Optional warm start. Must describe a basis for a model with the same
  /// rows. The pointee is not retained past the SolveLp call.
  const LpBasis* warm_basis = nullptr;
  /// When non-null, receives the final basis of an optimal solve (left
  /// untouched otherwise).
  LpBasis* result_basis = nullptr;
};

struct LpResult {
  LpStatus status = LpStatus::kError;
  /// Objective in the model's own sense (integrality ignored).
  double objective = 0.0;
  /// Value per model variable.
  std::vector<double> primal;
  /// Dual value per constraint, in the model's own sense: for every
  /// variable, objective_j - sum_i dual_i * a_ij equals its reduced cost.
  std::vector<double> dual;
  /// Reduced cost per variable (model sense).
  std::vector<double> reduced_costs;
  /// Simplex iterations, phase1 + phase2: every primal pricing pass (bound
  /// flips and the last pass, which finds no entering column, too) and dual
  /// repair pivot. An abandoned warm repair or failed phase 1 adds none.
  int iterations = 0;
  /// Iterations spent driving artificials out (feasibility restoration);
  /// for a warm-started solve, the dual-simplex repair pivots.
  int phase1_iterations = 0;
  /// Iterations spent optimizing the real objective.
  int phase2_iterations = 0;
  /// Basis refactorizations performed (>= 1 per solve).
  int refactorizations = 0;
  /// Longest eta file reached between refactorizations.
  int max_eta_length = 0;
  /// True when a supplied warm basis was actually used (valid and accepted
  /// by the warm-start protocol) rather than falling back to a cold start.
  bool warm_started = false;
};

/// Solves the LP relaxation of `model` (integer markers on variables are
/// ignored) with a bounded-variable two-phase sparse revised simplex over
/// the equality standard form (columns [structural | slack | artificial]).
/// The basis inverse is an eta-file product-form factorization
/// (linalg/sparse.h). Per pivot it does one BTRAN (duals), a sparse
/// pricing sweep, one FTRAN (entering column) and a single eta append; the
/// factorization is rebuilt every 64 updates or earlier when a pivot
/// element is too small to update on safely.
///
/// Warm starts (LpOptions::warm_basis): the basis is validated against the
/// current model, bound changes are absorbed by coercing nonbasic columns
/// onto still-existing bounds, and then
///   - a primal-feasible basis goes straight to phase-2 primal pivots
///     (the column-generation case: appended columns price in), while
///   - a dual-feasible basis is repaired with bounded-variable dual
///     simplex pivots (the branch-and-bound case: a child node tightens
///     bounds, so the parent basis stays dual feasible);
/// anything else falls back to a cold start, so correctness never depends
/// on the warm path. Results are extracted from a fresh refactorization of
/// the final basis, so the reported numbers depend only on that basis and
/// not on the pivot history — a warm-started solve that ends in the same
/// basis as a cold one returns bit-identical values.
///
/// kError means an invalid model or a numerical failure (a basis that
/// will not refactorize); the result then carries no primal or duals, and
/// callers treat the solve as unfinished.
LpResult SolveLp(const LpModel& model, const LpOptions& options = {});

}  // namespace rasa

#endif  // RASA_LP_SIMPLEX_H_
