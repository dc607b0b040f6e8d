#ifndef RASA_LP_MODEL_H_
#define RASA_LP_MODEL_H_

#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "linalg/sparse.h"

namespace rasa {

inline constexpr double kLpInfinity = std::numeric_limits<double>::infinity();

enum class ObjectiveSense { kMinimize, kMaximize };

enum class ConstraintType { kLessEqual, kGreaterEqual, kEqual };

/// One nonzero coefficient of a linear expression.
struct LinearTerm {
  int variable = 0;
  double coefficient = 0.0;
};

/// A linear program (or the LP part of a MIP): variables with bounds and
/// objective coefficients, plus sparse linear constraints. Rows and columns
/// are addressed by the dense indices returned at creation time.
class LpModel {
 public:
  LpModel() = default;

  /// Adds a variable with bounds [lower, upper] (either may be +/-infinite)
  /// and the given objective coefficient. Returns its index.
  int AddVariable(double lower, double upper, double objective,
                  std::string name = "");

  /// Marks a variable as integer-constrained. Ignored by the LP solver but
  /// honored by the MIP branch-and-bound layer.
  void SetInteger(int variable, bool is_integer = true);

  /// Adds a constraint sum(terms) <type> rhs. Returns its row index.
  /// Duplicate variable entries in `terms` are accumulated.
  int AddConstraint(ConstraintType type, double rhs,
                    std::vector<LinearTerm> terms, std::string name = "");

  /// Adds a variable together with its nonzeros in existing rows
  /// (`entries`: row, coefficient; each row at most once, zeros dropped).
  /// Keeps a compiled column view valid, so a model grown one column at a
  /// time, such as a column-generation master, never recompiles it.
  /// Returns the variable's index.
  int AddColumn(double lower, double upper, double objective,
                std::vector<SparseEntry> entries);

  /// Deletes every variable v with `remove[v]` set, with its terms; the
  /// others keep their relative order, bounds, objective and name. Returns
  /// each old variable's new index, or -1 for a deleted one.
  std::vector<int> RemoveVariables(const std::vector<char>& remove);

  void SetObjectiveSense(ObjectiveSense sense) { sense_ = sense; }
  ObjectiveSense objective_sense() const { return sense_; }

  void SetObjectiveCoefficient(int variable, double coefficient);
  void SetBounds(int variable, double lower, double upper);

  int num_variables() const { return static_cast<int>(lower_.size()); }
  int num_constraints() const { return static_cast<int>(rhs_.size()); }
  int num_integer_variables() const;

  double lower_bound(int v) const { return lower_[v]; }
  double upper_bound(int v) const { return upper_[v]; }
  double objective_coefficient(int v) const { return objective_[v]; }
  bool is_integer(int v) const { return integer_[v]; }
  const std::string& variable_name(int v) const { return var_names_[v]; }

  ConstraintType constraint_type(int c) const { return types_[c]; }
  double rhs(int c) const { return rhs_[c]; }
  const std::vector<LinearTerm>& constraint_terms(int c) const {
    return rows_[c];
  }
  const std::string& constraint_name(int c) const { return row_names_[c]; }

  /// Objective value of a full assignment (no feasibility check).
  double ObjectiveValue(const std::vector<double>& solution) const;

  /// Checks bounds, integrality (for integer variables) and all constraints
  /// within `tolerance`. Returns OK or a message naming the first violation.
  /// The default equals LpOptions::FeasibilityTolerance() at the default
  /// simplex tolerance; callers auditing solver output with a non-default
  /// LpOptions should pass options.FeasibilityTolerance() so the audit
  /// tracks the kernel's tolerance.
  Status CheckFeasible(const std::vector<double>& solution,
                       double tolerance = 1e-6) const;

  /// Structural validation (finite rhs, lower <= upper, indices in range).
  Status Validate() const;

  /// Column-wise (CSC) view of the constraint matrix, the layout the
  /// revised simplex prices and FTRANs against. Compiled lazily from the
  /// row-wise storage on first use and cached; AddVariable and
  /// AddConstraint invalidate the cache, AddColumn, RemoveVariables and
  /// bound/objective edits keep it.
  /// Not safe to build concurrently from multiple threads (per-solve
  /// models are single-threaded scratch everywhere in this codebase).
  SparseColumnView column(int v) const {
    EnsureColumns();
    return {col_entries_.data() + col_start_[v],
            col_start_[v + 1] - col_start_[v]};
  }

 private:
  void EnsureColumns() const;
  ObjectiveSense sense_ = ObjectiveSense::kMinimize;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> objective_;
  std::vector<bool> integer_;
  std::vector<std::string> var_names_;

  std::vector<ConstraintType> types_;
  std::vector<double> rhs_;
  std::vector<std::vector<LinearTerm>> rows_;
  std::vector<std::string> row_names_;

  // Lazily compiled CSC cache (see column()).
  mutable bool columns_built_ = false;
  mutable std::vector<int> col_start_;
  mutable std::vector<SparseEntry> col_entries_;
};

}  // namespace rasa

#endif  // RASA_LP_MODEL_H_
