#include "lp/model.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.h"
#include "common/strings.h"

namespace rasa {

int LpModel::AddVariable(double lower, double upper, double objective,
                         std::string name) {
  lower_.push_back(lower);
  upper_.push_back(upper);
  objective_.push_back(objective);
  integer_.push_back(false);
  if (name.empty()) name = StrFormat("x%d", num_variables() - 1);
  var_names_.push_back(std::move(name));
  columns_built_ = false;
  return num_variables() - 1;
}

void LpModel::SetInteger(int variable, bool is_integer) {
  integer_[variable] = is_integer;
}

int LpModel::AddConstraint(ConstraintType type, double rhs,
                           std::vector<LinearTerm> terms, std::string name) {
  // Accumulate duplicate variables so downstream code sees each column once.
  std::sort(terms.begin(), terms.end(),
            [](const LinearTerm& a, const LinearTerm& b) {
              return a.variable < b.variable;
            });
  std::vector<LinearTerm> merged;
  for (const LinearTerm& t : terms) {
    if (!merged.empty() && merged.back().variable == t.variable) {
      merged.back().coefficient += t.coefficient;
    } else {
      merged.push_back(t);
    }
  }
  merged.erase(std::remove_if(merged.begin(), merged.end(),
                              [](const LinearTerm& t) {
                                return t.coefficient == 0.0;
                              }),
               merged.end());
  types_.push_back(type);
  rhs_.push_back(rhs);
  rows_.push_back(std::move(merged));
  if (name.empty()) name = StrFormat("c%d", num_constraints() - 1);
  row_names_.push_back(std::move(name));
  columns_built_ = false;
  return num_constraints() - 1;
}

int LpModel::AddColumn(double lower, double upper, double objective,
                       std::vector<SparseEntry> entries) {
  const bool columns_were_built = columns_built_;
  const int v = AddVariable(lower, upper, objective);
  std::sort(entries.begin(), entries.end(),
            [](const SparseEntry& a, const SparseEntry& b) {
              return a.row < b.row;
            });
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [](const SparseEntry& e) {
                                 return e.value == 0.0;
                               }),
                entries.end());
  // v is the largest index, so every row's terms stay sorted.
  for (const SparseEntry& e : entries) {
    RASA_CHECK(e.row >= 0 && e.row < num_constraints());
    rows_[e.row].push_back({v, e.value});
  }
  if (columns_were_built) {
    col_entries_.insert(col_entries_.end(), entries.begin(), entries.end());
    col_start_.push_back(static_cast<int>(col_entries_.size()));
    columns_built_ = true;
  }
  return v;
}

std::vector<int> LpModel::RemoveVariables(const std::vector<char>& remove) {
  const int n = num_variables();
  RASA_CHECK(static_cast<int>(remove.size()) == n);
  std::vector<int> new_index(n, -1);
  int kept = 0;
  for (int v = 0; v < n; ++v) {
    if (remove[v]) continue;
    new_index[v] = kept;
    lower_[kept] = lower_[v];
    upper_[kept] = upper_[v];
    objective_[kept] = objective_[v];
    integer_[kept] = integer_[v];
    var_names_[kept] = std::move(var_names_[v]);
    ++kept;
  }
  lower_.resize(kept);
  upper_.resize(kept);
  objective_.resize(kept);
  integer_.resize(kept);
  var_names_.resize(kept);
  for (std::vector<LinearTerm>& row : rows_) {
    size_t out = 0;
    for (const LinearTerm& t : row) {
      if (new_index[t.variable] >= 0) {
        row[out++] = {new_index[t.variable], t.coefficient};
      }
    }
    row.resize(out);
  }
  if (columns_built_) {
    std::vector<int> start(1, 0);
    std::vector<SparseEntry> entries;
    start.reserve(kept + 1);
    for (int v = 0; v < n; ++v) {
      if (remove[v]) continue;
      entries.insert(entries.end(), col_entries_.begin() + col_start_[v],
                     col_entries_.begin() + col_start_[v + 1]);
      start.push_back(static_cast<int>(entries.size()));
    }
    col_start_ = std::move(start);
    col_entries_ = std::move(entries);
  }
  return new_index;
}

void LpModel::EnsureColumns() const {
  if (columns_built_) return;
  const int n = num_variables();
  std::vector<int> counts(n + 1, 0);
  for (const std::vector<LinearTerm>& row : rows_) {
    for (const LinearTerm& t : row) ++counts[t.variable + 1];
  }
  col_start_.assign(n + 1, 0);
  for (int v = 0; v < n; ++v) col_start_[v + 1] = col_start_[v] + counts[v + 1];
  col_entries_.assign(col_start_[n], SparseEntry{});
  std::vector<int> cursor(col_start_.begin(), col_start_.end() - 1);
  // Rows are scanned in index order, so each column's entries come out
  // sorted by row with no duplicates (AddConstraint merged them).
  for (int c = 0; c < num_constraints(); ++c) {
    for (const LinearTerm& t : rows_[c]) {
      col_entries_[cursor[t.variable]++] = {c, t.coefficient};
    }
  }
  columns_built_ = true;
}

void LpModel::SetObjectiveCoefficient(int variable, double coefficient) {
  objective_[variable] = coefficient;
}

void LpModel::SetBounds(int variable, double lower, double upper) {
  lower_[variable] = lower;
  upper_[variable] = upper;
}

int LpModel::num_integer_variables() const {
  return static_cast<int>(std::count(integer_.begin(), integer_.end(), true));
}

double LpModel::ObjectiveValue(const std::vector<double>& solution) const {
  double value = 0.0;
  for (int v = 0; v < num_variables(); ++v) value += objective_[v] * solution[v];
  return value;
}

Status LpModel::CheckFeasible(const std::vector<double>& solution,
                              double tolerance) const {
  if (static_cast<int>(solution.size()) != num_variables()) {
    return InvalidArgumentError(
        StrFormat("solution has %zu entries, model has %d variables",
                  solution.size(), num_variables()));
  }
  for (int v = 0; v < num_variables(); ++v) {
    if (solution[v] < lower_[v] - tolerance ||
        solution[v] > upper_[v] + tolerance) {
      return FailedPreconditionError(
          StrFormat("variable %s=%g outside bounds [%g, %g]",
                    var_names_[v].c_str(), solution[v], lower_[v], upper_[v]));
    }
    if (integer_[v] &&
        std::abs(solution[v] - std::round(solution[v])) > tolerance) {
      return FailedPreconditionError(StrFormat(
          "integer variable %s=%g is fractional", var_names_[v].c_str(),
          solution[v]));
    }
  }
  for (int c = 0; c < num_constraints(); ++c) {
    double lhs = 0.0;
    for (const LinearTerm& t : rows_[c]) {
      lhs += t.coefficient * solution[t.variable];
    }
    bool ok = true;
    switch (types_[c]) {
      case ConstraintType::kLessEqual:
        ok = lhs <= rhs_[c] + tolerance;
        break;
      case ConstraintType::kGreaterEqual:
        ok = lhs >= rhs_[c] - tolerance;
        break;
      case ConstraintType::kEqual:
        ok = std::abs(lhs - rhs_[c]) <= tolerance;
        break;
    }
    if (!ok) {
      return FailedPreconditionError(
          StrFormat("constraint %s violated: lhs=%g rhs=%g",
                    row_names_[c].c_str(), lhs, rhs_[c]));
    }
  }
  return Status::OK();
}

Status LpModel::Validate() const {
  for (int v = 0; v < num_variables(); ++v) {
    if (std::isnan(lower_[v]) || std::isnan(upper_[v])) {
      return InvalidArgumentError(StrFormat("variable %d has NaN bound", v));
    }
    if (lower_[v] > upper_[v]) {
      return InvalidArgumentError(
          StrFormat("variable %d has lower %g > upper %g", v, lower_[v],
                    upper_[v]));
    }
  }
  for (int c = 0; c < num_constraints(); ++c) {
    if (!std::isfinite(rhs_[c])) {
      return InvalidArgumentError(StrFormat("constraint %d has non-finite rhs", c));
    }
    for (const LinearTerm& t : rows_[c]) {
      if (t.variable < 0 || t.variable >= num_variables()) {
        return InvalidArgumentError(
            StrFormat("constraint %d references unknown variable %d", c,
                      t.variable));
      }
      if (!std::isfinite(t.coefficient)) {
        return InvalidArgumentError(
            StrFormat("constraint %d has non-finite coefficient", c));
      }
    }
  }
  return Status::OK();
}

}  // namespace rasa
