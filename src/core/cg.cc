#include "core/cg.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/strings.h"
#include "core/greedy.h"
#include "lp/simplex.h"

namespace rasa {
namespace {

// Reduced-cost threshold for accepting a generated pattern.
constexpr double kPricingTolerance = 1e-7;

// A pattern: container counts per subproblem-local service on one machine.
struct Pattern {
  int machine = 0;  // local machine index
  std::vector<int> counts;
  double value = 0.0;  // v(p): gained affinity internal to the machine
};

bool IsEmpty(const Pattern& p) {
  return std::all_of(p.counts.begin(), p.counts.end(),
                     [](int k) { return k == 0; });
}

// Per-machine static context for pattern feasibility and value.
struct MachineContext {
  int machine = 0;                  // global id
  std::vector<double> residual;     // residual capacity per resource
  std::vector<int> rule_limit;      // residual limit per active rule
  std::vector<bool> can_host;       // per local service
};

class CgSolver {
 public:
  CgSolver(const Cluster& cluster, const Subproblem& subproblem,
           const Placement& base, const Placement& original,
           const CgOptions& options)
      : cluster_(cluster), sp_(subproblem), base_(base), original_(original),
        options_(options) {}

  StatusOr<SubproblemSolution> Solve(CgStats* stats);

 private:
  int S() const { return static_cast<int>(sp_.services.size()); }
  int M() const { return static_cast<int>(sp_.machines.size()); }

  void BuildContexts();
  double PatternValue(const std::vector<int>& counts) const;
  // Whether one more container of `local_service`, `count` of which the
  // machine already holds, fits. `used` / `rule_used` are sized
  // num_resources / active_rules_.
  bool FitsOneMore(const MachineContext& ctx, int local_service, int count,
                   const std::vector<double>& used,
                   const std::vector<int>& rule_used) const;
  // Adds the footprint of `n` containers of `local_service` to `used` and
  // `rule_used`.
  void Occupy(int local_service, int n, std::vector<double>& used,
              std::vector<int>& rule_used) const;
  // Greedy pricing on local machine j: maximize v(p) - pi.p - mu. Returns
  // the best pattern and its reduced cost.
  Pattern PricePattern(int j, const std::vector<double>& pi, double mu,
                       double* reduced_cost) const;
  Pattern PatternFromCounts(int j, std::vector<int> counts) const;
  // Whether machine j already has a column with these counts.
  bool HasPattern(int j, const std::vector<int>& counts) const;

  // The restricted master keeps its rows (M convexity, then S demand) for
  // the whole solve; its columns are columns_, in order.
  void AddColumns(std::vector<Pattern> patterns);
  // Deletes non-basic columns of machines over the pattern cap.
  void ManageColumns(const std::vector<double>& y);
  // Carries basis_ over a change of columns: `new_index` maps each old
  // column to its new index (-1 when deleted, never a basic column).
  void ReindexBasis(const std::vector<int>& new_index, int new_n);
  // basis_ = every machine's empty pattern on its convexity row plus every
  // demand row's slack: an identity basis at y_empty = 1, slack = d_s,
  // which is primal feasible, so no master ever runs phase 1.
  void CrashBasis();
  // Solves the restricted master LP from basis_; fills y (per column) and
  // duals pi (per service) and mu (per machine). Returns false on solver
  // trouble.
  bool SolveMaster(std::vector<double>& y, std::vector<double>& pi,
                   std::vector<double>& mu);
  SubproblemSolution RoundToSolution(const std::vector<double>& y);

  const Cluster& cluster_;
  const Subproblem& sp_;
  const Placement& base_;
  const Placement& original_;
  const CgOptions& options_;

  std::vector<MachineContext> contexts_;
  std::vector<int> local_of_;  // global service -> local
  std::vector<int> active_rules_;
  // Rule index: per local service, the active_rules_ positions of the
  // rules that list it, each once.
  std::vector<std::vector<int>> rules_of_local_;
  // Adjacency restricted to the subproblem, in local ids.
  std::vector<std::vector<std::pair<int, double>>> local_adj_;
  CgStats stats_;

  LpModel master_;
  std::vector<Pattern> columns_;
  // The basis the next master solve starts from: the crash basis, then
  // each optimal solve's final basis.
  LpBasis basis_;
};

void CgSolver::BuildContexts() {
  local_of_.assign(cluster_.num_services(), -1);
  for (int i = 0; i < S(); ++i) local_of_[sp_.services[i]] = i;

  std::vector<int> position(cluster_.anti_affinity().size(), -1);
  rules_of_local_.assign(S(), {});
  for (int i = 0; i < S(); ++i) {
    std::vector<int>& mine = rules_of_local_[i];
    for (int k : cluster_.RulesOfService(sp_.services[i])) {
      if (position[k] < 0) {
        position[k] = static_cast<int>(active_rules_.size());
        active_rules_.push_back(k);
      }
      if (mine.empty() || mine.back() != position[k]) {
        mine.push_back(position[k]);
      }
    }
  }

  local_adj_.assign(S(), {});
  for (const AffinityEdge& e : sp_.edges) {
    const int lu = local_of_[e.u];
    const int lv = local_of_[e.v];
    local_adj_[lu].push_back({lv, e.weight});
    local_adj_[lv].push_back({lu, e.weight});
  }

  contexts_.resize(M());
  for (int j = 0; j < M(); ++j) {
    MachineContext& ctx = contexts_[j];
    ctx.machine = sp_.machines[j];
    ctx.residual.resize(cluster_.num_resources());
    for (int r = 0; r < cluster_.num_resources(); ++r) {
      ctx.residual[r] =
          std::max(0.0, ResidualCapacity(cluster_, base_, ctx.machine, r));
    }
    ctx.rule_limit.resize(active_rules_.size());
    for (size_t k = 0; k < active_rules_.size(); ++k) {
      ctx.rule_limit[k] = std::max(
          0, ResidualRuleLimit(cluster_, base_, ctx.machine, active_rules_[k]));
    }
    ctx.can_host.resize(S());
    for (int i = 0; i < S(); ++i) {
      ctx.can_host[i] = cluster_.CanHost(ctx.machine, sp_.services[i]);
    }
  }
}

double CgSolver::PatternValue(const std::vector<int>& counts) const {
  double value = 0.0;
  for (const AffinityEdge& e : sp_.edges) {
    const int xu = counts[local_of_[e.u]];
    if (xu == 0) continue;
    const int xv = counts[local_of_[e.v]];
    if (xv == 0) continue;
    const double du = cluster_.service(e.u).demand;
    const double dv = cluster_.service(e.v).demand;
    if (du <= 0 || dv <= 0) continue;
    value += e.weight * std::min(xu / du, xv / dv);
  }
  return value;
}

bool CgSolver::FitsOneMore(const MachineContext& ctx, int local_service,
                           int count, const std::vector<double>& used,
                           const std::vector<int>& rule_used) const {
  if (!ctx.can_host[local_service]) return false;
  const Service& svc = cluster_.service(sp_.services[local_service]);
  if (count + 1 > svc.demand) return false;
  for (int r = 0; r < cluster_.num_resources(); ++r) {
    if (used[r] + svc.request[r] > ctx.residual[r] + 1e-9) return false;
  }
  for (int k : rules_of_local_[local_service]) {
    if (rule_used[k] + 1 > ctx.rule_limit[k]) return false;
  }
  return true;
}

void CgSolver::Occupy(int local_service, int n, std::vector<double>& used,
                      std::vector<int>& rule_used) const {
  const std::vector<double>& req =
      cluster_.service(sp_.services[local_service]).request;
  for (int r = 0; r < cluster_.num_resources(); ++r) used[r] += req[r] * n;
  for (int k : rules_of_local_[local_service]) rule_used[k] += n;
}

Pattern CgSolver::PatternFromCounts(int j, std::vector<int> counts) const {
  Pattern p;
  p.machine = j;
  p.value = PatternValue(counts);
  p.counts = std::move(counts);
  return p;
}

bool CgSolver::HasPattern(int j, const std::vector<int>& counts) const {
  for (const Pattern& q : columns_) {
    if (q.machine == j && q.counts == counts) return true;
  }
  return false;
}

Pattern CgSolver::PricePattern(int j, const std::vector<double>& pi,
                               double mu, double* reduced_cost) const {
  const MachineContext& ctx = contexts_[j];
  const int R = cluster_.num_resources();
  std::vector<int> counts(S(), 0);
  std::vector<double> used(R, 0.0);
  std::vector<int> rule_used(active_rules_.size(), 0);
  std::vector<char> fits(S(), 0);
  std::vector<double> marginals(S(), 0.0);

  auto commit = [&](int i) {
    ++counts[i];
    Occupy(i, 1, used, rule_used);
  };

  // Marginal reduced-cost gain of one more container of local service i.
  auto marginal = [&](int i) {
    const int s = sp_.services[i];
    const double d_s = cluster_.service(s).demand;
    if (d_s <= 0) return -1e18;
    double gain = 0.0;
    for (const auto& [nbr, w] : local_adj_[i]) {
      if (counts[nbr] == 0) continue;
      const double d_n = cluster_.service(sp_.services[nbr]).demand;
      if (d_n <= 0) continue;
      const double before = std::min(counts[i] / d_s, counts[nbr] / d_n);
      const double after = std::min((counts[i] + 1) / d_s, counts[nbr] / d_n);
      gain += w * (after - before);
    }
    return gain - pi[i];
  };

  // Both endpoints of an edge at once, given that each fits alone: the
  // two containers' capacity, and room for two in every rule listing both.
  auto pair_fits = [&](int lu, int lv) {
    const std::vector<double>& requ =
        cluster_.service(sp_.services[lu]).request;
    const std::vector<double>& reqv =
        cluster_.service(sp_.services[lv]).request;
    for (int r = 0; r < R; ++r) {
      if (used[r] + requ[r] + reqv[r] > ctx.residual[r] + 1e-9) return false;
    }
    const std::vector<int>& rules_v = rules_of_local_[lv];
    for (int k : rules_of_local_[lu]) {
      if (rule_used[k] + 2 > ctx.rule_limit[k] &&
          std::find(rules_v.begin(), rules_v.end(), k) != rules_v.end()) {
        return false;
      }
    }
    return true;
  };

  while (true) {
    // Best single-container addition; every service's fit and marginal
    // are evaluated once here and reused by the pair scan.
    int best_single = -1;
    double best_single_gain = 1e-9;
    for (int i = 0; i < S(); ++i) {
      fits[i] = FitsOneMore(ctx, i, counts[i], used, rule_used);
      if (!fits[i]) continue;
      marginals[i] = marginal(i);
      if (marginals[i] > best_single_gain) {
        best_single_gain = marginals[i];
        best_single = i;
      }
    }
    // Best pair addition along an edge (lets the greedy escape the local
    // trap where any lone first container looks unprofitable).
    int best_pair_u = -1, best_pair_v = -1;
    double best_pair_gain = 1e-9;
    if (!options_.pair_pricing) {
      if (best_single >= 0) {
        commit(best_single);
        continue;
      }
      break;
    }
    for (const AffinityEdge& e : sp_.edges) {
      const int lu = local_of_[e.u];
      const int lv = local_of_[e.v];
      // Edges join distinct services, so u's tentative container leaves
      // v's fit unchanged; it only moves v's marginal.
      if (!fits[lu] || !fits[lv] || !pair_fits(lu, lv)) continue;
      ++counts[lu];  // tentatively
      const double gv = marginal(lv);
      --counts[lu];
      if (gv <= -1e17) continue;
      const double g = marginals[lu] + gv;
      if (g > best_pair_gain) {
        best_pair_gain = g;
        best_pair_u = lu;
        best_pair_v = lv;
      }
    }

    if (best_pair_u >= 0 && best_pair_gain > best_single_gain) {
      commit(best_pair_u);
      commit(best_pair_v);
    } else if (best_single >= 0) {
      commit(best_single);
    } else {
      break;
    }
  }

  Pattern p = PatternFromCounts(j, std::move(counts));
  double pi_dot = 0.0;
  for (int i = 0; i < S(); ++i) pi_dot += pi[i] * p.counts[i];
  *reduced_cost = p.value - pi_dot - mu;
  return p;
}

void CgSolver::AddColumns(std::vector<Pattern> patterns) {
  const int old_n = master_.num_variables();
  for (Pattern& p : patterns) {
    std::vector<SparseEntry> entries = {{p.machine, 1.0}};
    for (int i = 0; i < S(); ++i) {
      if (p.counts[i] > 0) {
        entries.push_back({M() + i, static_cast<double>(p.counts[i])});
      }
    }
    master_.AddColumn(0.0, 1.0, p.value, std::move(entries));
    columns_.push_back(std::move(p));
  }
  if (basis_.empty()) return;  // the seed columns: CrashBasis comes next
  // An appended column enters nonbasic at y = 0, which leaves the basic
  // point unchanged: the basis stays primal feasible.
  std::vector<int> same(old_n);
  std::iota(same.begin(), same.end(), 0);
  ReindexBasis(same, master_.num_variables());
}

void CgSolver::ManageColumns(const std::vector<double>& y) {
  if (options_.max_patterns_per_machine <= 0) return;
  const size_t cap = static_cast<size_t>(options_.max_patterns_per_machine);
  const int n = master_.num_variables();
  std::vector<std::vector<int>> cols_of(M());
  for (int c = 0; c < n; ++c) cols_of[columns_[c].machine].push_back(c);
  std::vector<char> remove(n, 0);
  bool any = false;
  for (int j = 0; j < M(); ++j) {
    std::vector<int>& cols = cols_of[j];
    if (cols.size() <= cap) continue;
    // Kept unconditionally: every column the basis holds away from zero
    // (basic, or nonbasic at y = 1) and the empty pattern the crash basis
    // needs. The rest are ranked by master weight, value breaking ties.
    size_t kept = 0;
    std::vector<int> ranked;
    for (int c : cols) {
      if (IsEmpty(columns_[c]) || basis_.state[c] != LpVarStatus::kAtLower) {
        ++kept;
      } else {
        ranked.push_back(c);
      }
    }
    std::sort(ranked.begin(), ranked.end(), [&](int a, int b) {
      if (y[a] != y[b]) return y[a] > y[b];
      if (columns_[a].value != columns_[b].value) {
        return columns_[a].value > columns_[b].value;
      }
      return a < b;
    });
    for (int c : ranked) {
      if (kept < cap) {
        ++kept;
      } else {
        remove[c] = 1;
        any = true;
      }
    }
  }
  if (!any) return;
  const std::vector<int> new_index = master_.RemoveVariables(remove);
  std::vector<Pattern> kept;
  kept.reserve(master_.num_variables());
  for (int c = 0; c < n; ++c) {
    if (!remove[c]) kept.push_back(std::move(columns_[c]));
  }
  columns_ = std::move(kept);
  ReindexBasis(new_index, master_.num_variables());
}

void CgSolver::ReindexBasis(const std::vector<int>& new_index, int new_n) {
  const int old_n = static_cast<int>(new_index.size());
  const int rows = M() + S();
  std::vector<LpVarStatus> state(new_n + rows, LpVarStatus::kAtLower);
  for (int c = 0; c < old_n; ++c) {
    if (new_index[c] >= 0) state[new_index[c]] = basis_.state[c];
  }
  for (int r = 0; r < rows; ++r) state[new_n + r] = basis_.state[old_n + r];
  basis_.state = std::move(state);
  for (int& b : basis_.basic) {
    if (b >= old_n) {
      b += new_n - old_n;  // slack: rows never change
    } else if (b >= 0) {
      b = new_index[b];
    }
  }
}

void CgSolver::CrashBasis() {
  const int n = master_.num_variables();
  basis_.basic.assign(M() + S(), -1);
  basis_.state.assign(n + M() + S(), LpVarStatus::kAtLower);
  for (int c = 0; c < n; ++c) {
    const int j = columns_[c].machine;
    if (basis_.basic[j] < 0 && IsEmpty(columns_[c])) {
      basis_.basic[j] = c;
      basis_.state[c] = LpVarStatus::kBasic;
    }
  }
  for (int i = 0; i < S(); ++i) {
    basis_.basic[M() + i] = n + M() + i;
    basis_.state[n + M() + i] = LpVarStatus::kBasic;
  }
}

bool CgSolver::SolveMaster(std::vector<double>& y, std::vector<double>& pi,
                           std::vector<double>& mu) {
  LpOptions lp_options;
  lp_options.deadline = options_.deadline;
  lp_options.warm_basis = &basis_;
  LpBasis final_basis;
  lp_options.result_basis = &final_basis;
  LpResult lp = SolveLp(master_, lp_options);
  ++stats_.master_solves;
  stats_.lp_iterations += lp.iterations;
  stats_.lp_phase1_iterations += lp.phase1_iterations;
  stats_.refactorizations += lp.refactorizations;
  stats_.max_eta_length = std::max(stats_.max_eta_length, lp.max_eta_length);
  if (lp.warm_started) ++stats_.master_warm_started;
  if (lp.status == LpStatus::kOptimal) {
    // Last fully solved master wins: the dual estimate reported upstream.
    stats_.lp_objective = lp.objective;
    stats_.has_lp_bound = true;
  }
  if (lp.status == LpStatus::kOptimal && !final_basis.empty()) {
    basis_ = std::move(final_basis);
  } else {
    // Interrupted or failed: restart from the crash basis, which every
    // master admits.
    CrashBasis();
  }
  if (lp.status != LpStatus::kOptimal &&
      lp.status != LpStatus::kIterationLimit &&
      lp.status != LpStatus::kDeadlineExceeded) {
    RASA_LOG(Warning) << "CG master LP: " << LpStatusToString(lp.status);
    return false;
  }
  if (static_cast<int>(lp.primal.size()) != master_.num_variables()) {
    return false;  // interrupted before a usable point existed
  }
  y = std::move(lp.primal);
  mu.assign(M(), 0.0);
  pi.assign(S(), 0.0);
  if (!lp.dual.empty()) {
    for (int j = 0; j < M(); ++j) mu[j] = lp.dual[j];
    for (int i = 0; i < S(); ++i) pi[i] = lp.dual[M() + i];
  }
  return true;
}

SubproblemSolution CgSolver::RoundToSolution(const std::vector<double>& y) {
  SubproblemSolution solution;
  std::vector<int> remaining(S());
  for (int i = 0; i < S(); ++i) {
    remaining[i] = cluster_.service(sp_.services[i]).demand;
  }
  // Per machine, the pattern with the best y (value as tie-break, then the
  // earlier column), and the confidence that orders the commits: the best
  // fractional weight times value, so most decided machines commit first.
  std::vector<int> best(M(), -1);
  std::vector<double> best_score(M(), -1.0);
  std::vector<double> confidence(M(), 0.0);
  for (size_t c = 0; c < columns_.size(); ++c) {
    const Pattern& p = columns_[c];
    confidence[p.machine] =
        std::max(confidence[p.machine], y[c] * (1.0 + p.value));
    const double score = y[c] + 1e-6 * p.value;
    if (score > best_score[p.machine]) {
      best_score[p.machine] = score;
      best[p.machine] = static_cast<int>(c);
    }
  }
  std::vector<int> order(M());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (confidence[a] != confidence[b]) return confidence[a] > confidence[b];
    return a < b;
  });

  std::vector<std::vector<int>> counts(S(), std::vector<int>(M(), 0));
  for (int j : order) {
    // Clip the machine's best pattern to the remaining demands.
    if (best[j] < 0) continue;
    for (int i = 0; i < S(); ++i) {
      const int take = std::min(columns_[best[j]].counts[i], remaining[i]);
      if (take > 0) {
        counts[i][j] = take;
        remaining[i] -= take;
      }
    }
  }

  // Greedy completion: pattern clipping can leave demand unplaced even when
  // capacity remains; place leftovers on their best feasible machine.
  if (!options_.greedy_completion) {
    for (int i = 0; i < S(); ++i) {
      solution.unplaced_containers += remaining[i];
      for (int j = 0; j < M(); ++j) {
        if (counts[i][j] > 0) {
          solution.assignments.push_back(
              {sp_.services[i], sp_.machines[j], counts[i][j]});
        }
      }
    }
    solution.gained_affinity = SubproblemGainedAffinity(cluster_, sp_, counts);
    return solution;
  }
  const int R = cluster_.num_resources();
  std::vector<std::vector<double>> used(M(), std::vector<double>(R, 0.0));
  std::vector<std::vector<int>> rule_used(
      M(), std::vector<int>(active_rules_.size(), 0));
  for (int j = 0; j < M(); ++j) {
    for (int i = 0; i < S(); ++i) {
      if (counts[i][j] > 0) {
        Occupy(i, counts[i][j], used[j], rule_used[j]);
      }
    }
  }
  for (int i = 0; i < S(); ++i) {
    const double d_i = cluster_.service(sp_.services[i]).demand;
    while (remaining[i] > 0) {
      int best_j = -1;
      double best_gain = -1.0;
      for (int j = 0; j < M(); ++j) {
        // remaining[i] > 0 keeps counts[i][j] + 1 within the demand.
        if (!FitsOneMore(contexts_[j], i, counts[i][j], used[j],
                         rule_used[j])) {
          continue;
        }
        double gain = 0.0;
        for (const auto& [nbr, w] : local_adj_[i]) {
          if (counts[nbr][j] == 0) continue;
          const double d_n = cluster_.service(sp_.services[nbr]).demand;
          if (d_n <= 0) continue;
          gain += w * (std::min((counts[i][j] + 1) / d_i,
                                counts[nbr][j] / d_n) -
                       std::min(counts[i][j] / d_i, counts[nbr][j] / d_n));
        }
        if (gain > best_gain) {
          best_gain = gain;
          best_j = j;
        }
      }
      if (best_j < 0) break;
      ++counts[i][best_j];
      --remaining[i];
      Occupy(i, 1, used[best_j], rule_used[best_j]);
    }
  }

  for (int i = 0; i < S(); ++i) {
    solution.unplaced_containers += remaining[i];
    for (int j = 0; j < M(); ++j) {
      if (counts[i][j] > 0) {
        solution.assignments.push_back(
            {sp_.services[i], sp_.machines[j], counts[i][j]});
      }
    }
  }
  solution.gained_affinity = SubproblemGainedAffinity(cluster_, sp_, counts);
  return solution;
}

StatusOr<SubproblemSolution> CgSolver::Solve(CgStats* stats) {
  if (S() == 0 || M() == 0) {
    SubproblemSolution empty;
    for (int s : sp_.services) {
      empty.unplaced_containers += cluster_.service(s).demand;
    }
    return empty;
  }
  BuildContexts();

  // The master's rows, then its seed columns per machine: empty, the
  // ORIGINAL placement's pattern (clipped to residual feasibility), and a
  // zero-dual greedy pattern, each unless the machine already has it.
  master_.SetObjectiveSense(ObjectiveSense::kMaximize);
  for (int j = 0; j < M(); ++j) {
    master_.AddConstraint(ConstraintType::kEqual, 1.0, {});
  }
  for (int i = 0; i < S(); ++i) {
    master_.AddConstraint(ConstraintType::kLessEqual,
                          cluster_.service(sp_.services[i]).demand, {});
  }
  const std::vector<double> zero_pi(S(), 0.0);
  std::vector<Pattern> seeds;
  for (int j = 0; j < M(); ++j) {
    const size_t first = seeds.size();
    seeds.push_back(PatternFromCounts(j, std::vector<int>(S(), 0)));
    // Original pattern.
    std::vector<int> counts(S(), 0);
    std::vector<double> used(cluster_.num_resources(), 0.0);
    std::vector<int> rule_used(active_rules_.size(), 0);
    for (const auto& [s, count] : original_.ServicesOn(sp_.machines[j])) {
      const int i = local_of_[s];
      if (i < 0) continue;
      for (int c = 0; c < count; ++c) {
        if (!FitsOneMore(contexts_[j], i, counts[i], used, rule_used)) break;
        ++counts[i];
        Occupy(i, 1, used, rule_used);
      }
    }
    Pattern original = PatternFromCounts(j, std::move(counts));
    // Greedy pattern with zero duals (pure affinity packing).
    double rc = 0.0;
    Pattern greedy = PricePattern(j, zero_pi, 0.0, &rc);
    for (Pattern* p : {&original, &greedy}) {
      if (std::none_of(seeds.begin() + first, seeds.end(),
                       [&](const Pattern& q) { return q.counts == p->counts; })) {
        seeds.push_back(std::move(*p));
      }
    }
  }
  stats_.patterns_generated = static_cast<int>(seeds.size());
  AddColumns(std::move(seeds));
  CrashBasis();

  std::vector<double> y;
  std::vector<double> pi;
  std::vector<double> mu;

  for (int round = 0; round < options_.max_rounds; ++round) {
    if (options_.deadline.Expired()) {
      stats_.hit_deadline = true;
      break;
    }
    ++stats_.rounds;
    if (!SolveMaster(y, pi, mu)) break;  // fall through to greedy fallback

    // Column management: keep the restricted master small by dropping
    // patterns the LP does not use, so later rounds stay cheap.
    ManageColumns(y);
    // Pricing round (GenPattern): one candidate pattern per machine.
    std::vector<Pattern> added;
    for (int j = 0; j < M(); ++j) {
      if (options_.deadline.Expired()) {
        stats_.hit_deadline = true;
        break;
      }
      double rc = 0.0;
      Pattern p = PricePattern(j, pi, mu[j], &rc);
      if (rc > kPricingTolerance && !HasPattern(j, p.counts)) {
        added.push_back(std::move(p));
      }
    }
    if (added.empty()) break;  // IsTerminate: no negative reduced cost left
    stats_.patterns_generated += static_cast<int>(added.size());
    AddColumns(std::move(added));
  }

  if (!SolveMaster(y, pi, mu)) {
    // Master never produced a usable fractional point (e.g. the deadline
    // expired inside the very first LP). Fall back to the affinity greedy —
    // CG stays anytime.
    stats_.hit_deadline = stats_.hit_deadline || options_.deadline.Expired();
    Placement scratch = base_;
    SubproblemSolution greedy = GreedyAffinityPlace(cluster_, sp_, scratch);
    if (stats != nullptr) *stats = stats_;
    return greedy;
  }
  SubproblemSolution solution = RoundToSolution(y);
  if (stats != nullptr) *stats = stats_;
  return solution;
}

}  // namespace

StatusOr<SubproblemSolution> SolveSubproblemCg(const Cluster& cluster,
                                               const Subproblem& subproblem,
                                               const Placement& base,
                                               const Placement& original,
                                               const CgOptions& options,
                                               CgStats* stats) {
  CgSolver solver(cluster, subproblem, base, original, options);
  return solver.Solve(stats);
}

}  // namespace rasa
