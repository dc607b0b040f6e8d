#include "core/cg.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/arena.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/greedy.h"
#include "lp/simplex.h"

namespace rasa {
namespace {

// A pattern: container counts per subproblem-local service on one machine.
struct Pattern {
  std::vector<int> counts;
  double value = 0.0;  // v(p): gained affinity internal to the machine
  // Stable identity across master rebuilds: column management reorders and
  // drops patterns between rounds, so warm-starting the next master needs
  // to map the old basis onto the new column order by uid, not by index.
  int uid = -1;
};

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
        options_(options), rng_(options.seed) {}

  StatusOr<SubproblemSolution> Solve(CgStats* stats);

 private:
  int S() const { return static_cast<int>(sp_.services.size()); }
  int M() const { return static_cast<int>(sp_.machines.size()); }

  void BuildContexts();
  double PatternValue(const std::vector<int>& counts) const;
  // Whether one more container of `local_service`, `count` of which the
  // machine already holds, fits. `used` / `rule_used` are views sized
  // num_resources / active_rules_ (raw pointers so heap- and arena-backed
  // scratch both qualify).
  bool FitsOneMore(const MachineContext& ctx, int local_service, int count,
                   const double* used, const int* rule_used) const;
  // Adds the footprint of `n` containers of `local_service` to `used` and
  // `rule_used`.
  void Occupy(int local_service, int n, double* used, int* rule_used) const;
  // Greedy pricing: maximize v(p) - pi.p - mu. Returns the best pattern and
  // its reduced cost.
  Pattern PricePattern(const MachineContext& ctx,
                       const std::vector<double>& pi, double mu,
                       double* reduced_cost) const;
  Pattern PatternFromCounts(std::vector<int> counts) const;
  // Solves the restricted master LP; fills duals pi (per service) and mu
  // (per machine). Returns false on solver trouble.
  bool SolveMaster(std::vector<std::vector<double>>& y,
                   std::vector<double>& pi, std::vector<double>& mu);
  SubproblemSolution RoundToSolution(const std::vector<std::vector<double>>& y);

  const Cluster& cluster_;
  const Subproblem& sp_;
  const Placement& base_;
  const Placement& original_;
  const CgOptions& options_;
  Rng rng_;

  std::vector<MachineContext> contexts_;
  std::vector<std::vector<Pattern>> patterns_;  // per machine
  std::vector<int> local_of_;                   // global service -> local
  std::vector<int> active_rules_;
  // Rule index: per local service, the active_rules_ positions of the
  // rules that list it, each once.
  std::vector<std::vector<int>> rules_of_local_;
  // Adjacency restricted to the subproblem, in local ids.
  std::vector<std::vector<std::pair<int, double>>> local_adj_;
  CgStats stats_;

  // Pattern uid allocator (PricePattern is const but still mints patterns).
  mutable int next_pattern_uid_ = 0;
  // Pricing scratch pool: PricePattern runs once per machine per round and
  // resets this instead of re-allocating its per-step buffers.
  mutable Arena pricing_arena_;
  // Basis of the last optimal master plus the pattern uid behind each of
  // its structural columns; rows (M convexity + S demand) are stable
  // across rounds, so this is enough to warm-start the next master.
  LpBasis master_basis_;
  std::vector<int> master_basis_uids_;
  bool has_master_basis_ = false;
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
                           int count, const double* used,
                           const int* rule_used) const {
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

void CgSolver::Occupy(int local_service, int n, double* used,
                      int* rule_used) const {
  const std::vector<double>& req =
      cluster_.service(sp_.services[local_service]).request;
  for (int r = 0; r < cluster_.num_resources(); ++r) used[r] += req[r] * n;
  for (int k : rules_of_local_[local_service]) rule_used[k] += n;
}

Pattern CgSolver::PatternFromCounts(std::vector<int> counts) const {
  Pattern p;
  p.value = PatternValue(counts);
  p.counts = std::move(counts);
  p.uid = next_pattern_uid_++;
  return p;
}

Pattern CgSolver::PricePattern(const MachineContext& ctx,
                               const std::vector<double>& pi, double mu,
                               double* reduced_cost) const {
  const int R = cluster_.num_resources();
  // `counts` escapes as Pattern::counts (heap); the capacity/rule usage and
  // the per-step fit/marginal values live in the recycled pricing arena.
  std::vector<int> counts(S(), 0);
  pricing_arena_.Reset();
  ArenaVector<double> used(static_cast<size_t>(R), 0.0,
                           ArenaAllocator<double>(&pricing_arena_));
  ArenaVector<int> rule_used(active_rules_.size(), 0,
                             ArenaAllocator<int>(&pricing_arena_));
  ArenaVector<char> fits(static_cast<size_t>(S()), 0,
                         ArenaAllocator<char>(&pricing_arena_));
  ArenaVector<double> marginals(static_cast<size_t>(S()), 0.0,
                                ArenaAllocator<double>(&pricing_arena_));

  auto commit = [&](int i) {
    ++counts[i];
    Occupy(i, 1, used.data(), rule_used.data());
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
      fits[i] = FitsOneMore(ctx, i, counts[i], used.data(), rule_used.data());
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

  Pattern p = PatternFromCounts(std::move(counts));
  double pi_dot = 0.0;
  for (int i = 0; i < S(); ++i) pi_dot += pi[i] * p.counts[i];
  *reduced_cost = p.value - pi_dot - mu;
  return p;
}

bool CgSolver::SolveMaster(std::vector<std::vector<double>>& y,
                           std::vector<double>& pi, std::vector<double>& mu) {
  LpModel master;
  master.SetObjectiveSense(ObjectiveSense::kMaximize);
  // Variables y_{m,l}.
  std::vector<std::vector<int>> var(M());
  for (int j = 0; j < M(); ++j) {
    var[j].resize(patterns_[j].size());
    for (size_t l = 0; l < patterns_[j].size(); ++l) {
      var[j][l] = master.AddVariable(0.0, 1.0, patterns_[j][l].value);
    }
  }
  // Convexity rows, one per machine.
  for (int j = 0; j < M(); ++j) {
    std::vector<LinearTerm> terms;
    for (int v : var[j]) terms.push_back({v, 1.0});
    master.AddConstraint(ConstraintType::kEqual, 1.0, std::move(terms));
  }
  // Demand rows, one per service.
  for (int i = 0; i < S(); ++i) {
    std::vector<LinearTerm> terms;
    for (int j = 0; j < M(); ++j) {
      for (size_t l = 0; l < patterns_[j].size(); ++l) {
        if (patterns_[j][l].counts[i] > 0) {
          terms.push_back({var[j][l],
                           static_cast<double>(patterns_[j][l].counts[i])});
        }
      }
    }
    master.AddConstraint(ConstraintType::kLessEqual,
                         cluster_.service(sp_.services[i]).demand,
                         std::move(terms));
  }

  // The pattern uid behind every structural master column, in column
  // order. Columns are appended machine-by-machine, so var[j][l] is
  // sequential; this is the key for translating bases across rounds.
  const int num_cols = master.num_variables();
  std::vector<int> uid_of_col(num_cols, -1);
  for (int j = 0; j < M(); ++j) {
    for (size_t l = 0; l < patterns_[j].size(); ++l) {
      uid_of_col[var[j][l]] = patterns_[j][l].uid;
    }
  }

  // Translate the previous optimal basis into this master's column order.
  // Appended columns enter nonbasic at their lower bound (y = 0), which
  // leaves the carried basic point unchanged; only dual feasibility can
  // break, so the warm solve typically resumes straight into phase 2.
  // If column management dropped a pattern that was basic, the basis no
  // longer covers the rows and this round goes cold.
  LpBasis warm;
  bool have_warm = false;
  if (has_master_basis_) {
    const int old_n = static_cast<int>(master_basis_uids_.size());
    const int rows = M() + S();
    std::unordered_map<int, int> col_of_uid;
    col_of_uid.reserve(num_cols);
    for (int c = 0; c < num_cols; ++c) col_of_uid[uid_of_col[c]] = c;
    have_warm = true;
    warm.basic.reserve(master_basis_.basic.size());
    for (int b : master_basis_.basic) {
      if (b < 0) {  // artificial covering a (stable) row
        warm.basic.push_back(b);
        continue;
      }
      if (b >= old_n) {  // slack: rows are stable, reindex to the new n
        warm.basic.push_back(num_cols + (b - old_n));
        continue;
      }
      auto it = col_of_uid.find(master_basis_uids_[b]);
      if (it == col_of_uid.end()) {
        have_warm = false;  // basic pattern dropped: cold round
        break;
      }
      warm.basic.push_back(it->second);
    }
    if (have_warm) {
      warm.state.assign(num_cols + rows, LpVarStatus::kAtLower);
      for (int c = 0; c < old_n; ++c) {
        auto it = col_of_uid.find(master_basis_uids_[c]);
        if (it != col_of_uid.end()) {
          warm.state[it->second] = master_basis_.state[c];
        }
      }
      for (int r = 0; r < rows; ++r) {
        warm.state[num_cols + r] = master_basis_.state[old_n + r];
      }
    }
  }

  LpOptions lp_options;
  lp_options.deadline = options_.deadline;
  lp_options.warm_basis = have_warm ? &warm : nullptr;
  LpBasis final_basis;
  lp_options.result_basis = &final_basis;
  LpResult lp = SolveLp(master, lp_options);
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
    master_basis_ = std::move(final_basis);
    master_basis_uids_ = std::move(uid_of_col);
    has_master_basis_ = true;
  } else {
    // Interrupted or dense-kernel solve: no basis to carry forward.
    has_master_basis_ = false;
  }
  if (lp.status != LpStatus::kOptimal &&
      lp.status != LpStatus::kIterationLimit &&
      lp.status != LpStatus::kDeadlineExceeded) {
    RASA_LOG(Warning) << "CG master LP: " << LpStatusToString(lp.status);
    return false;
  }
  if (static_cast<int>(lp.primal.size()) != master.num_variables()) {
    return false;  // interrupted before a usable point existed
  }
  y.assign(M(), {});
  for (int j = 0; j < M(); ++j) {
    y[j].resize(patterns_[j].size());
    for (size_t l = 0; l < patterns_[j].size(); ++l) {
      y[j][l] = lp.primal[var[j][l]];
    }
  }
  mu.assign(M(), 0.0);
  pi.assign(S(), 0.0);
  if (!lp.dual.empty()) {
    for (int j = 0; j < M(); ++j) mu[j] = lp.dual[j];
    for (int i = 0; i < S(); ++i) pi[i] = lp.dual[M() + i];
  }
  return true;
}

SubproblemSolution CgSolver::RoundToSolution(
    const std::vector<std::vector<double>>& y) {
  SubproblemSolution solution;
  std::vector<int> remaining(S());
  for (int i = 0; i < S(); ++i) {
    remaining[i] = cluster_.service(sp_.services[i]).demand;
  }
  // Machines in decreasing order of their best pattern's fractional weight
  // times value: most decided machines commit first.
  std::vector<int> order(M());
  std::vector<double> confidence(M(), 0.0);
  for (int j = 0; j < M(); ++j) {
    order[j] = j;
    for (size_t l = 0; l < y[j].size(); ++l) {
      confidence[j] =
          std::max(confidence[j], y[j][l] * (1.0 + patterns_[j][l].value));
    }
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (confidence[a] != confidence[b]) return confidence[a] > confidence[b];
    return a < b;
  });

  std::vector<std::vector<int>> counts(S(), std::vector<int>(M(), 0));
  for (int j : order) {
    // Choose the pattern with the best y (value as tie-break), then clip it
    // to the remaining demands.
    int best = -1;
    double best_score = -1.0;
    for (size_t l = 0; l < patterns_[j].size(); ++l) {
      const double score = y[j][l] + 1e-6 * patterns_[j][l].value;
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(l);
      }
    }
    if (best < 0) continue;
    for (int i = 0; i < S(); ++i) {
      const int take = std::min(patterns_[j][best].counts[i], remaining[i]);
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
        Occupy(i, counts[i][j], used[j].data(), rule_used[j].data());
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
        if (!FitsOneMore(contexts_[j], i, counts[i][j], used[j].data(),
                         rule_used[j].data())) {
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
      Occupy(i, 1, used[best_j].data(), rule_used[best_j].data());
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

  // Seed patterns per machine: empty, the ORIGINAL placement's pattern
  // (clipped to residual feasibility), and a zero-dual greedy pattern.
  patterns_.assign(M(), {});
  const std::vector<double> zero_pi(S(), 0.0);
  for (int j = 0; j < M(); ++j) {
    patterns_[j].push_back(PatternFromCounts(std::vector<int>(S(), 0)));
    // Original pattern.
    std::vector<int> counts(S(), 0);
    std::vector<double> used(cluster_.num_resources(), 0.0);
    std::vector<int> rule_used(active_rules_.size(), 0);
    for (const auto& [s, count] : original_.ServicesOn(sp_.machines[j])) {
      const int i = local_of_[s];
      if (i < 0) continue;
      for (int c = 0; c < count; ++c) {
        if (!FitsOneMore(contexts_[j], i, counts[i], used.data(),
                         rule_used.data())) {
          break;
        }
        ++counts[i];
        Occupy(i, 1, used.data(), rule_used.data());
      }
    }
    bool nonzero = false;
    for (int c : counts) nonzero |= c > 0;
    if (nonzero) patterns_[j].push_back(PatternFromCounts(std::move(counts)));
    // Greedy pattern with zero duals (pure affinity packing).
    double rc = 0.0;
    Pattern greedy = PricePattern(contexts_[j], zero_pi, 0.0, &rc);
    patterns_[j].push_back(std::move(greedy));
    stats_.patterns_generated += static_cast<int>(patterns_[j].size());
  }

  std::vector<std::vector<double>> y;
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
    // patterns the LP does not use (y ~ 0), so later rounds stay cheap.
    const size_t kMaxPatternsPerMachine =
        options_.max_patterns_per_machine > 0
            ? static_cast<size_t>(options_.max_patterns_per_machine)
            : std::numeric_limits<size_t>::max();
    for (int j = 0; j < M(); ++j) {
      if (patterns_[j].size() <= kMaxPatternsPerMachine) continue;
      std::vector<std::pair<Pattern, double>> kept;
      for (size_t l = 0; l < patterns_[j].size(); ++l) {
        kept.push_back({std::move(patterns_[j][l]), y[j][l]});
      }
      // Highest master weight first; value breaks ties. The empty pattern
      // (index 0 by construction has all-zero counts) always survives via
      // its weight or the final re-add below.
      std::sort(kept.begin(), kept.end(), [](const auto& a, const auto& b) {
        if (a.second != b.second) return a.second > b.second;
        return a.first.value > b.first.value;
      });
      kept.resize(kMaxPatternsPerMachine);
      patterns_[j].clear();
      bool has_empty = false;
      for (auto& [p, weight] : kept) {
        bool empty = true;
        for (int c : p.counts) empty &= c == 0;
        has_empty |= empty;
        patterns_[j].push_back(std::move(p));
      }
      if (!has_empty) {
        patterns_[j].push_back(PatternFromCounts(std::vector<int>(S(), 0)));
      }
      // Master weights are recomputed next round; drop the stale ones.
    }
    // Pricing round (GenPattern): one candidate pattern per machine.
    int added = 0;
    for (int j = 0; j < M(); ++j) {
      if (options_.deadline.Expired()) {
        stats_.hit_deadline = true;
        break;
      }
      double rc = 0.0;
      Pattern p = PricePattern(contexts_[j], pi, mu[j], &rc);
      if (rc > options_.pricing_tolerance) {
        // Deduplicate against existing patterns of this machine.
        bool duplicate = false;
        for (const Pattern& q : patterns_[j]) {
          if (q.counts == p.counts) {
            duplicate = true;
            break;
          }
        }
        if (!duplicate) {
          patterns_[j].push_back(std::move(p));
          ++added;
          ++stats_.patterns_generated;
        }
      }
    }
    if (added == 0) break;  // IsTerminate: no negative reduced cost left
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
