#include "core/mip_algorithm.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.h"
#include "common/strings.h"
#include "core/greedy.h"
#include "mip/solver.h"

namespace rasa {
namespace {

// Relative optimality gap every subproblem branch-and-bound stops at
// (MipOptions::relative_gap).
constexpr double kRelativeGap = 1e-4;

// Copies the solver introspection a MipResult carries into the ledger
// stats (observation-only).
void FillMipStats(const MipResult& result, SubproblemMipStats* stats) {
  if (stats == nullptr) return;
  stats->solved = true;
  stats->status = result.status;
  stats->objective = result.has_solution() ? result.objective : 0.0;
  stats->best_bound = result.best_bound;
  stats->bound_proven = result.bound_proven && result.has_solution();
  stats->root_lp_objective = result.root_lp_objective;
  stats->has_root_lp = result.has_root_lp;
  stats->relative_gap = result.has_solution() ? result.Gap() : 0.0;
  stats->nodes = result.nodes_explored;
  stats->stop = result.stop;
  stats->lp_iterations = result.lp_iterations;
  stats->warm_started_nodes = result.warm_started_nodes;
  stats->max_node_pivots = result.max_node_pivots;
  stats->refactorizations = result.refactorizations;
  stats->max_eta_length = result.max_eta_length;
}

// Anti-affinity rules intersecting the subproblem, in first-seen order.
std::vector<int> ActiveRules(const Cluster& cluster,
                             const Subproblem& subproblem) {
  std::vector<int> active_rules;
  std::vector<bool> seen(cluster.anti_affinity().size(), false);
  for (int s : subproblem.services) {
    for (int k : cluster.RulesOfService(s)) {
      if (!seen[k]) {
        seen[k] = true;
        active_rules.push_back(k);
      }
    }
  }
  return active_rules;
}

// Constraint rows of a subproblem MIP over `columns` machine columns
// (machines, or machine groups): one SLA row per service, and per column
// one row per resource, one per active rule and two per affinity edge.
long long ModelRows(const Cluster& cluster, const Subproblem& subproblem,
                    size_t num_rules, int columns) {
  const long long per_column =
      cluster.num_resources() + static_cast<long long>(num_rules) +
      2 * static_cast<long long>(subproblem.edges.size());
  return static_cast<long long>(subproblem.services.size()) +
         per_column * columns;
}

}  // namespace

long long SubproblemMipRows(const Cluster& cluster,
                            const Subproblem& subproblem) {
  return ModelRows(cluster, subproblem, ActiveRules(cluster, subproblem).size(),
                   static_cast<int>(subproblem.machines.size()));
}

StatusOr<SubproblemMip> BuildSubproblemMip(const Cluster& cluster,
                                           const Subproblem& subproblem,
                                           const Placement& base,
                                           int max_model_rows) {
  const int S = static_cast<int>(subproblem.services.size());
  const int M = static_cast<int>(subproblem.machines.size());
  const int E = static_cast<int>(subproblem.edges.size());
  const int R = cluster.num_resources();

  const std::vector<int> active_rules = ActiveRules(cluster, subproblem);
  const long long rows = ModelRows(cluster, subproblem, active_rules.size(), M);
  if (rows > max_model_rows) {
    return ResourceExhaustedError(StrFormat(
        "subproblem MIP needs %lld rows > cap %d (S=%d M=%d E=%d)", rows,
        max_model_rows, S, M, E));
  }

  SubproblemMip out;
  LpModel& model = out.model;
  model.SetObjectiveSense(ObjectiveSense::kMaximize);

  std::vector<int> local_of(cluster.num_services(), -1);
  for (int i = 0; i < S; ++i) local_of[subproblem.services[i]] = i;

  // x variables: integer container counts, schedulability via upper bounds.
  out.x_index.assign(S, std::vector<int>(M, -1));
  for (int i = 0; i < S; ++i) {
    const int s = subproblem.services[i];
    for (int j = 0; j < M; ++j) {
      const int m = subproblem.machines[j];
      const int ub = cluster.CanHost(m, s) ? cluster.service(s).demand : 0;
      const int var = model.AddVariable(0.0, ub, 0.0,
                                        StrFormat("x_s%d_m%d", s, m));
      model.SetInteger(var);
      out.x_index[i][j] = var;
    }
  }

  // a variables + objective + min-linearization rows (7)-(8).
  for (int e = 0; e < E; ++e) {
    const AffinityEdge& edge = subproblem.edges[e];
    const int iu = local_of[edge.u];
    const int iv = local_of[edge.v];
    const double du = cluster.service(edge.u).demand;
    const double dv = cluster.service(edge.v).demand;
    if (du <= 0 || dv <= 0) continue;
    for (int j = 0; j < M; ++j) {
      const int a = model.AddVariable(0.0, edge.weight, 1.0,
                                      StrFormat("a_e%d_m%d", e, j));
      model.AddConstraint(ConstraintType::kLessEqual, 0.0,
                          {{a, 1.0}, {out.x_index[iu][j], -edge.weight / du}});
      model.AddConstraint(ConstraintType::kLessEqual, 0.0,
                          {{a, 1.0}, {out.x_index[iv][j], -edge.weight / dv}});
    }
  }

  // SLA rows (3), relaxed to <= (under-deployment goes back to the default
  // scheduler).
  for (int i = 0; i < S; ++i) {
    std::vector<LinearTerm> terms;
    for (int j = 0; j < M; ++j) terms.push_back({out.x_index[i][j], 1.0});
    model.AddConstraint(ConstraintType::kLessEqual,
                        cluster.service(subproblem.services[i]).demand,
                        std::move(terms),
                        StrFormat("sla_s%d", subproblem.services[i]));
  }

  // Resource rows (4) against residual capacity.
  for (int j = 0; j < M; ++j) {
    const int m = subproblem.machines[j];
    for (int r = 0; r < R; ++r) {
      std::vector<LinearTerm> terms;
      for (int i = 0; i < S; ++i) {
        const double req = cluster.service(subproblem.services[i]).request[r];
        if (req > 0.0) terms.push_back({out.x_index[i][j], req});
      }
      if (terms.empty()) continue;
      model.AddConstraint(ConstraintType::kLessEqual,
                          std::max(0.0, ResidualCapacity(cluster, base, m, r)),
                          std::move(terms), StrFormat("cap_m%d_r%d", m, r));
    }
  }

  // Anti-affinity rows (5) against residual limits.
  for (int k : active_rules) {
    const AntiAffinityRule& rule = cluster.anti_affinity()[k];
    for (int j = 0; j < M; ++j) {
      const int m = subproblem.machines[j];
      std::vector<LinearTerm> terms;
      for (int s : rule.services) {
        if (local_of[s] >= 0) terms.push_back({out.x_index[local_of[s]][j], 1.0});
      }
      if (terms.empty()) continue;
      model.AddConstraint(
          ConstraintType::kLessEqual,
          std::max(0, ResidualRuleLimit(cluster, base, m, k)),
          std::move(terms), StrFormat("anti_k%d_m%d", k, m));
    }
  }

  return out;
}

StatusOr<SubproblemSolution> SolveSubproblemMipGrouped(
    const Cluster& cluster, const Subproblem& subproblem,
    const Placement& base, const MipAlgorithmOptions& options) {
  const int S = static_cast<int>(subproblem.services.size());
  const int R = cluster.num_resources();

  // Machine groups F: same spec and platform.
  std::map<std::pair<int, int>, std::vector<int>> groups_by_key;
  for (int m : subproblem.machines) {
    groups_by_key[{cluster.machine(m).spec_id, cluster.machine(m).platform}]
        .push_back(m);
  }
  std::vector<std::vector<int>> groups;
  for (auto& [key, members] : groups_by_key) groups.push_back(members);
  const int G = static_cast<int>(groups.size());
  if (S == 0 || G == 0) {
    SubproblemSolution empty;
    for (int s : subproblem.services) {
      empty.unplaced_containers += cluster.service(s).demand;
    }
    return empty;
  }

  std::vector<int> local_of(cluster.num_services(), -1);
  for (int i = 0; i < S; ++i) local_of[subproblem.services[i]] = i;
  const std::vector<int> active_rules = ActiveRules(cluster, subproblem);
  const long long rows = ModelRows(cluster, subproblem, active_rules.size(), G);
  if (rows > options.max_model_rows) {
    return ResourceExhaustedError(StrFormat(
        "grouped MIP needs %lld rows > cap %d", rows, options.max_model_rows));
  }

  LpModel model;
  model.SetObjectiveSense(ObjectiveSense::kMaximize);
  // x_{s,g}: containers of service s placed somewhere in group g.
  std::vector<std::vector<int>> x(S, std::vector<int>(G, -1));
  for (int i = 0; i < S; ++i) {
    const int s = subproblem.services[i];
    for (int g = 0; g < G; ++g) {
      const bool can = cluster.CanHost(groups[g].front(), s);
      const int var = model.AddVariable(
          0.0, can ? cluster.service(s).demand : 0, 0.0,
          StrFormat("x_s%d_g%d", s, g));
      model.SetInteger(var);
      x[i][g] = var;
    }
  }
  // a_{e,g} + min-linearization (the paper's (7)-(8), with g in F).
  for (const AffinityEdge& edge : subproblem.edges) {
    const double du = cluster.service(edge.u).demand;
    const double dv = cluster.service(edge.v).demand;
    if (du <= 0 || dv <= 0) continue;
    for (int g = 0; g < G; ++g) {
      const int a = model.AddVariable(0.0, edge.weight, 1.0);
      model.AddConstraint(
          ConstraintType::kLessEqual, 0.0,
          {{a, 1.0}, {x[local_of[edge.u]][g], -edge.weight / du}});
      model.AddConstraint(
          ConstraintType::kLessEqual, 0.0,
          {{a, 1.0}, {x[local_of[edge.v]][g], -edge.weight / dv}});
    }
  }
  // SLA (relaxed to <=).
  for (int i = 0; i < S; ++i) {
    std::vector<LinearTerm> terms;
    for (int g = 0; g < G; ++g) terms.push_back({x[i][g], 1.0});
    model.AddConstraint(ConstraintType::kLessEqual,
                        cluster.service(subproblem.services[i]).demand,
                        std::move(terms));
  }
  // Aggregated resources and anti-affinity per group.
  for (int g = 0; g < G; ++g) {
    for (int r = 0; r < R; ++r) {
      double capacity = 0.0;
      for (int m : groups[g]) {
        capacity += std::max(0.0, ResidualCapacity(cluster, base, m, r));
      }
      std::vector<LinearTerm> terms;
      for (int i = 0; i < S; ++i) {
        const double req = cluster.service(subproblem.services[i]).request[r];
        if (req > 0.0) terms.push_back({x[i][g], req});
      }
      if (!terms.empty()) {
        model.AddConstraint(ConstraintType::kLessEqual, capacity,
                            std::move(terms));
      }
    }
    for (int k : active_rules) {
      int limit = 0;
      for (int m : groups[g]) {
        limit += std::max(0, ResidualRuleLimit(cluster, base, m, k));
      }
      std::vector<LinearTerm> terms;
      for (int s : cluster.anti_affinity()[k].services) {
        if (local_of[s] >= 0) terms.push_back({x[local_of[s]][g], 1.0});
      }
      if (!terms.empty()) {
        model.AddConstraint(ConstraintType::kLessEqual, limit,
                            std::move(terms));
      }
    }
  }

  MipOptions mip_options;
  mip_options.deadline = options.deadline;
  mip_options.relative_gap = kRelativeGap;
  mip_options.max_lp_iterations = options.max_lp_iterations;
  MipResult mip = SolveMip(model, mip_options);
  if (!mip.has_solution()) {
    Placement scratch = base;
    return GreedyAffinityPlace(cluster, subproblem, scratch);
  }

  // Disaggregation: hand each group's x_{s,g} to its member machines with
  // the affinity-aware greedy; infeasible leftovers become unplaced.
  Placement working = base;
  SubproblemSolution solution;
  std::vector<std::vector<int>> counts(
      S, std::vector<int>(subproblem.machines.size(), 0));
  std::vector<int> machine_index(cluster.num_machines(), -1);
  for (size_t j = 0; j < subproblem.machines.size(); ++j) {
    machine_index[subproblem.machines[j]] = static_cast<int>(j);
  }
  for (int g = 0; g < G; ++g) {
    // Services ordered by their group allocation, largest first.
    std::vector<std::pair<int, int>> allocs;  // (local service, count)
    for (int i = 0; i < S; ++i) {
      const int count = static_cast<int>(std::lround(mip.solution[x[i][g]]));
      if (count > 0) allocs.push_back({i, count});
    }
    std::sort(allocs.begin(), allocs.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (const auto& [i, count] : allocs) {
      const int s = subproblem.services[i];
      for (int c = 0; c < count; ++c) {
        int best = -1;
        double best_gain = -1.0;
        for (int m : groups[g]) {
          if (!working.CanPlace(m, s)) continue;
          const double gain = MarginalGain(cluster, subproblem, working, s, m);
          if (gain > best_gain) {
            best_gain = gain;
            best = m;
          }
        }
        if (best < 0) {
          ++solution.unplaced_containers;
          continue;
        }
        working.Add(best, s);
        ++counts[i][machine_index[best]];
      }
    }
  }
  // Emit assignments; unplaced = demand minus everything that landed.
  solution.unplaced_containers = 0;
  for (int i = 0; i < S; ++i) {
    int placed = 0;
    for (size_t j = 0; j < subproblem.machines.size(); ++j) {
      placed += counts[i][j];
      if (counts[i][j] > 0) {
        solution.assignments.push_back({subproblem.services[i],
                                        subproblem.machines[j],
                                        counts[i][j]});
      }
    }
    solution.unplaced_containers +=
        cluster.service(subproblem.services[i]).demand - placed;
  }
  solution.gained_affinity =
      SubproblemGainedAffinity(cluster, subproblem, counts);
  return solution;
}

StatusOr<SubproblemSolution> SolveSubproblemMip(
    const Cluster& cluster, const Subproblem& subproblem,
    const Placement& base, const MipAlgorithmOptions& options,
    SubproblemMipStats* stats) {
  const int S = static_cast<int>(subproblem.services.size());
  const int M = static_cast<int>(subproblem.machines.size());

  RASA_ASSIGN_OR_RETURN(
      SubproblemMip mip,
      BuildSubproblemMip(cluster, subproblem, base, options.max_model_rows));

  // Warm start from the affinity greedy.
  Placement scratch = base;
  SubproblemSolution greedy = GreedyAffinityPlace(cluster, subproblem, scratch);

  std::vector<int> local_service(cluster.num_services(), -1);
  for (int i = 0; i < S; ++i) local_service[subproblem.services[i]] = i;
  std::vector<int> local_machine(cluster.num_machines(), -1);
  for (int j = 0; j < M; ++j) local_machine[subproblem.machines[j]] = j;

  // Lift the a variables of a candidate x-block to their implied optima so
  // the warm start's objective matches its true gained affinity. Iterates
  // edges in the same order used by the builder; a-columns were created
  // right after the S*M x-block, one per (edge, machine).
  auto lift_a = [&](std::vector<double>& candidate) {
    int next_var = S * M;
    for (const AffinityEdge& edge : subproblem.edges) {
      const double du = cluster.service(edge.u).demand;
      const double dv = cluster.service(edge.v).demand;
      if (du <= 0 || dv <= 0) continue;
      for (int j = 0; j < M; ++j) {
        const double xu = candidate[mip.x_index[local_service[edge.u]][j]];
        const double xv = candidate[mip.x_index[local_service[edge.v]][j]];
        candidate[next_var] = edge.weight * std::min(xu / du, xv / dv);
        ++next_var;
      }
    }
  };

  std::vector<double> warm(mip.model.num_variables(), 0.0);
  for (const SubproblemSolution::Assignment& a : greedy.assignments) {
    warm[mip.x_index[local_service[a.service]][local_machine[a.machine]]] =
        a.count;
  }
  lift_a(warm);

  // Incremental warm start: when the prior incumbent realizes more affinity
  // than the greedy, offer it instead. Branch-and-bound audits feasibility
  // before accepting any initial solution, so a stale hint degrades to no
  // warm start, never to an invalid incumbent.
  if (options.incumbent_hint != nullptr) {
    std::vector<std::vector<int>> counts(S, std::vector<int>(M, 0));
    for (int i = 0; i < S; ++i) {
      for (int j = 0; j < M; ++j) {
        counts[i][j] = options.incumbent_hint->CountOn(
            subproblem.machines[j], subproblem.services[i]);
      }
    }
    if (SubproblemGainedAffinity(cluster, subproblem, counts) >
        greedy.gained_affinity) {
      std::vector<double> hint(mip.model.num_variables(), 0.0);
      for (int i = 0; i < S; ++i) {
        for (int j = 0; j < M; ++j) {
          hint[mip.x_index[i][j]] = counts[i][j];
        }
      }
      lift_a(hint);
      warm = std::move(hint);
    }
  }

  MipOptions mip_options;
  mip_options.deadline = options.deadline;
  mip_options.relative_gap = kRelativeGap;
  mip_options.max_lp_iterations = options.max_lp_iterations;
  mip_options.initial_solution = warm;
  MipResult result = SolveMip(mip.model, mip_options);
  FillMipStats(result, stats);

  if (!result.has_solution()) {
    // Infeasible should not happen (x = 0 is feasible); fall back to greedy.
    RASA_LOG(Info) << "subproblem MIP returned "
                   << MipStatusToString(result.status) << "; using greedy";
    return greedy;
  }

  SubproblemSolution solution;
  std::vector<std::vector<int>> counts(S, std::vector<int>(M, 0));
  for (int i = 0; i < S; ++i) {
    int placed = 0;
    for (int j = 0; j < M; ++j) {
      const int count = static_cast<int>(
          std::lround(result.solution[mip.x_index[i][j]]));
      counts[i][j] = count;
      placed += count;
      if (count > 0) {
        solution.assignments.push_back(
            {subproblem.services[i], subproblem.machines[j], count});
      }
    }
    solution.unplaced_containers +=
        cluster.service(subproblem.services[i]).demand - placed;
  }
  solution.gained_affinity =
      SubproblemGainedAffinity(cluster, subproblem, counts);
  return solution;
}

}  // namespace rasa
