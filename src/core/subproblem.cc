#include "core/subproblem.h"

#include <algorithm>
#include <unordered_map>

namespace rasa {

void PopulateSubproblemEdges(const Cluster& cluster, Subproblem& subproblem) {
  subproblem.edges.clear();
  subproblem.internal_affinity = 0.0;
  std::unordered_map<int, int> member;
  member.reserve(subproblem.services.size() * 2);
  for (size_t i = 0; i < subproblem.services.size(); ++i) {
    member[subproblem.services[i]] = static_cast<int>(i);
  }
  for (int s : subproblem.services) {
    for (const auto& [nbr, w] : cluster.affinity().Neighbors(s)) {
      if (nbr <= s) continue;  // visit each undirected edge once
      if (member.count(nbr) == 0) continue;
      subproblem.edges.push_back({s, nbr, w});
      subproblem.internal_affinity += w;
    }
  }
}

double ResidualCapacity(const Cluster& cluster, const Placement& base,
                        int machine, int r) {
  return cluster.machine(machine).capacity[r] - base.UsedResource(machine, r);
}

int ResidualRuleLimit(const Cluster& cluster, const Placement& base,
                      int machine, int rule) {
  return cluster.anti_affinity()[rule].max_per_machine -
         base.RuleCount(machine, rule);
}

double SubproblemGainedAffinity(const Cluster& cluster,
                                const Subproblem& subproblem,
                                const std::vector<std::vector<int>>& x) {
  std::unordered_map<int, int> local_of;
  local_of.reserve(subproblem.services.size() * 2);
  for (size_t i = 0; i < subproblem.services.size(); ++i) {
    local_of[subproblem.services[i]] = static_cast<int>(i);
  }
  const int M = static_cast<int>(subproblem.machines.size());
  double total = 0.0;
  for (const AffinityEdge& e : subproblem.edges) {
    const int lu = local_of[e.u];
    const int lv = local_of[e.v];
    const int du = cluster.service(e.u).demand;
    const int dv = cluster.service(e.v).demand;
    if (du <= 0 || dv <= 0) continue;
    double ratio = 0.0;
    for (int m = 0; m < M; ++m) {
      const int xu = x[lu][m];
      const int xv = x[lv][m];
      if (xu == 0 || xv == 0) continue;
      ratio += std::min(static_cast<double>(xu) / du,
                        static_cast<double>(xv) / dv);
    }
    total += e.weight * std::min(ratio, 1.0);
  }
  return total;
}

double SubproblemGainedAffinity(
    const Cluster& cluster, const Subproblem& subproblem,
    const std::vector<SubproblemSolution::Assignment>& assignments) {
  std::vector<int> local_service(cluster.num_services(), -1);
  for (size_t i = 0; i < subproblem.services.size(); ++i) {
    local_service[subproblem.services[i]] = static_cast<int>(i);
  }
  std::vector<int> local_machine(cluster.num_machines(), -1);
  for (size_t j = 0; j < subproblem.machines.size(); ++j) {
    local_machine[subproblem.machines[j]] = static_cast<int>(j);
  }
  std::vector<std::vector<int>> counts(
      subproblem.services.size(),
      std::vector<int>(subproblem.machines.size(), 0));
  for (const SubproblemSolution::Assignment& a : assignments) {
    const int s = local_service[a.service];
    const int m = local_machine[a.machine];
    if (s >= 0 && m >= 0) counts[s][m] += a.count;
  }
  return SubproblemGainedAffinity(cluster, subproblem, counts);
}

}  // namespace rasa
