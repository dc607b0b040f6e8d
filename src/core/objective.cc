#include "core/objective.h"

#include <algorithm>

namespace rasa {

double PairGainedAffinityOnMachine(const Cluster& cluster,
                                   const Placement& placement, int s,
                                   int s_prime, double weight, int machine) {
  const int d_s = cluster.service(s).demand;
  const int d_sp = cluster.service(s_prime).demand;
  if (d_s <= 0 || d_sp <= 0) return 0.0;
  const int x_s = placement.CountOn(machine, s);
  if (x_s == 0) return 0.0;
  const int x_sp = placement.CountOn(machine, s_prime);
  if (x_sp == 0) return 0.0;
  return weight * std::min(static_cast<double>(x_s) / d_s,
                           static_cast<double>(x_sp) / d_sp);
}

double PairLocalizationRatio(const Cluster& cluster,
                             const Placement& placement, int s, int s_prime) {
  const int d_s = cluster.service(s).demand;
  const int d_sp = cluster.service(s_prime).demand;
  if (d_s <= 0 || d_sp <= 0) return 0.0;
  // Iterate the smaller footprint's machines in ascending order and look
  // each up in the partner's own machine map.
  const auto& machines_s = placement.MachinesOf(s);
  const auto& machines_sp = placement.MachinesOf(s_prime);
  const bool s_outer = machines_s.size() <= machines_sp.size();
  const auto& outer = s_outer ? machines_s : machines_sp;
  const auto& inner = s_outer ? machines_sp : machines_s;
  double ratio = 0.0;
  for (const auto& [m, count] : outer) {
    const auto it = inner.find(m);
    if (it == inner.end()) continue;
    const int x_s = s_outer ? count : it->second;
    const int x_sp = s_outer ? it->second : count;
    ratio += std::min(static_cast<double>(x_s) / d_s,
                      static_cast<double>(x_sp) / d_sp);
  }
  return std::min(ratio, 1.0);
}

double GainedAffinity(const Cluster& cluster, const Placement& placement) {
  return WeightedLocalization(cluster,
                              EdgeLocalizationRatios(cluster, placement));
}

std::vector<double> EdgeLocalizationRatios(const Cluster& cluster,
                                           const Placement& placement) {
  const auto& edges = cluster.affinity().edges();
  std::vector<double> ratios(edges.size(), 0.0);
  for (size_t i = 0; i < edges.size(); ++i) {
    ratios[i] =
        PairLocalizationRatio(cluster, placement, edges[i].u, edges[i].v);
  }
  return ratios;
}

std::vector<double> RescoreEdgeRatios(const Cluster& cluster,
                                      const Placement& placement,
                                      const std::vector<char>& changed,
                                      std::vector<double> ratios) {
  const auto& edges = cluster.affinity().edges();
  for (size_t i = 0; i < edges.size(); ++i) {
    if (!changed[edges[i].u] && !changed[edges[i].v]) continue;
    ratios[i] =
        PairLocalizationRatio(cluster, placement, edges[i].u, edges[i].v);
  }
  return ratios;
}

double WeightedLocalization(const Cluster& cluster,
                            const std::vector<double>& ratios) {
  const auto& edges = cluster.affinity().edges();
  double total = 0.0;
  for (size_t i = 0; i < edges.size(); ++i) {
    total += edges[i].weight * ratios[i];
  }
  return total;
}

}  // namespace rasa
