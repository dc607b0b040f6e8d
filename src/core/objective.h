#ifndef RASA_CORE_OBJECTIVE_H_
#define RASA_CORE_OBJECTIVE_H_

#include <vector>

#include "cluster/cluster.h"
#include "cluster/placement.h"

namespace rasa {

/// Gained affinity of a single service pair on one machine (Definition 1):
///   a_{s,s',m} = w * min(x_{s,m}/d_s, x_{s',m}/d_{s'}).
/// Services with zero demand contribute nothing.
double PairGainedAffinityOnMachine(const Cluster& cluster,
                                   const Placement& placement, int s,
                                   int s_prime, double weight, int machine);

/// Localized traffic ratio of edge (s, s'): sum over machines of
/// min(x_{s,m}/d_s, x_{s',m}/d_{s'}) in [0, 1]. The fraction of this pair's
/// traffic that stays on-machine (the red dashed share of Fig. 2).
double PairLocalizationRatio(const Cluster& cluster,
                             const Placement& placement, int s, int s_prime);

/// Overall gained affinity: the RASA objective (2). With the affinity graph
/// normalized to total weight 1, this lies in [0, 1].
double GainedAffinity(const Cluster& cluster, const Placement& placement);

/// Localization ratio per affinity edge, index-aligned with
/// cluster.affinity().edges(). Used by the production simulator and to
/// score a run's placements once (RescoreEdgeRatios).
std::vector<double> EdgeLocalizationRatios(const Cluster& cluster,
                                           const Placement& placement);

/// `ratios`, the EdgeLocalizationRatios of a placement whose machine map
/// equals `placement`'s for every service with `changed[s]` clear, turned
/// into `placement`'s: only the edges with a changed end are re-scored.
std::vector<double> RescoreEdgeRatios(const Cluster& cluster,
                                      const Placement& placement,
                                      const std::vector<char>& changed,
                                      std::vector<double> ratios);

/// Sum of weight * ratio over the edges in edge order: GainedAffinity of
/// the placement whose EdgeLocalizationRatios `ratios` are.
double WeightedLocalization(const Cluster& cluster,
                            const std::vector<double>& ratios);

}  // namespace rasa

#endif  // RASA_CORE_OBJECTIVE_H_
