#ifndef RASA_CORE_SUBPROBLEM_H_
#define RASA_CORE_SUBPROBLEM_H_

#include <vector>

#include "cluster/cluster.h"
#include "cluster/placement.h"

namespace rasa {

/// One independent scheduling subproblem produced by service partitioning:
/// a crucial service set plus the machines assigned to it. All ids are
/// global cluster ids.
struct Subproblem {
  std::vector<int> services;
  std::vector<int> machines;
  /// Sum of affinity-edge weights internal to `services`.
  double internal_affinity = 0.0;
  /// Affinity edges with both endpoints in `services` (global ids).
  std::vector<AffinityEdge> edges;
};

/// A solved subproblem: container counts per (service, machine).
struct SubproblemSolution {
  struct Assignment {
    int service;
    int machine;
    int count;
  };
  std::vector<Assignment> assignments;
  /// Gained affinity realized inside the subproblem.
  double gained_affinity = 0.0;
  /// Containers of subproblem services the solver could not place (handed
  /// back to the default scheduler, §IV-B5).
  int unplaced_containers = 0;
};

/// Computes `internal_affinity` and `edges` for a subproblem whose
/// `services` are already set.
void PopulateSubproblemEdges(const Cluster& cluster, Subproblem& subproblem);

/// Residual capacity of `machine` for resource `r` given the containers
/// already sitting on it in `base` (trivial services stay put).
double ResidualCapacity(const Cluster& cluster, const Placement& base,
                        int machine, int r);

/// Remaining anti-affinity headroom of rule `rule` on `machine` given `base`.
int ResidualRuleLimit(const Cluster& cluster, const Placement& base,
                      int machine, int rule);

/// Evaluates the gained affinity of a candidate assignment over the
/// subproblem's internal edges only (Definition 1 restricted to the
/// subproblem). `x(service_local, machine_local)` indexes into
/// subproblem.services/machines.
double SubproblemGainedAffinity(const Cluster& cluster,
                                const Subproblem& subproblem,
                                const std::vector<std::vector<int>>& x);

/// The same, for assignments in global ids (several may name one
/// service/machine pair); assignments outside the subproblem are ignored.
double SubproblemGainedAffinity(
    const Cluster& cluster, const Subproblem& subproblem,
    const std::vector<SubproblemSolution::Assignment>& assignments);

}  // namespace rasa

#endif  // RASA_CORE_SUBPROBLEM_H_
