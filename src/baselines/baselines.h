#ifndef RASA_BASELINES_BASELINES_H_
#define RASA_BASELINES_BASELINES_H_

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "common/statusor.h"
#include "common/timer.h"

namespace rasa {

/// Result of one baseline scheduler run (§V-A).
struct BaselineResult {
  Placement placement;
  double gained_affinity = 0.0;
  double seconds = 0.0;
  /// The algorithm could not finish inside the deadline. K8S+ and
  /// APPLSCI19 yield no feasible intermediate solutions, so an OOT run
  /// returns this flag with the best-effort completion.
  bool out_of_time = false;
  /// Containers no machine could take (handed to nothing; should be 0).
  int lost_containers = 0;
};

/// ORIGINAL: the production scheduler RASA replaced — first-fit with the
/// Kubernetes filter-and-score process, affinity-blind.
StatusOr<BaselineResult> RunOriginal(const Cluster& cluster, uint64_t seed);

/// K8S+: the online Kubernetes-style algorithm of [14] — filter feasible
/// machines per container, score with a service-affinity-aware function,
/// place greedily in arrival order.
StatusOr<BaselineResult> RunK8sPlus(const Cluster& cluster,
                                    const Deadline& deadline, uint64_t seed);

/// POP [23]: uniformly random service/machine partition into `partitions`
/// subclusters (0 = auto), each solved with the solver-based MIP on an
/// equal planned share of the time left (RunPoolAlgorithm), then recombined.
StatusOr<BaselineResult> RunPop(const Cluster& cluster,
                                const Placement& current,
                                const Deadline& deadline, uint64_t seed,
                                int partitions = 0);

/// APPLSCI19 [46] (extended): min-weight balanced graph partitioning of the
/// affinity graph, then heuristic bin packing that assumes a single uniform
/// machine size (the smallest spec); bins are then mapped onto the real
/// heterogeneous machines, which frequently fails on multi-spec clusters —
/// failed containers fall back to first-fit.
StatusOr<BaselineResult> RunApplsci19(const Cluster& cluster,
                                      const Placement& current,
                                      const Deadline& deadline, uint64_t seed);

}  // namespace rasa

#endif  // RASA_BASELINES_BASELINES_H_
