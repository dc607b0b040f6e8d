#ifndef RASA_CLUSTER_FIRST_FIT_H_
#define RASA_CLUSTER_FIRST_FIT_H_

#include <functional>

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/statusor.h"

namespace rasa {

/// How the scoring half of filter-and-score ranks feasible machines.
enum class FirstFitScore {
  /// Most remaining normalized resources first (spreads load; this is the
  /// ORIGINAL production scheduler of §V-A).
  kLeastAllocated,
  /// Least remaining resources first (packs machines tightly).
  kMostAllocated,
};

/// The filter-and-score step for one container of `service`: among the
/// machines that pass `available` (all when empty) and can take it in
/// `placement`, the best by `score` on the free fraction of the most loaded
/// resource, ties to the lowest id; -1 when none fits.
int PickMachine(const Placement& placement, int service,
                FirstFitScore score = FirstFitScore::kLeastAllocated,
                const std::function<bool(int)>& available = nullptr);

/// Kubernetes-style filter-and-score placement: services are processed in
/// the given order (shuffled when `shuffle` is set), each container is
/// placed on the feasible machine with the best score. Fails only if some
/// container fits on no machine.
StatusOr<Placement> FirstFitPlace(const Cluster& cluster, Rng& rng,
                                  FirstFitScore score =
                                      FirstFitScore::kLeastAllocated,
                                  bool shuffle = true);

/// Fraction of each machine's dominant resource in use, averaged across
/// machines — a quick load-balance indicator used in tests and the
/// trade-off discussion of §III-B.
double AverageUtilization(const Placement& placement);

}  // namespace rasa

#endif  // RASA_CLUSTER_FIRST_FIT_H_
