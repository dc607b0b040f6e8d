#ifndef RASA_CORE_LOCAL_SEARCH_H_
#define RASA_CORE_LOCAL_SEARCH_H_

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "common/rng.h"
#include "common/timer.h"

namespace rasa {

struct LocalSearchOptions {
  Deadline deadline = Deadline::Infinite();
  /// Passes over the candidate containers (each pass revisits every
  /// affinity service's containers once).
  int max_passes = 3;
  /// Only consider relocating containers of services whose affinity degree
  /// is positive — moving anything else cannot change the objective.
  bool affinity_services_only = true;
  /// Try pairwise container swaps (A<->B across machines) in addition to
  /// single-container moves. Swaps escape capacity-tight local optima that
  /// moves alone cannot.
  bool enable_swaps = true;
};

struct LocalSearchStats {
  int moves_applied = 0;
  int swaps_applied = 0;
  double gain = 0.0;  // total gained-affinity improvement
  int passes = 0;
  bool hit_deadline = false;
};

/// Hill-climbing refinement of a full placement (an "extension/future work"
/// pass beyond the paper): repeatedly relocate or swap single containers
/// when doing so strictly increases overall gained affinity while keeping
/// the placement feasible. Anytime and strictly monotone: the placement is
/// only ever improved.
LocalSearchStats RefinePlacement(const Cluster& cluster, Placement& placement,
                                 const LocalSearchOptions& options = {});

}  // namespace rasa

#endif  // RASA_CORE_LOCAL_SEARCH_H_
