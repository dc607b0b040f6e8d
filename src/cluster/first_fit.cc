#include "cluster/first_fit.h"

#include <algorithm>

#include "common/strings.h"

namespace rasa {

namespace {

// PickMachine's loop, instantiated with and without an availability filter
// so the unfiltered scan (first-fit generation at Table II sizes) pays
// nothing for it.
template <typename Available>
int PickMachineWith(const Placement& placement, int service,
                    FirstFitScore score, const Available& available) {
  const Cluster& cluster = *placement.cluster();
  const int R = cluster.num_resources();
  int best = -1;
  double best_score = -1e300;
  for (int m = 0; m < cluster.num_machines(); ++m) {
    if (!available(m) || !placement.CanPlace(m, service)) continue;
    // The "score" step: free fraction of the most loaded resource.
    double min_free_frac = 1.0;
    for (int r = 0; r < R; ++r) {
      const double cap = cluster.machine(m).capacity[r];
      if (cap <= 0.0) continue;
      min_free_frac =
          std::min(min_free_frac, placement.FreeResource(m, r) / cap);
    }
    const double value = score == FirstFitScore::kLeastAllocated
                             ? min_free_frac
                             : -min_free_frac;
    if (value > best_score) {
      best_score = value;
      best = m;
    }
  }
  return best;
}

}  // namespace

int PickMachine(const Placement& placement, int service, FirstFitScore score,
                const std::function<bool(int)>& available) {
  if (available) return PickMachineWith(placement, service, score, available);
  return PickMachineWith(placement, service, score, [](int) { return true; });
}

StatusOr<Placement> FirstFitPlace(const Cluster& cluster, Rng& rng,
                                  FirstFitScore score, bool shuffle) {
  Placement placement(cluster);
  std::vector<int> order(cluster.num_services());
  for (int s = 0; s < cluster.num_services(); ++s) order[s] = s;
  if (shuffle) rng.Shuffle(order);

  for (int s : order) {
    const Service& svc = cluster.service(s);
    for (int c = 0; c < svc.demand; ++c) {
      const int best = PickMachine(placement, s, score);
      if (best < 0) {
        return ResourceExhaustedError(StrFormat(
            "no feasible machine for container %d of service %s", c,
            svc.name.c_str()));
      }
      placement.Add(best, s);
    }
  }
  return placement;
}

double AverageUtilization(const Placement& placement) {
  const Cluster& cluster = *placement.cluster();
  if (cluster.num_machines() == 0) return 0.0;
  double total = 0.0;
  for (int m = 0; m < cluster.num_machines(); ++m) {
    double max_used_frac = 0.0;
    for (int r = 0; r < cluster.num_resources(); ++r) {
      const double cap = cluster.machine(m).capacity[r];
      if (cap <= 0.0) continue;
      max_used_frac =
          std::max(max_used_frac, placement.UsedResource(m, r) / cap);
    }
    total += max_used_frac;
  }
  return total / cluster.num_machines();
}

}  // namespace rasa
