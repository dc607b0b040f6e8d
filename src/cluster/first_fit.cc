#include "cluster/first_fit.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace rasa {

namespace {

// The value PickMachine ranks feasible machines by, higher first: the free
// fraction of the machine's most loaded resource, negated when packing.
double MachineScore(const Placement& placement, int m, FirstFitScore score) {
  const Cluster& cluster = *placement.cluster();
  double min_free_frac = 1.0;
  for (int r = 0; r < cluster.num_resources(); ++r) {
    const double cap = cluster.machine(m).capacity[r];
    if (cap <= 0.0) continue;
    min_free_frac = std::min(min_free_frac, placement.FreeResource(m, r) / cap);
  }
  return score == FirstFitScore::kLeastAllocated ? min_free_frac
                                                 : -min_free_frac;
}

// PickMachine's loop, instantiated with and without an availability filter
// so unfiltered callers pay nothing for it.
template <typename Available>
int PickMachineWith(const Placement& placement, int service,
                    FirstFitScore score, const Available& available) {
  int best = -1;
  double best_score = 0.0;
  for (int m = 0; m < placement.cluster()->num_machines(); ++m) {
    if (!available(m) || !placement.CanPlace(m, service)) continue;
    const double value = MachineScore(placement, m, score);
    if (best < 0 || value > best_score) {
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

  // The machines of each platform keyed by (-score, id): PickMachine's
  // order, highest score first and ties to the lowest id, so the first
  // machine that can take a container is the one PickMachine would pick.
  // Placing a container changes only its machine's score.
  using Ranking = std::set<std::pair<double, int>>;
  std::map<int, Ranking> by_platform;
  for (int m = 0; m < cluster.num_machines(); ++m) {
    by_platform[cluster.machine(m).platform].emplace(
        -MachineScore(placement, m, score), m);
  }

  for (int s : order) {
    const Service& svc = cluster.service(s);
    Ranking& ranking = by_platform[svc.platform];
    for (int c = 0; c < svc.demand; ++c) {
      const auto it =
          std::find_if(ranking.begin(), ranking.end(), [&](const auto& entry) {
            return placement.CanPlace(entry.second, s);
          });
      if (it == ranking.end()) {
        return ResourceExhaustedError(StrFormat(
            "no feasible machine for container %d of service %s", c,
            svc.name.c_str()));
      }
      const int best = it->second;
      ranking.erase(it);
      placement.Add(best, s);
      ranking.emplace(-MachineScore(placement, best, score), best);
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
