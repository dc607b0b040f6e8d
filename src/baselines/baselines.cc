#include "baselines/baselines.h"

#include <algorithm>
#include <numeric>

#include "cluster/first_fit.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/algorithm_pool.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "core/subproblem.h"
#include "graph/partition.h"

namespace rasa {
namespace {

// Marginal gained affinity of adding one container of `service` to
// `machine`, over the whole affinity graph.
double GlobalMarginalGain(const Cluster& cluster, const Placement& placement,
                          int service, int machine) {
  const int d_s = cluster.service(service).demand;
  if (d_s <= 0) return 0.0;
  const int x_s = placement.CountOn(machine, service);
  double gain = 0.0;
  for (const auto& [nbr, w] : cluster.affinity().Neighbors(service)) {
    const int d_n = cluster.service(nbr).demand;
    if (d_n <= 0) continue;
    const int x_n = placement.CountOn(machine, nbr);
    if (x_n == 0) continue;
    const double before = std::min(static_cast<double>(x_s) / d_s,
                                   static_cast<double>(x_n) / d_n);
    const double after = std::min(static_cast<double>(x_s + 1) / d_s,
                                  static_cast<double>(x_n) / d_n);
    gain += w * (after - before);
  }
  return gain;
}

}  // namespace

StatusOr<BaselineResult> RunOriginal(const Cluster& cluster, uint64_t seed) {
  Stopwatch timer;
  Rng rng(seed);
  RASA_ASSIGN_OR_RETURN(
      Placement placement,
      FirstFitPlace(cluster, rng, FirstFitScore::kLeastAllocated));
  BaselineResult result;
  result.gained_affinity = GainedAffinity(cluster, placement);
  result.placement = std::move(placement);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

StatusOr<BaselineResult> RunK8sPlus(const Cluster& cluster,
                                    const Deadline& deadline, uint64_t seed) {
  Stopwatch timer;
  Rng rng(seed);
  BaselineResult result;
  Placement placement(cluster);

  // Containers arrive in shuffled service order (the online setting); each
  // is placed on the feasible machine with the best affinity-aware score.
  std::vector<int> order(cluster.num_services());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  for (int s : order) {
    const Service& svc = cluster.service(s);
    for (int c = 0; c < svc.demand; ++c) {
      if (deadline.Expired()) result.out_of_time = true;
      int best = -1;
      double best_score = -1e300;
      for (int m = 0; m < cluster.num_machines(); ++m) {
        if (!placement.CanPlace(m, s)) continue;  // filter
        // Score: affinity gain dominates, least-allocated breaks ties.
        double min_free = 1.0;
        for (int r = 0; r < cluster.num_resources(); ++r) {
          const double cap = cluster.machine(m).capacity[r];
          if (cap > 0.0) {
            min_free = std::min(min_free, placement.FreeResource(m, r) / cap);
          }
        }
        const double score =
            GlobalMarginalGain(cluster, placement, s, m) + 1e-4 * min_free;
        if (score > best_score) {
          best_score = score;
          best = m;
        }
      }
      if (best < 0) {
        ++result.lost_containers;
        continue;
      }
      placement.Add(best, s);
    }
  }
  result.gained_affinity = GainedAffinity(cluster, placement);
  result.placement = std::move(placement);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

StatusOr<BaselineResult> RunPop(const Cluster& cluster,
                                const Placement& current,
                                const Deadline& deadline, uint64_t seed,
                                int partitions) {
  Stopwatch timer;
  Rng rng(seed);
  BaselineResult result;

  const int N = cluster.num_services();
  // POP splits into a handful of subclusters (the paper's experiments use
  // single-digit splits); too many partitions would destroy the affinity
  // structure entirely.
  if (partitions <= 0) partitions = std::clamp(N / 300, 2, 4);

  // Uniformly random service split (the "granular" assumption of POP).
  Partition service_partition =
      RandomPartition(cluster.affinity(), partitions, rng);
  std::vector<Subproblem> subproblems(partitions);
  for (int s = 0; s < N; ++s) {
    subproblems[service_partition.part_of[s]].services.push_back(s);
  }
  // Machines dealt round-robin after shuffling: a random equal split.
  std::vector<int> machines(cluster.num_machines());
  std::iota(machines.begin(), machines.end(), 0);
  rng.Shuffle(machines);
  for (size_t i = 0; i < machines.size(); ++i) {
    subproblems[i % partitions].machines.push_back(machines[i]);
  }

  // One planned budget per partition; the deadline is only a safety cap.
  const double budget =
      std::max(0.02, deadline.RemainingSeconds() / partitions);
  Placement working(cluster);  // POP reschedules everything
  std::vector<int> unplaced(N, 0);
  for (Subproblem& sp : subproblems) {
    PopulateSubproblemEdges(cluster, sp);
    SolveAttempt attempt;
    StatusOr<SubproblemSolution> solution =
        RunPoolAlgorithm(PoolAlgorithm::kMip, cluster, sp, working, current,
                         deadline, budget, &attempt);
    std::vector<int> placed(N, 0);
    if (!solution.ok()) {
      // Solver ran out of time/memory on this subcluster: greedy fallback,
      // like any practical solver-in-the-loop deployment.
      result.out_of_time = true;
      SubproblemSolution greedy = GreedyAffinityPlace(cluster, sp, working);
      for (const SubproblemSolution::Assignment& a : greedy.assignments) {
        placed[a.service] += a.count;  // greedy already added to `working`
      }
    } else {
      for (const SubproblemSolution::Assignment& a : solution->assignments) {
        int fit = 0;
        while (fit < a.count && working.CanPlace(a.machine, a.service)) {
          working.Add(a.machine, a.service);
          ++fit;
        }
        placed[a.service] += fit;
      }
    }
    for (int s : sp.services) {
      unplaced[s] += cluster.service(s).demand - placed[s];
    }
    if (deadline.Expired()) result.out_of_time = true;
  }
  for (int s = 0; s < N; ++s) {
    for (int c = 0; c < unplaced[s]; ++c) {
      const int m = PickMachine(working, s);
      if (m < 0) {
        ++result.lost_containers;
      } else {
        working.Add(m, s);
      }
    }
  }
  result.gained_affinity = GainedAffinity(cluster, working);
  result.placement = std::move(working);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

StatusOr<BaselineResult> RunApplsci19(const Cluster& cluster,
                                      const Placement& current,
                                      const Deadline& deadline,
                                      uint64_t seed) {
  (void)current;
  Stopwatch timer;
  Rng rng(seed);
  BaselineResult result;
  const int N = cluster.num_services();
  const int R = cluster.num_resources();

  // The uniform machine size the original algorithm assumes: the smallest
  // spec's capacity (conservative packing).
  std::vector<double> bin_capacity(R, 1e300);
  for (const Machine& m : cluster.machines()) {
    for (int r = 0; r < R; ++r) {
      bin_capacity[r] = std::min(bin_capacity[r], m.capacity[r]);
    }
  }

  // Min-weight balanced partition of affinity services; non-affinity
  // services skip packing and go straight to the first-fit fallback below.
  std::vector<int> affine;
  for (int s = 0; s < N; ++s) {
    if (cluster.affinity().Degree(s) > 0) affine.push_back(s);
  }
  std::vector<std::vector<int>> groups;
  if (!affine.empty()) {
    const AffinityGraph sub = cluster.affinity().InducedSubgraph(affine);
    const int k =
        std::max(1, static_cast<int>(affine.size()) / 20);
    Partition partition = KahipLikePartition(sub, k, rng);
    groups.resize(partition.num_parts);
    for (size_t v = 0; v < affine.size(); ++v) {
      groups[partition.part_of[v]].push_back(affine[v]);
    }
  }

  // Heuristic packing into uniform bins: per group, containers of heavy
  // services first, each into the open bin with the best affinity gain.
  struct Bin {
    std::vector<int> counts;       // per global service id (sparse map)
    std::vector<double> used;
  };
  std::vector<Bin> bins;
  auto bin_gain = [&](const Bin& bin, int s) {
    const int d_s = cluster.service(s).demand;
    if (d_s <= 0) return 0.0;
    double gain = 0.0;
    const int x_s = bin.counts[s];
    for (const auto& [nbr, w] : cluster.affinity().Neighbors(s)) {
      const int x_n = bin.counts[nbr];
      if (x_n == 0) continue;
      const int d_n = cluster.service(nbr).demand;
      if (d_n <= 0) continue;
      gain += w * (std::min(static_cast<double>(x_s + 1) / d_s,
                            static_cast<double>(x_n) / d_n) -
                   std::min(static_cast<double>(x_s) / d_s,
                            static_cast<double>(x_n) / d_n));
    }
    return gain;
  };

  for (const std::vector<int>& group : groups) {
    if (deadline.Expired()) result.out_of_time = true;
    std::vector<int> order = group;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return cluster.affinity().TotalAffinityOf(a) >
             cluster.affinity().TotalAffinityOf(b);
    });
    const size_t group_bins_begin = bins.size();
    for (int s : order) {
      const Service& svc = cluster.service(s);
      for (int c = 0; c < svc.demand; ++c) {
        int best = -1;
        double best_score = -1e300;
        for (size_t b = group_bins_begin; b < bins.size(); ++b) {
          bool fits = true;
          for (int r = 0; r < R; ++r) {
            if (bins[b].used[r] + svc.request[r] > bin_capacity[r] + 1e-9) {
              fits = false;
              break;
            }
          }
          if (!fits) continue;
          const double score = bin_gain(bins[b], s);
          if (score > best_score) {
            best_score = score;
            best = static_cast<int>(b);
          }
        }
        if (best < 0 || best_score <= 0.0) {
          // Open a new bin when nothing gains (or nothing fits).
          bool new_bin_fits = true;
          for (int r = 0; r < R; ++r) {
            if (svc.request[r] > bin_capacity[r] + 1e-9) new_bin_fits = false;
          }
          if (best < 0 && !new_bin_fits) continue;  // truly unplaceable
          if (best < 0 || best_score <= 0.0) {
            if (new_bin_fits) {
              Bin bin;
              bin.counts.assign(N, 0);
              bin.used.assign(R, 0.0);
              bins.push_back(std::move(bin));
              best = static_cast<int>(bins.size() - 1);
            }
          }
        }
        if (best < 0) continue;
        ++bins[best].counts[s];
        for (int r = 0; r < R; ++r) bins[best].used[r] += svc.request[r];
      }
    }
  }

  // Map bins onto real machines: first-fit-decreasing by CPU usage. This is
  // where the single-machine-size assumption bites on heterogeneous
  // clusters: bins sized for the smallest spec waste large machines, and
  // anti-affinity/schedulability can reject whole bins.
  Placement placement(cluster);
  std::vector<int> bin_order(bins.size());
  std::iota(bin_order.begin(), bin_order.end(), 0);
  std::sort(bin_order.begin(), bin_order.end(), [&](int a, int b) {
    return bins[a].used[0] > bins[b].used[0];
  });
  std::vector<bool> machine_taken(cluster.num_machines(), false);
  for (int b : bin_order) {
    int chosen = -1;
    for (int m = 0; m < cluster.num_machines(); ++m) {
      if (machine_taken[m]) continue;
      bool fits = true;
      for (int r = 0; r < R; ++r) {
        if (bins[b].used[r] > cluster.machine(m).capacity[r] + 1e-9) {
          fits = false;
          break;
        }
      }
      if (fits) {
        chosen = m;
        break;
      }
    }
    if (chosen < 0) continue;  // the whole bin falls back to first-fit
    for (int s = 0; s < N; ++s) {
      for (int c = 0; c < bins[b].counts[s]; ++c) {
        if (placement.CanPlace(chosen, s)) placement.Add(chosen, s);
      }
    }
    machine_taken[chosen] = true;
  }

  // Non-affinity services and packing failures fall back to first-fit.
  for (int s = 0; s < N; ++s) {
    const int missing = cluster.service(s).demand - placement.TotalOf(s);
    for (int c = 0; c < missing; ++c) {
      const int m = PickMachine(placement, s);
      if (m < 0) {
        ++result.lost_containers;
      } else {
        placement.Add(m, s);
      }
    }
  }

  if (deadline.Expired()) result.out_of_time = true;
  result.gained_affinity = GainedAffinity(cluster, placement);
  result.placement = std::move(placement);
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace rasa
