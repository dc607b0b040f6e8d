#include "core/partitioning.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/timer.h"
#include "graph/partition.h"

namespace rasa {
namespace {

// The master ratio alpha = kMasterCoefficient * ln(N)^kMasterExponent / N
// that the paper deploys (§V-B).
constexpr double kMasterCoefficient = 45.0;
constexpr double kMasterExponent = 0.66;
// The paper runs |E| BFS trials of the loss-min partitioner; capped for
// bounded runtime.
constexpr int kBfsTrialsCap = 128;

// Removes all containers of `services` from a copy of `current`, leaving the
// trivial residents (machine shaving, §IV-B5).
Placement MakeBasePlacement(const Cluster& cluster, const Placement& current,
                            const std::vector<int>& crucial) {
  Placement base = current;
  for (int s : crucial) {
    // Copy the machine list first: Remove mutates the map being iterated.
    std::vector<std::pair<int, int>> on;
    for (const auto& [m, count] : base.MachinesOf(s)) on.push_back({m, count});
    for (const auto& [m, count] : on) {
      RASA_CHECK(base.Remove(m, s, count).ok());
    }
  }
  return base;
}

// Splits an affinity-connected service set into balanced pieces of at most
// `max_size` services using the paper's loss-min heuristic.
std::vector<std::vector<int>> SplitLargeSet(const Cluster& cluster,
                                            const std::vector<int>& services,
                                            const PartitioningOptions& options,
                                            Rng& rng) {
  const int n = static_cast<int>(services.size());
  if (n <= options.max_subproblem_services) return {services};
  const AffinityGraph sub = cluster.affinity().InducedSubgraph(services);
  const int h = (n + options.max_subproblem_services - 1) /
                options.max_subproblem_services;
  const int trials = std::max(1, std::min(sub.num_edges(), kBfsTrialsCap));
  Partition partition = LossMinBalancedPartition(sub, h, trials, rng);
  std::vector<std::vector<int>> out(partition.num_parts);
  for (int v = 0; v < n; ++v) {
    out[partition.part_of[v]].push_back(services[v]);
  }
  out.erase(std::remove_if(out.begin(), out.end(),
                           [](const std::vector<int>& g) { return g.empty(); }),
            out.end());
  return out;
}

// Proportional machine assignment (§IV-B5): per machine spec, subproblems
// receive machine counts proportional to their requested resources, among
// machines whose platform can host them.
void AssignMachines(const Cluster& cluster, const Placement& base,
                    std::vector<Subproblem>& subproblems) {
  const int K = static_cast<int>(subproblems.size());
  if (K == 0) return;
  // Requested CPU per (subproblem, platform).
  std::vector<std::vector<double>> req(K, std::vector<double>(2, 0.0));
  for (int k = 0; k < K; ++k) {
    for (int s : subproblems[k].services) {
      const Service& svc = cluster.service(s);
      req[k][svc.platform] += svc.request[0] * svc.demand;
    }
    subproblems[k].machines.clear();
  }

  for (int platform = 0; platform < 2; ++platform) {
    double req_total = 0.0;
    for (int k = 0; k < K; ++k) req_total += req[k][platform];
    if (req_total <= 0.0) continue;

    // Machines of this platform, grouped by spec, heaviest residual first.
    std::vector<int> machines;
    for (int m = 0; m < cluster.num_machines(); ++m) {
      if (cluster.machine(m).platform == platform) machines.push_back(m);
    }
    std::sort(machines.begin(), machines.end(), [&](int a, int b) {
      if (cluster.machine(a).spec_id != cluster.machine(b).spec_id) {
        return cluster.machine(a).spec_id < cluster.machine(b).spec_id;
      }
      const double ra = ResidualCapacity(cluster, base, a, 0);
      const double rb = ResidualCapacity(cluster, base, b, 0);
      if (ra != rb) return ra > rb;
      return a < b;
    });

    // Walk spec groups; within each, hand out counts by largest remainder.
    size_t i = 0;
    while (i < machines.size()) {
      size_t j = i;
      const int spec = cluster.machine(machines[i]).spec_id;
      while (j < machines.size() &&
             cluster.machine(machines[j]).spec_id == spec) {
        ++j;
      }
      const int count = static_cast<int>(j - i);
      std::vector<int> quota(K, 0);
      std::vector<std::pair<double, int>> remainder;
      int handed = 0;
      for (int k = 0; k < K; ++k) {
        const double exact = count * req[k][platform] / req_total;
        quota[k] = static_cast<int>(exact);
        handed += quota[k];
        remainder.push_back({exact - quota[k], k});
      }
      std::sort(remainder.begin(), remainder.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      for (int extra = 0; extra < count - handed; ++extra) {
        ++quota[remainder[extra % K].second];
      }
      // Deal machines round-robin across subproblems with remaining quota so
      // every subproblem sees a mix of big and small residuals.
      size_t cursor = i;
      while (cursor < j) {
        bool any = false;
        for (int k = 0; k < K && cursor < j; ++k) {
          if (quota[k] > 0 && req[k][platform] > 0.0) {
            subproblems[k].machines.push_back(machines[cursor]);
            ++cursor;
            --quota[k];
            any = true;
          }
        }
        if (!any) break;
      }
      i = j;
    }
  }

  // Every subproblem with demand should own at least one machine when its
  // platform has any; steal from the best-endowed sibling otherwise.
  for (int k = 0; k < K; ++k) {
    if (!subproblems[k].machines.empty() || subproblems[k].services.empty()) {
      continue;
    }
    const int platform =
        cluster.service(subproblems[k].services.front()).platform;
    int donor = -1;
    size_t donor_size = 1;
    for (int k2 = 0; k2 < K; ++k2) {
      if (k2 == k) continue;
      size_t matching = 0;
      for (int m : subproblems[k2].machines) {
        if (cluster.machine(m).platform == platform) ++matching;
      }
      if (matching > donor_size) {
        donor_size = matching;
        donor = k2;
      }
    }
    if (donor < 0) continue;
    auto& pool = subproblems[donor].machines;
    for (size_t idx = 0; idx < pool.size(); ++idx) {
      if (cluster.machine(pool[idx]).platform == platform) {
        subproblems[k].machines.push_back(pool[idx]);
        pool.erase(pool.begin() + idx);
        break;
      }
    }
  }
}

}  // namespace

double MasterRatio(int num_services, double coefficient, double exponent) {
  if (num_services <= 1) return 1.0;
  const double n = static_cast<double>(num_services);
  const double alpha = coefficient * std::pow(std::log(n), exponent) / n;
  return std::clamp(alpha, 1.0 / n, 1.0);
}

PartitionResult PartitionServices(const Cluster& cluster,
                                  const Placement& current,
                                  const PartitioningOptions& options) {
  Stopwatch timer;
  Rng rng(options.seed);
  PartitionResult result;
  result.stats.num_services = cluster.num_services();
  const AffinityGraph& graph = cluster.affinity();

  std::vector<std::vector<int>> service_sets;
  std::vector<int> trivial;

  switch (options.mode) {
    case PartitionMode::kNoPartition: {
      std::vector<int> all(cluster.num_services());
      std::iota(all.begin(), all.end(), 0);
      service_sets.push_back(std::move(all));
      break;
    }
    case PartitionMode::kRandom: {
      const int k = std::max(1, (cluster.num_services() +
                                 options.max_subproblem_services - 1) /
                                    options.max_subproblem_services);
      Partition partition = RandomPartition(graph, k, rng);
      service_sets.resize(partition.num_parts);
      for (int s = 0; s < cluster.num_services(); ++s) {
        service_sets[partition.part_of[s]].push_back(s);
      }
      break;
    }
    case PartitionMode::kKahip: {
      // KaHIP-style balanced min-cut over ALL services, as the §V-B
      // ablation does: without the non-affinity/master filtering stages,
      // the partitioner spends part of every subproblem on services that
      // cannot contribute any affinity.
      const int k = std::max(1, (cluster.num_services() +
                                 options.max_subproblem_services - 1) /
                                    options.max_subproblem_services);
      Partition partition = KahipLikePartition(graph, k, rng);
      service_sets.resize(partition.num_parts);
      for (int s = 0; s < cluster.num_services(); ++s) {
        service_sets[partition.part_of[s]].push_back(s);
      }
      break;
    }
    case PartitionMode::kMultiStage: {
      // Stage 1: non-affinity partitioning.
      std::vector<int> affine;
      for (int s = 0; s < cluster.num_services(); ++s) {
        if (graph.Degree(s) > 0) {
          affine.push_back(s);
        } else {
          trivial.push_back(s);
        }
      }

      // Stage 2: master-affinity partitioning by total affinity T(s).
      double alpha = options.master_ratio_override;
      if (alpha < 0.0 || alpha > 1.0) {
        alpha = MasterRatio(cluster.num_services(), kMasterCoefficient,
                            kMasterExponent);
      }
      result.stats.master_ratio = alpha;
      const int num_master =
          std::min(static_cast<int>(affine.size()),
                   std::max(1, static_cast<int>(
                                   std::floor(alpha * cluster.num_services()))));
      std::sort(affine.begin(), affine.end(), [&](int a, int b) {
        const double ta = graph.TotalAffinityOf(a);
        const double tb = graph.TotalAffinityOf(b);
        if (ta != tb) return ta > tb;
        return a < b;
      });
      std::vector<int> master(affine.begin(), affine.begin() + num_master);
      for (size_t i = num_master; i < affine.size(); ++i) {
        trivial.push_back(affine[i]);
      }
      double master_affinity = 0.0;
      for (int s : master) master_affinity += graph.TotalAffinityOf(s);
      // Each internal edge counted twice, cut edges once; T-sum/2 is the
      // standard upper bound used here as the reported share.
      const double graph_total = graph.TotalWeight();
      result.stats.master_affinity =
          graph_total > 0.0 ? std::min(1.0, master_affinity / 2.0 / graph_total)
                            : 0.0;

      // Stage 3: compatibility partitioning (platform blocks of matrix b).
      std::vector<std::vector<int>> by_platform(2);
      for (int s : master) {
        by_platform[cluster.service(s).platform].push_back(s);
      }
      // Stage 3b: affinity-connected components within each block can also
      // be solved independently at no loss.
      std::vector<std::vector<int>> components;
      for (const std::vector<int>& block : by_platform) {
        if (block.empty()) continue;
        const AffinityGraph sub = graph.InducedSubgraph(block);
        int num_components = 0;
        const std::vector<int> comp = sub.ConnectedComponents(&num_components);
        std::vector<std::vector<int>> groups(num_components);
        for (size_t v = 0; v < block.size(); ++v) {
          groups[comp[v]].push_back(block[v]);
        }
        for (auto& g : groups) {
          if (!g.empty()) components.push_back(std::move(g));
        }
      }

      // Stage 4: loss-minimization balanced partitioning of large sets.
      for (const std::vector<int>& set : components) {
        for (std::vector<int>& piece :
             SplitLargeSet(cluster, set, options, rng)) {
          service_sets.push_back(std::move(piece));
        }
      }
      break;
    }
  }

  // Merge single-service sets with no internal edges into trivial: solving
  // them cannot gain affinity (multi-stage mode keeps the paper's
  // semantics; other modes keep their sets as-is for a faithful ablation).
  for (std::vector<int>& set : service_sets) {
    if (set.empty()) continue;
    Subproblem sp;
    sp.services = std::move(set);
    std::sort(sp.services.begin(), sp.services.end());
    PopulateSubproblemEdges(cluster, sp);
    if (options.mode == PartitionMode::kMultiStage && sp.edges.empty()) {
      for (int s : sp.services) trivial.push_back(s);
      continue;
    }
    result.subproblems.push_back(std::move(sp));
  }

  std::sort(trivial.begin(), trivial.end());
  result.trivial_services = std::move(trivial);

  // Crucial services move; trivial ones stay. Machine shaving then
  // proportional machine assignment.
  std::vector<int> crucial;
  for (const Subproblem& sp : result.subproblems) {
    crucial.insert(crucial.end(), sp.services.begin(), sp.services.end());
  }
  result.base_placement = MakeBasePlacement(cluster, current, crucial);
  AssignMachines(cluster, result.base_placement, result.subproblems);

  result.stats.num_trivial_services =
      static_cast<int>(result.trivial_services.size());
  result.stats.num_crucial_services = static_cast<int>(crucial.size());
  result.stats.num_subproblems = static_cast<int>(result.subproblems.size());
  double internal = 0.0;
  for (const Subproblem& sp : result.subproblems) {
    internal += sp.internal_affinity;
  }
  const double total = graph.TotalWeight();
  result.stats.crucial_internal_affinity =
      total > 0.0 ? internal / total : 0.0;
  result.stats.elapsed_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace rasa
