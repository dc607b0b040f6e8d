#include "graph/partition.h"

#include <algorithm>
#include <deque>
#include <limits>

#include "common/logging.h"

namespace rasa {

std::vector<int> Partition::PartSizes() const {
  std::vector<int> sizes(num_parts, 0);
  for (int p : part_of) {
    if (p >= 0 && p < num_parts) ++sizes[p];
  }
  return sizes;
}

double Partition::BalanceRatio() const {
  const std::vector<int> sizes = PartSizes();
  int max_size = 0;
  int min_size = std::numeric_limits<int>::max();
  for (int s : sizes) {
    if (s == 0) continue;
    max_size = std::max(max_size, s);
    min_size = std::min(min_size, s);
  }
  if (max_size == 0) return 1.0;
  return static_cast<double>(max_size) / min_size;
}

std::vector<std::vector<int>> Partition::Groups() const {
  std::vector<std::vector<int>> groups(num_parts);
  for (size_t v = 0; v < part_of.size(); ++v) {
    const int p = part_of[v];
    if (p >= 0 && p < num_parts) groups[p].push_back(static_cast<int>(v));
  }
  return groups;
}

Partition MultiSourceBfsPartition(const AffinityGraph& graph,
                                  const std::vector<int>& seeds) {
  Partition result;
  result.num_parts = static_cast<int>(seeds.size());
  result.part_of.assign(graph.num_vertices(), -1);
  std::deque<int> queue;
  for (size_t i = 0; i < seeds.size(); ++i) {
    result.part_of[seeds[i]] = static_cast<int>(i);
    queue.push_back(seeds[i]);
  }
  // Level-synchronous multi-source BFS: a vertex joins the part of whichever
  // seed's frontier reaches it first (FIFO order resolves ties).
  while (!queue.empty()) {
    const int v = queue.front();
    queue.pop_front();
    for (const auto& [nbr, w] : graph.Neighbors(v)) {
      (void)w;
      if (result.part_of[nbr] < 0) {
        result.part_of[nbr] = result.part_of[v];
        queue.push_back(nbr);
      }
    }
  }
  // Isolated / unreachable vertices: spread them evenly.
  int next = 0;
  for (int v = 0; v < graph.num_vertices(); ++v) {
    if (result.part_of[v] < 0) {
      result.part_of[v] = next;
      next = (next + 1) % std::max(1, result.num_parts);
    }
  }
  return result;
}

Partition LossMinBalancedPartition(const AffinityGraph& graph, int h,
                                   int trials, Rng& rng,
                                   double balance_factor) {
  const int n = graph.num_vertices();
  Partition best;
  bool best_balanced = false;
  double best_cut = std::numeric_limits<double>::infinity();
  double best_balance = std::numeric_limits<double>::infinity();

  if (n == 0 || h <= 0) {
    best.num_parts = 0;
    return best;
  }
  h = std::min(h, n);
  trials = std::max(trials, 1);

  // Size ceiling used by the post-BFS refinement pass: the balance
  // condition allows the largest part up to balance_factor times the ideal.
  const int ceiling = std::max(
      1, static_cast<int>(balance_factor * (n + h - 1) / h) + 1);
  const std::vector<int> ceilings(h, ceiling);

  for (int t = 0; t < trials; ++t) {
    const std::vector<int> seeds = rng.SampleWithoutReplacement(n, h);
    Partition candidate = MultiSourceBfsPartition(graph, seeds);
    // Loss-minimization: a few Kernighan-Lin sweeps pull boundary services
    // back toward their heaviest neighborhood without breaking balance.
    for (int pass = 0; pass < 3; ++pass) {
      if (RefinePartitionKl(graph, candidate, ceilings) <= 0.0) {
        break;
      }
    }
    const double balance = candidate.BalanceRatio();
    const double cut = graph.CutWeight(candidate.part_of);
    const bool balanced = balance <= balance_factor;
    // Prefer balanced candidates by cut weight; among unbalanced ones (used
    // only as a fallback) prefer the most balanced.
    if (balanced) {
      if (!best_balanced || cut < best_cut) {
        best = std::move(candidate);
        best_cut = cut;
        best_balanced = true;
      }
    } else if (!best_balanced) {
      if (balance < best_balance) {
        best = std::move(candidate);
        best_balance = balance;
      }
    }
  }
  return best;
}

Partition RandomPartition(const AffinityGraph& graph, int k, Rng& rng) {
  Partition result;
  result.num_parts = std::max(1, k);
  const int n = graph.num_vertices();
  // Balanced by construction: shuffle vertices, deal them round-robin.
  std::vector<int> order(n);
  for (int v = 0; v < n; ++v) order[v] = v;
  rng.Shuffle(order);
  result.part_of.assign(n, 0);
  for (int i = 0; i < n; ++i) {
    result.part_of[order[i]] = i % result.num_parts;
  }
  return result;
}

double RefinePartitionKl(const AffinityGraph& graph, Partition& partition,
                         const std::vector<int>& max_part_size) {
  const int n = graph.num_vertices();
  const int k = partition.num_parts;
  std::vector<int> sizes = partition.PartSizes();
  double total_gain = 0.0;

  // Link scratch hoisted out of the vertex loop: entries are zeroed via the
  // touched list after each vertex instead of reallocating k doubles per
  // vertex.
  std::vector<double> link(k, 0.0);
  std::vector<int> touched;
  touched.reserve(k);

  // Greedy single-vertex moves to the best neighboring part; one sweep.
  for (int v = 0; v < n; ++v) {
    const int from = partition.part_of[v];
    if (sizes[from] <= 1) continue;  // never empty a part
    // Weight of v's edges into each adjacent part.
    for (const auto& [nbr, w] : graph.Neighbors(v)) {
      const int p = partition.part_of[nbr];
      if (link[p] == 0.0) touched.push_back(p);
      link[p] += w;
    }
    int best_part = from;
    double best_gain = 1e-12;  // strictly positive gains only
    for (int p = 0; p < k; ++p) {
      if (p == from || link[p] == 0.0) continue;
      if (sizes[p] + 1 > max_part_size[p]) continue;
      const double gain = link[p] - link[from];
      if (gain > best_gain) {
        best_gain = gain;
        best_part = p;
      }
    }
    for (int p : touched) link[p] = 0.0;
    touched.clear();
    if (best_part != from) {
      partition.part_of[v] = best_part;
      --sizes[from];
      ++sizes[best_part];
      total_gain += best_gain;
    }
  }
  return total_gain;
}

Partition KahipLikePartition(const AffinityGraph& graph, int k, Rng& rng,
                             double max_imbalance, int refinement_passes) {
  const int n = graph.num_vertices();
  Partition partition;
  partition.num_parts = std::max(1, k);
  partition.part_of.assign(n, -1);
  if (n == 0) return partition;
  k = partition.num_parts;

  const int ceiling = std::max(
      1, static_cast<int>(max_imbalance * (n + k - 1) / k) + 1);

  // Seed selection: heaviest vertex first, then repeatedly the vertex
  // farthest (by hops) from all chosen seeds — a KaHIP-style spread.
  std::vector<int> seeds;
  {
    int heaviest = 0;
    double heaviest_w = -1.0;
    for (int v = 0; v < n; ++v) {
      const double w = graph.TotalAffinityOf(v);
      if (w > heaviest_w) {
        heaviest_w = w;
        heaviest = v;
      }
    }
    seeds.push_back(heaviest);
    std::vector<int> dist(n);
    while (static_cast<int>(seeds.size()) < std::min(k, n)) {
      std::fill(dist.begin(), dist.end(), -1);
      std::deque<int> queue;
      for (int s : seeds) {
        dist[s] = 0;
        queue.push_back(s);
      }
      while (!queue.empty()) {
        const int v = queue.front();
        queue.pop_front();
        for (const auto& [nbr, w] : graph.Neighbors(v)) {
          (void)w;
          if (dist[nbr] < 0) {
            dist[nbr] = dist[v] + 1;
            queue.push_back(nbr);
          }
        }
      }
      int farthest = -1;
      int farthest_d = -1;
      for (int v = 0; v < n; ++v) {
        const int d = dist[v] < 0 ? n + 1 : dist[v];  // unreachable = far
        if (d > farthest_d) {
          farthest_d = d;
          farthest = v;
        }
      }
      if (farthest < 0 || farthest_d == 0) {
        farthest = static_cast<int>(rng.NextUint64(n));
      }
      seeds.push_back(farthest);
    }
  }

  // Greedy growth: repeatedly expand the currently smallest part along its
  // heaviest boundary edge.
  std::vector<int> sizes(k, 0);
  for (size_t i = 0; i < seeds.size(); ++i) {
    partition.part_of[seeds[i]] = static_cast<int>(i);
    ++sizes[i];
  }
  int assigned = static_cast<int>(seeds.size());
  while (assigned < n) {
    // Pick the smallest part that still has boundary candidates.
    int grew = -1;
    std::vector<int> order(k);
    for (int p = 0; p < k; ++p) order[p] = p;
    std::sort(order.begin(), order.end(),
              [&](int a, int b) { return sizes[a] < sizes[b]; });
    for (int p : order) {
      if (sizes[p] >= ceiling) continue;
      // Best unassigned vertex adjacent to part p.
      int best_v = -1;
      double best_w = -1.0;
      for (int v = 0; v < n; ++v) {
        if (partition.part_of[v] >= 0) continue;
        double w_to_p = 0.0;
        for (const auto& [nbr, w] : graph.Neighbors(v)) {
          if (partition.part_of[nbr] == p) w_to_p += w;
        }
        if (w_to_p > best_w) {
          best_w = w_to_p;
          best_v = v;
        }
      }
      if (best_v >= 0 && best_w > 0.0) {
        partition.part_of[best_v] = p;
        ++sizes[p];
        ++assigned;
        grew = p;
        break;
      }
    }
    if (grew < 0) {
      // No part can grow along an edge; place remaining vertices into the
      // smallest parts.
      for (int v = 0; v < n; ++v) {
        if (partition.part_of[v] >= 0) continue;
        int smallest = 0;
        for (int p = 1; p < k; ++p) {
          if (sizes[p] < sizes[smallest]) smallest = p;
        }
        partition.part_of[v] = smallest;
        ++sizes[smallest];
        ++assigned;
      }
    }
  }

  std::vector<int> ceilings(k, ceiling);
  for (int pass = 0; pass < refinement_passes; ++pass) {
    if (RefinePartitionKl(graph, partition, ceilings) <= 0.0) break;
  }
  return partition;
}

}  // namespace rasa
