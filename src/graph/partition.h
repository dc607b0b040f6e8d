#ifndef RASA_GRAPH_PARTITION_H_
#define RASA_GRAPH_PARTITION_H_

#include <vector>

#include "common/rng.h"
#include "graph/affinity_graph.h"

namespace rasa {

/// A partition of graph vertices into disjoint parts.
struct Partition {
  /// part_of[v] in [0, num_parts).
  std::vector<int> part_of;
  int num_parts = 0;

  /// Sizes of each part.
  std::vector<int> PartSizes() const;
  /// max(part size) / min(nonempty part size); 1.0 when perfectly even.
  double BalanceRatio() const;
  /// Vertex lists per part.
  std::vector<std::vector<int>> Groups() const;
};

/// Multi-source BFS partition from the given seed vertices: every vertex
/// joins the part of the seed that reaches it first (paper §IV-B4 steps
/// ii-iii). Vertices unreachable from any seed are assigned round-robin.
Partition MultiSourceBfsPartition(const AffinityGraph& graph,
                                  const std::vector<int>& seeds);

/// The paper's loss-minimization balanced partitioning heuristic
/// (§IV-B4): run `trials` rounds (the paper uses |E|); each round samples
/// `h` seed services and grows parts by BFS; keep rounds whose largest part
/// is at most `balance_factor` times the smallest; return the kept round
/// with minimum cut weight. Falls back to the best-balanced round if no
/// round satisfies the balance condition.
Partition LossMinBalancedPartition(const AffinityGraph& graph, int h,
                                   int trials, Rng& rng,
                                   double balance_factor = 2.0);

/// Uniformly random balanced partition into k parts (the RANDOM-PARTITION
/// baseline of §V-B).
Partition RandomPartition(const AffinityGraph& graph, int k, Rng& rng);

/// Stand-in for KaHIP (§V-B): greedy region growing from spread-out seeds
/// followed by Kernighan-Lin style boundary refinement minimizing cut weight
/// under a balance constraint.
Partition KahipLikePartition(const AffinityGraph& graph, int k, Rng& rng,
                             double max_imbalance = 1.1,
                             int refinement_passes = 6);

/// One pass of Kernighan-Lin boundary refinement on an existing partition:
/// greedily moves boundary vertices to the neighboring part with maximum
/// cut-weight gain while respecting part-size ceilings. Returns the total
/// gain achieved.
double RefinePartitionKl(const AffinityGraph& graph, Partition& partition,
                         const std::vector<int>& max_part_size);

}  // namespace rasa

#endif  // RASA_GRAPH_PARTITION_H_
