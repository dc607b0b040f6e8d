#ifndef RASA_GRAPH_AFFINITY_GRAPH_H_
#define RASA_GRAPH_AFFINITY_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace rasa {

/// One weighted undirected edge of an affinity graph.
struct AffinityEdge {
  int u = 0;
  int v = 0;
  double weight = 0.0;
};

/// Weighted undirected graph over services (paper §II-B). Vertices are dense
/// ids [0, num_vertices). Parallel edges are merged by accumulating weight;
/// self-loops are rejected (a service has no affinity with itself).
///
/// Reads go through the span-based view API (`Neighbors`, `edges`); there is
/// no random-access weight lookup in the public interface. Neighbor lists
/// live in a CSR index over the edge list, rebuilt lazily on the first read
/// after a mutation; neighbor order is the edge first-insertion order.
class AffinityGraph {
 public:
  using NeighborEntry = std::pair<int, double>;

  /// Read-only view of one vertex's (neighbor, weight) list. Points into
  /// the graph's backing storage: valid until the next mutating call.
  class NeighborSpan {
   public:
    NeighborSpan() = default;
    NeighborSpan(const NeighborEntry* data, size_t size)
        : data_(data), size_(size) {}

    const NeighborEntry* begin() const { return data_; }
    const NeighborEntry* end() const { return data_ + size_; }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const NeighborEntry& operator[](size_t i) const { return data_[i]; }

   private:
    const NeighborEntry* data_ = nullptr;
    size_t size_ = 0;
  };

  AffinityGraph() = default;
  explicit AffinityGraph(int num_vertices);

  int num_vertices() const { return num_vertices_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  /// Adds (or accumulates onto) edge {u, v}. Weight must be positive.
  /// O(1) amortized via the edge hash index (duplicate edges no longer
  /// rescan the edge list, which made bulk loading quadratic).
  Status AddEdge(int u, int v, double weight);

  /// All edges in first-insertion order (duplicates merged in place).
  const std::vector<AffinityEdge>& edges() const { return edges_; }

  /// Neighbors of `v` as a contiguous (neighbor, weight) span, in edge
  /// first-insertion order.
  NeighborSpan Neighbors(int v) const;

  int Degree(int v) const;

  /// T(s): sum of incident edge weights (paper §IV-B2).
  double TotalAffinityOf(int v) const;

  /// Sum of all edge weights.
  double TotalWeight() const;

  /// Divides all weights so TotalWeight() == 1 (paper normalizes total
  /// affinity to 1.0). No-op on an empty graph.
  void NormalizeWeights();

  /// Subgraph induced by `vertices`; `vertices[i]` becomes new id i.
  AffinityGraph InducedSubgraph(const std::vector<int>& vertices) const;

  /// Connected component id per vertex (ids are dense, 0-based) and count.
  std::vector<int> ConnectedComponents(int* num_components = nullptr) const;

  /// Total weight of edges whose endpoints are in different parts.
  double CutWeight(const std::vector<int>& part_of_vertex) const;

  /// Builds the read-side index now (idempotent). Reads finalize lazily,
  /// which is fine single-threaded; call this once before sharing a graph
  /// across threads so concurrent readers never race on the rebuild
  /// (Cluster's constructor does).
  void Finalize() const { EnsureReadable(); }

 private:
  static uint64_t EdgeKey(int u, int v) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
           static_cast<uint32_t>(v);
  }
  /// Rebuilds the CSR index from `edges_` if a mutation invalidated it.
  void EnsureReadable() const;

  int num_vertices_ = 0;
  std::vector<AffinityEdge> edges_;
  /// {min(u,v), max(u,v)} -> index into edges_, for O(1) duplicate merge.
  std::unordered_map<uint64_t, int> edge_index_;

  // CSR index: one offsets array + one entries block, rebuilt lazily.
  mutable std::vector<int> csr_offsets_;
  mutable std::vector<NeighborEntry> csr_entries_;
  mutable bool csr_valid_ = false;
};

/// Generates a graph with power-law total-affinity skew (Assumption 4.1):
/// vertex s gets total affinity ~ 1/(s+1)^beta (weights fitted by Sinkhorn
/// scaling); edges attach preferentially to low-index (heavy) vertices.
/// `max_degree` > 0 caps each vertex's neighbor count — real microservice
/// call graphs have bounded fan-out even for the hottest services.
AffinityGraph GeneratePowerLawGraph(int num_vertices, int num_edges,
                                    double beta, Rng& rng,
                                    int max_degree = 0);

}  // namespace rasa

#endif  // RASA_GRAPH_AFFINITY_GRAPH_H_
