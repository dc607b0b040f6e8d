#include "graph/affinity_graph.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/strings.h"

namespace rasa {

AffinityGraph::AffinityGraph(int num_vertices) : num_vertices_(num_vertices) {}

Status AffinityGraph::AddEdge(int u, int v, double weight) {
  if (u == v) {
    return InvalidArgumentError(StrFormat("self-loop on vertex %d", u));
  }
  if (u < 0 || u >= num_vertices_ || v < 0 || v >= num_vertices_) {
    return InvalidArgumentError(StrFormat("edge {%d, %d} out of range", u, v));
  }
  if (!(weight > 0.0)) {
    return InvalidArgumentError(
        StrFormat("edge {%d, %d} has non-positive weight %g", u, v, weight));
  }
  const int lo = std::min(u, v);
  const int hi = std::max(u, v);
  const auto [it, inserted] =
      edge_index_.try_emplace(EdgeKey(lo, hi), static_cast<int>(edges_.size()));
  if (inserted) {
    edges_.push_back({lo, hi, weight});
  } else {
    edges_[it->second].weight += weight;
  }
  csr_valid_ = false;
  return Status::OK();
}

void AffinityGraph::EnsureReadable() const {
  if (csr_valid_) return;
  // Stable counting pass over edges_ in insertion order: each edge appends
  // both directions, so every neighbor list is in first-insertion order.
  csr_offsets_.assign(num_vertices_ + 1, 0);
  for (const AffinityEdge& e : edges_) {
    ++csr_offsets_[e.u + 1];
    ++csr_offsets_[e.v + 1];
  }
  for (int v = 0; v < num_vertices_; ++v) {
    csr_offsets_[v + 1] += csr_offsets_[v];
  }
  csr_entries_.resize(edges_.size() * 2);
  std::vector<int> cursor(csr_offsets_.begin(), csr_offsets_.end() - 1);
  for (const AffinityEdge& e : edges_) {
    csr_entries_[cursor[e.u]++] = {e.v, e.weight};
    csr_entries_[cursor[e.v]++] = {e.u, e.weight};
  }
  csr_valid_ = true;
}

AffinityGraph::NeighborSpan AffinityGraph::Neighbors(int v) const {
  EnsureReadable();
  const int begin = csr_offsets_[v];
  return NeighborSpan(csr_entries_.data() + begin,
                      static_cast<size_t>(csr_offsets_[v + 1] - begin));
}

int AffinityGraph::Degree(int v) const {
  EnsureReadable();
  return csr_offsets_[v + 1] - csr_offsets_[v];
}

double AffinityGraph::TotalAffinityOf(int v) const {
  double total = 0.0;
  for (const auto& [nbr, w] : Neighbors(v)) {
    (void)nbr;
    total += w;
  }
  return total;
}

double AffinityGraph::TotalWeight() const {
  double total = 0.0;
  for (const AffinityEdge& e : edges_) total += e.weight;
  return total;
}

void AffinityGraph::NormalizeWeights() {
  const double total = TotalWeight();
  if (total <= 0.0) return;
  const double inv = 1.0 / total;
  for (AffinityEdge& e : edges_) e.weight *= inv;
  if (csr_valid_) {
    for (auto& [nbr, w] : csr_entries_) w *= inv;
  }
}

AffinityGraph AffinityGraph::InducedSubgraph(
    const std::vector<int>& vertices) const {
  std::vector<int> new_id(num_vertices_, -1);
  for (size_t i = 0; i < vertices.size(); ++i) {
    new_id[vertices[i]] = static_cast<int>(i);
  }
  AffinityGraph sub(static_cast<int>(vertices.size()));
  for (const AffinityEdge& e : edges_) {
    const int nu = new_id[e.u];
    const int nv = new_id[e.v];
    if (nu >= 0 && nv >= 0) {
      sub.AddEdge(nu, nv, e.weight);  // cannot fail: fresh distinct ids
    }
  }
  return sub;
}

std::vector<int> AffinityGraph::ConnectedComponents(
    int* num_components) const {
  std::vector<int> component(num_vertices_, -1);
  int count = 0;
  std::deque<int> queue;
  for (int start = 0; start < num_vertices_; ++start) {
    if (component[start] >= 0) continue;
    component[start] = count;
    queue.push_back(start);
    while (!queue.empty()) {
      const int v = queue.front();
      queue.pop_front();
      for (const auto& [nbr, w] : Neighbors(v)) {
        (void)w;
        if (component[nbr] < 0) {
          component[nbr] = count;
          queue.push_back(nbr);
        }
      }
    }
    ++count;
  }
  if (num_components != nullptr) *num_components = count;
  return component;
}

double AffinityGraph::CutWeight(const std::vector<int>& part_of_vertex) const {
  double cut = 0.0;
  for (const AffinityEdge& e : edges_) {
    if (part_of_vertex[e.u] != part_of_vertex[e.v]) cut += e.weight;
  }
  return cut;
}

AffinityGraph GeneratePowerLawGraph(int num_vertices, int num_edges,
                                    double beta, Rng& rng, int max_degree) {
  AffinityGraph graph(num_vertices);
  if (num_vertices < 2) return graph;
  if (max_degree <= 0) max_degree = num_vertices;

  // Target total affinity per rank: T_r = (r+1)^-beta (Assumption 4.1).
  std::vector<double> target(num_vertices);
  for (int v = 0; v < num_vertices; ++v) {
    // Zipf-with-offset: softens the single-hub head so the rank plot stays
    // a clean power law (real clusters have a handful of comparable hubs).
    target[v] = std::pow(v + 2.0, -beta);
  }

  // Phase 1: topology. One endpoint sampled with a head-heavy Zipf, the
  // other with a flatter one so hubs reach into the tail. Duplicate pairs
  // retry against a uniform partner, so the loop always progresses.
  auto make_sampler = [&](double exponent) {
    std::vector<double> cumulative(num_vertices);
    double acc = 0.0;
    for (int v = 0; v < num_vertices; ++v) {
      acc += 1.0 / std::pow(v + 1.0, exponent);
      cumulative[v] = acc;
    }
    return std::make_pair(std::move(cumulative), acc);
  };
  auto [cum_head, total_head] = make_sampler(0.85);
  auto [cum_tail, total_tail] = make_sampler(0.35);
  auto sample = [&](const std::vector<double>& cum, double total) {
    const double r = rng.NextDouble() * total;
    return static_cast<int>(
        std::lower_bound(cum.begin(), cum.end(), r) - cum.begin());
  };

  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(num_edges);
  std::vector<std::vector<int>> adjacency(num_vertices);
  auto has_pair = [&](int u, int v) {
    for (int nbr : adjacency[u]) {
      if (nbr == v) return true;
    }
    return false;
  };
  int attempts = 0;
  const int max_attempts = 20 * num_edges + 100;
  auto rejected = [&](int u, int v) {
    return u == v || has_pair(u, v) ||
           static_cast<int>(adjacency[u].size()) >= max_degree ||
           static_cast<int>(adjacency[v].size()) >= max_degree;
  };
  while (static_cast<int>(pairs.size()) < num_edges &&
         attempts++ < max_attempts) {
    int u = sample(cum_head, total_head);
    int v = sample(cum_tail, total_tail);
    if (rejected(u, v)) {
      u = static_cast<int>(rng.NextUint64(num_vertices));
      v = static_cast<int>(rng.NextUint64(num_vertices));
      if (rejected(u, v)) continue;
    }
    pairs.push_back({u, v});
    adjacency[u].push_back(v);
    adjacency[v].push_back(u);
  }

  // Phase 2: weights w_uv = x_u * x_v fitted with Sinkhorn-style scaling so
  // every vertex's weighted degree matches its target; the rank-ordered
  // totals then follow the requested power law by construction.
  std::vector<double> x(num_vertices, 0.0);
  for (int v = 0; v < num_vertices; ++v) {
    if (!adjacency[v].empty()) {
      x[v] = std::sqrt(target[v] / adjacency[v].size());
    }
  }
  for (int iter = 0; iter < 60; ++iter) {
    for (int v = 0; v < num_vertices; ++v) {
      if (adjacency[v].empty()) continue;
      double denom = 0.0;
      for (int nbr : adjacency[v]) denom += x[nbr];
      if (denom > 1e-12) x[v] = target[v] / denom;
    }
  }
  for (const auto& [u, v] : pairs) {
    const double weight = x[u] * x[v] * (0.85 + 0.3 * rng.NextDouble());
    if (weight > 0.0) graph.AddEdge(u, v, weight);
  }
  return graph;
}

}  // namespace rasa
