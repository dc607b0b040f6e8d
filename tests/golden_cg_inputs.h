#ifndef RASA_TESTS_GOLDEN_CG_INPUTS_H_
#define RASA_TESTS_GOLDEN_CG_INPUTS_H_

// The column-generation inputs the CG suites share: every subproblem carved
// from Table II clusters M1-M4 at 1/32, two generator seeds per shape plus
// one input per shape with edge rules added.

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/generator.h"
#include "core/partitioning.h"
#include "gtest/gtest.h"
#include "rasa_test_util.h"

namespace rasa::testing {

struct Input {
  int shape;  // index into TableTwoSpecs: M1..M4
  uint64_t generator_seed;
  bool edge_rules;  // see WithEdgeRules
};

// Two generator seeds per Table II shape, and one input per shape with
// edge rules added. Every shape's clusters carry multi-service
// disaster-domain rules; golden_cg_digest_test checks that some subproblem
// holds two members of one.
inline constexpr Input kCgInputs[] = {
    {0, 1, false}, {0, 2, false}, {1, 2, false}, {1, 3, false},
    {2, 1, false}, {2, 2, false}, {3, 1, false}, {3, 4, false},
    {0, 3, true},  {1, 12, true}, {2, 3, true},  {3, 12, true}};

// `snapshot` with a two-service rule of limit 3 over the endpoints of each
// of its twelve heaviest affinity edges. The generated rules are loose, so
// pricing on them never reaches a state where either endpoint of an edge
// still fits alone but the pair does not; with an odd limit, adding pairs
// reaches that state at one below the limit.
inline ClusterSnapshot WithEdgeRules(const ClusterSnapshot& snapshot) {
  const Cluster& c = *snapshot.cluster;
  std::vector<AffinityEdge> edges = c.affinity().edges();
  std::sort(edges.begin(), edges.end(),
            [](const AffinityEdge& a, const AffinityEdge& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return std::pair(a.u, a.v) < std::pair(b.u, b.v);
            });
  edges.resize(std::min<size_t>(edges.size(), 12));
  std::vector<AntiAffinityRule> rules = c.anti_affinity();
  for (const AffinityEdge& e : edges) rules.push_back({{e.u, e.v}, 3});
  auto cluster =
      std::make_shared<Cluster>(c.resource_names(), c.services(),
                                c.machines(), c.affinity(), std::move(rules));
  EXPECT_TRUE(cluster->Validate().ok());
  ClusterSnapshot out{snapshot.name, cluster, Placement(*cluster)};
  for (int m = 0; m < c.num_machines(); ++m) {
    for (const auto& [s, count] : snapshot.original_placement.ServicesOn(m)) {
      out.original_placement.Add(m, s, count);
    }
  }
  return out;
}

struct Carved {
  ClusterSnapshot snapshot;
  PartitionResult partition;
};

inline const std::vector<Carved>& CgInputs() {
  static const std::vector<Carved>* inputs = [] {
    auto* out = new std::vector<Carved>();
    const std::vector<ClusterSpec> shapes = TableTwoSpecs(32.0);
    for (const Input& input : kCgInputs) {
      ClusterSnapshot snapshot =
          MakeSnapshot(shapes[input.shape], input.generator_seed);
      if (input.edge_rules) snapshot = WithEdgeRules(snapshot);
      PartitionResult partition =
          PartitionServices(*snapshot.cluster, snapshot.original_placement,
                            PartitioningOptions());
      out->push_back({std::move(snapshot), std::move(partition)});
    }
    return out;
  }();
  return *inputs;
}

}  // namespace rasa::testing

#endif  // RASA_TESTS_GOLDEN_CG_INPUTS_H_
