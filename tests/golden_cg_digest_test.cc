// Golden column-generation digests. The placement digests see CG only
// through whole Optimize runs under the default CgOptions, so a change to
// the pricing kernel that moves an ablation path, or that changes the
// master LPs without moving the rounded placement, passes them. This suite
// runs SolveSubproblemCg directly on every subproblem carved from Table II
// clusters M1-M4 at 1/32, under the default options and under each
// ablation knob, and pins everything a solve decides to digests recorded
// from a reference build.
//
// Each digest is FNV-1a over one JSON array with an entry per subproblem:
// the assignments, gained affinity and last master LP objective at %.17g,
// the unplaced containers, and the CgStats counts (rounds, patterns
// generated, master solves, simplex pivots, warm-started masters). No
// deadline is set, so the work is scheduling-independent.
//
// A deliberate behaviour change re-pins a digest: the failure message
// prints the new value; say in the change description why it moved.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/generator.h"
#include "common/json_writer.h"
#include "core/cg.h"
#include "core/partitioning.h"
#include "gtest/gtest.h"
#include "rasa_test_util.h"

namespace rasa {
namespace {

struct Input {
  int shape;  // index into TableTwoSpecs: M1..M4
  uint64_t generator_seed;
  bool edge_rules;  // see WithEdgeRules
};

// Two generator seeds per Table II shape, and one input per shape with
// edge rules added. Every shape's clusters carry multi-service
// disaster-domain rules; the test below checks that some subproblem holds
// two members of one.
constexpr Input kInputs[] = {
    {0, 1, false}, {0, 2, false}, {1, 2, false}, {1, 3, false},
    {2, 1, false}, {2, 2, false}, {3, 1, false}, {3, 4, false},
    {0, 3, true},  {1, 12, true}, {2, 3, true},  {3, 12, true}};

// `snapshot` with a two-service rule of limit 3 over the endpoints of each
// of its twelve heaviest affinity edges. The generated rules are loose, so
// pricing on them never reaches a state where either endpoint of an edge
// still fits alone but the pair does not; with an odd limit, adding pairs
// reaches that state at one below the limit.
ClusterSnapshot WithEdgeRules(const ClusterSnapshot& snapshot) {
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

const std::vector<Carved>& Inputs() {
  static const std::vector<Carved>* inputs = [] {
    auto* out = new std::vector<Carved>();
    const std::vector<ClusterSpec> shapes = TableTwoSpecs(32.0);
    for (const Input& input : kInputs) {
      ClusterSnapshot snapshot =
          testing::MakeSnapshot(shapes[input.shape], input.generator_seed);
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

std::string DigestOf(const CgOptions& options) {
  JsonWriter w;
  w.BeginArray();
  for (const Carved& input : Inputs()) {
    for (const Subproblem& sp : input.partition.subproblems) {
      CgStats stats;
      StatusOr<SubproblemSolution> solution = SolveSubproblemCg(
          *input.snapshot.cluster, sp, input.partition.base_placement,
          input.snapshot.original_placement, options, &stats);
      EXPECT_TRUE(solution.ok()) << solution.status().ToString();
      if (!solution.ok()) continue;
      EXPECT_FALSE(stats.hit_deadline);
      w.BeginObject();
      w.Key("assignments").BeginArray();
      for (const SubproblemSolution::Assignment& a : solution->assignments) {
        w.BeginArray().Value(a.service).Value(a.machine).Value(a.count);
        w.EndArray();
      }
      w.EndArray();
      w.Key("gained").Value(solution->gained_affinity);
      w.Key("lp_objective").Value(stats.lp_objective);
      w.Key("unplaced").Value(solution->unplaced_containers);
      w.Key("rounds").Value(stats.rounds);
      w.Key("patterns").Value(stats.patterns_generated);
      w.Key("masters").Value(stats.master_solves);
      w.Key("pivots").Value(stats.lp_iterations);
      w.Key("warm").Value(stats.master_warm_started);
      w.EndObject();
    }
  }
  w.EndArray();
  return testing::Fnv1a(w.str());
}

TEST(GoldenCgDigestTest, InputsCarryMultiServiceRules) {
  int subproblems = 0;
  int shared_rules = 0;  // rules with two or more members in one subproblem
  for (const Carved& input : Inputs()) {
    const Cluster& cluster = *input.snapshot.cluster;
    for (const Subproblem& sp : input.partition.subproblems) {
      ++subproblems;
      std::vector<char> in_sp(cluster.num_services(), 0);
      for (int s : sp.services) in_sp[s] = 1;
      for (const AntiAffinityRule& rule : cluster.anti_affinity()) {
        int members = 0;
        for (int s : rule.services) members += in_sp[s];
        if (members >= 2) ++shared_rules;
      }
    }
  }
  EXPECT_GE(subproblems, 16);
  EXPECT_GT(shared_rules, 0);
}

TEST(GoldenCgDigestTest, DefaultOptions) {
  EXPECT_EQ(DigestOf(CgOptions()), "fa3d72c87cbbaf57");
}

TEST(GoldenCgDigestTest, NoPairPricing) {
  CgOptions options;
  options.pair_pricing = false;
  EXPECT_EQ(DigestOf(options), "79a93a8bc5dc6055");
}

TEST(GoldenCgDigestTest, NoGreedyCompletion) {
  CgOptions options;
  options.greedy_completion = false;
  EXPECT_EQ(DigestOf(options), "ac058d7019959d15");
}

TEST(GoldenCgDigestTest, SmallPatternCap) {
  CgOptions options;
  options.max_patterns_per_machine = 3;
  EXPECT_EQ(DigestOf(options), "f26dc13c37aadd62");
}

}  // namespace
}  // namespace rasa
