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

#include <string>
#include <vector>

#include "common/json_writer.h"
#include "core/cg.h"
#include "golden_cg_inputs.h"
#include "gtest/gtest.h"

namespace rasa {
namespace {

using testing::Carved;
using testing::CgInputs;

std::string DigestOf(const CgOptions& options) {
  JsonWriter w;
  w.BeginArray();
  for (const Carved& input : CgInputs()) {
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
  for (const Carved& input : CgInputs()) {
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
  EXPECT_EQ(DigestOf(CgOptions()), "0cd8d2ed08acacdb");
}

TEST(GoldenCgDigestTest, NoPairPricing) {
  CgOptions options;
  options.pair_pricing = false;
  EXPECT_EQ(DigestOf(options), "77289551938ef319");
}

TEST(GoldenCgDigestTest, NoGreedyCompletion) {
  CgOptions options;
  options.greedy_completion = false;
  EXPECT_EQ(DigestOf(options), "40d7ed861afd0630");
}

TEST(GoldenCgDigestTest, SmallPatternCap) {
  CgOptions options;
  options.max_patterns_per_machine = 3;
  EXPECT_EQ(DigestOf(options), "e22f11c11581931e");
}

}  // namespace
}  // namespace rasa
