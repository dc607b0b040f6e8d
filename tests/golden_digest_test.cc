// Golden placement digests. The determinism suites compare thread counts
// within one build, so a change that moves every placement the same way at
// every thread count passes them all. This suite pins what the optimizer
// produces on a fixed set of scenarios to digests recorded from a reference
// build, at 1 and 4 solver threads.
//
// Each digest is FNV-1a over testing::CanonicalResultJson: doubles at
// %.17g, the placement triples, every RasaResult counter, each
// SubproblemReport without `seconds`, and the explain report without
// timings — every ledger record (no `seconds` / `budget_seconds`) and every
// certificate term. Timeouts are generous (every solve stops on its
// planned work caps and the global deadline never fires) or zero (every
// rung expires), the two scheduling-independent regimes of DESIGN.md
// "Threading model".
//
// A deliberate behaviour change re-pins a digest: the failure message
// prints the new value; say in the change description why it moved.

#include <algorithm>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "cluster/generator.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "core/delta.h"
#include "core/rasa.h"
#include "gtest/gtest.h"
#include "rasa_test_util.h"

namespace rasa {
namespace {

constexpr int kThreadCounts[] = {1, 4};

std::string DigestOf(const RasaResult& result) {
  return testing::Fnv1a(testing::CanonicalResultJson(result));
}

// Eleven subproblems at 12 services each.
const ClusterSnapshot& TestSnapshot() {
  static const ClusterSnapshot* snapshot =
      new ClusterSnapshot(testing::MakeSnapshot(M1Spec(32.0), 5));
  return *snapshot;
}

RasaOptions BaseOptions() {
  RasaOptions options;
  options.timeout_seconds = 60.0;
  options.partitioning.max_subproblem_services = 12;
  options.seed = 17;
  return options;
}

RasaResult RunOptimize(RasaOptions options, SelectorPolicy policy,
                       int threads,
                       const ClusterSnapshot& snapshot = TestSnapshot()) {
  options.num_threads = threads;
  const RasaOptimizer optimizer(options, AlgorithmSelector(policy));
  StatusOr<RasaResult> result =
      optimizer.Optimize(*snapshot.cluster, snapshot.original_placement);
  RASA_CHECK(result.ok()) << result.status().ToString();
  return *std::move(result);
}

TEST(GoldenDigestTest, ColdHeuristic) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const RasaResult r =
        RunOptimize(BaseOptions(), SelectorPolicy::kHeuristic, threads);
    EXPECT_EQ(r.greedy_fallbacks, 0);
    EXPECT_EQ(DigestOf(r), "f066c3b4f7a1b275");
  }
}

TEST(GoldenDigestTest, PopSplit) {
  RasaOptions options = BaseOptions();
  options.pop.max_services = 6;
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const RasaResult r =
        RunOptimize(options, SelectorPolicy::kHeuristic, threads);
    EXPECT_GT(r.pop_splits, 0);
    EXPECT_EQ(DigestOf(r), "27811eacde1e0c66");
  }
}

TEST(GoldenDigestTest, ZeroTimeout) {
  RasaOptions options = BaseOptions();
  options.timeout_seconds = 0.0;
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const RasaResult r =
        RunOptimize(options, SelectorPolicy::kHeuristic, threads);
    EXPECT_EQ(r.greedy_fallbacks, static_cast<int>(r.subproblems.size()));
    EXPECT_EQ(DigestOf(r), "d4cf342585fcc0e2");
  }
}

// Every subproblem labelled MIP on a cluster whose three largest
// subproblems exceed the MIP row cap: each fails at once, the other pool
// algorithm rescues it, and the open circuit breaker skips MIP on the rest.
TEST(GoldenDigestTest, AlwaysMipHitsRowCap) {
  static const ClusterSnapshot* snapshot =
      new ClusterSnapshot(testing::MakeSnapshot(M4Spec(16.0), 5));
  RasaOptions options = BaseOptions();
  options.partitioning.max_subproblem_services = 32;
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const RasaResult r =
        RunOptimize(options, SelectorPolicy::kAlwaysMip, threads, *snapshot);
    EXPECT_GT(r.solver_failures, 0);
    EXPECT_GT(r.secondary_successes, 0);
    EXPECT_GT(r.breaker_skips, 0);
    EXPECT_EQ(DigestOf(r), "ead3a03c0fee3f04");
  }
}

// The cluster with every edge touching `touched` (every edge when empty)
// re-weighted.
Cluster Reweight(const Cluster& cluster, const std::vector<int>& touched) {
  std::vector<char> hit(cluster.num_services(), touched.empty() ? 1 : 0);
  for (int s : touched) hit[s] = 1;
  AffinityGraph graph(cluster.num_services());
  int i = 0;
  for (const AffinityEdge& e : cluster.affinity().edges()) {
    const bool drift = hit[e.u] || hit[e.v];
    graph.AddEdge(e.u, e.v,
                  drift ? e.weight * (1.0 + 0.1 * (++i % 5 + 1)) : e.weight);
  }
  return Cluster(cluster.resource_names(), cluster.services(),
                 cluster.machines(), std::move(graph),
                 cluster.anti_affinity());
}

// Four cycles on one delta state: a cold start, two cycles that drift one
// cached subproblem (the lowest, then the second-lowest by internal
// affinity) so the rest are reused, and a full drift that falls back to a
// full resolve. The digest also covers the encoded delta state.
TEST(GoldenDigestTest, IncrementalCycles) {
  const ClusterSnapshot& snapshot = TestSnapshot();
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    RasaOptions options = BaseOptions();
    options.num_threads = threads;
    const RasaOptimizer optimizer(
        options, AlgorithmSelector(SelectorPolicy::kHeuristic));
    IncrementalState state;
    // A deque keeps each cluster where the placements bound to it point.
    std::deque<Cluster> clusters{*snapshot.cluster};
    Placement live = snapshot.original_placement;
    JsonWriter w;
    w.BeginArray();
    int reused = 0;
    int dirty_reusing = 0;
    std::vector<std::string> reasons;
    for (int cycle = 0; cycle < 4; ++cycle) {
      if (cycle > 0) {
        std::vector<const Subproblem*> cached;
        for (const SubproblemCache& c : state.subproblems) {
          cached.push_back(&c.subproblem);
        }
        std::stable_sort(cached.begin(), cached.end(), [](auto a, auto b) {
          return a->internal_affinity < b->internal_affinity;
        });
        clusters.push_back(Reweight(
            clusters.back(),
            cycle < 3 ? cached[cycle - 1]->services : std::vector<int>{}));
        Placement rebound(clusters.back());
        for (int m = 0; m < clusters.back().num_machines(); ++m) {
          for (const auto& [s, count] : live.ServicesOn(m)) {
            rebound.Add(m, s, count);
          }
        }
        live = std::move(rebound);
      }
      StatusOr<RasaResult> r = optimizer.Optimize(
          clusters.back(), live, OptimizeContext(nullptr, &state));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      testing::AppendCanonicalResult(w, *r);
      w.Value(EncodeIncrementalStateString(state));
      reused += r->reused_subproblems;
      if (r->incremental) dirty_reusing += r->dirty_subproblems;
      reasons.push_back(r->incremental_reason);
      live = r->new_placement;
    }
    w.EndArray();
    EXPECT_GT(reused, 0);
    EXPECT_GT(dirty_reusing, 0);
    EXPECT_EQ(reasons.front(), "cold-start");
    EXPECT_EQ(reasons.back(), "drift-threshold");
    EXPECT_EQ(testing::Fnv1a(w.str()), "018d3f0b460a334d");
  }
}

}  // namespace
}  // namespace rasa
