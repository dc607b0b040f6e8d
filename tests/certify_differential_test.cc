// Optimize's certify tail scores the current placement's affinity edges
// once and re-scores only the edges with an end whose machine map changed
// (RescoreEdgeRatios, WalkPlacements). This suite holds every figure it
// derives that way to a full pass, bit for bit: GainedAffinity of the
// current, base and final placements, DiffCount, and a diff audit that
// scores every edge on both placements and every service by lookups. The
// four runs cover each way the tail's placement changes: a cold run, POP
// splits, a fallback that places containers, and an incremental cycle
// whose base PlanFromDelta builds.

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "cluster/generator.h"
#include "common/logging.h"
#include "core/delta.h"
#include "core/explain.h"
#include "core/objective.h"
#include "core/rasa.h"
#include "gtest/gtest.h"
#include "rasa_test_util.h"

namespace rasa {
namespace {

// The diff audit by a full pass: every service's moved containers from
// CountOn lookups and every edge scored on both placements.
PlacementDiffAudit FullPassDiff(const Cluster& cluster,
                                const Placement& before,
                                const Placement& after, int top_k = 8) {
  PlacementDiffAudit audit;
  audit.moved_containers = after.DiffCount(before);
  for (int s = 0; s < cluster.num_services(); ++s) {
    int moved = 0;
    for (const auto& [machine, count] : after.MachinesOf(s)) {
      moved += std::max(0, count - before.CountOn(machine, s));
    }
    if (moved > 0) {
      audit.top_moved.push_back({s, cluster.service(s).name, moved});
    }
  }
  std::sort(audit.top_moved.begin(), audit.top_moved.end(),
            [](const auto& a, const auto& b) {
              return a.moved_containers != b.moved_containers
                         ? a.moved_containers > b.moved_containers
                         : a.service < b.service;
            });
  if (static_cast<int>(audit.top_moved.size()) > top_k) {
    audit.top_moved.resize(top_k);
  }
  for (const AffinityEdge& edge : cluster.affinity().edges()) {
    PlacementDiffAudit::PairLocalization p;
    p.u = edge.u;
    p.v = edge.v;
    p.name_u = cluster.service(edge.u).name;
    p.name_v = cluster.service(edge.v).name;
    p.weight = edge.weight;
    p.ratio_before = PairLocalizationRatio(cluster, before, edge.u, edge.v);
    p.ratio_after = PairLocalizationRatio(cluster, after, edge.u, edge.v);
    p.delta_affinity = edge.weight * (p.ratio_after - p.ratio_before);
    if (std::abs(p.delta_affinity) > 1e-12) audit.top_localized.push_back(p);
  }
  std::sort(audit.top_localized.begin(), audit.top_localized.end(),
            [](const auto& a, const auto& b) {
              if (a.delta_affinity != b.delta_affinity) {
                return a.delta_affinity > b.delta_affinity;
              }
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  if (static_cast<int>(audit.top_localized.size()) > top_k) {
    audit.top_localized.resize(top_k);
  }
  return audit;
}

void ExpectSameAudit(const PlacementDiffAudit& got,
                     const PlacementDiffAudit& want) {
  EXPECT_EQ(got.moved_containers, want.moved_containers);
  ASSERT_EQ(got.top_moved.size(), want.top_moved.size());
  for (size_t i = 0; i < want.top_moved.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got.top_moved[i].service, want.top_moved[i].service);
    EXPECT_EQ(got.top_moved[i].name, want.top_moved[i].name);
    EXPECT_EQ(got.top_moved[i].moved_containers,
              want.top_moved[i].moved_containers);
  }
  ASSERT_EQ(got.top_localized.size(), want.top_localized.size());
  for (size_t i = 0; i < want.top_localized.size(); ++i) {
    SCOPED_TRACE(i);
    const auto& g = got.top_localized[i];
    const auto& w = want.top_localized[i];
    EXPECT_EQ(g.u, w.u);
    EXPECT_EQ(g.v, w.v);
    EXPECT_EQ(g.name_u, w.name_u);
    EXPECT_EQ(g.name_v, w.name_v);
    EXPECT_EQ(g.weight, w.weight);
    EXPECT_EQ(g.ratio_before, w.ratio_before);
    EXPECT_EQ(g.ratio_after, w.ratio_after);
    EXPECT_EQ(g.delta_affinity, w.delta_affinity);
  }
}

// Holds `r`, a run from `current` whose subproblems `state` captured, to
// the full-pass oracle.
void ExpectTailMatchesFullPass(const Cluster& cluster, const Placement& current,
                               const IncrementalState& state,
                               const RasaResult& r) {
  const Placement& final_placement = r.new_placement;
  const double final_affinity = GainedAffinity(cluster, final_placement);
  EXPECT_EQ(r.original_gained_affinity, GainedAffinity(cluster, current));
  EXPECT_EQ(r.report.waterfall.original_gained_affinity,
            r.original_gained_affinity);

  // The base placement: the current one without the subproblems' services.
  Placement base = current;
  ASSERT_FALSE(state.subproblems.empty());
  for (const SubproblemCache& cache : state.subproblems) {
    for (int s : cache.subproblem.services) {
      const std::vector<std::pair<int, int>> on(
          base.MachinesOf(s).begin(), base.MachinesOf(s).end());
      for (const auto& [m, count] : on) {
        ASSERT_TRUE(base.Remove(m, s, count).ok());
      }
    }
  }
  EXPECT_EQ(r.report.waterfall.base_retained, GainedAffinity(cluster, base));

  EXPECT_EQ(r.new_gained_affinity, final_affinity);
  EXPECT_EQ(r.report.waterfall.total, final_affinity);
  EXPECT_EQ(r.report.certificate.achieved, final_affinity);

  EXPECT_EQ(r.moved_containers, final_placement.DiffCount(current));
  const PlacementDiffAudit oracle =
      FullPassDiff(cluster, current, final_placement);
  {
    SCOPED_TRACE("the run's audit");
    ExpectSameAudit(r.report.diff, oracle);
  }
  {
    SCOPED_TRACE("BuildPlacementDiff of the two placements");
    ExpectSameAudit(BuildPlacementDiff(cluster, current, final_placement),
                    oracle);
  }
  EXPECT_FALSE(oracle.top_localized.empty());
}

RasaOptions BaseOptions() {
  RasaOptions options;
  options.timeout_seconds = 60.0;
  options.partitioning.max_subproblem_services = 12;
  options.seed = 17;
  options.compute_migration = false;
  return options;
}

// One run on a fresh delta state, which captures its subproblems.
RasaResult RunCold(const ClusterSnapshot& snapshot, const RasaOptions& options,
                   IncrementalState& state) {
  const RasaOptimizer optimizer(options,
                                AlgorithmSelector(SelectorPolicy::kHeuristic));
  StatusOr<RasaResult> r =
      optimizer.Optimize(*snapshot.cluster, snapshot.original_placement,
                         OptimizeContext(nullptr, &state));
  RASA_CHECK(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->incremental);
  return *std::move(r);
}

int FallbackPlaced(const RasaResult& r) {
  int unplaced = 0;
  for (const LedgerRecord& rec : r.report.records) {
    unplaced += rec.unplaced_containers;
  }
  return unplaced - r.lost_containers;
}

TEST(CertifyDifferentialTest, ColdM1) {
  const ClusterSnapshot snapshot = testing::MakeSnapshot(M1Spec(64.0), 1);
  RasaOptions options;
  options.timeout_seconds = 60.0;
  options.compute_migration = false;
  IncrementalState state;
  const RasaResult r = RunCold(snapshot, options, state);
  ExpectTailMatchesFullPass(*snapshot.cluster, snapshot.original_placement,
                            state, r);
}

TEST(CertifyDifferentialTest, PopSplit) {
  const ClusterSnapshot snapshot = testing::MakeSnapshot(M1Spec(32.0), 5);
  RasaOptions options = BaseOptions();
  options.pop.max_services = 6;
  IncrementalState state;
  const RasaResult r = RunCold(snapshot, options, state);
  EXPECT_GT(r.pop_splits, 0);
  ExpectTailMatchesFullPass(*snapshot.cluster, snapshot.original_placement,
                            state, r);
}

TEST(CertifyDifferentialTest, FallbackPlacesContainers) {
  const ClusterSnapshot snapshot = testing::MakeSnapshot(M3Spec(32.0), 1);
  IncrementalState state;
  const RasaResult r = RunCold(snapshot, BaseOptions(), state);
  EXPECT_GT(FallbackPlaced(r), 0);
  EXPECT_NE(r.report.waterfall.fallback_delta, 0.0);
  ExpectTailMatchesFullPass(*snapshot.cluster, snapshot.original_placement,
                            state, r);
}

// A second cycle that re-weights the edges of the cached subproblem with
// the least internal affinity: the rest are reused, and PlanFromDelta
// builds the base placement. The cycle starts again from the snapshot's
// placement (the partition keeps trivial services in place, so the cache
// still holds), which gives the diff something to name.
TEST(CertifyDifferentialTest, IncrementalSecondCycle) {
  const ClusterSnapshot snapshot = testing::MakeSnapshot(M1Spec(32.0), 5);
  const RasaOptions options = BaseOptions();
  IncrementalState state;
  RunCold(snapshot, options, state);

  const SubproblemCache* lowest = &state.subproblems.front();
  for (const SubproblemCache& c : state.subproblems) {
    if (c.subproblem.internal_affinity < lowest->subproblem.internal_affinity) {
      lowest = &c;
    }
  }
  const Cluster& cold = *snapshot.cluster;
  std::vector<char> hit(cold.num_services(), 0);
  for (int s : lowest->subproblem.services) hit[s] = 1;
  AffinityGraph graph(cold.num_services());
  for (const AffinityEdge& e : cold.affinity().edges()) {
    const double weight = hit[e.u] || hit[e.v] ? e.weight * 1.3 : e.weight;
    ASSERT_TRUE(graph.AddEdge(e.u, e.v, weight).ok());
  }
  const Cluster drifted(cold.resource_names(), cold.services(),
                        cold.machines(), std::move(graph),
                        cold.anti_affinity());
  const Placement live = snapshot.original_placement.ReboundTo(drifted);

  const RasaOptimizer optimizer(options,
                                AlgorithmSelector(SelectorPolicy::kHeuristic));
  StatusOr<RasaResult> r =
      optimizer.Optimize(drifted, live, OptimizeContext(nullptr, &state));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->incremental);
  EXPECT_GT(r->reused_subproblems, 0);
  EXPECT_GT(r->dirty_subproblems, 0);
  ExpectTailMatchesFullPass(drifted, live, state, *r);
}

}  // namespace
}  // namespace rasa
