#include "core/objective.h"

#include <algorithm>

#include "core/subproblem.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace rasa {
namespace {

using ::rasa::testing::ClusterBuilder;

// Two services, 50% of pair traffic collocatable — the Fig. 2(a) example.
TEST(ObjectiveTest, PaperFigureTwoExample) {
  auto cluster = ClusterBuilder()
                     .AddService(2, {1.0})  // Service A: 2 containers
                     .AddService(2, {1.0})  // Service B: 2 containers
                     .AddMachine({10.0})
                     .AddMachine({10.0})
                     .AddMachine({10.0})
                     .AddAffinity(0, 1, 1.0)
                     .Build();
  Placement p(*cluster);
  // One A and one B collocated on machine 0; the other two containers on
  // separate machines.
  p.Add(0, 0, 1);
  p.Add(0, 1, 1);
  p.Add(1, 0, 1);
  p.Add(2, 1, 1);
  EXPECT_DOUBLE_EQ(
      PairGainedAffinityOnMachine(*cluster, p, 0, 1, 1.0, 0), 0.5);
  EXPECT_DOUBLE_EQ(PairLocalizationRatio(*cluster, p, 0, 1), 0.5);
  EXPECT_DOUBLE_EQ(GainedAffinity(*cluster, p), 0.5);
}

TEST(ObjectiveTest, FullCollocationReachesTotalAffinity) {
  auto cluster = ClusterBuilder()
                     .AddService(2, {1.0})
                     .AddService(2, {1.0})
                     .AddMachine({10.0})
                     .AddMachine({10.0})
                     .AddAffinity(0, 1, 1.0)
                     .Build();
  Placement p(*cluster);
  p.Add(0, 0, 1);
  p.Add(0, 1, 1);
  p.Add(1, 0, 1);
  p.Add(1, 1, 1);
  EXPECT_DOUBLE_EQ(GainedAffinity(*cluster, p), 1.0);
}

TEST(ObjectiveTest, NoCollocationGainsNothing) {
  auto cluster = ClusterBuilder()
                     .AddService(1, {1.0})
                     .AddService(1, {1.0})
                     .AddMachine({10.0})
                     .AddMachine({10.0})
                     .AddAffinity(0, 1, 0.7)
                     .Build();
  Placement p(*cluster);
  p.Add(0, 0, 1);
  p.Add(1, 1, 1);
  EXPECT_DOUBLE_EQ(GainedAffinity(*cluster, p), 0.0);
}

TEST(ObjectiveTest, MinTakesBottleneckSide) {
  // d_A = 4 with 3 on the machine; d_B = 2 with 1 on the machine:
  // min(3/4, 1/2) = 1/2.
  auto cluster = ClusterBuilder()
                     .AddService(4, {1.0})
                     .AddService(2, {1.0})
                     .AddMachine({10.0})
                     .AddMachine({10.0})
                     .AddAffinity(0, 1, 1.0)
                     .Build();
  Placement p(*cluster);
  p.Add(0, 0, 3);
  p.Add(0, 1, 1);
  p.Add(1, 0, 1);
  p.Add(1, 1, 1);
  EXPECT_DOUBLE_EQ(
      PairGainedAffinityOnMachine(*cluster, p, 0, 1, 1.0, 0), 0.5);
  EXPECT_DOUBLE_EQ(PairGainedAffinityOnMachine(*cluster, p, 0, 1, 1.0, 1),
                   0.25);
  EXPECT_DOUBLE_EQ(PairLocalizationRatio(*cluster, p, 0, 1), 0.75);
}

TEST(ObjectiveTest, RatioIsCappedAtOne) {
  // Under-deployment quirks cannot push the ratio past 1.
  auto cluster = ClusterBuilder()
                     .AddService(1, {1.0})
                     .AddService(1, {1.0})
                     .AddMachine({10.0})
                     .AddAffinity(0, 1, 1.0)
                     .Build();
  Placement p(*cluster);
  p.Add(0, 0, 1);
  p.Add(0, 1, 1);
  EXPECT_DOUBLE_EQ(PairLocalizationRatio(*cluster, p, 0, 1), 1.0);
}

TEST(ObjectiveTest, ZeroDemandServiceContributesNothing) {
  auto cluster = ClusterBuilder()
                     .AddService(0, {1.0})
                     .AddService(1, {1.0})
                     .AddMachine({10.0})
                     .AddAffinity(0, 1, 1.0)
                     .Build();
  Placement p(*cluster);
  p.Add(0, 1, 1);
  EXPECT_DOUBLE_EQ(GainedAffinity(*cluster, p), 0.0);
}

TEST(ObjectiveTest, WeightsScaleContributions) {
  auto cluster = ClusterBuilder()
                     .AddService(1, {1.0})
                     .AddService(1, {1.0})
                     .AddService(1, {1.0})
                     .AddMachine({10.0})
                     .AddAffinity(0, 1, 0.3)
                     .AddAffinity(1, 2, 0.7)
                     .Build();
  Placement p(*cluster);
  p.Add(0, 0, 1);
  p.Add(0, 1, 1);
  p.Add(0, 2, 1);
  EXPECT_DOUBLE_EQ(GainedAffinity(*cluster, p), 1.0);
  ASSERT_TRUE(p.Remove(0, 2, 1).ok());
  EXPECT_DOUBLE_EQ(GainedAffinity(*cluster, p), 0.3);
}

TEST(ObjectiveTest, EdgeLocalizationRatiosAlignWithEdges) {
  auto cluster = ClusterBuilder()
                     .AddService(1, {1.0})
                     .AddService(1, {1.0})
                     .AddService(1, {1.0})
                     .AddMachine({10.0})
                     .AddMachine({10.0})
                     .AddAffinity(0, 1, 0.4)
                     .AddAffinity(0, 2, 0.6)
                     .Build();
  Placement p(*cluster);
  p.Add(0, 0, 1);
  p.Add(0, 1, 1);
  p.Add(1, 2, 1);
  std::vector<double> ratios = EdgeLocalizationRatios(*cluster, p);
  ASSERT_EQ(ratios.size(), 2u);
  const auto& edges = cluster->affinity().edges();
  for (size_t i = 0; i < edges.size(); ++i) {
    if (edges[i].v == 1) {
      EXPECT_DOUBLE_EQ(ratios[i], 1.0);
    } else {
      EXPECT_DOUBLE_EQ(ratios[i], 0.0);
    }
  }
}

// Definition 1's ratio by a scan of every machine in ascending order.
double ScanLocalizationRatio(const Cluster& cluster, const Placement& p, int s,
                             int s_prime) {
  const int d_s = cluster.service(s).demand;
  const int d_sp = cluster.service(s_prime).demand;
  double ratio = 0.0;
  for (int m = 0; m < cluster.num_machines(); ++m) {
    const int x_s = p.CountOn(m, s);
    const int x_sp = p.CountOn(m, s_prime);
    if (x_s == 0 || x_sp == 0) continue;
    ratio += std::min(static_cast<double>(x_s) / d_s,
                      static_cast<double>(x_sp) / d_sp);
  }
  return std::min(ratio, 1.0);
}

// The ratio walks the smaller footprint and looks the partner up in its own
// machine map; the terms and their order must be the machine scan's, so
// the two agree bit for bit whichever side is smaller.
TEST(ObjectiveTest, PairLocalizationRatioMatchesMachineScan) {
  ClusterBuilder builder;
  builder.AddService(7, {1.0})    // 0: one machine
      .AddService(13, {1.0})      // 1: thirteen machines
      .AddService(30, {1.0})      // 2: service 1's machines, other counts
      .AddService(5, {1.0})       // 3: machines 0-4
      .AddService(5, {1.0})       // 4: machines 10-14
      .AddService(3, {1.0})       // 5: over-placed, 9 containers
      .AddService(3, {1.0});      // 6: over-placed, 9 containers
  for (int m = 0; m < 16; ++m) builder.AddMachine({1000.0});
  auto cluster = builder.AddAffinity(0, 1, 0.2)
                     .AddAffinity(1, 2, 0.2)
                     .AddAffinity(3, 4, 0.2)
                     .AddAffinity(5, 6, 0.2)
                     .AddAffinity(0, 2, 0.2)
                     .Build();
  Placement p(*cluster);
  p.Add(6, 0, 7);
  for (int m = 1; m <= 13; ++m) {
    p.Add(m, 1, 1);
    p.Add(m, 2, 1 + m % 3);
  }
  for (int m = 0; m < 5; ++m) p.Add(m, 3, 1);
  for (int m = 10; m < 15; ++m) p.Add(m, 4, 1);
  for (int m = 0; m < 3; ++m) {
    p.Add(m, 5, 3);
    p.Add(m, 6, 3);
  }
  const struct {
    const char* name;
    int s;
    int s_prime;
  } cases[] = {{"unbalanced", 0, 1},
               {"unbalanced with a partial term", 0, 2},
               {"equal footprints", 1, 2},
               {"disjoint", 3, 4},
               {"capped at 1", 5, 6}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const double scan = ScanLocalizationRatio(*cluster, p, c.s, c.s_prime);
    EXPECT_EQ(PairLocalizationRatio(*cluster, p, c.s, c.s_prime), scan);
    EXPECT_EQ(PairLocalizationRatio(*cluster, p, c.s_prime, c.s), scan);
  }
  EXPECT_EQ(PairLocalizationRatio(*cluster, p, 3, 4), 0.0);
  EXPECT_EQ(PairLocalizationRatio(*cluster, p, 5, 6), 1.0);
  EXPECT_GT(ScanLocalizationRatio(*cluster, p, 1, 2), 0.5);
  EXPECT_LT(ScanLocalizationRatio(*cluster, p, 1, 2), 1.0);
}

// ----------------------------------------------------------- Subproblem ---

TEST(SubproblemTest, PopulateEdgesKeepsInternalOnly) {
  auto cluster = ClusterBuilder()
                     .AddService(1, {1.0})
                     .AddService(1, {1.0})
                     .AddService(1, {1.0})
                     .AddMachine({10.0})
                     .AddAffinity(0, 1, 0.4)
                     .AddAffinity(1, 2, 0.6)
                     .Build();
  Subproblem sp;
  sp.services = {0, 1};
  PopulateSubproblemEdges(*cluster, sp);
  ASSERT_EQ(sp.edges.size(), 1u);
  EXPECT_EQ(sp.edges[0].u, 0);
  EXPECT_EQ(sp.edges[0].v, 1);
  EXPECT_DOUBLE_EQ(sp.internal_affinity, 0.4);
}

TEST(SubproblemTest, ResidualCapacityAccountsForBaseResidents) {
  auto cluster = ClusterBuilder()
                     .AddService(2, {3.0})
                     .AddMachine({10.0})
                     .Build();
  Placement base(*cluster);
  base.Add(0, 0, 2);
  EXPECT_DOUBLE_EQ(ResidualCapacity(*cluster, base, 0, 0), 4.0);
}

TEST(SubproblemTest, ResidualRuleLimitAccountsForResidents) {
  auto cluster = ClusterBuilder()
                     .AddService(4, {1.0})
                     .AddMachine({10.0})
                     .AddRule({0}, 3)
                     .Build();
  Placement base(*cluster);
  base.Add(0, 0, 2);
  EXPECT_EQ(ResidualRuleLimit(*cluster, base, 0, 0), 1);
}

TEST(SubproblemTest, GainedAffinityMatchesObjectiveModule) {
  auto cluster = ClusterBuilder()
                     .AddService(2, {1.0})
                     .AddService(2, {1.0})
                     .AddMachine({10.0})
                     .AddMachine({10.0})
                     .AddAffinity(0, 1, 1.0)
                     .Build();
  Subproblem sp;
  sp.services = {0, 1};
  sp.machines = {0, 1};
  PopulateSubproblemEdges(*cluster, sp);
  // x: service 0 -> [1 on m0, 1 on m1], service 1 -> [1 on m0, 1 on m1].
  std::vector<std::vector<int>> x = {{1, 1}, {1, 1}};
  EXPECT_DOUBLE_EQ(SubproblemGainedAffinity(*cluster, sp, x), 1.0);
  std::vector<std::vector<int>> y = {{2, 0}, {0, 2}};
  EXPECT_DOUBLE_EQ(SubproblemGainedAffinity(*cluster, sp, y), 0.0);
}

}  // namespace
}  // namespace rasa
