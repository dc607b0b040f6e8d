#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"
#include "graph/affinity_graph.h"
#include "graph/partition.h"
#include "graph/powerlaw_fit.h"
#include "gtest/gtest.h"

namespace rasa {
namespace {

AffinityGraph Triangle() {
  AffinityGraph g(3);
  EXPECT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  EXPECT_TRUE(g.AddEdge(1, 2, 2.0).ok());
  EXPECT_TRUE(g.AddEdge(0, 2, 3.0).ok());
  return g;
}

// The view API dropped random-access weight lookup; tests scan the span.
double EdgeWeightOf(const AffinityGraph& g, int u, int v) {
  for (const auto& [nbr, w] : g.Neighbors(u)) {
    if (nbr == v) return w;
  }
  return 0.0;
}

TEST(AffinityGraphTest, BasicAccessors) {
  AffinityGraph g = Triangle();
  EXPECT_EQ(g.num_vertices(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_DOUBLE_EQ(EdgeWeightOf(g, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(EdgeWeightOf(g, 1, 0), 1.0);
  EXPECT_DOUBLE_EQ(EdgeWeightOf(g, 0, 2), 3.0);
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 6.0);
  EXPECT_DOUBLE_EQ(g.TotalAffinityOf(0), 4.0);
  EXPECT_EQ(g.Degree(1), 2);
}

TEST(AffinityGraphTest, RejectsSelfLoopAndBadInput) {
  AffinityGraph g(3);
  EXPECT_FALSE(g.AddEdge(1, 1, 1.0).ok());
  EXPECT_FALSE(g.AddEdge(0, 5, 1.0).ok());
  EXPECT_FALSE(g.AddEdge(0, 1, 0.0).ok());
  EXPECT_FALSE(g.AddEdge(0, 1, -1.0).ok());
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(AffinityGraphTest, ParallelEdgesAccumulate) {
  AffinityGraph g(2);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  ASSERT_TRUE(g.AddEdge(1, 0, 2.5).ok());
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(EdgeWeightOf(g, 0, 1), 3.5);
  EXPECT_DOUBLE_EQ(g.TotalAffinityOf(0), 3.5);
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 3.5);
}

TEST(AffinityGraphTest, NormalizeWeights) {
  AffinityGraph g = Triangle();
  g.NormalizeWeights();
  EXPECT_NEAR(g.TotalWeight(), 1.0, 1e-12);
  EXPECT_NEAR(EdgeWeightOf(g, 0, 2), 0.5, 1e-12);
  EXPECT_NEAR(g.TotalAffinityOf(0), 4.0 / 6.0, 1e-12);
}

TEST(AffinityGraphTest, NormalizeEmptyGraphIsNoop) {
  AffinityGraph g(3);
  g.NormalizeWeights();
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 0.0);
}

TEST(AffinityGraphTest, InducedSubgraph) {
  AffinityGraph g = Triangle();
  AffinityGraph sub = g.InducedSubgraph({0, 2});
  EXPECT_EQ(sub.num_vertices(), 2);
  EXPECT_EQ(sub.num_edges(), 1);
  EXPECT_DOUBLE_EQ(EdgeWeightOf(sub, 0, 1), 3.0);
}

TEST(AffinityGraphTest, ConnectedComponents) {
  AffinityGraph g(6);
  g.AddEdge(0, 1, 1);
  g.AddEdge(1, 2, 1);
  g.AddEdge(3, 4, 1);
  int count = 0;
  std::vector<int> comp = g.ConnectedComponents(&count);
  EXPECT_EQ(count, 3);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[0], comp[5]);
  EXPECT_NE(comp[3], comp[5]);
}

TEST(AffinityGraphTest, CutWeight) {
  AffinityGraph g = Triangle();
  EXPECT_DOUBLE_EQ(g.CutWeight({0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(g.CutWeight({0, 1, 0}), 3.0);  // edges (0,1) + (1,2)
  EXPECT_DOUBLE_EQ(g.CutWeight({0, 1, 2}), 6.0);
}

// The view API must not depend on the vertex count: the same edge script
// on a 10-vertex and a 100-vertex graph leaves the extra vertices
// isolated, so shared vertices must agree exactly — including neighbor
// iteration order.
TEST(AffinityGraphTest, SmallAndLargeGraphsAgree) {
  AffinityGraph small(10);
  AffinityGraph large(100);
  Rng rng(33);
  for (int i = 0; i < 60; ++i) {
    const int u = static_cast<int>(rng.NextUint64(10));
    const int v = static_cast<int>(rng.NextUint64(10));
    if (u == v) continue;
    const double w = 0.25 + rng.NextDouble();
    ASSERT_EQ(small.AddEdge(u, v, w).ok(), large.AddEdge(u, v, w).ok());
  }
  ASSERT_EQ(small.num_edges(), large.num_edges());
  for (int v = 0; v < 10; ++v) {
    ASSERT_EQ(small.Degree(v), large.Degree(v)) << "vertex " << v;
    const auto a = small.Neighbors(v);
    const auto b = large.Neighbors(v);
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].first, b[i].first) << "vertex " << v << " slot " << i;
      EXPECT_EQ(a[i].second, b[i].second) << "vertex " << v << " slot " << i;
    }
    EXPECT_EQ(small.TotalAffinityOf(v), large.TotalAffinityOf(v));
  }
  EXPECT_DOUBLE_EQ(small.TotalWeight(), large.TotalWeight());
}

TEST(AffinityGraphTest, CsrRebuildsAfterMutation) {
  AffinityGraph g(80);
  ASSERT_TRUE(g.AddEdge(0, 1, 1.0).ok());
  EXPECT_EQ(g.Degree(0), 1);  // forces the CSR build
  ASSERT_TRUE(g.AddEdge(0, 2, 2.0).ok());   // new edge invalidates it
  ASSERT_TRUE(g.AddEdge(1, 0, 0.5).ok());   // duplicate accumulates
  EXPECT_EQ(g.Degree(0), 2);
  EXPECT_DOUBLE_EQ(EdgeWeightOf(g, 0, 1), 1.5);
  EXPECT_DOUBLE_EQ(EdgeWeightOf(g, 0, 2), 2.0);
  g.NormalizeWeights();
  EXPECT_NEAR(g.TotalWeight(), 1.0, 1e-12);
  EXPECT_NEAR(EdgeWeightOf(g, 0, 2), 2.0 / 3.5, 1e-12);
  // Neighbor order is edge first-insertion order.
  const auto nbrs = g.Neighbors(0);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0].first, 1);
  EXPECT_EQ(nbrs[1].first, 2);
}

TEST(AffinityGraphTest, FinalizeIsIdempotent) {
  AffinityGraph g(80);
  ASSERT_TRUE(g.AddEdge(3, 4, 1.25).ok());
  g.Finalize();
  g.Finalize();
  EXPECT_EQ(g.Degree(3), 1);
  EXPECT_DOUBLE_EQ(EdgeWeightOf(g, 4, 3), 1.25);
}

TEST(PowerLawGraphTest, GeneratesRequestedShape) {
  Rng rng(5);
  AffinityGraph g = GeneratePowerLawGraph(100, 150, 1.6, rng);
  EXPECT_EQ(g.num_vertices(), 100);
  EXPECT_GT(g.num_edges(), 100);
  EXPECT_LE(g.num_edges(), 150);
}

TEST(PowerLawGraphTest, TotalAffinityIsSkewed) {
  Rng rng(6);
  AffinityGraph g = GeneratePowerLawGraph(200, 400, 1.8, rng);
  // Top 10% of services should carry well over half the affinity.
  EXPECT_GT(TopKAffinityShare(g, 20), 0.5);
}


TEST(PowerLawGraphTest, RespectsDegreeCap) {
  Rng rng(21);
  AffinityGraph g = GeneratePowerLawGraph(150, 300, 1.6, rng,
                                          /*max_degree=*/6);
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(g.Degree(v), 6) << "vertex " << v;
  }
}

TEST(PowerLawGraphTest, SinkhornHitsRankTargets) {
  // The fitted weights should put T(s) close to the (s+2)^-beta target for
  // the head of the ranking.
  Rng rng(22);
  const double beta = 1.5;
  AffinityGraph g = GeneratePowerLawGraph(300, 500, beta, rng);
  std::vector<double> totals = SortedTotalAffinities(g);
  // Compare the head decay rate against the target decay rate.
  const double measured_ratio = totals[0] / totals[9];
  const double target_ratio =
      std::pow(2.0, -beta) / std::pow(11.0, -beta);
  EXPECT_GT(measured_ratio, 0.3 * target_ratio);
  EXPECT_LT(measured_ratio, 3.0 * target_ratio);
}
TEST(PowerLawFitTest, RecoversExponentOnSyntheticData) {
  std::vector<double> values;
  for (int s = 1; s <= 200; ++s) values.push_back(10.0 * std::pow(s, -1.5));
  DecayFit fit = FitPowerLaw(values);
  EXPECT_NEAR(fit.exponent, 1.5, 1e-6);
  EXPECT_NEAR(fit.scale, 10.0, 1e-6);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(PowerLawFitTest, ExponentialFitRecoversRate) {
  std::vector<double> values;
  for (int s = 1; s <= 100; ++s) values.push_back(4.0 * std::exp(-0.1 * s));
  DecayFit fit = FitExponential(values);
  EXPECT_NEAR(fit.exponent, 0.1, 1e-9);
  EXPECT_NEAR(fit.scale, 4.0, 1e-9);
}

TEST(PowerLawFitTest, PowerLawDataPrefersPowerLawFit) {
  // The Fig. 5 claim: on power-law data the power-law fit has better R^2
  // than the exponential fit.
  std::vector<double> values;
  Rng rng(7);
  for (int s = 1; s <= 150; ++s) {
    values.push_back(std::pow(s, -1.4) * (0.9 + 0.2 * rng.NextDouble()));
  }
  DecayFit power = FitPowerLaw(values);
  DecayFit expo = FitExponential(values);
  EXPECT_GT(power.r_squared, expo.r_squared);
}

TEST(PowerLawFitTest, SkipsNonPositiveValues) {
  DecayFit fit = FitPowerLaw({1.0, 0.0, 0.25, -1.0});
  EXPECT_GT(fit.exponent, 0.0);  // fitted on ranks 1 and 3 only
}

TEST(PowerLawFitTest, SortedTotalAffinitiesDescending) {
  AffinityGraph g = Triangle();
  std::vector<double> totals = SortedTotalAffinities(g);
  ASSERT_EQ(totals.size(), 3u);
  EXPECT_TRUE(std::is_sorted(totals.rbegin(), totals.rend()));
  EXPECT_DOUBLE_EQ(totals[0], 5.0);
}

// ----------------------------------------------------------- Partitions ---

TEST(PartitionTest, MultiSourceBfsCoversAllVertices) {
  Rng rng(8);
  AffinityGraph g = GeneratePowerLawGraph(60, 100, 1.5, rng);
  Partition p = MultiSourceBfsPartition(g, {0, 5, 11});
  EXPECT_EQ(p.num_parts, 3);
  for (int v = 0; v < g.num_vertices(); ++v) {
    EXPECT_GE(p.part_of[v], 0);
    EXPECT_LT(p.part_of[v], 3);
  }
  EXPECT_EQ(p.part_of[0], 0);
  EXPECT_EQ(p.part_of[5], 1);
  EXPECT_EQ(p.part_of[11], 2);
}

TEST(PartitionTest, PartSizesAndBalanceRatio) {
  Partition p;
  p.num_parts = 2;
  p.part_of = {0, 0, 0, 1};
  EXPECT_EQ(p.PartSizes(), (std::vector<int>{3, 1}));
  EXPECT_DOUBLE_EQ(p.BalanceRatio(), 3.0);
  EXPECT_EQ(p.Groups()[1], (std::vector<int>{3}));
}

TEST(PartitionTest, RandomPartitionIsBalanced) {
  Rng rng(9);
  AffinityGraph g(100);
  Partition p = RandomPartition(g, 4, rng);
  std::vector<int> sizes = p.PartSizes();
  for (int s : sizes) EXPECT_EQ(s, 25);
}

TEST(PartitionTest, LossMinPartitionIsBalancedAndDisjoint) {
  Rng rng(10);
  AffinityGraph g = GeneratePowerLawGraph(80, 160, 1.5, rng);
  Partition p = LossMinBalancedPartition(g, 4, 32, rng);
  EXPECT_EQ(p.num_parts, 4);
  std::set<int> used;
  for (int v = 0; v < 80; ++v) {
    EXPECT_GE(p.part_of[v], 0);
    used.insert(p.part_of[v]);
  }
  EXPECT_LE(p.BalanceRatio(), 6.0);  // fallback allows some imbalance
}

TEST(PartitionTest, LossMinBeatsRandomOnCutWeight) {
  Rng rng(11);
  AffinityGraph g = GeneratePowerLawGraph(100, 220, 1.6, rng);
  Rng r1(1), r2(1);
  Partition loss_min = LossMinBalancedPartition(g, 4, 48, r1);
  Partition random = RandomPartition(g, 4, r2);
  EXPECT_LT(g.CutWeight(loss_min.part_of), g.CutWeight(random.part_of));
}

TEST(PartitionTest, KahipLikeProducesBalancedLowCut) {
  Rng rng(12);
  AffinityGraph g = GeneratePowerLawGraph(90, 200, 1.5, rng);
  Rng r1(2), r2(2);
  Partition kahip = KahipLikePartition(g, 3, r1);
  EXPECT_EQ(kahip.num_parts, 3);
  std::vector<int> sizes = kahip.PartSizes();
  int total = 0;
  for (int s : sizes) total += s;
  EXPECT_EQ(total, 90);
  Partition random = RandomPartition(g, 3, r2);
  EXPECT_LE(g.CutWeight(kahip.part_of), g.CutWeight(random.part_of));
}

TEST(PartitionTest, KlRefinementNeverWorsensCut) {
  Rng rng(13);
  AffinityGraph g = GeneratePowerLawGraph(70, 150, 1.5, rng);
  Partition p = RandomPartition(g, 3, rng);
  const double before = g.CutWeight(p.part_of);
  std::vector<int> ceilings(3, 70);
  RefinePartitionKl(g, p, ceilings);
  EXPECT_LE(g.CutWeight(p.part_of), before + 1e-12);
}

TEST(PartitionTest, KlRefinementRespectsSizeCeilings) {
  Rng rng(14);
  AffinityGraph g = GeneratePowerLawGraph(40, 90, 1.5, rng);
  Partition p = RandomPartition(g, 2, rng);
  std::vector<int> ceilings = {22, 22};
  RefinePartitionKl(g, p, ceilings);
  std::vector<int> sizes = p.PartSizes();
  EXPECT_LE(sizes[0], 22);
  EXPECT_LE(sizes[1], 22);
}

TEST(PartitionTest, SinglePartDegenerateCases) {
  Rng rng(15);
  AffinityGraph g(10);
  Partition p = LossMinBalancedPartition(g, 1, 4, rng);
  EXPECT_EQ(p.num_parts, 1);
  Partition k = KahipLikePartition(g, 1, rng);
  EXPECT_EQ(k.num_parts, 1);
  for (int v = 0; v < 10; ++v) EXPECT_EQ(k.part_of[v], 0);
}

TEST(PartitionTest, EmptyGraphHandled) {
  Rng rng(16);
  AffinityGraph g;
  Partition p = KahipLikePartition(g, 3, rng);
  EXPECT_TRUE(p.part_of.empty());
  Partition q = LossMinBalancedPartition(g, 2, 4, rng);
  EXPECT_TRUE(q.part_of.empty());
}

}  // namespace
}  // namespace rasa
