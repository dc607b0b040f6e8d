// Micro-benchmarks of the substrate layers (google-benchmark): simplex
// pivots, branch-and-bound, graph partitioning, GCN forward/backward,
// objective evaluation and CG pricing. These are throughput sanity checks
// rather than paper figures.

#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "cluster/generator.h"
#include "common/rng.h"
#include "core/cg.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "core/partitioning.h"
#include "core/selector.h"
#include "graph/partition.h"
#include "lp/simplex.h"
#include "mip/solver.h"
#include "ml/gcn.h"

namespace rasa {
namespace {

LpModel RandomLp(int n, int k, uint64_t seed) {
  Rng rng(seed);
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  for (int j = 0; j < n; ++j) {
    m.AddVariable(0.0, rng.NextDouble(1.0, 10.0), rng.NextDouble(-1.0, 3.0));
  }
  for (int c = 0; c < k; ++c) {
    std::vector<LinearTerm> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.NextBool(0.5)) terms.push_back({j, rng.NextDouble(0.1, 2.0)});
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    m.AddConstraint(ConstraintType::kLessEqual, rng.NextDouble(2.0, 20.0),
                    std::move(terms));
  }
  return m;
}

void BM_SimplexSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  LpModel model = RandomLp(n, n / 2, 42);
  for (auto _ : state) {
    LpResult r = SolveLp(model);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_SimplexSolve)->Arg(16)->Arg(64)->Arg(256);

void BM_MipKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  LpModel m;
  m.SetObjectiveSense(ObjectiveSense::kMaximize);
  std::vector<LinearTerm> terms;
  for (int j = 0; j < n; ++j) {
    int v = m.AddVariable(0, 1, rng.NextDouble(1.0, 10.0));
    m.SetInteger(v);
    terms.push_back({v, rng.NextDouble(1.0, 5.0)});
  }
  m.AddConstraint(ConstraintType::kLessEqual, n * 0.8, std::move(terms));
  for (auto _ : state) {
    MipResult r = SolveMip(m);
    benchmark::DoNotOptimize(r.objective);
  }
}
BENCHMARK(BM_MipKnapsack)->Arg(10)->Arg(16);

void BM_MultiSourceBfsPartition(benchmark::State& state) {
  Rng rng(3);
  AffinityGraph g =
      GeneratePowerLawGraph(static_cast<int>(state.range(0)),
                            static_cast<int>(state.range(0)) * 2, 1.6, rng);
  std::vector<int> seeds = {0, 1, 2, 3};
  for (auto _ : state) {
    Partition p = MultiSourceBfsPartition(g, seeds);
    benchmark::DoNotOptimize(p.part_of.data());
  }
}
BENCHMARK(BM_MultiSourceBfsPartition)->Arg(200)->Arg(2000);

void BM_KahipLikePartition(benchmark::State& state) {
  Rng rng(4);
  AffinityGraph g = GeneratePowerLawGraph(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(0)) * 2,
      1.6, rng);
  for (auto _ : state) {
    Rng local(5);
    Partition p = KahipLikePartition(g, 4, local);
    benchmark::DoNotOptimize(p.part_of.data());
  }
}
BENCHMARK(BM_KahipLikePartition)->Arg(100)->Arg(400);

// Small-graph build and read: the induced subgraph of the `range(0)`
// heaviest vertices (the size of the blocks partitioning refines and the
// selector featurizes), then one walk over every neighbor list.
void BM_SmallGraphBuildAndRead(benchmark::State& state) {
  Rng rng(6);
  const AffinityGraph g = GeneratePowerLawGraph(400, 800, 1.6, rng);
  std::vector<int> block(static_cast<size_t>(state.range(0)));
  std::iota(block.begin(), block.end(), 0);
  for (auto _ : state) {
    const AffinityGraph sub = g.InducedSubgraph(block);
    double total = 0.0;
    for (int v = 0; v < sub.num_vertices(); ++v) {
      total += sub.TotalAffinityOf(v);
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_SmallGraphBuildAndRead)->Arg(16)->Arg(48);

void BM_GainedAffinity(benchmark::State& state) {
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(M1Spec(16.0));
  for (auto _ : state) {
    double v = GainedAffinity(*snapshot->cluster,
                              snapshot->original_placement);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_GainedAffinity);

void BM_MultiStagePartitioning(benchmark::State& state) {
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(M1Spec(16.0));
  for (auto _ : state) {
    PartitionResult r = PartitionServices(
        *snapshot->cluster, snapshot->original_placement, {});
    benchmark::DoNotOptimize(r.subproblems.data());
  }
}
BENCHMARK(BM_MultiStagePartitioning);

void BM_GcnForward(benchmark::State& state) {
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(M1Spec(32.0));
  PartitionResult partition = PartitionServices(
      *snapshot->cluster, snapshot->original_placement, {});
  GcnClassifier model(kSelectorFeatureDim, 16, 2, 11);
  FeatureGraph fg = BuildSubproblemFeatureGraph(
      *snapshot->cluster, partition.subproblems.front());
  for (auto _ : state) {
    int label = model.Predict(fg);
    benchmark::DoNotOptimize(label);
  }
}
BENCHMARK(BM_GcnForward);

void BM_GreedyAffinityPlace(benchmark::State& state) {
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(M1Spec(32.0));
  PartitionResult partition = PartitionServices(
      *snapshot->cluster, snapshot->original_placement, {});
  const Subproblem& sp = partition.subproblems.front();
  for (auto _ : state) {
    Placement scratch = partition.base_placement;
    SubproblemSolution s = GreedyAffinityPlace(*snapshot->cluster, sp,
                                               scratch);
    benchmark::DoNotOptimize(s.gained_affinity);
  }
}
BENCHMARK(BM_GreedyAffinityPlace);

void BM_ColumnGeneration(benchmark::State& state) {
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(M1Spec(32.0));
  PartitionResult partition = PartitionServices(
      *snapshot->cluster, snapshot->original_placement, {});
  const Subproblem& sp = partition.subproblems.front();
  for (auto _ : state) {
    CgOptions options;
    options.max_rounds = 5;
    StatusOr<SubproblemSolution> s = SolveSubproblemCg(
        *snapshot->cluster, sp, partition.base_placement,
        snapshot->original_placement, options);
    benchmark::DoNotOptimize(s.ok());
  }
}
BENCHMARK(BM_ColumnGeneration);

}  // namespace
}  // namespace rasa

BENCHMARK_MAIN();
