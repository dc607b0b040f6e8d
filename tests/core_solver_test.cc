#include <algorithm>

#include "cluster/generator.h"
#include "core/algorithm_pool.h"
#include "core/cg.h"
#include "core/greedy.h"
#include "core/mip_algorithm.h"
#include "core/partitioning.h"
#include "core/selector.h"
#include "golden_cg_inputs.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace rasa {
namespace {

using ::rasa::testing::ClusterBuilder;

// Pair cluster where full collocation is feasible and optimal.
struct PairCase {
  std::shared_ptr<Cluster> cluster;
  Subproblem sp;
  Placement base;

  PairCase() {
    cluster = ClusterBuilder()
                  .AddService(2, {1.0})
                  .AddService(2, {1.0})
                  .AddMachine({4.0})
                  .AddMachine({4.0})
                  .AddAffinity(0, 1, 1.0)
                  .Build();
    sp.services = {0, 1};
    sp.machines = {0, 1};
    PopulateSubproblemEdges(*cluster, sp);
    base = Placement(*cluster);
  }
};

// Applies a subproblem solution to a copy of base and audits feasibility.
Placement ApplySolution(const Cluster& cluster, const Placement& base,
                        const SubproblemSolution& solution) {
  Placement p = base;
  for (const SubproblemSolution::Assignment& a : solution.assignments) {
    EXPECT_TRUE(p.CanPlace(a.machine, a.service, a.count))
        << "svc " << a.service << " x" << a.count << " on " << a.machine;
    p.Add(a.machine, a.service, a.count);
  }
  EXPECT_TRUE(p.CheckFeasible(false).ok());
  return p;
}

// ------------------------------------------------------------- Greedy -----

TEST(GreedyTest, CollocatesThePair) {
  PairCase c;
  Placement working = c.base;
  SubproblemSolution solution = GreedyAffinityPlace(*c.cluster, c.sp, working);
  EXPECT_EQ(solution.unplaced_containers, 0);
  EXPECT_NEAR(solution.gained_affinity, 1.0, 1e-9);
}

TEST(GreedyTest, MarginalGainMatchesDefinition) {
  PairCase c;
  Placement working = c.base;
  working.Add(0, 1, 1);  // one container of service 1 on machine 0
  // Adding one container of service 0 (d=2) to machine 0:
  // min(1/2, 1/2) - min(0, 1/2) = 0.5.
  EXPECT_NEAR(MarginalGain(*c.cluster, c.sp, working, 0, 0), 0.5, 1e-12);
  EXPECT_NEAR(MarginalGain(*c.cluster, c.sp, working, 0, 1), 0.0, 1e-12);
}

TEST(GreedyTest, RespectsResourceLimits) {
  auto cluster = ClusterBuilder()
                     .AddService(4, {2.0})
                     .AddMachine({4.0})  // fits only 2
                     .Build();
  Subproblem sp;
  sp.services = {0};
  sp.machines = {0};
  PopulateSubproblemEdges(*cluster, sp);
  Placement working(*cluster);
  SubproblemSolution solution = GreedyAffinityPlace(*cluster, sp, working);
  EXPECT_EQ(solution.unplaced_containers, 2);
  EXPECT_EQ(working.CountOn(0, 0), 2);
}

TEST(GreedyTest, RespectsAntiAffinity) {
  auto cluster = ClusterBuilder()
                     .AddService(4, {1.0})
                     .AddMachine({10.0})
                     .AddMachine({10.0})
                     .AddRule({0}, 2)
                     .Build();
  Subproblem sp;
  sp.services = {0};
  sp.machines = {0, 1};
  PopulateSubproblemEdges(*cluster, sp);
  Placement working(*cluster);
  SubproblemSolution solution = GreedyAffinityPlace(*cluster, sp, working);
  EXPECT_EQ(solution.unplaced_containers, 0);
  EXPECT_LE(working.CountOn(0, 0), 2);
  EXPECT_LE(working.CountOn(1, 0), 2);
}

// ---------------------------------------------------------------- MIP -----

TEST(MipAlgorithmTest, SolvesPairCaseOptimally) {
  PairCase c;
  StatusOr<SubproblemSolution> solution =
      SolveSubproblemMip(*c.cluster, c.sp, c.base);
  ASSERT_TRUE(solution.ok());
  EXPECT_NEAR(solution->gained_affinity, 1.0, 1e-6);
  EXPECT_EQ(solution->unplaced_containers, 0);
  ApplySolution(*c.cluster, c.base, *solution);
}

TEST(MipAlgorithmTest, BeatsNaiveSplitOnAsymmetricCase) {
  // Three services, heavy edge (0,1), light edge (1,2); machine space
  // forces a choice. MIP should favor the heavy edge.
  auto cluster = ClusterBuilder()
                     .AddService(1, {1.0})
                     .AddService(1, {1.0})
                     .AddService(1, {1.0})
                     .AddMachine({2.0})
                     .AddMachine({2.0})
                     .AddAffinity(0, 1, 0.9)
                     .AddAffinity(1, 2, 0.1)
                     .Build();
  Subproblem sp;
  sp.services = {0, 1, 2};
  sp.machines = {0, 1};
  PopulateSubproblemEdges(*cluster, sp);
  Placement base(*cluster);
  StatusOr<SubproblemSolution> solution =
      SolveSubproblemMip(*cluster, sp, base);
  ASSERT_TRUE(solution.ok());
  EXPECT_NEAR(solution->gained_affinity, 0.9, 1e-6);
}

TEST(MipAlgorithmTest, RespectsResidualsFromBase) {
  auto cluster = ClusterBuilder()
                     .AddService(2, {1.0})
                     .AddService(2, {2.0})  // resident service
                     .AddMachine({4.0})
                     .AddAffinity(0, 1, 1.0)
                     .Build();
  Placement base(*cluster);
  base.Add(0, 1, 2);  // residents use all but 0 cpu... 4-4=0 left? 2*2=4.
  Subproblem sp;
  sp.services = {0};
  sp.machines = {0};
  PopulateSubproblemEdges(*cluster, sp);
  StatusOr<SubproblemSolution> solution =
      SolveSubproblemMip(*cluster, sp, base);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->unplaced_containers, 2);  // no residual capacity
}

TEST(MipAlgorithmTest, ModelSizeCapReportsResourceExhausted) {
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(M1Spec(32.0));
  ASSERT_TRUE(snapshot.ok());
  Subproblem sp;
  for (int s = 0; s < snapshot->cluster->num_services(); ++s) {
    sp.services.push_back(s);
  }
  for (int m = 0; m < snapshot->cluster->num_machines(); ++m) {
    sp.machines.push_back(m);
  }
  PopulateSubproblemEdges(*snapshot->cluster, sp);
  MipAlgorithmOptions options;
  options.max_model_rows = 500;
  Placement base(*snapshot->cluster);
  StatusOr<SubproblemSolution> solution =
      SolveSubproblemMip(*snapshot->cluster, sp, base, options);
  ASSERT_FALSE(solution.ok());
  EXPECT_EQ(solution.status().code(), StatusCode::kResourceExhausted);
}

TEST(MipAlgorithmTest, BuildProducesFaithfulModel) {
  PairCase c;
  StatusOr<SubproblemMip> mip =
      BuildSubproblemMip(*c.cluster, c.sp, c.base, 100000);
  ASSERT_TRUE(mip.ok());
  // 2 services x 2 machines = 4 integer x vars + 1 edge x 2 machines a vars.
  EXPECT_EQ(mip->model.num_variables(), 6);
  EXPECT_EQ(mip->model.num_integer_variables(), 4);
  // Rows: 2 SLA + 2 capacity (1 resource x 2 machines) + 4 linearization.
  EXPECT_EQ(mip->model.num_constraints(), 8);
}

TEST(MipAlgorithmTest, SchedulabilityZerosUpperBounds) {
  auto cluster = ClusterBuilder()
                     .AddService(1, {1.0}, /*platform=*/1)
                     .AddMachine({4.0}, 0, /*platform=*/0)
                     .Build();
  Subproblem sp;
  sp.services = {0};
  sp.machines = {0};
  PopulateSubproblemEdges(*cluster, sp);
  Placement base(*cluster);
  StatusOr<SubproblemSolution> solution =
      SolveSubproblemMip(*cluster, sp, base);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->unplaced_containers, 1);
  EXPECT_TRUE(solution->assignments.empty());
}

// ----------------------------------------------------------------- CG -----

TEST(CgTest, SolvesPairCase) {
  PairCase c;
  Placement original(*c.cluster);
  CgStats stats;
  StatusOr<SubproblemSolution> solution = SolveSubproblemCg(
      *c.cluster, c.sp, c.base, original, CgOptions(), &stats);
  ASSERT_TRUE(solution.ok());
  EXPECT_NEAR(solution->gained_affinity, 1.0, 1e-6);
  EXPECT_EQ(solution->unplaced_containers, 0);
  EXPECT_GE(stats.rounds, 1);
  EXPECT_GT(stats.patterns_generated, 0);
  ApplySolution(*c.cluster, c.base, *solution);
}

TEST(CgTest, MatchesMipOnSmallInstances) {
  // On several small random subproblems CG should land within 20% of the
  // exact MIP optimum.
  for (int seed = 0; seed < 5; ++seed) {
    ClusterSpec spec = M3Spec(16.0);
    spec.seed = 500 + seed;
    StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
    ASSERT_TRUE(snapshot.ok());
    PartitioningOptions popt;
    popt.max_subproblem_services = 10;
    PartitionResult partition = PartitionServices(
        *snapshot->cluster, snapshot->original_placement, popt);
    for (const Subproblem& sp : partition.subproblems) {
      if (sp.services.size() > 8 || sp.machines.empty()) continue;
      MipAlgorithmOptions mopt;
      mopt.deadline = Deadline::AfterSeconds(3.0);
      StatusOr<SubproblemSolution> mip = SolveSubproblemMip(
          *snapshot->cluster, sp, partition.base_placement, mopt);
      CgOptions copt;
      copt.deadline = Deadline::AfterSeconds(3.0);
      StatusOr<SubproblemSolution> cg = SolveSubproblemCg(
          *snapshot->cluster, sp, partition.base_placement,
          snapshot->original_placement, copt);
      ASSERT_TRUE(mip.ok());
      ASSERT_TRUE(cg.ok());
      EXPECT_GE(cg->gained_affinity, 0.8 * mip->gained_affinity - 1e-6)
          << "seed " << seed;
    }
  }
}

TEST(CgTest, EmptySubproblemReturnsAllUnplaced) {
  auto cluster = ClusterBuilder().AddService(3, {1.0}).AddMachine({9.0})
                     .Build();
  Subproblem sp;
  sp.services = {0};
  sp.machines = {};  // no machines assigned
  PopulateSubproblemEdges(*cluster, sp);
  Placement base(*cluster);
  Placement original(*cluster);
  StatusOr<SubproblemSolution> solution =
      SolveSubproblemCg(*cluster, sp, base, original);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->unplaced_containers, 3);
}

TEST(CgTest, HonorsDeadline) {
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(M1Spec(32.0));
  ASSERT_TRUE(snapshot.ok());
  PartitionResult partition = PartitionServices(
      *snapshot->cluster, snapshot->original_placement, {});
  ASSERT_FALSE(partition.subproblems.empty());
  const Subproblem& sp = partition.subproblems.front();
  CgOptions options;
  options.deadline = Deadline::AfterSeconds(0.0);
  CgStats stats;
  StatusOr<SubproblemSolution> solution = SolveSubproblemCg(
      *snapshot->cluster, sp, partition.base_placement,
      snapshot->original_placement, options, &stats);
  ASSERT_TRUE(solution.ok());
  EXPECT_TRUE(stats.hit_deadline);
}

TEST(CgTest, EveryMasterStartsWarmWithoutPhaseOne) {
  // The slack crash basis is primal feasible and every later master starts
  // from the previous optimal basis, so on the golden CG inputs no master
  // solves cold and no master pivots in phase 1.
  int masters = 0;
  for (const testing::Carved& input : testing::CgInputs()) {
    for (const Subproblem& sp : input.partition.subproblems) {
      CgStats stats;
      StatusOr<SubproblemSolution> solution = SolveSubproblemCg(
          *input.snapshot.cluster, sp, input.partition.base_placement,
          input.snapshot.original_placement, CgOptions(), &stats);
      ASSERT_TRUE(solution.ok());
      EXPECT_EQ(stats.master_warm_started, stats.master_solves);
      EXPECT_EQ(stats.lp_phase1_iterations, 0);
      masters += stats.master_solves;
    }
  }
  EXPECT_GT(masters, 0);
}

// ------------------------------------------------------------ Selector ----

TEST(SelectorTest, FixedPoliciesReturnTheirAlgorithm) {
  PairCase c;
  EXPECT_EQ(AlgorithmSelector(SelectorPolicy::kAlwaysCg)
                .Select(*c.cluster, c.sp),
            PoolAlgorithm::kCg);
  EXPECT_EQ(AlgorithmSelector(SelectorPolicy::kAlwaysMip)
                .Select(*c.cluster, c.sp),
            PoolAlgorithm::kMip);
}

TEST(SelectorTest, HeuristicFollowsPaperRule) {
  // avg containers/service = 10; one spec with 2 machines -> CG.
  auto big = ClusterBuilder()
                 .AddService(10, {1.0})
                 .AddMachine({100.0})
                 .AddMachine({100.0})
                 .Build();
  Subproblem sp1;
  sp1.services = {0};
  sp1.machines = {0, 1};
  EXPECT_EQ(HeuristicSelect(*big, sp1), PoolAlgorithm::kCg);
  // avg containers/service = 1; 2 machines of one spec -> MIP.
  auto small = ClusterBuilder()
                   .AddService(1, {1.0})
                   .AddMachine({10.0})
                   .AddMachine({10.0})
                   .Build();
  Subproblem sp2;
  sp2.services = {0};
  sp2.machines = {0, 1};
  EXPECT_EQ(HeuristicSelect(*small, sp2), PoolAlgorithm::kMip);
}

TEST(SelectorTest, FeatureGraphHasPaperFeatures) {
  PairCase c;
  FeatureGraph fg = BuildSubproblemFeatureGraph(*c.cluster, c.sp);
  EXPECT_EQ(fg.num_vertices(), 2);
  EXPECT_EQ(fg.feature_dim(), kSelectorFeatureDim);
  // Feature 0 is the normalized resource request, feature 1 the demand.
  EXPECT_NEAR(fg.features(0, 0), 1.0 / 4.0, 1e-12);
  EXPECT_NEAR(fg.features(0, 1), 2.0 / 20.0, 1e-12);
}

TEST(SelectorTest, ModelSelectorsProduceValidChoices) {
  PairCase c;
  GcnClassifier gcn(kSelectorFeatureDim, 8, 2, 3);
  AlgorithmSelector gcn_selector(std::move(gcn));
  PoolAlgorithm a = gcn_selector.Select(*c.cluster, c.sp);
  EXPECT_TRUE(a == PoolAlgorithm::kCg || a == PoolAlgorithm::kMip);
  MlpClassifier mlp(kSelectorFeatureDim, 8, 2, 3);
  AlgorithmSelector mlp_selector(std::move(mlp));
  PoolAlgorithm b = mlp_selector.Select(*c.cluster, c.sp);
  EXPECT_TRUE(b == PoolAlgorithm::kCg || b == PoolAlgorithm::kMip);
}


TEST(MipGroupedTest, SolvesPairCaseOptimally) {
  PairCase c;
  StatusOr<SubproblemSolution> solution =
      SolveSubproblemMipGrouped(*c.cluster, c.sp, c.base);
  ASSERT_TRUE(solution.ok());
  EXPECT_NEAR(solution->gained_affinity, 1.0, 1e-6);
  EXPECT_EQ(solution->unplaced_containers, 0);
  ApplySolution(*c.cluster, c.base, *solution);
}

TEST(MipGroupedTest, GroupsShrinkTheModel) {
  // 8 identical machines (one spec) vs per-machine: the grouped model must
  // fit under a row cap the per-machine one exceeds.
  ClusterBuilder builder;
  for (int s = 0; s < 12; ++s) builder.AddService(2, {1.0});
  for (int m = 0; m < 8; ++m) builder.AddMachine({6.0}, /*spec=*/0);
  for (int s = 0; s + 1 < 12; ++s) builder.AddAffinity(s, s + 1, 1.0);
  auto cluster = builder.Build();
  Subproblem sp;
  for (int s = 0; s < 12; ++s) sp.services.push_back(s);
  for (int m = 0; m < 8; ++m) sp.machines.push_back(m);
  PopulateSubproblemEdges(*cluster, sp);
  Placement base(*cluster);
  MipAlgorithmOptions options;
  options.max_model_rows = 60;  // grouped: 12 + 2 + 2*11 = 36 rows, fits
  options.deadline = Deadline::AfterSeconds(3.0);
  StatusOr<SubproblemSolution> grouped =
      SolveSubproblemMipGrouped(*cluster, sp, base, options);
  ASSERT_TRUE(grouped.ok());
  StatusOr<SubproblemSolution> per_machine =
      SolveSubproblemMip(*cluster, sp, base, options);
  EXPECT_FALSE(per_machine.ok());  // 12 + 16 + 2*11*8 = 204 rows, too big
  EXPECT_EQ(per_machine.status().code(), StatusCode::kResourceExhausted);
}

TEST(MipGroupedTest, DisaggregationKeepsFeasibility) {
  ClusterSpec spec = M3Spec(32.0);
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
  ASSERT_TRUE(snapshot.ok());
  PartitionResult partition = PartitionServices(
      *snapshot->cluster, snapshot->original_placement, {});
  for (const Subproblem& sp : partition.subproblems) {
    if (sp.machines.empty()) continue;
    MipAlgorithmOptions options;
    options.deadline = Deadline::AfterSeconds(1.0);
    StatusOr<SubproblemSolution> solution = SolveSubproblemMipGrouped(
        *snapshot->cluster, sp, partition.base_placement, options);
    if (!solution.ok()) continue;  // row cap: acceptable
    ApplySolution(*snapshot->cluster, partition.base_placement, *solution);
  }
}

TEST(CgOptionsTest, AblationKnobsStillProduceFeasibleSolutions) {
  PairCase c;
  Placement original(*c.cluster);
  for (int variant = 0; variant < 3; ++variant) {
    CgOptions options;
    if (variant == 0) options.pair_pricing = false;
    if (variant == 1) options.max_patterns_per_machine = 0;
    if (variant == 2) options.greedy_completion = false;
    StatusOr<SubproblemSolution> solution =
        SolveSubproblemCg(*c.cluster, c.sp, c.base, original, options);
    ASSERT_TRUE(solution.ok()) << "variant " << variant;
    ApplySolution(*c.cluster, c.base, *solution);
    EXPECT_GE(solution->gained_affinity, 0.0);
  }
}

TEST(CgOptionsTest, FullCgAtLeastMatchesAblationsOnPairCase) {
  PairCase c;
  Placement original(*c.cluster);
  StatusOr<SubproblemSolution> full =
      SolveSubproblemCg(*c.cluster, c.sp, c.base, original, CgOptions());
  ASSERT_TRUE(full.ok());
  CgOptions no_pairs;
  no_pairs.pair_pricing = false;
  StatusOr<SubproblemSolution> ablated =
      SolveSubproblemCg(*c.cluster, c.sp, c.base, original, no_pairs);
  ASSERT_TRUE(ablated.ok());
  EXPECT_GE(full->gained_affinity, ablated->gained_affinity - 1e-9);
}

TEST(PoolTest, RunPoolAlgorithmDispatches) {
  PairCase c;
  Placement original(*c.cluster);
  for (PoolAlgorithm algo : {PoolAlgorithm::kCg, PoolAlgorithm::kMip}) {
    SolveAttempt attempt;
    StatusOr<SubproblemSolution> solution =
        RunPoolAlgorithm(algo, *c.cluster, c.sp, c.base, original,
                         Deadline::AfterSeconds(2), 2.0, &attempt);
    ASSERT_TRUE(solution.ok()) << PoolAlgorithmToString(algo);
    EXPECT_NEAR(solution->gained_affinity, 1.0, 1e-6);
    EXPECT_EQ(attempt.algorithm, algo);
    EXPECT_EQ(attempt.outcome, AttemptOutcome::kOk);
  }
}

}  // namespace
}  // namespace rasa
