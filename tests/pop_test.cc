// POP replica-split fallback (core/pop.h): oversized subproblems are split
// into seeded random replicas, solved per-replica, and unioned. The suite
// checks the split trigger, capacity soundness of the union, re-pricing
// over the full subproblem's edges, the untightened "pop" certificate
// terms with their measured quality loss, determinism of the whole path,
// and that the default options leave the pipeline untouched.

#include <cmath>
#include <set>
#include <vector>

#include "cluster/generator.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/objective.h"
#include "core/pop.h"
#include "core/rasa.h"
#include "gtest/gtest.h"
#include "rasa_test_util.h"
#include "test_util.h"

namespace rasa {
namespace {

ClusterSnapshot MakeCluster(uint64_t seed) {
  return testing::MakeSnapshot(M1Spec(48.0), seed);
}

RasaResult RunOptimize(const ClusterSnapshot& snapshot,
                       const RasaOptions& options) {
  return testing::OptimizeSmallSubproblems(snapshot, options,
                                           options.num_threads);
}

TEST(PopTriggerTest, DisabledByDefaultAndBelowThreshold) {
  Subproblem sp;
  sp.services = {0, 1, 2, 3};
  PopOptions off;  // max_services == 0
  EXPECT_FALSE(ShouldUsePop(off, sp));
  PopOptions on;
  on.max_services = 4;
  EXPECT_FALSE(ShouldUsePop(on, sp));  // not strictly larger
  on.max_services = 3;
  EXPECT_TRUE(ShouldUsePop(on, sp));
}

// Direct harness on a hand-built subproblem, for both pool algorithms: the
// union must respect machine capacities against `base` and report a gained
// affinity that matches re-pricing its own assignment over the full edge
// set, and the attempt must carry the replicas' work but no bound.
TEST(PopSplitTest, UnionIsCapacitySoundAndRepriced) {
  testing::ClusterBuilder builder;
  for (int s = 0; s < 8; ++s) builder.AddService(2, {1.0});
  for (int m = 0; m < 6; ++m) builder.AddMachine({4.0});
  // A ring of edges so every split cuts something.
  for (int s = 0; s < 8; ++s) {
    builder.AddAffinity(s, (s + 1) % 8, 1.0 + s);
  }
  auto cluster = builder.Build();

  Subproblem sp;
  for (int s = 0; s < 8; ++s) sp.services.push_back(s);
  for (int m = 0; m < 6; ++m) sp.machines.push_back(m);
  PopulateSubproblemEdges(*cluster, sp);
  ASSERT_GT(sp.internal_affinity, 0.0);

  Placement base(*cluster);  // empty: full capacity available
  PopOptions options;
  options.max_services = 4;
  options.num_replicas = 2;
  for (PoolAlgorithm algorithm : {PoolAlgorithm::kCg, PoolAlgorithm::kMip}) {
    SCOPED_TRACE(PoolAlgorithmToString(algorithm));
    PopStats pop;
    SolveAttempt stats;
    StatusOr<SubproblemSolution> solved = RunPoolAlgorithmPop(
        algorithm, *cluster, sp, base, base, Deadline::AfterSeconds(10.0),
        /*budget_seconds=*/10.0, /*seed=*/7, options, &stats, nullptr, &pop);
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();

    EXPECT_EQ(pop.replicas, 2);
    EXPECT_GT(pop.cut_affinity, 0.0);  // the ring cannot be split for free
    // The attempt carries its replicas' solver work...
    EXPECT_EQ(stats.has_cg, algorithm == PoolAlgorithm::kCg);
    EXPECT_EQ(stats.has_mip, algorithm == PoolAlgorithm::kMip);
    EXPECT_GT(stats.cg.lp_iterations + stats.mip.lp_iterations, 0);
    if (stats.has_mip) {
      EXPECT_TRUE(stats.mip.solved);
      EXPECT_GT(stats.mip.nodes, 0);
      EXPECT_EQ(stats.mip.status, MipStatus::kFeasible);
    }
    // ...but never a solver bound (replica-local bounds do not bound the
    // full subproblem).
    EXPECT_FALSE(stats.cg.has_lp_bound);
    EXPECT_EQ(stats.cg.lp_objective, 0.0);
    EXPECT_FALSE(stats.mip.bound_proven);
    EXPECT_EQ(stats.mip.best_bound, 0.0);
    EXPECT_FALSE(stats.mip.has_root_lp);

    // The union must fit machine capacities starting from `base`.
    Placement check(*cluster);
    std::vector<std::vector<int>> counts(sp.services.size(),
                                         std::vector<int>(sp.machines.size()));
    for (const SubproblemSolution::Assignment& a : solved->assignments) {
      ASSERT_TRUE(check.CanPlace(a.machine, a.service, a.count));
      check.Add(a.machine, a.service, a.count);
      counts[a.service][a.machine] += a.count;  // ids are 0..n here
    }
    EXPECT_DOUBLE_EQ(solved->gained_affinity,
                     SubproblemGainedAffinity(*cluster, sp, counts));
    // Re-pricing covers the FULL edge set, so the union can never be worth
    // more than the subproblem's internal affinity.
    EXPECT_LE(solved->gained_affinity, sp.internal_affinity + 1e-9);
  }
}

// Replica splits are a pure function of the seed.
// The ladder is planned from PopAttemptFails, so it must agree with the run
// it predicts, solved directly and through a POP split. Two partitions of
// a cluster whose largest MIP models exceed the row cap cover both ways a
// split can go: every replica fits (32-service subproblems), or one does
// not (96-service subproblems).
TEST(PopSplitTest, AttemptFailsPredictsTheRun) {
  const ClusterSnapshot snapshot = testing::MakeSnapshot(M4Spec(16.0), 5);
  PopOptions split;
  split.max_services = 12;
  int split_fits = 0;    // direct MIP over the cap, every replica under it
  int split_fails = 0;   // a replica over the cap
  for (int max_services : {32, 96}) {
    PartitioningOptions partitioning;
    partitioning.max_subproblem_services = max_services;
    const PartitionResult partition = PartitionServices(
        *snapshot.cluster, snapshot.original_placement, partitioning);
    for (const Subproblem& sp : partition.subproblems) {
      for (PoolAlgorithm algorithm :
           {PoolAlgorithm::kCg, PoolAlgorithm::kMip}) {
        bool failed[2];
        for (int i = 0; i < 2; ++i) {
          const PopOptions options = i == 0 ? PopOptions() : split;
          const uint64_t seed = 7 + sp.services.size();
          // An expired deadline keeps each solve to its warm start; the
          // row-cap failure comes before any solve.
          SolveAttempt attempt;
          failed[i] = !RunPoolAlgorithmPop(
                           algorithm, *snapshot.cluster, sp,
                           partition.base_placement,
                           snapshot.original_placement,
                           Deadline::AfterSeconds(0.0), 0.0, seed, options,
                           &attempt)
                           .ok();
          EXPECT_EQ(PopAttemptFails(algorithm, *snapshot.cluster, sp, seed,
                                    options),
                    failed[i])
              << PoolAlgorithmToString(algorithm) << " on "
              << sp.services.size() << " services, POP threshold "
              << options.max_services;
        }
        split_fits += failed[0] && !failed[1];
        split_fails += failed[1];
      }
    }
  }
  EXPECT_GT(split_fits, 0);
  EXPECT_GT(split_fails, 0);
}

TEST(PopSplitTest, DeterministicForFixedSeed) {
  ClusterSnapshot snapshot = MakeCluster(11);

  RasaOptions options;
  options.timeout_seconds = 30.0;
  options.seed = 5;
  options.pop.max_services = 6;
  options.pop.num_replicas = 2;

  const RasaResult a = RunOptimize(snapshot, options);
  const RasaResult b = RunOptimize(snapshot, options);
  EXPECT_GT(a.pop_splits, 0);
  EXPECT_EQ(a.pop_splits, b.pop_splits);
  EXPECT_EQ(a.new_placement.DiffCount(b.new_placement), 0);
  EXPECT_EQ(b.new_placement.DiffCount(a.new_placement), 0);
  EXPECT_EQ(a.new_gained_affinity, b.new_gained_affinity);
  EXPECT_EQ(a.pop_quality_loss, b.pop_quality_loss);
}

// End-to-end: with a low threshold the optimizer splits oversized
// subproblems, reports the quality give-up per subproblem, and files
// untightened certificate terms with source "pop".
TEST(PopSplitTest, ReportsQualityLossAgainstCertificate) {
  ClusterSnapshot snapshot = MakeCluster(3);

  RasaOptions options;
  options.timeout_seconds = 30.0;
  options.pop.max_services = 6;
  options.pop.num_replicas = 2;
  const RasaResult result = RunOptimize(snapshot, options);

  ASSERT_GT(result.pop_splits, 0);
  int seen = 0;
  double loss_sum = 0.0;
  for (size_t i = 0; i < result.subproblems.size(); ++i) {
    const SubproblemReport& report = result.subproblems[i];
    const LedgerRecord& rec = result.report.records[i];
    if (!report.used_pop) {
      EXPECT_NE(rec.bound_source, "pop");
      continue;
    }
    ++seen;
    EXPECT_GE(report.pop_replicas, 2);
    EXPECT_GT(report.num_services, options.pop.max_services);
    // The term charges the trivial bound: POP never tightens.
    EXPECT_EQ(rec.bound_source, "pop");
    EXPECT_FALSE(rec.bound_tightened);
    EXPECT_DOUBLE_EQ(rec.certificate_bound, report.internal_affinity);
    // Quality loss is measured against exactly that bound.
    EXPECT_NEAR(report.pop_quality_loss,
                std::max(0.0, rec.certificate_bound - report.gained_affinity),
                1e-9);
    EXPECT_GE(report.pop_cut_affinity, 0.0);
    loss_sum += report.pop_quality_loss;
  }
  EXPECT_EQ(seen, result.pop_splits);
  EXPECT_NEAR(result.pop_quality_loss, loss_sum, 1e-9);
}

// The default options (pop.max_services == 0) must leave every report and
// certificate term exactly as a build without POP would: no splits, no
// "pop" sources.
TEST(PopSplitTest, DefaultOptionsLeavePipelineUntouched) {
  ClusterSnapshot snapshot = MakeCluster(3);
  RasaOptions options;
  options.timeout_seconds = 30.0;
  const RasaResult result = RunOptimize(snapshot, options);
  EXPECT_EQ(result.pop_splits, 0);
  EXPECT_EQ(result.pop_quality_loss, 0.0);
  for (const SubproblemReport& report : result.subproblems) {
    EXPECT_FALSE(report.used_pop);
    EXPECT_EQ(report.pop_replicas, 0);
  }
  for (const LedgerRecord& rec : result.report.records) {
    EXPECT_NE(rec.bound_source, "pop");
  }
}

}  // namespace
}  // namespace rasa
