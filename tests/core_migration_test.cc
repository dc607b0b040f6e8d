#include "core/migration.h"

#include "cluster/first_fit.h"
#include "cluster/generator.h"
#include "common/rng.h"
#include "core/rasa.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace rasa {
namespace {

using ::rasa::testing::ClusterBuilder;

TEST(MigrationTest, IdentityMappingNeedsNoCommands) {
  auto cluster = ClusterBuilder().AddService(2, {1.0}).AddMachine({4.0})
                     .Build();
  Placement p(*cluster);
  p.Add(0, 0, 2);
  StatusOr<MigrationPlan> plan = ComputeMigrationPath(*cluster, p, p);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->batches.empty());
  EXPECT_EQ(plan->total_deletes, 0);
  EXPECT_TRUE(ValidateMigrationPlan(*cluster, p, p, *plan).ok());
}

TEST(MigrationTest, SimpleSwapAcrossMachines) {
  auto cluster = ClusterBuilder()
                     .AddService(4, {1.0})
                     .AddMachine({4.0})
                     .AddMachine({4.0})
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 4);
  Placement to(*cluster);
  to.Add(0, 0, 2);
  to.Add(1, 0, 2);
  StatusOr<MigrationPlan> plan = ComputeMigrationPath(*cluster, from, to);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->total_deletes, 2);
  EXPECT_EQ(plan->total_creates, 2);
  EXPECT_EQ(plan->stranded_deletes, 0);
  EXPECT_TRUE(ValidateMigrationPlan(*cluster, from, to, *plan).ok());
}

TEST(MigrationTest, TightCapacityForcesDeleteBeforeCreate) {
  // Both machines are full; the move is only possible by deleting first.
  auto cluster = ClusterBuilder()
                     .AddService(2, {2.0})
                     .AddService(2, {2.0})
                     .AddMachine({4.0})
                     .AddMachine({4.0})
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 2);
  from.Add(1, 1, 2);
  Placement to(*cluster);  // swap the services
  to.Add(0, 1, 2);
  to.Add(1, 0, 2);
  StatusOr<MigrationPlan> plan = ComputeMigrationPath(*cluster, from, to);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidateMigrationPlan(*cluster, from, to, *plan).ok());
  // First batch must be deletes.
  ASSERT_FALSE(plan->batches.empty());
  EXPECT_EQ(plan->batches.front().front().type,
            MigrationCommandType::kDelete);
}

TEST(MigrationTest, SlaFloorLimitsParallelDeletes) {
  // d = 8 with 75% floor: at most 2 containers offline at any time.
  auto cluster = ClusterBuilder()
                     .AddService(8, {1.0})
                     .AddMachine({8.0})
                     .AddMachine({8.0})
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 8);
  Placement to(*cluster);
  to.Add(0, 0, 2);
  to.Add(1, 0, 6);
  StatusOr<MigrationPlan> plan = ComputeMigrationPath(*cluster, from, to);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(ValidateMigrationPlan(*cluster, from, to, *plan).ok());
  // Replay and measure the worst-case offline count.
  Placement current = from;
  int worst_offline = 0;
  for (const auto& batch : plan->batches) {
    for (const MigrationCommand& cmd : batch) {
      if (cmd.type == MigrationCommandType::kDelete) {
        ASSERT_TRUE(current.Remove(cmd.machine, cmd.service).ok());
      } else {
        current.Add(cmd.machine, cmd.service);
      }
    }
    worst_offline = std::max(worst_offline, 8 - current.TotalOf(0));
  }
  EXPECT_LE(worst_offline, 2);
}

TEST(MigrationTest, StrandedDeletesGoLast) {
  // Target deploys fewer containers than the original.
  auto cluster = ClusterBuilder()
                     .AddService(3, {1.0})
                     .AddMachine({4.0})
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 3);
  Placement to(*cluster);
  to.Add(0, 0, 2);
  StatusOr<MigrationPlan> plan = ComputeMigrationPath(*cluster, from, to);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->stranded_deletes, 1);
  EXPECT_TRUE(ValidateMigrationPlan(*cluster, from, to, *plan).ok());
}

TEST(MigrationTest, SummaryMentionsCounts) {
  MigrationPlan plan;
  plan.total_deletes = 3;
  plan.total_creates = 2;
  plan.batches.resize(2);
  const std::string s = plan.Summary();
  EXPECT_NE(s.find("2 batches"), std::string::npos);
  EXPECT_NE(s.find("3 deletes"), std::string::npos);
}

TEST(MigrationTest, ValidateCatchesCorruptPlan) {
  auto cluster = ClusterBuilder()
                     .AddService(2, {1.0})
                     .AddMachine({4.0})
                     .AddMachine({4.0})
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 2);
  Placement to(*cluster);
  to.Add(1, 0, 2);
  MigrationPlan bogus;
  // Creating before deleting violates the final-state equality.
  bogus.batches.push_back(
      {{MigrationCommandType::kCreate, 0, 1}});
  EXPECT_FALSE(ValidateMigrationPlan(*cluster, from, to, bogus).ok());
}

// ValidateMigrationPlan rejections: each case fails with
// FailedPrecondition and names what broke.
MigrationCommand Delete(int service, int machine) {
  return {MigrationCommandType::kDelete, service, machine};
}
MigrationCommand Create(int service, int machine) {
  return {MigrationCommandType::kCreate, service, machine};
}

void ExpectRejected(const Status& status, const std::string& message) {
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find(message), std::string::npos)
      << status.ToString();
}

TEST(MigrationTest, ValidateRejectsOverCapacityCreateMidPlan) {
  auto cluster = ClusterBuilder()
                     .AddService(2, {1.0})
                     .AddService(1, {3.0})
                     .AddMachine({4.0})
                     .AddMachine({4.0})
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 2);
  from.Add(1, 1);
  Placement to(*cluster);
  to.Add(1, 0, 2);
  to.Add(1, 1);
  MigrationPlan plan;
  plan.batches = {{Delete(0, 0)}, {Create(0, 1)}, {Delete(0, 0)},
                  {Create(0, 1)}};
  ExpectRejected(ValidateMigrationPlan(*cluster, from, to, plan),
                 "batch 3: create of service 0 on machine 1 infeasible");
}

TEST(MigrationTest, ValidateRejectsAntiAffinityBreach) {
  auto cluster = ClusterBuilder()
                     .AddService(2, {1.0})
                     .AddMachine({4.0})
                     .AddMachine({4.0})
                     .AddRule({0}, 1)
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0);
  from.Add(1, 0);
  Placement to(*cluster);
  to.Add(1, 0, 2);
  MigrationPlan plan;
  plan.batches = {{Delete(0, 0)}, {Create(0, 1)}};
  ExpectRejected(ValidateMigrationPlan(*cluster, from, to, plan),
                 "batch 1: create of service 0 on machine 1 infeasible");
}

TEST(MigrationTest, ValidateRejectsSlaFloorBreach) {
  // d = 4 keeps a floor of 3 alive: two deletes in one batch break it.
  auto cluster = ClusterBuilder()
                     .AddService(4, {1.0})
                     .AddMachine({4.0})
                     .AddMachine({4.0})
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 4);
  Placement to(*cluster);
  to.Add(0, 0);
  to.Add(1, 0, 3);
  MigrationPlan plan;
  plan.batches = {{Delete(0, 0)}, {Create(0, 1)}, {Delete(0, 0), Delete(0, 0)},
                  {Create(0, 1)}, {Create(0, 1)}};
  ExpectRejected(ValidateMigrationPlan(*cluster, from, to, plan),
                 "batch 2: service 0 down to 2/4 alive");
}

TEST(MigrationTest, ValidateRejectsWrongFinalState) {
  auto cluster = ClusterBuilder()
                     .AddService(2, {1.0})
                     .AddService(1, {1.0})
                     .AddMachine({4.0})
                     .AddMachine({4.0})
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 2);
  from.Add(0, 1);
  Placement to(*cluster);
  to.Add(0, 0);
  to.Add(1, 0);
  to.Add(1, 1);
  // Moves one container of service 0 but leaves service 1 where it was.
  MigrationPlan plan;
  plan.batches = {{Delete(0, 0)}, {Create(0, 1)}};
  ExpectRejected(ValidateMigrationPlan(*cluster, from, to, plan),
                 "final state mismatch at machine 0 service 1: 1 != 0");
}

TEST(MigrationTest, ValidateRejectsInfeasibleOriginal) {
  // Machine 1 starts over capacity; the plan never touches it, and the
  // first batch's full audit still finds it.
  auto cluster = ClusterBuilder()
                     .AddService(2, {1.0})
                     .AddService(3, {2.0})
                     .AddMachine({4.0})
                     .AddMachine({4.0})
                     .AddMachine({4.0})
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 2);
  from.Add(1, 1, 3);
  Placement to(*cluster);
  to.Add(0, 0);
  to.Add(2, 0);
  to.Add(1, 1, 3);
  MigrationPlan plan;
  plan.batches = {{Delete(0, 0)}, {Create(0, 2)}};
  ExpectRejected(ValidateMigrationPlan(*cluster, from, to, plan),
                 "machine 1 over capacity on resource 0");

  // With nothing to replay there is no batch to audit: an empty plan
  // between equal placements is accepted.
  EXPECT_TRUE(
      ValidateMigrationPlan(*cluster, from, from, MigrationPlan{}).ok());
}

TEST(MigrationTest, BatchesAreOneCommandPerMachine) {
  auto cluster = ClusterBuilder()
                     .AddService(6, {1.0})
                     .AddService(6, {1.0})
                     .AddMachine({12.0})
                     .AddMachine({12.0})
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 6);
  from.Add(1, 1, 6);
  Placement to(*cluster);
  to.Add(0, 0, 3);
  to.Add(1, 0, 3);
  to.Add(0, 1, 3);
  to.Add(1, 1, 3);
  StatusOr<MigrationPlan> plan = ComputeMigrationPath(*cluster, from, to);
  ASSERT_TRUE(plan.ok());
  for (const auto& batch : plan->batches) {
    std::set<int> machines;
    for (const MigrationCommand& cmd : batch) {
      EXPECT_TRUE(machines.insert(cmd.machine).second)
          << "two commands on machine " << cmd.machine << " in one batch";
    }
  }
}

// Property: migration between ORIGINAL and RASA-optimized placements on
// generated clusters always validates.
class MigrationPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MigrationPropertyTest, RandomReshuffleValidates) {
  ClusterSpec spec = M3Spec(16.0);
  spec.seed = 900 + GetParam();
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
  ASSERT_TRUE(snapshot.ok());
  // A second first-fit with a different seed as the "target" placement.
  Rng rng(GetParam() + 1);
  StatusOr<Placement> target = FirstFitPlace(*snapshot->cluster, rng);
  ASSERT_TRUE(target.ok());
  StatusOr<MigrationPlan> plan = ComputeMigrationPath(
      *snapshot->cluster, snapshot->original_placement, *target);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_TRUE(ValidateMigrationPlan(*snapshot->cluster,
                                    snapshot->original_placement, *target,
                                    *plan)
                  .ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationPropertyTest, ::testing::Range(0, 8));

// ------------------------------------------------------ MinAliveFloor ----

// The shared SLA floor: ceil(fraction * demand) with the guaranteed-
// progress carve-out (at most demand - 1, never negative) that keeps small
// services migratable — the naive ceil equals d for every d <= 4 at the
// paper's 0.75.
TEST(MinAliveFloorTest, ExplicitValuesForSmallDemands) {
  EXPECT_EQ(MinAliveFloor(0, 0.75), 0);

  EXPECT_EQ(MinAliveFloor(1, 0.5), 0);
  EXPECT_EQ(MinAliveFloor(1, 0.75), 0);
  EXPECT_EQ(MinAliveFloor(1, 1.0), 0);

  EXPECT_EQ(MinAliveFloor(2, 0.5), 1);
  EXPECT_EQ(MinAliveFloor(2, 0.75), 1);  // ceil(1.5) = 2, capped to d-1
  EXPECT_EQ(MinAliveFloor(2, 1.0), 1);

  EXPECT_EQ(MinAliveFloor(3, 0.5), 2);   // ceil(1.5) = 2
  EXPECT_EQ(MinAliveFloor(3, 0.75), 2);  // ceil(2.25) = 3, capped
  EXPECT_EQ(MinAliveFloor(3, 1.0), 2);

  EXPECT_EQ(MinAliveFloor(4, 0.5), 2);
  EXPECT_EQ(MinAliveFloor(4, 0.75), 3);
  EXPECT_EQ(MinAliveFloor(4, 1.0), 3);

  // Large demands: the cap no longer binds.
  EXPECT_EQ(MinAliveFloor(8, 0.75), 6);
  EXPECT_EQ(MinAliveFloor(100, 0.75), 75);
}

// Full d x fraction matrix: a small service moving across machines always
// gets a plan (the carve-out guarantees progress), and replaying it batch
// by batch never dips below the floor — including mid-batch, after the
// deletes and before the creates.
TEST(MinAliveFloorTest, EmittedBatchesRespectTheFloor) {
  for (int d : {1, 2, 3, 4}) {
    for (double fraction : {0.5, 0.75, 1.0}) {
      SCOPED_TRACE(::testing::Message()
                   << "demand " << d << ", fraction " << fraction);
      auto cluster = ClusterBuilder()
                         .AddService(d, {1.0})
                         .AddMachine({static_cast<double>(d)})
                         .AddMachine({static_cast<double>(d)})
                         .Build();
      Placement from(*cluster);
      from.Add(0, 0, d);
      Placement to(*cluster);
      to.Add(1, 0, d);

      MigrationOptions options;
      options.min_alive_fraction = fraction;
      StatusOr<MigrationPlan> plan =
          ComputeMigrationPath(*cluster, from, to, options);
      ASSERT_TRUE(plan.ok()) << plan.status();
      EXPECT_TRUE(
          ValidateMigrationPlan(*cluster, from, to, *plan, fraction).ok());

      const int floor_alive = MinAliveFloor(d, fraction);
      int alive = d;
      for (size_t b = 0; b < plan->batches.size(); ++b) {
        int deletes = 0;
        int creates = 0;
        for (const MigrationCommand& cmd : plan->batches[b]) {
          (cmd.type == MigrationCommandType::kDelete ? deletes : creates)++;
        }
        // Worst point of the batch: deletes applied, creates not yet.
        EXPECT_GE(alive - deletes, floor_alive) << "mid-batch " << b;
        alive += creates - deletes;
        EXPECT_GE(alive, floor_alive) << "after batch " << b;
      }
      EXPECT_EQ(alive, d);  // the full deployment arrives
    }
  }
}

}  // namespace
}  // namespace rasa
