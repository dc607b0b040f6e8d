#include "core/migration_executor.h"

#include <algorithm>
#include <cmath>

#include "cluster/first_fit.h"
#include "cluster/generator.h"
#include "common/rng.h"
#include "core/migration.h"
#include "gtest/gtest.h"
#include "sim/fault_injection.h"
#include "test_util.h"

namespace rasa {
namespace {

using ::rasa::testing::ClusterBuilder;

int FloorAlive(int demand, double min_alive_fraction) {
  const int floor =
      static_cast<int>(std::ceil(min_alive_fraction * demand - 1e-9));
  return std::min(demand - 1, floor);
}

// Generated cluster + a second first-fit placement as the migration target,
// mirroring the planner's own property test.
struct Scenario {
  ClusterSnapshot snapshot;
  Placement target;
  MigrationPlan plan;
};

Scenario MakeScenario(int seed) {
  ClusterSpec spec = M3Spec(16.0);
  spec.seed = 4200 + seed;
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
  EXPECT_TRUE(snapshot.ok());
  Rng rng(seed + 1);
  StatusOr<Placement> target = FirstFitPlace(*snapshot->cluster, rng);
  EXPECT_TRUE(target.ok());
  StatusOr<MigrationPlan> plan = ComputeMigrationPath(
      *snapshot->cluster, snapshot->original_placement, *target);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return Scenario{*std::move(snapshot), *std::move(target), *std::move(plan)};
}

void ExpectSlaFloorHolds(const Cluster& cluster, const Placement& live,
                         double min_alive_fraction) {
  for (int s = 0; s < cluster.num_services(); ++s) {
    EXPECT_GE(live.TotalOf(s),
              FloorAlive(cluster.service(s).demand, min_alive_fraction))
        << "service " << s << " below SLA floor";
  }
}

TEST(MigrationExecutorTest, FaultFreeExecutionReachesTarget) {
  Scenario sc = MakeScenario(0);
  const Cluster& cluster = *sc.snapshot.cluster;
  Placement live = sc.snapshot.original_placement;
  PlacementActions actions(live);
  const MigrationExecutionReport report =
      ExecuteMigration(cluster, live, sc.target, sc.plan, actions);
  EXPECT_TRUE(report.reached_target);
  EXPECT_EQ(report.residual_diff, 0);
  EXPECT_EQ(live.SymmetricDiff(sc.target), 0);
  EXPECT_EQ(report.commands_failed, 0);
  EXPECT_EQ(report.commands_deferred, 0);
  EXPECT_EQ(report.retries, 0);
  EXPECT_EQ(report.replans, 0);
  EXPECT_EQ(report.sla_violations, 0);
  EXPECT_EQ(report.feasibility_violations, 0);
  EXPECT_EQ(report.commands_succeeded,
            sc.plan.total_deletes + sc.plan.total_creates);
  EXPECT_TRUE(live.CheckFeasible(true).ok());
}

TEST(MigrationExecutorTest, DeterministicUnderSameSeed) {
  // Two scenarios built from identical seeds; each run keeps its own
  // cluster alive so the final placements can be compared afterwards.
  Scenario sc1 = MakeScenario(3);
  Scenario sc2 = MakeScenario(3);
  auto run = [](const Scenario& sc, MigrationExecutionReport* out,
                Placement* final_live) {
    Placement live = sc.snapshot.original_placement;
    FaultInjectionOptions fopts;
    fopts.command_failure_probability = 0.3;
    fopts.seed = 777;
    FaultInjector injector(fopts);
    PlacementActions base(live);
    FaultyClusterActions actions(base, injector);
    MigrationExecutorOptions opts;
    opts.seed = 21;
    *out = ExecuteMigration(*sc.snapshot.cluster, live, sc.target, sc.plan,
                            actions, opts);
    *final_live = live;
  };
  MigrationExecutionReport a, b;
  Placement live_a, live_b;
  run(sc1, &a, &live_a);
  run(sc2, &b, &live_b);
  EXPECT_EQ(a.commands_attempted, b.commands_attempted);
  EXPECT_EQ(a.commands_succeeded, b.commands_succeeded);
  EXPECT_EQ(a.commands_failed, b.commands_failed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.replans, b.replans);
  EXPECT_EQ(a.reached_target, b.reached_target);
  EXPECT_DOUBLE_EQ(a.backoff_seconds, b.backoff_seconds);
  EXPECT_EQ(live_a.SymmetricDiff(live_b), 0);
}

TEST(MigrationExecutorTest, CordonMidMigrationKeepsInvariants) {
  Scenario sc = MakeScenario(5);
  const Cluster& cluster = *sc.snapshot.cluster;
  Placement live = sc.snapshot.original_placement;
  FaultInjectionOptions fopts;
  fopts.cordon_after_commands = 5;
  fopts.cordon_duration_cycles = 0;  // never lifts
  FaultInjector injector(fopts);
  PlacementActions base(live);
  FaultyClusterActions actions(base, injector);
  const MigrationExecutionReport report =
      ExecuteMigration(cluster, live, sc.target, sc.plan, actions);
  EXPECT_EQ(injector.cordons_fired(), 1);
  // Commands aimed at the cordoned machine fail permanently, so the
  // executor must have re-planned around it.
  EXPECT_GE(report.replans, 1);
  EXPECT_EQ(report.sla_violations, 0);
  EXPECT_EQ(report.feasibility_violations, 0);
  EXPECT_TRUE(live.CheckFeasible(false).ok());
  ExpectSlaFloorHolds(cluster, live, 0.75);
  if (report.dropped_containers == 0) {
    // Nothing was dropped: every service is fully deployed again.
    EXPECT_TRUE(live.CheckFeasible(true).ok());
  }
}

// Property (ISSUE satellite): across many random seeds with transient
// command faults, every post-batch audit passes (>= 75% of each service
// alive, every machine resource-feasible) and the executor still converges
// to the target.
class ExecutorChaosPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorChaosPropertyTest, TransientFaultsRetryToTarget) {
  Scenario sc = MakeScenario(GetParam());
  const Cluster& cluster = *sc.snapshot.cluster;
  Placement live = sc.snapshot.original_placement;
  FaultInjectionOptions fopts;
  fopts.command_failure_probability = 0.25;
  fopts.seed = 9000 + GetParam();
  FaultInjector injector(fopts);
  PlacementActions base(live);
  FaultyClusterActions actions(base, injector);
  MigrationExecutorOptions opts;
  opts.retry.max_attempts = 8;
  opts.seed = 100 + GetParam();
  const MigrationExecutionReport report =
      ExecuteMigration(cluster, live, sc.target, sc.plan, actions, opts);
  // The audits run after *every* executed batch; none may ever fail.
  EXPECT_GT(report.batches_executed, 0);
  EXPECT_EQ(report.sla_violations, 0);
  EXPECT_EQ(report.feasibility_violations, 0);
  // Transient faults only: retries (plus re-planning at worst) must reach
  // the exact target placement.
  EXPECT_TRUE(report.reached_target) << "residual " << report.residual_diff;
  EXPECT_EQ(live.SymmetricDiff(sc.target), 0);
  EXPECT_EQ(report.dropped_containers, 0);
  EXPECT_GT(report.retries, 0);
  EXPECT_TRUE(live.CheckFeasible(true).ok());
  ExpectSlaFloorHolds(cluster, live, 0.75);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorChaosPropertyTest,
                         ::testing::Range(0, 24));

TEST(PlacementActionsTest, DeleteAbsentContainerIsPermanent) {
  auto cluster =
      ClusterBuilder().AddService(2, {1.0}).AddMachine({4.0}).AddMachine({4.0})
          .Build();
  Placement live(*cluster);
  live.Add(0, 0, 2);
  PlacementActions actions(live);
  const Status s = actions.Delete(1, 0);  // nothing of svc0 on m1
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(IsRetryable(s.code())) << s.ToString();
}

TEST(PlacementActionsTest, CreateBeyondCapacityIsPermanent) {
  auto cluster =
      ClusterBuilder().AddService(8, {2.0}).AddMachine({4.0}).Build();
  Placement live(*cluster);
  live.Add(0, 0, 2);  // machine full: 2 * 2.0 == 4.0
  PlacementActions actions(live);
  const Status s = actions.Create(0, 0);
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(IsRetryable(s.code())) << s.ToString();
  EXPECT_EQ(live.CountOn(0, 0), 2);  // live state untouched
}

// A byzantine backend that over-deletes: every delete secretly removes a
// second container of the same service. The executor cannot prevent this,
// but its post-batch audit must notice the SLA-floor breach and count it.
class OverDeletingActions : public ClusterActions {
 public:
  explicit OverDeletingActions(Placement& live) : live_(live) {}
  Status Delete(int machine, int service) override {
    RASA_RETURN_IF_ERROR(live_.Remove(machine, service));
    if (live_.CountOn(machine, service) > 0) {
      (void)live_.Remove(machine, service);  // the sneaky extra delete
    }
    return Status::OK();
  }
  Status Create(int machine, int service) override {
    if (!live_.CanPlace(machine, service)) {
      return FailedPreconditionError("does not fit");
    }
    live_.Add(machine, service);
    return Status::OK();
  }

 private:
  Placement& live_;
};

TEST(MigrationExecutorTest, AuditDetectsByzantineOverDeletes) {
  // d = 8, floor = 6: one legal delete plus the sneaky extra one leaves 6
  // alive (legal); a second batch repeats and dips below the floor unless
  // the executor notices. Either way the audit counters must fire as soon
  // as the actual live state breaches the floor.
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
  Placement live = from;
  OverDeletingActions actions(live);
  MigrationExecutorOptions opts;
  opts.max_replans = 1;
  const MigrationExecutionReport report =
      ExecuteMigration(*cluster, live, to, *plan, actions, opts);
  // The run must complete with a report (never throw/crash) and flag the
  // violation the moment the floor is actually breached.
  EXPECT_GT(report.sla_violations, 0);
}

}  // namespace
}  // namespace rasa
