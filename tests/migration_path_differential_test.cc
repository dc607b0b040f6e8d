// Migration-path differential suite (`scale` ctest label):
// ComputeMigrationPath walks worklists of the diff between the current and
// the target placement; this suite holds it to the scan-every-machine loop
// it replaced (migration_path_oracle.h). Both must emit the same batches,
// commands, totals and stranded deletes, or fail with the same status, on
// Table II shapes with first-fit, drifted and under-deploying targets, on a
// deadlocking pair, and on one M4 factor-1 optimized target.

#include <string>
#include <vector>

#include "cluster/first_fit.h"
#include "cluster/generator.h"
#include "common/rng.h"
#include "core/migration.h"
#include "core/rasa.h"
#include "gtest/gtest.h"
#include "migration_path_oracle.h"
#include "rasa_test_util.h"
#include "test_util.h"

namespace rasa {
namespace {

std::string CommandText(const MigrationCommand& cmd) {
  return std::string(cmd.type == MigrationCommandType::kDelete ? "delete "
                                                               : "create ") +
         std::to_string(cmd.service) + "@" + std::to_string(cmd.machine);
}

// Production and oracle agree on the path from `from` to `to`. Returns the
// production result for callers that check which case it exercised.
StatusOr<MigrationPlan> ExpectSamePath(const Cluster& cluster,
                                       const Placement& from,
                                       const Placement& to,
                                       const MigrationOptions& options = {}) {
  StatusOr<MigrationPlan> production =
      ComputeMigrationPath(cluster, from, to, options);
  const StatusOr<MigrationPlan> oracle =
      testing::OracleMigrationPath(cluster, from, to, options);
  EXPECT_EQ(production.status().ToString(), oracle.status().ToString());
  if (!production.ok() || !oracle.ok()) return production;
  EXPECT_EQ(production->total_deletes, oracle->total_deletes);
  EXPECT_EQ(production->total_creates, oracle->total_creates);
  EXPECT_EQ(production->stranded_deletes, oracle->stranded_deletes);
  EXPECT_EQ(production->batches.size(), oracle->batches.size());
  for (size_t b = 0; b < production->batches.size() &&
                     b < oracle->batches.size();
       ++b) {
    const std::vector<MigrationCommand>& got = production->batches[b];
    const std::vector<MigrationCommand>& want = oracle->batches[b];
    EXPECT_EQ(got.size(), want.size()) << "batch " << b;
    for (size_t c = 0; c < got.size() && c < want.size(); ++c) {
      if (CommandText(got[c]) != CommandText(want[c])) {
        ADD_FAILURE() << "batch " << b << " command " << c << ": "
                      << CommandText(got[c]) << " != " << CommandText(want[c]);
        return production;  // one mismatch names the divergence
      }
    }
  }
  return production;
}

// `placement` after up to `fraction` of its containers tried a move to a
// random machine; a move the destination cannot host is skipped.
Placement Drift(const Cluster& cluster, const Placement& placement,
                double fraction, Rng& rng) {
  Placement drifted = placement;
  const int moves = static_cast<int>(fraction * cluster.num_containers());
  for (int i = 0; i < moves; ++i) {
    const int from = static_cast<int>(rng.NextUint64(cluster.num_machines()));
    if (drifted.ServicesOn(from).empty()) continue;
    const int s = drifted.ServicesOn(from).begin()->first;
    const int to = static_cast<int>(rng.NextUint64(cluster.num_machines()));
    if (to == from || !drifted.CanPlace(to, s)) continue;
    RASA_CHECK(drifted.Remove(from, s).ok());
    drifted.Add(to, s);
  }
  return drifted;
}

// `target` without one container of every `stride`-th deployed service.
Placement UnderDeploy(const Cluster& cluster, const Placement& target,
                      int stride) {
  Placement shrunk = target;
  for (int s = 0; s < cluster.num_services(); s += stride) {
    if (shrunk.MachinesOf(s).empty()) continue;
    RASA_CHECK(shrunk.Remove(shrunk.MachinesOf(s).begin()->first, s).ok());
  }
  return shrunk;
}

std::vector<ClusterSpec> TableTwoShapes() {
  return {M1Spec(32.0), M2Spec(32.0), M3Spec(32.0), M4Spec(32.0),
          M1Spec(16.0), M2Spec(16.0), M3Spec(16.0), M4Spec(16.0)};
}

TEST(MigrationPathDifferentialTest, FirstFitTargetsOnTableTwoShapes) {
  int compared = 0;
  for (const ClusterSpec& spec : TableTwoShapes()) {
    const ClusterSnapshot snapshot = testing::MakeSnapshot(spec, spec.seed);
    const Cluster& cluster = *snapshot.cluster;
    for (FirstFitScore score :
         {FirstFitScore::kLeastAllocated, FirstFitScore::kMostAllocated}) {
      SCOPED_TRACE(::testing::Message() << spec.name << " at 1/"
                                        << spec.num_machines << " machines, "
                                        << "score " << static_cast<int>(score));
      Rng rng(5);
      const StatusOr<Placement> target = FirstFitPlace(cluster, rng, score);
      if (!target.ok()) continue;
      ASSERT_TRUE(
          ExpectSamePath(cluster, snapshot.original_placement, *target).ok());
      ++compared;
    }
  }
  EXPECT_GE(compared, 12);
}

TEST(MigrationPathDifferentialTest, DriftedTargetsBothWays) {
  for (const ClusterSpec& spec : TableTwoShapes()) {
    SCOPED_TRACE(spec.name + " " + std::to_string(spec.num_machines));
    const ClusterSnapshot snapshot = testing::MakeSnapshot(spec, spec.seed);
    const Cluster& cluster = *snapshot.cluster;
    Rng rng(17);
    const Placement drifted =
        Drift(cluster, snapshot.original_placement, 0.1, rng);
    ASSERT_GT(drifted.DiffCount(snapshot.original_placement), 0);
    EXPECT_TRUE(
        ExpectSamePath(cluster, snapshot.original_placement, drifted).ok());
    EXPECT_TRUE(
        ExpectSamePath(cluster, drifted, snapshot.original_placement).ok());
  }
}

TEST(MigrationPathDifferentialTest, UnderDeployingTargetsStrandDeletes) {
  for (const ClusterSpec& spec : TableTwoShapes()) {
    SCOPED_TRACE(spec.name + " " + std::to_string(spec.num_machines));
    const ClusterSnapshot snapshot = testing::MakeSnapshot(spec, spec.seed);
    const Cluster& cluster = *snapshot.cluster;
    Rng rng(23);
    const StatusOr<Placement> target =
        FirstFitPlace(cluster, rng, FirstFitScore::kLeastAllocated);
    if (!target.ok()) continue;
    const StatusOr<MigrationPlan> plan =
        ExpectSamePath(cluster, snapshot.original_placement,
                       UnderDeploy(cluster, *target, 7));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_GT(plan->stranded_deletes, 0);
  }
}

TEST(MigrationPathDifferentialTest, IterationCapNamesTheSameService) {
  const ClusterSpec spec = M1Spec(32.0);
  const ClusterSnapshot snapshot = testing::MakeSnapshot(spec, spec.seed);
  Rng rng(5);
  const StatusOr<Placement> target = FirstFitPlace(
      *snapshot.cluster, rng, FirstFitScore::kLeastAllocated);
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  MigrationOptions options;
  options.max_iterations = 2;
  const StatusOr<MigrationPlan> plan = ExpectSamePath(
      *snapshot.cluster, snapshot.original_placement, *target, options);
  EXPECT_EQ(plan.status().code(), StatusCode::kInternal);
}

TEST(MigrationPathDifferentialTest, DeadlockingPair) {
  // Service 0 (demand 2, floor 1 alive) must move onto machine 1, which the
  // unmoving service 1 fills: one delete, no create can ever fit, and the
  // SLA floor forbids a second delete.
  auto cluster = testing::ClusterBuilder()
                     .AddService(2, {1.0})
                     .AddService(1, {4.0})
                     .AddMachine({4.0})
                     .AddMachine({4.0})
                     .Build();
  Placement from(*cluster);
  from.Add(0, 0, 2);
  from.Add(1, 1);
  Placement to(*cluster);
  to.Add(1, 0, 2);
  to.Add(1, 1);
  const StatusOr<MigrationPlan> plan = ExpectSamePath(*cluster, from, to);
  EXPECT_EQ(plan.status().code(), StatusCode::kInternal);
  EXPECT_NE(plan.status().message().find("deadlocked"), std::string::npos);
}

TEST(MigrationPathDifferentialTest, FullScaleOptimizedTarget) {
  const ClusterSnapshot snapshot = testing::MakeSnapshot(M4Spec(1.0), M4Spec(1.0).seed);
  RasaOptions options;
  options.timeout_seconds = 60.0;
  options.compute_migration = false;
  options.num_threads = 2;
  options.pop.max_services = 24;
  options.pop.num_replicas = 2;
  const RasaOptimizer optimizer(options,
                                AlgorithmSelector(SelectorPolicy::kHeuristic));
  const StatusOr<RasaResult> result =
      optimizer.Optimize(*snapshot.cluster, snapshot.original_placement);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const StatusOr<MigrationPlan> plan =
      ExpectSamePath(*snapshot.cluster, snapshot.original_placement,
                     result->new_placement);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GT(plan->total_creates, 0);
}

}  // namespace
}  // namespace rasa
