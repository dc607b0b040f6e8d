#include <cmath>

#include "cluster/generator.h"
#include "core/objective.h"
#include "gtest/gtest.h"
#include "sim/workflow.h"

namespace rasa {
namespace {

ClusterSnapshot MakeSnapshot(uint64_t seed) {
  ClusterSpec spec = M3Spec(16.0);
  spec.seed = seed;
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
  EXPECT_TRUE(snapshot.ok());
  return *std::move(snapshot);
}

WorkflowOptions BaseOptions() {
  WorkflowOptions options;
  options.cycles = 10;
  // Generous solver budget: the M3 subproblems finish well within it, so
  // the optimizer's output does not depend on machine load (a tight budget
  // makes the clean-vs-chaos affinity comparison below flaky).
  options.rasa.timeout_seconds = 2.0;
  options.seed = 2024;
  return options;
}

// ISSUE acceptance criterion: with command-failure probability 0.2 and one
// mid-migration machine cordon injected, a 10-cycle workflow completes all
// cycles with zero SLA-floor violations, and the final gained affinity is
// >= 90% of the fault-free run on the same seed.
TEST(WorkflowFaultTest, ChaosRunMatchesFaultFreeAffinity) {
  const ClusterSnapshot snapshot = MakeSnapshot(31);
  const AlgorithmSelector selector(SelectorPolicy::kHeuristic);

  StatusOr<WorkflowReport> clean =
      RunWorkflow(*snapshot.cluster, snapshot.original_placement, selector,
                  BaseOptions());
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->cycles.size(), 10u);
  const double clean_affinity =
      GainedAffinity(*snapshot.cluster, clean->final_placement);

  WorkflowOptions chaos_options = BaseOptions();
  chaos_options.inject_faults = true;
  chaos_options.faults.command_failure_probability = 0.2;
  chaos_options.faults.cordon_after_commands = 40;
  chaos_options.faults.cordon_duration_cycles = 1;
  chaos_options.faults.seed = 555;
  StatusOr<WorkflowReport> chaos =
      RunWorkflow(*snapshot.cluster, snapshot.original_placement, selector,
                  chaos_options);
  ASSERT_TRUE(chaos.ok());
  ASSERT_EQ(chaos->cycles.size(), 10u);

  // The chaos harness actually did something.
  EXPECT_GT(chaos->faults_injected, 0);
  EXPECT_EQ(chaos->cordons_fired, 1);
  EXPECT_GT(chaos->command_retries, 0);

  // Invariants: no post-batch audit may ever fail, and the cluster ends in
  // a resource-feasible state.
  EXPECT_EQ(chaos->sla_violations, 0);
  EXPECT_EQ(chaos->feasibility_violations, 0);
  EXPECT_TRUE(chaos->final_placement.CheckFeasible(false).ok());

  const double chaos_affinity =
      GainedAffinity(*snapshot.cluster, chaos->final_placement);
  EXPECT_GE(chaos_affinity, 0.9 * clean_affinity)
      << "chaos " << chaos_affinity << " vs clean " << clean_affinity;
}

// Purely transient faults: every executed cycle must still converge to its
// exact target placement (retries absorb the failures).
TEST(WorkflowFaultTest, TransientFaultsConvergeEveryCycle) {
  const ClusterSnapshot snapshot = MakeSnapshot(32);
  WorkflowOptions options = BaseOptions();
  options.cycles = 5;
  options.inject_faults = true;
  options.faults.command_failure_probability = 0.2;
  options.faults.seed = 808;
  StatusOr<WorkflowReport> report =
      RunWorkflow(*snapshot.cluster, snapshot.original_placement,
                  AlgorithmSelector(SelectorPolicy::kHeuristic), options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->cycles.size(), 5u);
  int executed = 0;
  for (const CycleReport& cr : report->cycles) {
    if (cr.executed) {
      ++executed;
      EXPECT_TRUE(cr.reached_target);
    }
  }
  EXPECT_GT(executed, 0);
  EXPECT_GT(report->command_retries, 0);
  EXPECT_EQ(report->partial_executions, 0);
  EXPECT_EQ(report->sla_violations, 0);
  EXPECT_EQ(report->feasibility_violations, 0);
}

// Satellite: a failed optimizer run must not abort the workflow — the cycle
// is recorded as a dry-run and the remaining cycles still run.
TEST(WorkflowFaultTest, OptimizerFailureCountsAsDryRun) {
  const ClusterSnapshot snapshot = MakeSnapshot(33);
  WorkflowOptions options = BaseOptions();
  options.cycles = 3;
  options.inject_faults = true;
  options.faults.optimizer_failure_probability = 1.0;
  StatusOr<WorkflowReport> report =
      RunWorkflow(*snapshot.cluster, snapshot.original_placement,
                  AlgorithmSelector(SelectorPolicy::kHeuristic), options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->cycles.size(), 3u);
  EXPECT_EQ(report->solver_failures, 3);
  EXPECT_EQ(report->dry_runs, 3);
  EXPECT_EQ(report->executions, 0);
  for (const CycleReport& cr : report->cycles) {
    EXPECT_TRUE(cr.solver_failed);
    EXPECT_FALSE(cr.executed);
    EXPECT_DOUBLE_EQ(cr.affinity_after, cr.affinity_before);
  }
}

// Degradation ladder, bottom rung: with the solver budget exhausted every
// cycle the optimizer falls back to the greedy, and the workflow still
// completes every cycle with a feasible cluster.
TEST(WorkflowFaultTest, SolverExhaustionFallsBackGracefully) {
  const ClusterSnapshot snapshot = MakeSnapshot(34);
  WorkflowOptions options = BaseOptions();
  options.cycles = 4;
  options.inject_faults = true;
  options.faults.solver_exhaustion_probability = 1.0;
  StatusOr<WorkflowReport> report =
      RunWorkflow(*snapshot.cluster, snapshot.original_placement,
                  AlgorithmSelector(SelectorPolicy::kHeuristic), options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->cycles.size(), 4u);
  EXPECT_EQ(report->sla_violations, 0);
  EXPECT_EQ(report->feasibility_violations, 0);
  EXPECT_TRUE(report->final_placement.CheckFeasible(false).ok());
}

// With no faults and exact measurement, the command-by-command executor
// lands exactly on the optimizer's target: the executed cycle reaches it
// and delivers all of the predicted affinity (up to the rounding of the
// measured copy's weight normalization).
TEST(WorkflowFaultTest, FaultFreeExecutionReachesTarget) {
  const ClusterSnapshot snapshot = MakeSnapshot(35);
  WorkflowOptions options = BaseOptions();
  options.cycles = 1;
  options.drift_fraction = 0.0;
  options.measurement_noise = 0.0;
  StatusOr<WorkflowReport> report =
      RunWorkflow(*snapshot.cluster, snapshot.original_placement,
                  AlgorithmSelector(SelectorPolicy::kHeuristic), options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->cycles.size(), 1u);
  const CycleReport& cr = report->cycles[0];
  ASSERT_TRUE(cr.executed);
  EXPECT_TRUE(cr.reached_target);
  EXPECT_GT(cr.moved_containers, 0);
  EXPECT_NEAR(cr.migration_truncation, 0.0, 1e-12);
  EXPECT_EQ(report->commands_failed, 0);
  EXPECT_EQ(report->command_retries, 0);
  EXPECT_EQ(report->partial_executions, 0);
}

}  // namespace
}  // namespace rasa
