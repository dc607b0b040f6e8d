// The observation-only contract of the telemetry layer, one level above
// metrics_determinism_test: a full workflow run produces bit-identical
// placements and (timing-stripped) cycle reports with the telemetry
// pipeline on or off, at every thread count. Telemetry may watch the
// control loop — SLO verdicts, anomaly flags, journal lines — but never
// steer it.

#include <string>
#include <vector>

#include "cluster/generator.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/telemetry.h"
#include "gtest/gtest.h"
#include "rasa_test_util.h"
#include "sim/workflow.h"

namespace rasa {
namespace {

ClusterSnapshot MakeCluster(uint64_t seed) {
  return testing::MakeSnapshot(M1Spec(48.0), seed);
}

WorkflowReport RunOnce(const ClusterSnapshot& snapshot, int threads,
                       bool telemetry) {
  WorkflowOptions options;
  options.cycles = 3;
  options.seed = 515;
  // Generous timeout + small subproblems: every solve stops on its planned
  // work caps and the global deadline never fires, so the comparison never
  // races the wall clock (same regime
  // as the other determinism suites).
  options.rasa.timeout_seconds = 30.0;
  options.rasa.num_threads = threads;
  options.rasa.partitioning.max_subproblem_services = 12;
  options.telemetry.enabled = telemetry;
  StatusOr<WorkflowReport> report =
      RunWorkflow(*snapshot.cluster, snapshot.original_placement,
                  AlgorithmSelector(SelectorPolicy::kHeuristic), options);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

// Bit-exact equality of everything except wall-clock timings and the
// telemetry verdicts themselves (the "on" run has them, the "off" run by
// construction does not — asserted separately).
void ExpectIdenticalReports(const WorkflowReport& a,
                            const WorkflowReport& b) {
  EXPECT_EQ(a.final_placement.DiffCount(b.final_placement), 0);
  EXPECT_EQ(b.final_placement.DiffCount(a.final_placement), 0);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.dry_runs, b.dry_runs);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.solver_failures, b.solver_failures);
  EXPECT_EQ(a.partial_executions, b.partial_executions);
  EXPECT_EQ(a.sla_violations, b.sla_violations);
  EXPECT_EQ(a.feasibility_violations, b.feasibility_violations);
  ASSERT_EQ(a.cycles.size(), b.cycles.size());
  for (size_t c = 0; c < a.cycles.size(); ++c) {
    SCOPED_TRACE(::testing::Message() << "cycle " << c);
    const CycleReport& x = a.cycles[c];
    const CycleReport& y = b.cycles[c];
    EXPECT_EQ(x.affinity_before, y.affinity_before);
    EXPECT_EQ(x.affinity_after, y.affinity_after);
    EXPECT_EQ(x.predicted_affinity, y.predicted_affinity);
    EXPECT_EQ(x.migration_truncation, y.migration_truncation);
    EXPECT_EQ(x.executed, y.executed);
    EXPECT_EQ(x.rolled_back, y.rolled_back);
    EXPECT_EQ(x.solver_failed, y.solver_failed);
    EXPECT_EQ(x.reached_target, y.reached_target);
    EXPECT_EQ(x.moved_containers, y.moved_containers);
    EXPECT_EQ(x.migration_batches, y.migration_batches);
    EXPECT_EQ(x.commands_failed, y.commands_failed);
    EXPECT_EQ(x.command_retries, y.command_retries);
    EXPECT_EQ(x.replans, y.replans);
    // `seconds`, `metrics` histograms of wall times, and the telemetry
    // cost-anomaly verdict all derive from the clock: stripped.
  }
}

TEST(TelemetryDeterminismTest, OnOffBitIdenticalAcrossThreadCounts) {
  const ClusterSnapshot snapshot = MakeCluster(41);
  for (int threads : {1, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const WorkflowReport with_telemetry = RunOnce(snapshot, threads, true);
    const WorkflowReport without_telemetry =
        RunOnce(snapshot, threads, false);
    ExpectIdenticalReports(with_telemetry, without_telemetry);

    // The "on" run carried verdicts on every cycle, the "off" run none —
    // telemetry was genuinely exercised, not silently disabled.
    for (const CycleReport& cr : with_telemetry.cycles) {
      EXPECT_TRUE(cr.telemetry.populated);
      EXPECT_EQ(cr.telemetry.slo.size(), DefaultSloObjectives().size());
    }
    for (const CycleReport& cr : without_telemetry.cycles) {
      EXPECT_FALSE(cr.telemetry.populated);
    }
  }
}

// The wall-clock-free telemetry outputs are themselves deterministic:
// two identical "on" runs agree on every SLO verdict and the gap-anomaly
// flags (cost anomalies use cycle seconds and are exempt).
TEST(TelemetryDeterminismTest, VerdictsReproduceAcrossRuns) {
  const ClusterSnapshot snapshot = MakeCluster(43);
  const WorkflowReport first = RunOnce(snapshot, 4, true);
  const WorkflowReport second = RunOnce(snapshot, 4, true);
  ASSERT_EQ(first.cycles.size(), second.cycles.size());
  for (size_t c = 0; c < first.cycles.size(); ++c) {
    SCOPED_TRACE(::testing::Message() << "cycle " << c);
    const CycleTelemetry& x = first.cycles[c].telemetry;
    const CycleTelemetry& y = second.cycles[c].telemetry;
    ASSERT_EQ(x.slo.size(), y.slo.size());
    for (size_t i = 0; i < x.slo.size(); ++i) {
      EXPECT_EQ(x.slo[i].name, y.slo[i].name);
      EXPECT_EQ(x.slo[i].has_value, y.slo[i].has_value);
      EXPECT_EQ(x.slo[i].value, y.slo[i].value);
      EXPECT_EQ(x.slo[i].violated, y.slo[i].violated);
      EXPECT_EQ(x.slo[i].fast_burn_rate, y.slo[i].fast_burn_rate);
      EXPECT_EQ(x.slo[i].slow_burn_rate, y.slo[i].slow_burn_rate);
      EXPECT_EQ(x.slo[i].alert, y.slo[i].alert);
    }
    EXPECT_EQ(x.gap.anomalous, y.gap.anomalous);
    EXPECT_EQ(x.gap.zscore, y.gap.zscore);
  }
}

// EstimateTrafficQuantiles is a pure function of (cluster, placement):
// repeated calls agree bit-for-bit, which is what lets the latency/error
// series feed SLOs without perturbing determinism.
TEST(TelemetryDeterminismTest, TrafficQuantilesArePure) {
  const ClusterSnapshot snapshot = MakeCluster(47);
  const TrafficQuantiles a = EstimateTrafficQuantiles(
      *snapshot.cluster, snapshot.original_placement);
  const TrafficQuantiles b = EstimateTrafficQuantiles(
      *snapshot.cluster, snapshot.original_placement);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p95, b.p95);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.error_rate, b.error_rate);
  // Sanity on the model's shape: quantiles are ordered and inside the
  // [ipc, rpc] latency band.
  EXPECT_LE(a.p50, a.p95);
  EXPECT_LE(a.p95, a.p99);
  EXPECT_GE(a.p50, 0.0);
  EXPECT_LE(a.p99, 1.0);
}

}  // namespace
}  // namespace rasa
