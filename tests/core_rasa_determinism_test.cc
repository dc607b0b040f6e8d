// Determinism suite for the parallel subproblem phase: Optimize (and the
// full workflow, including under injected chaos) must produce bit-identical
// placements, reports, and degradation-ladder counters at every thread
// count. `SubproblemReport.seconds` is wall-clock and is deliberately
// excluded from the comparisons.
//
// Every solve stops on its planned work caps, never on a clock, so the
// timeout here is either generous (the global deadline, a safety cap only,
// never fires) or zero (the ladder collapses straight to the greedy). Both
// regimes are scheduling-independent; see DESIGN.md "Threading model".

#include <algorithm>
#include <vector>

#include "cluster/generator.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "core/objective.h"
#include "core/rasa.h"
#include "core/solve_ledger.h"
#include "gtest/gtest.h"
#include "rasa_test_util.h"
#include "sim/workflow.h"

namespace rasa {
namespace {

ClusterSnapshot MakeCluster(uint64_t seed) {
  return testing::MakeSnapshot(M1Spec(48.0), seed);
}

RasaResult RunOptimize(const ClusterSnapshot& snapshot,
                       const RasaOptions& options, int threads) {
  return testing::OptimizeSmallSubproblems(snapshot, options, threads);
}

// Bit-exact equality of everything except wall-clock timings (and the
// thread count itself).
void ExpectIdenticalResults(const RasaResult& seq, const RasaResult& par) {
  EXPECT_EQ(testing::CanonicalResultJson(seq),
            testing::CanonicalResultJson(par));
}

TEST(RasaDeterminismTest, ParallelMatchesSequentialAcrossSeeds) {
  const uint64_t seeds[] = {1, 2, 3, 5, 8, 13, 21, 34};
  for (uint64_t seed : seeds) {
    SCOPED_TRACE(::testing::Message() << "cluster seed " << seed);
    const ClusterSnapshot snapshot = MakeCluster(seed);
    RasaOptions options;
    // Generous timeout: the global deadline must not fire, otherwise the
    // comparison would be racing the wall clock instead of the merge.
    options.timeout_seconds = 30.0;
    options.seed = seed * 31 + 7;
    const RasaResult seq = RunOptimize(snapshot, options, 1);
    const RasaResult par = RunOptimize(snapshot, options, 4);
    EXPECT_EQ(seq.num_threads_used, 1);
    EXPECT_EQ(par.num_threads_used, 4);
    ExpectIdenticalResults(seq, par);
  }
}

// Exhausted budget: every rung of the ladder is skipped as expired and all
// subproblems fall to the greedy — the all-expired path must also be
// scheduling-independent.
TEST(RasaDeterminismTest, ParallelMatchesSequentialUnderExhaustedBudget) {
  const uint64_t seeds[] = {4, 9, 16, 25};
  for (uint64_t seed : seeds) {
    SCOPED_TRACE(::testing::Message() << "cluster seed " << seed);
    const ClusterSnapshot snapshot = MakeCluster(seed);
    RasaOptions options;
    options.timeout_seconds = 0.0;
    const RasaResult seq = RunOptimize(snapshot, options, 1);
    const RasaResult par = RunOptimize(snapshot, options, 4);
    ExpectIdenticalResults(seq, par);
    EXPECT_EQ(par.greedy_fallbacks,
              static_cast<int>(par.subproblems.size()));
  }
}

// The full periodic workflow under chaos (command failures, stale
// snapshots, solver-budget exhaustion) consumes its RNG streams identically
// at every thread count, so every cycle — and the final placement — must
// replay bit-for-bit.
TEST(RasaDeterminismTest, ChaosWorkflowMatchesAcrossThreadCounts) {
  const ClusterSnapshot snapshot = MakeCluster(6);
  WorkflowOptions options;
  options.cycles = 3;
  options.rasa.timeout_seconds = 10.0;
  options.inject_faults = true;
  options.faults.command_failure_probability = 0.15;
  options.faults.solver_exhaustion_probability = 0.4;
  options.faults.stale_snapshot_drift = 0.02;
  options.seed = 2024;

  WorkflowOptions seq_options = options;
  seq_options.rasa.num_threads = 1;
  WorkflowOptions par_options = options;
  par_options.rasa.num_threads = 4;
  const AlgorithmSelector selector(SelectorPolicy::kHeuristic);
  StatusOr<WorkflowReport> seq =
      RunWorkflow(*snapshot.cluster, snapshot.original_placement, selector,
                  seq_options);
  StatusOr<WorkflowReport> par =
      RunWorkflow(*snapshot.cluster, snapshot.original_placement, selector,
                  par_options);
  ASSERT_TRUE(seq.ok()) << seq.status().ToString();
  ASSERT_TRUE(par.ok()) << par.status().ToString();

  EXPECT_EQ(seq->final_placement.DiffCount(par->final_placement), 0);
  EXPECT_EQ(par->final_placement.DiffCount(seq->final_placement), 0);
  EXPECT_EQ(GainedAffinity(*snapshot.cluster, seq->final_placement),
            GainedAffinity(*snapshot.cluster, par->final_placement));
  EXPECT_EQ(seq->executions, par->executions);
  EXPECT_EQ(seq->dry_runs, par->dry_runs);
  EXPECT_EQ(seq->rollbacks, par->rollbacks);
  EXPECT_EQ(seq->solver_failures, par->solver_failures);
  EXPECT_EQ(seq->commands_failed, par->commands_failed);
  EXPECT_EQ(seq->command_retries, par->command_retries);
  EXPECT_EQ(seq->replans, par->replans);
  EXPECT_EQ(seq->faults_injected, par->faults_injected);
  EXPECT_EQ(seq->sla_violations, 0);
  EXPECT_EQ(par->sla_violations, 0);
  ASSERT_EQ(seq->cycles.size(), par->cycles.size());
  for (size_t c = 0; c < seq->cycles.size(); ++c) {
    EXPECT_EQ(seq->cycles[c].affinity_after, par->cycles[c].affinity_after)
        << "cycle " << c;
    EXPECT_EQ(seq->cycles[c].moved_containers,
              par->cycles[c].moved_containers)
        << "cycle " << c;
  }
}

// Thread-count sweep on one seed: every parallel width maps to the same
// merged output.
TEST(RasaDeterminismTest, AllThreadCountsAgree) {
  const ClusterSnapshot snapshot = MakeCluster(11);
  RasaOptions options;
  options.timeout_seconds = 30.0;
  const RasaResult seq = RunOptimize(snapshot, options, 1);
  for (int threads : {2, 3, 8}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    ExpectIdenticalResults(seq, RunOptimize(snapshot, options, threads));
  }
}

// The ladder is planned before the solve, so no thread count runs a rung
// it then discards. On a cluster where every subproblem is labelled MIP,
// the three largest exceed the MIP row cap and the breaker then prunes MIP:
// every pool-algorithm run the metrics count is a ledger attempt that ran
// (ok or failed), no pruned attempt carries solver stats, and every
// RasaResult ladder counter equals its count over the records.
TEST(RasaDeterminismTest, LadderRunsNoDiscardedSolve) {
  const ClusterSnapshot snapshot = testing::MakeSnapshot(M4Spec(16.0), 5);
  RasaOptions options;
  options.timeout_seconds = 60.0;
  options.partitioning.max_subproblem_services = 32;
  options.seed = 17;
  MetricRegistry& reg = MetricRegistry::Default();
  auto picks = [&reg] {
    return reg.GetCounter("pool.cg_picks").Value() +
           reg.GetCounter("pool.mip_picks").Value();
  };
  for (int threads : {1, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    options.num_threads = threads;
    const RasaOptimizer optimizer(
        options, AlgorithmSelector(SelectorPolicy::kAlwaysMip));
    const uint64_t picks_before = picks();
    StatusOr<RasaResult> r = optimizer.Optimize(*snapshot.cluster,
                                                snapshot.original_placement);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const uint64_t runs = picks() - picks_before;
    uint64_t ran = 0;
    int pruned = 0;
    // Every RasaResult ladder counter, counted again over the records.
    int failed = 0, rescued = 0, greedy = 0, skipped = 0, split = 0;
    double pop_loss = 0.0;
    for (const LedgerRecord& rec : r->report.records) {
      for (const SolveAttempt* attempt : {&rec.primary, &rec.secondary}) {
        if (attempt->outcome == AttemptOutcome::kOk ||
            attempt->outcome == AttemptOutcome::kFailed) {
          ++ran;
          failed += attempt->outcome == AttemptOutcome::kFailed;
        } else if (attempt->outcome == AttemptOutcome::kPruned) {
          ++pruned;
          EXPECT_EQ(attempt->seconds, 0.0);
          EXPECT_FALSE(attempt->has_cg);
          EXPECT_FALSE(attempt->has_mip);
        }
      }
      skipped += rec.primary.outcome == AttemptOutcome::kPruned;
      rescued += rec.used_secondary;
      greedy += rec.fell_to_greedy;
      if (rec.bound_source == "pop") {
        ++split;
        pop_loss += std::max(0.0, rec.internal_affinity - rec.realized_affinity);
      }
    }
    EXPECT_GT(r->solver_failures, 0);
    EXPECT_GT(r->secondary_successes, 0);
    EXPECT_GT(pruned, 0);
    EXPECT_EQ(runs, ran);
    EXPECT_EQ(r->solver_failures, failed);
    EXPECT_EQ(r->secondary_successes, rescued);
    EXPECT_EQ(r->greedy_fallbacks, greedy);
    EXPECT_EQ(r->breaker_skips, skipped);
    EXPECT_EQ(r->pop_splits, split);
    EXPECT_EQ(r->pop_quality_loss, pop_loss);
    ASSERT_EQ(r->subproblems.size(), r->report.records.size());
  }
}

}  // namespace
}  // namespace rasa
