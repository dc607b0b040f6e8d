// Bit-identity matrix for incremental re-optimization (the acceptance
// criterion of the delta-aware control loop): with full-drift input the
// incremental path must be indistinguishable from the stock full resolve —
// placements and timing-stripped explain reports bit-identical — at 1, 4
// and 8 solver threads, and a `--resume` after a mid-cycle crash must
// replay an incremental workflow to the same final placement as the
// uninterrupted run.
//
// Timeouts are generous so the global deadline never fires mid-solve (see
// core_rasa_determinism_test.cc for the reasoning).

#include <cstdio>
#include <string>
#include <vector>

#include "cluster/generator.h"
#include "common/durable_io.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "core/explain.h"
#include "core/objective.h"
#include "core/rasa.h"
#include "gtest/gtest.h"
#include "rasa_test_util.h"
#include "sim/workflow.h"

namespace rasa {
namespace {

constexpr int kThreadCounts[] = {1, 4, 8};

const ClusterSnapshot& TestSnapshot() {
  static const ClusterSnapshot* snapshot =
      new ClusterSnapshot(testing::MakeSnapshot(M1Spec(40.0), 23));
  return *snapshot;
}

RasaOptions SolverOptions(int threads) {
  RasaOptions options;
  options.timeout_seconds = 30.0;
  options.partitioning.max_subproblem_services = 12;
  options.num_threads = threads;
  options.seed = 99;
  return options;
}

std::string TimingStrippedExplainJson(const ExplainReport& report) {
  JsonWriter w;
  AppendExplainJson(w, report, /*include_timings=*/false);
  return w.str();
}

// Bit-exact equality of everything except wall-clock timings and the
// incremental accounting, which is the one intended difference between a
// stateless solve and a full-resolve fallback.
void ExpectIdenticalResults(const RasaResult& full, RasaResult inc) {
  inc.incremental_reason.clear();
  inc.dirty_subproblems = 0;
  EXPECT_EQ(testing::CanonicalResultJson(full),
            testing::CanonicalResultJson(inc));
}

// The cold-start fallback (invalid state) must be the stock pipeline:
// the incremental path == a cold Optimize, bit for bit, at every thread count.
TEST(IncrementalDeterminismTest, ColdStartMatchesFullResolve) {
  const ClusterSnapshot& snapshot = TestSnapshot();
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const RasaOptimizer optimizer(
        SolverOptions(threads), AlgorithmSelector(SelectorPolicy::kHeuristic));
    StatusOr<RasaResult> full =
        optimizer.Optimize(*snapshot.cluster, snapshot.original_placement);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    IncrementalState state;
    StatusOr<RasaResult> inc = optimizer.Optimize(
        *snapshot.cluster, snapshot.original_placement,
        OptimizeContext(nullptr, &state));
    ASSERT_TRUE(inc.ok()) << inc.status().ToString();
    EXPECT_FALSE(inc->incremental);
    ExpectIdenticalResults(*full, *inc);
  }
}

// Full-drift input: every subproblem re-weighted past the tolerance, so
// the differ's drift threshold forces the full-resolve fallback — which
// must again be bit-identical to plain Optimize on the same input.
TEST(IncrementalDeterminismTest, FullDriftInputMatchesFullResolve) {
  const ClusterSnapshot& snapshot = TestSnapshot();
  AffinityGraph skewed(snapshot.cluster->num_services());
  int i = 0;
  for (const AffinityEdge& e : snapshot.cluster->affinity().edges()) {
    skewed.AddEdge(e.u, e.v, e.weight * (1.0 + 0.2 * (++i % 5) + 0.01));
  }
  skewed.NormalizeWeights();
  const Cluster drifted(snapshot.cluster->resource_names(),
                        snapshot.cluster->services(),
                        snapshot.cluster->machines(), std::move(skewed),
                        snapshot.cluster->anti_affinity());
  Placement rebound(drifted);
  for (int m = 0; m < drifted.num_machines(); ++m) {
    for (const auto& [s, count] : snapshot.original_placement.ServicesOn(m)) {
      rebound.Add(m, s, count);
    }
  }
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const RasaOptimizer optimizer(
        SolverOptions(threads), AlgorithmSelector(SelectorPolicy::kHeuristic));
    // Prime the state on the original snapshot, then hit it with the
    // fully-drifted input.
    IncrementalState state;
    ASSERT_TRUE(optimizer
                    .Optimize(*snapshot.cluster, snapshot.original_placement,
                              OptimizeContext(nullptr, &state))
                    .ok());
    StatusOr<RasaResult> full = optimizer.Optimize(drifted, rebound);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    StatusOr<RasaResult> inc =
        optimizer.Optimize(drifted, rebound, OptimizeContext(nullptr, &state));
    ASSERT_TRUE(inc.ok()) << inc.status().ToString();
    EXPECT_FALSE(inc->incremental);
    EXPECT_EQ(inc->incremental_reason, "drift-threshold");
    ExpectIdenticalResults(*full, *inc);
  }
}

// The steady-state reuse path itself is scheduling-independent: an
// incremental workflow replays bit-for-bit at every thread count.
TEST(IncrementalDeterminismTest, IncrementalWorkflowAgreesAcrossThreads) {
  const ClusterSnapshot& snapshot = TestSnapshot();
  auto run = [&](int threads) {
    WorkflowOptions options;
    options.cycles = 3;
    options.drift_fraction = 0.02;
    // Noise-free measurement: per-cycle weight noise is full drift to the
    // differ and would force the fallback every cycle.
    options.measurement_noise = 0.0;
    options.rasa = SolverOptions(threads);
    options.rasa.timeout_seconds = 15.0;
    options.incremental = true;
    options.seed = 909;
    StatusOr<WorkflowReport> report = RunWorkflow(
        *snapshot.cluster, snapshot.original_placement,
        AlgorithmSelector(SelectorPolicy::kHeuristic), options);
    RASA_CHECK(report.ok()) << report.status().ToString();
    return *std::move(report);
  };
  const WorkflowReport seq = run(1);
  // The run must actually exercise the reuse path, not just fall back.
  int reused_cycles = 0;
  for (const CycleReport& cr : seq.cycles) reused_cycles += cr.incremental;
  EXPECT_GT(reused_cycles, 0);
  for (int threads : {4, 8}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const WorkflowReport par = run(threads);
    EXPECT_EQ(seq.final_placement.DiffCount(par.final_placement), 0);
    EXPECT_EQ(par.final_placement.DiffCount(seq.final_placement), 0);
    ASSERT_EQ(seq.cycles.size(), par.cycles.size());
    for (size_t c = 0; c < seq.cycles.size(); ++c) {
      SCOPED_TRACE(::testing::Message() << "cycle " << c);
      EXPECT_EQ(seq.cycles[c].affinity_after, par.cycles[c].affinity_after);
      EXPECT_EQ(seq.cycles[c].incremental, par.cycles[c].incremental);
      EXPECT_EQ(seq.cycles[c].dirty_subproblems,
                par.cycles[c].dirty_subproblems);
      EXPECT_EQ(seq.cycles[c].reused_subproblems,
                par.cycles[c].reused_subproblems);
      EXPECT_EQ(seq.cycles[c].incremental_reason,
                par.cycles[c].incremental_reason);
      EXPECT_EQ(TimingStrippedExplainJson(seq.cycles[c].explain),
                TimingStrippedExplainJson(par.cycles[c].explain));
    }
  }
}

std::string FreshStateDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/rasa_incremental_" + name;
  std::remove((dir + "/journal.wal").c_str());
  std::remove((dir + "/checkpoint").c_str());
  std::remove((dir + "/checkpoint.prev").c_str());
  EXPECT_TRUE(EnsureDirectory(dir).ok());
  return dir;
}

// Crash an incremental durable run mid-cycle, resume it, and require the
// final placement to match the uninterrupted durable run bit-for-bit: the
// journaled/checkpointed delta state must hand the resumed run the exact
// cache the dead controller carried.
TEST(IncrementalDeterminismTest, ResumeAfterMidCycleCrashReplaysIdentically) {
  const ClusterSnapshot& snapshot = TestSnapshot();
  auto base_options = [&](int threads) {
    WorkflowOptions options;
    options.cycles = 3;
    options.drift_fraction = 0.02;
    options.measurement_noise = 0.0;
    options.rasa = SolverOptions(threads);
    options.rasa.timeout_seconds = 15.0;
    // Small drift recovers small improvements: keep the dry-run threshold
    // below them so every cycle executes and the command-crash point fires.
    options.rasa.min_improvement = 0.0005;
    options.incremental = true;
    options.seed = 909;
    return options;
  };
  auto must_run = [&](const WorkflowOptions& options,
                      const Placement& initial) {
    StatusOr<WorkflowReport> report = RunWorkflow(
        *snapshot.cluster, initial,
        AlgorithmSelector(SelectorPolicy::kHeuristic), options);
    RASA_CHECK(report.ok()) << report.status().ToString();
    return *std::move(report);
  };
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const std::string tag = "t" + std::to_string(threads);

    WorkflowOptions uninterrupted = base_options(threads);
    uninterrupted.state_dir = FreshStateDir("baseline_" + tag);
    const WorkflowReport baseline =
        must_run(uninterrupted, snapshot.original_placement);
    ASSERT_FALSE(baseline.crashed);
    int reused_cycles = 0;
    for (const CycleReport& cr : baseline.cycles) {
      reused_cycles += cr.incremental;
    }
    ASSERT_GT(reused_cycles, 0) << "baseline never exercised reuse";

    // Crash mid-execution of a later cycle: by then the delta state in the
    // journal/checkpoint is live and must survive the crash.
    WorkflowOptions crash_options = base_options(threads);
    crash_options.state_dir = FreshStateDir("crash_" + tag);
    crash_options.inject_faults = true;
    crash_options.faults.crash_after_commands =
        baseline.cycles[0].moved_containers + 3;
    const WorkflowReport crashed =
        must_run(crash_options, snapshot.original_placement);
    ASSERT_TRUE(crashed.crashed) << "crash point never fired";

    WorkflowOptions resume_options = base_options(threads);
    resume_options.state_dir = crash_options.state_dir;
    resume_options.resume = true;
    const WorkflowReport resumed =
        must_run(resume_options, crashed.final_placement);
    EXPECT_FALSE(resumed.crashed);
    EXPECT_TRUE(resumed.recovery.recovered);
    EXPECT_EQ(resumed.sla_violations, 0);
    EXPECT_EQ(resumed.feasibility_violations, 0);
    EXPECT_EQ(resumed.final_placement.DiffCount(baseline.final_placement), 0)
        << "resumed incremental run diverged from the uninterrupted one";
    EXPECT_EQ(baseline.final_placement.DiffCount(resumed.final_placement), 0);
    EXPECT_EQ(GainedAffinity(*snapshot.cluster, resumed.final_placement),
              GainedAffinity(*snapshot.cluster, baseline.final_placement));
  }
}

}  // namespace
}  // namespace rasa
