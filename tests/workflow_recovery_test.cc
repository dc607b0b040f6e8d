// Chaos-recovery determinism suite (the tentpole acceptance criterion):
// for every simulated crash point — mid-command, mid-batch, mid-drift,
// before-checkpoint — and for torn-write truncation of the durable files,
// recover + resume must finish with zero SLA/feasibility violations and a
// final placement bit-identical to the uninterrupted run, at 1, 4 and 8
// solver threads.

#include <map>
#include <string>
#include <vector>

#include "cluster/generator.h"
#include "common/durable_io.h"
#include "common/logging.h"
#include "common/telemetry.h"
#include "core/objective.h"
#include "core/recovery.h"
#include "gtest/gtest.h"
#include "sim/fault_injection.h"
#include "sim/workflow.h"

namespace rasa {
namespace {

constexpr int kThreadCounts[] = {1, 4, 8};

const ClusterSnapshot& TestSnapshot() {
  static const ClusterSnapshot* snapshot = [] {
    ClusterSpec spec = M3Spec(16.0);
    spec.seed = 41;
    StatusOr<ClusterSnapshot> s = GenerateCluster(spec);
    EXPECT_TRUE(s.ok());
    return new ClusterSnapshot(*std::move(s));
  }();
  return *snapshot;
}

WorkflowOptions BaseOptions(int threads) {
  WorkflowOptions options;
  options.cycles = 3;
  // Bounded subproblems plus a generous deadline: every solve stops on its
  // planned work caps well inside the timeout even when ctest runs the
  // whole suite in parallel, so Deadline::Expired() never fires and the
  // output is bit-reproducible regardless of machine load (same reasoning
  // as core_rasa_determinism_test).
  options.rasa.timeout_seconds = 15.0;
  options.rasa.partitioning.max_subproblem_services = 12;
  options.rasa.num_threads = threads;
  options.seed = 2024;
  return options;
}

std::string FreshStateDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/rasa_wf_recovery_" + name;
  std::remove((dir + "/journal.wal").c_str());
  std::remove((dir + "/checkpoint").c_str());
  std::remove((dir + "/checkpoint.prev").c_str());
  EXPECT_TRUE(EnsureDirectory(dir).ok());
  return dir;
}

WorkflowReport MustRun(const WorkflowOptions& options,
                       const Placement& initial) {
  StatusOr<WorkflowReport> report = RunWorkflow(
      *TestSnapshot().cluster, initial,
      AlgorithmSelector(SelectorPolicy::kHeuristic), options);
  RASA_CHECK(report.ok()) << report.status().ToString();
  return *std::move(report);
}

// The uninterrupted durable run at `threads`, computed once per thread
// count and shared by every crash scenario.
const WorkflowReport& Baseline(int threads) {
  static std::map<int, WorkflowReport>* cache =
      new std::map<int, WorkflowReport>();
  auto it = cache->find(threads);
  if (it == cache->end()) {
    WorkflowOptions options = BaseOptions(threads);
    options.state_dir =
        FreshStateDir("baseline_t" + std::to_string(threads));
    it = cache
             ->emplace(threads,
                       MustRun(options, TestSnapshot().original_placement))
             .first;
    EXPECT_FALSE(it->second.crashed);
    EXPECT_EQ(it->second.sla_violations, 0);
    EXPECT_EQ(it->second.feasibility_violations, 0);
  }
  return it->second;
}

// Runs to the given crash point (asserting it fired), then resumes from the
// crashed world and checks the recovery contract: no violations, and the
// final placement bit-identical to the uninterrupted run.
void CheckCrashRecovery(const std::string& name, int threads,
                        const FaultInjectionOptions& crash_faults) {
  SCOPED_TRACE(name + " threads=" + std::to_string(threads));
  const WorkflowReport& baseline = Baseline(threads);
  const std::string dir =
      FreshStateDir(name + "_t" + std::to_string(threads));

  WorkflowOptions crash_options = BaseOptions(threads);
  crash_options.state_dir = dir;
  crash_options.inject_faults = true;
  crash_options.faults = crash_faults;
  const WorkflowReport crashed =
      MustRun(crash_options, TestSnapshot().original_placement);
  ASSERT_TRUE(crashed.crashed) << "crash point never fired";

  // Restart: the new controller observes the dead one's live placement.
  WorkflowOptions resume_options = BaseOptions(threads);
  resume_options.state_dir = dir;
  resume_options.resume = true;
  const WorkflowReport resumed =
      MustRun(resume_options, crashed.final_placement);

  EXPECT_FALSE(resumed.crashed);
  EXPECT_GE(resumed.resumed_cycle, 0);
  EXPECT_TRUE(resumed.recovery.recovered);
  EXPECT_EQ(resumed.sla_violations, 0);
  EXPECT_EQ(resumed.feasibility_violations, 0);
  EXPECT_EQ(resumed.final_placement.SymmetricDiff(baseline.final_placement), 0)
      << "recovered placement diverged from the uninterrupted run";
  EXPECT_DOUBLE_EQ(
      GainedAffinity(*TestSnapshot().cluster, resumed.final_placement),
      GainedAffinity(*TestSnapshot().cluster, baseline.final_placement));
  EXPECT_TRUE(resumed.final_placement.CheckFeasible(false).ok());
}

// Durable mode must not perturb the control loop: with a state directory
// attached (checkpoints + journal active) the run draws the identical
// random sequence and lands on the identical final placement.
TEST(WorkflowRecoveryTest, DurableRunMatchesInMemoryRun) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const WorkflowReport in_memory =
        MustRun(BaseOptions(threads), TestSnapshot().original_placement);
    const WorkflowReport& durable = Baseline(threads);
    EXPECT_EQ(
        in_memory.final_placement.SymmetricDiff(durable.final_placement), 0);
    EXPECT_EQ(in_memory.executions, durable.executions);
    EXPECT_EQ(in_memory.dry_runs, durable.dry_runs);
  }
}

// The optimizer pipeline is thread-count deterministic, so the recovery
// baseline itself must agree across 1/4/8 threads.
TEST(WorkflowRecoveryTest, BaselineIdenticalAcrossThreadCounts) {
  const WorkflowReport& one = Baseline(1);
  for (int threads : {4, 8}) {
    EXPECT_EQ(
        Baseline(threads).final_placement.SymmetricDiff(one.final_placement), 0)
        << threads << " threads";
  }
}

TEST(WorkflowRecoveryTest, CrashMidCommandInFirstCycle) {
  for (int threads : kThreadCounts) {
    FaultInjectionOptions faults;
    faults.crash_after_commands = 7;  // dies inside cycle 0's first batches
    CheckCrashRecovery("mid_command", threads, faults);
  }
}

TEST(WorkflowRecoveryTest, CrashMidCommandInLaterCycle) {
  for (int threads : kThreadCounts) {
    // Land mid-way through the execution of the first cycle after cycle 0
    // that moves at least two containers (a cycle whose predicted gain is
    // under the execution threshold is a dry run): past all earlier
    // commands (taken from the baseline report) plus half of its own.
    const WorkflowReport& baseline = Baseline(threads);
    long before = baseline.cycles.empty()
                      ? 0
                      : baseline.cycles[0].moved_containers;
    long moved = 0;
    for (size_t c = 1; c < baseline.cycles.size(); ++c) {
      if (baseline.cycles[c].moved_containers >= 2) {
        moved = baseline.cycles[c].moved_containers;
        break;
      }
      before += baseline.cycles[c].moved_containers;
    }
    ASSERT_GE(moved, 2) << "no later cycle moves two containers";
    FaultInjectionOptions faults;
    faults.crash_after_commands = before + moved / 2;
    CheckCrashRecovery("mid_command_late", threads, faults);
  }
}

TEST(WorkflowRecoveryTest, CrashMidBatchBeforeCommit) {
  for (int threads : kThreadCounts) {
    FaultInjectionOptions faults;
    // Dies after a batch fully applied + audited, before its commit record
    // reached the journal: recovery must classify that batch from the
    // observed placement, not the journal.
    faults.crash_after_batches = 2;
    CheckCrashRecovery("mid_batch", threads, faults);
  }
}

TEST(WorkflowRecoveryTest, CrashMidDrift) {
  for (int threads : kThreadCounts) {
    FaultInjectionOptions faults;
    faults.crash_after_drift_moves = 3;  // dies applying cycle 0's drift
    CheckCrashRecovery("mid_drift", threads, faults);
  }
}

TEST(WorkflowRecoveryTest, CrashBeforeCheckpoint) {
  for (int threads : kThreadCounts) {
    FaultInjectionOptions faults;
    // The whole of cycle 1 (execution, drift) is applied and journaled but
    // the checkpoint write never happens: resume replays it entirely from
    // the journal.
    faults.crash_before_checkpoint_cycle = 1;
    CheckCrashRecovery("pre_checkpoint", threads, faults);
  }
}

// Crash mid-batch, then additionally tear the journal tail at several byte
// offsets (the crash also corrupted the last append). Recovery classifies
// the lost work from the observed placement and still converges to the
// uninterrupted final placement.
TEST(WorkflowRecoveryTest, TornJournalTailStillRecovers) {
  const int threads = 1;
  const WorkflowReport& baseline = Baseline(threads);

  for (const size_t cut_back : {1u, 19u, 64u}) {
    SCOPED_TRACE(cut_back);
    const std::string dir =
        FreshStateDir("torn_journal_" + std::to_string(cut_back));
    WorkflowOptions crash_options = BaseOptions(threads);
    crash_options.state_dir = dir;
    crash_options.inject_faults = true;
    crash_options.faults.crash_after_batches = 3;
    const WorkflowReport crashed =
        MustRun(crash_options, TestSnapshot().original_placement);
    ASSERT_TRUE(crashed.crashed);

    StatusOr<std::string> journal = ReadFileToString(dir + "/journal.wal");
    ASSERT_TRUE(journal.ok());
    ASSERT_GT(journal->size(), cut_back);
    ASSERT_TRUE(
        TruncateFileAt(dir + "/journal.wal", journal->size() - cut_back)
            .ok());

    WorkflowOptions resume_options = BaseOptions(threads);
    resume_options.state_dir = dir;
    resume_options.resume = true;
    const WorkflowReport resumed =
        MustRun(resume_options, crashed.final_placement);
    EXPECT_EQ(resumed.sla_violations, 0);
    EXPECT_EQ(resumed.feasibility_violations, 0);
    EXPECT_EQ(resumed.final_placement.SymmetricDiff(baseline.final_placement),
              0);
  }
}

// Tear the *current* checkpoint after a clean run: resume falls back to
// checkpoint.prev and replays the missing cycle from the journal, landing
// on the identical final placement.
TEST(WorkflowRecoveryTest, TornCheckpointFallsBackToPrevious) {
  const int threads = 1;
  const std::string dir = FreshStateDir("torn_checkpoint");
  WorkflowOptions options = BaseOptions(threads);
  options.state_dir = dir;
  const WorkflowReport clean =
      MustRun(options, TestSnapshot().original_placement);
  ASSERT_FALSE(clean.crashed);

  StatusOr<std::string> checkpoint = ReadFileToString(dir + "/checkpoint");
  StatusOr<std::string> previous =
      ReadFileToString(dir + "/checkpoint.prev");
  ASSERT_TRUE(checkpoint.ok());
  ASSERT_TRUE(previous.ok());
  for (const size_t cut : {size_t{0}, checkpoint->size() / 2,
                           checkpoint->size() - 1}) {
    SCOPED_TRACE(cut);
    // Restore the crash scene each round: the previous resume rotated the
    // torn current file into checkpoint.prev when it re-checkpointed.
    ASSERT_TRUE(AtomicWriteFile(dir + "/checkpoint",
                                checkpoint->substr(0, cut))
                    .ok());
    ASSERT_TRUE(AtomicWriteFile(dir + "/checkpoint.prev", *previous).ok());
    WorkflowOptions resume_options = BaseOptions(threads);
    resume_options.state_dir = dir;
    resume_options.resume = true;
    const WorkflowReport resumed =
        MustRun(resume_options, clean.final_placement);
    EXPECT_TRUE(resumed.recovery.used_previous_checkpoint);
    EXPECT_EQ(resumed.sla_violations, 0);
    EXPECT_EQ(resumed.feasibility_violations, 0);
    EXPECT_EQ(resumed.final_placement.SymmetricDiff(clean.final_placement), 0);
  }
}

// Resuming a cleanly finished run is a no-op: nothing to replay, nothing
// changed, and the recovery stats say so.
TEST(WorkflowRecoveryTest, ResumeAfterCleanShutdownIsANoOp) {
  const int threads = 1;
  const WorkflowReport& baseline = Baseline(threads);
  const std::string dir = "baseline_t1";  // reuse the baseline's state dir
  WorkflowOptions resume_options = BaseOptions(threads);
  resume_options.state_dir =
      ::testing::TempDir() + "/rasa_wf_recovery_" + dir;
  resume_options.resume = true;
  const WorkflowReport resumed =
      MustRun(resume_options, baseline.final_placement);
  EXPECT_EQ(resumed.resumed_cycle, 3);
  EXPECT_TRUE(resumed.cycles.empty());
  EXPECT_EQ(resumed.recovery.cycles_completed_from_journal, 0);
  EXPECT_EQ(resumed.final_placement.SymmetricDiff(baseline.final_placement), 0);
  // Counters carried over from the checkpoint, not reset.
  EXPECT_EQ(resumed.executions, baseline.executions);
  EXPECT_EQ(resumed.dry_runs, baseline.dry_runs);
}

// --- Telemetry across a resume ---------------------------------------------
// The SLO and anomaly verdicts are a fold over the recorded cycle samples,
// so a resumed run must rebuild the fold from `telemetry.jsonl` and report
// what the uninterrupted run reports.

constexpr int kTelemetryCycles = 4;

std::string FreshTelemetryDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/rasa_wf_telemetry_" + name;
  std::remove((dir + "/telemetry.jsonl").c_str());
  EXPECT_TRUE(EnsureDirectory(dir).ok());
  return dir;
}

WorkflowOptions TelemetryOptionsFor(int threads, const std::string& name) {
  WorkflowOptions options = BaseOptions(threads);
  options.cycles = kTelemetryCycles;
  options.state_dir = FreshStateDir(name);
  options.telemetry_dir = FreshTelemetryDir(name);
  return options;
}

// The uninterrupted telemetry run at `threads`, computed once per count.
const WorkflowReport& TelemetryBaseline(int threads) {
  static std::map<int, WorkflowReport>* cache =
      new std::map<int, WorkflowReport>();
  auto it = cache->find(threads);
  if (it == cache->end()) {
    const WorkflowOptions options = TelemetryOptionsFor(
        threads, "telemetry_baseline_t" + std::to_string(threads));
    it = cache
             ->emplace(threads,
                       MustRun(options, TestSnapshot().original_placement))
             .first;
    EXPECT_EQ(it->second.cycles.size(), size_t{kTelemetryCycles});
  }
  return it->second;
}

void ExpectSameSloStatuses(const CycleTelemetry& got,
                           const CycleTelemetry& want) {
  ASSERT_TRUE(got.populated);
  ASSERT_EQ(got.slo.size(), want.slo.size());
  for (size_t i = 0; i < got.slo.size(); ++i) {
    SCOPED_TRACE(got.slo[i].name);
    EXPECT_EQ(got.slo[i].name, want.slo[i].name);
    EXPECT_EQ(got.slo[i].value, want.slo[i].value);
    EXPECT_EQ(got.slo[i].has_value, want.slo[i].has_value);
    EXPECT_EQ(got.slo[i].violated, want.slo[i].violated);
    EXPECT_EQ(got.slo[i].fast_burn_rate, want.slo[i].fast_burn_rate);
    EXPECT_EQ(got.slo[i].slow_burn_rate, want.slo[i].slow_burn_rate);
    EXPECT_EQ(got.slo[i].alert, want.slo[i].alert);
  }
}

// The recorded cycle numbers of `<dir>/telemetry.jsonl`, in file order.
std::vector<int> JournalCycles(const std::string& dir) {
  StatusOr<std::string> text = ReadFileToString(dir + "/telemetry.jsonl");
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  std::vector<int> cycles;
  size_t offset = 0;
  for (size_t nl; text.ok() && (nl = text->find('\n', offset)) !=
                                   std::string::npos;
       offset = nl + 1) {
    StatusOr<JsonValue> line = ParseJson(text->substr(offset, nl - offset));
    EXPECT_TRUE(line.ok()) << line.status().ToString();
    if (line.ok() && line->Get("cycle") != nullptr) {
      cycles.push_back(static_cast<int>(line->Get("cycle")->number));
    }
  }
  return cycles;
}

// Stop after two cycles, then --resume to four: the resumed cycles' SLO
// windows and gap baselines carry the first two cycles, exactly as in the
// uninterrupted run. (The cost anomaly scores wall seconds: left out.)
TEST(WorkflowRecoveryTest, ResumedTelemetryMatchesUninterruptedRun) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const WorkflowReport& baseline = TelemetryBaseline(threads);
    WorkflowOptions options =
        TelemetryOptionsFor(threads, "telemetry_stop_t" +
                                         std::to_string(threads));
    options.cycles = 2;
    const WorkflowReport first =
        MustRun(options, TestSnapshot().original_placement);
    ASSERT_EQ(first.cycles.size(), 2u);

    options.cycles = kTelemetryCycles;
    options.resume = true;
    const WorkflowReport resumed = MustRun(options, first.final_placement);
    EXPECT_EQ(resumed.resumed_cycle, 2);
    ASSERT_EQ(resumed.cycles.size(), 2u);
    for (size_t c = 0; c < resumed.cycles.size(); ++c) {
      SCOPED_TRACE(::testing::Message() << "cycle " << 2 + c);
      const CycleTelemetry& got = resumed.cycles[c].telemetry;
      const CycleTelemetry& want = baseline.cycles[2 + c].telemetry;
      ExpectSameSloStatuses(got, want);
      EXPECT_EQ(got.gap.anomalous, want.gap.anomalous);
      EXPECT_EQ(got.gap.zscore, want.gap.zscore);
      EXPECT_EQ(got.gap.ewma, want.gap.ewma);
      EXPECT_EQ(got.gap.ewm_std, want.gap.ewm_std);
    }
    EXPECT_EQ(JournalCycles(options.telemetry_dir),
              (std::vector<int>{0, 1, 2, 3}));
  }
}

// A crash after cycle 1 recorded its sample but before its checkpoint: the
// resume redoes cycle 1 from the write-ahead journal, so the journal must
// drop the first recording instead of holding cycle 1 twice, and the redone
// cycle must report what the uninterrupted run reported.
TEST(WorkflowRecoveryTest, CrashBeforeCheckpointRecordsEachCycleOnce) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    const WorkflowReport& baseline = TelemetryBaseline(threads);
    WorkflowOptions options =
        TelemetryOptionsFor(threads, "telemetry_crash_t" +
                                         std::to_string(threads));
    options.inject_faults = true;
    options.faults.crash_before_checkpoint_cycle = 1;
    const WorkflowReport crashed =
        MustRun(options, TestSnapshot().original_placement);
    ASSERT_TRUE(crashed.crashed) << "crash point never fired";

    WorkflowOptions resume_options = options;
    resume_options.inject_faults = false;
    resume_options.faults = {};
    resume_options.resume = true;
    const WorkflowReport resumed =
        MustRun(resume_options, crashed.final_placement);
    ASSERT_EQ(resumed.resumed_cycle, 1);
    EXPECT_EQ(JournalCycles(options.telemetry_dir),
              (std::vector<int>{0, 1, 2, 3}));
    ASSERT_EQ(resumed.cycles.size(), size_t{kTelemetryCycles - 1});
    for (size_t c = 0; c < resumed.cycles.size(); ++c) {
      SCOPED_TRACE(::testing::Message() << "cycle " << 1 + c);
      // The recovered cycle served the placement it rebuilt before the
      // drift, not the partly drifted one the crash left behind.
      EXPECT_EQ(resumed.cycles[c].affinity_after,
                baseline.cycles[1 + c].affinity_after);
      ExpectSameSloStatuses(resumed.cycles[c].telemetry,
                            baseline.cycles[1 + c].telemetry);
    }
  }
}

// The `recover` inspection must work on a live crash scene.
TEST(WorkflowRecoveryTest, InspectionOfACrashedRun) {
  const int threads = 1;
  const std::string dir = FreshStateDir("inspect_crash");
  WorkflowOptions crash_options = BaseOptions(threads);
  crash_options.state_dir = dir;
  crash_options.inject_faults = true;
  crash_options.faults.crash_after_commands = 7;
  const WorkflowReport crashed =
      MustRun(crash_options, TestSnapshot().original_placement);
  ASSERT_TRUE(crashed.crashed);

  StatusOr<std::string> text = FormatRecoveryInspection(dir);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("IN FLIGHT"), std::string::npos) << *text;
  EXPECT_NE(text->find("command classification"), std::string::npos);
  EXPECT_NE(text->find("--resume"), std::string::npos);
}

}  // namespace
}  // namespace rasa
