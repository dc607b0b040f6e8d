// Golden workflow digests. The crash-recovery suites compare a resumed run
// with an uninterrupted run of the same build, so a change that moves both
// the same way passes them all. This suite pins what the control loop
// produces on a fixed set of scenarios to digests recorded from a reference
// build, at 1 and 4 solver threads.
//
// Each digest is FNV-1a over a canonical JSON rendering (doubles at %.17g)
// of every WorkflowReport the scenario produced: the final placement
// triples, every counter and RecoveryStats field, and each CycleReport
// without `seconds`, `metrics` or the cost-anomaly verdict, with `explain`
// rendered without timings. Durable scenarios also cover the bytes of the
// final `journal.wal` and `checkpoint`, so state directories written by an
// older build still resume.
//
// A deliberate behaviour change re-pins a digest: the failure message
// prints the new value; say in the change description why it moved.

#include <functional>
#include <string>
#include <utility>

#include "cluster/generator.h"
#include "common/durable_io.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "core/explain.h"
#include "core/recovery.h"
#include "gtest/gtest.h"
#include "rasa_test_util.h"
#include "sim/fault_injection.h"
#include "sim/workflow.h"

namespace rasa {
namespace {

constexpr int kThreadCounts[] = {1, 4};

const ClusterSnapshot& TestSnapshot() {
  static const ClusterSnapshot* snapshot =
      new ClusterSnapshot(testing::MakeSnapshot(M3Spec(16.0), 41));
  return *snapshot;
}

// Bounded subproblems and a generous timeout: every solve stops on its
// planned work caps and the global deadline never fires, so every run is
// scheduling-independent.
WorkflowOptions BaseOptions(int threads) {
  WorkflowOptions options;
  options.cycles = 3;
  options.rasa.timeout_seconds = 15.0;
  options.rasa.partitioning.max_subproblem_services = 12;
  options.rasa.num_threads = threads;
  options.seed = 2024;
  return options;
}

std::string FreshStateDir(const std::string& name, int threads) {
  const std::string dir = ::testing::TempDir() + "/rasa_wf_golden_" + name +
                          "_t" + std::to_string(threads);
  std::remove((dir + "/journal.wal").c_str());
  std::remove((dir + "/checkpoint").c_str());
  std::remove((dir + "/checkpoint.prev").c_str());
  RASA_CHECK(EnsureDirectory(dir).ok());
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

void AppendCycle(JsonWriter& w, const CycleReport& c) {
  w.BeginObject();
  const std::pair<const char*, double> fields[] = {
      {"affinity_before", c.affinity_before},
      {"affinity_after", c.affinity_after},
      {"predicted", c.predicted_affinity},
      {"executed", c.executed},
      {"rolled_back", c.rolled_back},
      {"solver_failed", c.solver_failed},
      {"recovered", c.recovered},
      {"reached_target", c.reached_target},
      {"moved", c.moved_containers},
      {"batches", c.migration_batches},
      {"commands_failed", c.commands_failed},
      {"retries", c.command_retries},
      {"replans", c.replans},
      {"truncation", c.migration_truncation},
      {"incremental", c.incremental},
      {"dirty", c.dirty_subproblems},
      {"reused", c.reused_subproblems},
  };
  for (const auto& [key, value] : fields) w.Key(key).Value(value);
  w.Key("reason").Value(c.incremental_reason);
  w.Key("explain");
  AppendExplainJson(w, c.explain, /*include_timings=*/false);
  // Telemetry verdicts without the cost anomaly (it scores wall seconds).
  const CycleTelemetry& t = c.telemetry;
  w.Key("telemetry").BeginArray().Value(t.populated);
  for (const SloStatus& s : t.slo) {
    w.BeginArray().Value(s.name).Value(s.value).Value(s.has_value);
    w.Value(s.violated).Value(s.fast_burn_rate).Value(s.slow_burn_rate);
    w.Value(static_cast<int>(s.alert)).EndArray();
  }
  w.Value(t.gap.anomalous).Value(t.gap.zscore).Value(t.gap.ewma);
  w.Value(t.gap.ewm_std).EndArray();
  w.EndObject();
}

void AppendReport(JsonWriter& w, const WorkflowReport& r) {
  w.BeginObject();
  w.Key("placement").BeginArray();
  const Placement& p = r.final_placement;
  for (int m = 0; m < p.cluster()->num_machines(); ++m) {
    for (const auto& [s, count] : p.ServicesOn(m)) {
      w.BeginArray().Value(m).Value(s).Value(count).EndArray();
    }
  }
  w.EndArray();
  const RecoveryStats& rs = r.recovery;
  const std::pair<const char*, int> counters[] = {
      {"executions", r.executions},
      {"dry_runs", r.dry_runs},
      {"rollbacks", r.rollbacks},
      {"solver_failures", r.solver_failures},
      {"partial_executions", r.partial_executions},
      {"commands_failed", r.commands_failed},
      {"command_retries", r.command_retries},
      {"replans", r.replans},
      {"sla_violations", r.sla_violations},
      {"feasibility_violations", r.feasibility_violations},
      {"faults_injected", r.faults_injected},
      {"cordons_fired", r.cordons_fired},
      {"crashed", r.crashed},
      {"resumed_cycle", r.resumed_cycle},
      {"recovered", rs.recovered},
      {"used_previous_checkpoint", rs.used_previous_checkpoint},
      {"journal_torn_tail", rs.journal_torn_tail},
      {"commands_applied_pre_crash", rs.commands_applied_pre_crash},
      {"commands_not_applied", rs.commands_not_applied},
      {"commands_torn", rs.commands_torn},
      {"commands_rolled_forward", rs.commands_rolled_forward},
      {"batches_rolled_forward", rs.batches_rolled_forward},
      {"drift_moves_rolled_forward", rs.drift_moves_rolled_forward},
      {"phases_abandoned", rs.phases_abandoned},
      {"cycles_completed_from_journal", rs.cycles_completed_from_journal},
  };
  for (const auto& [key, value] : counters) w.Key(key).Value(value);
  w.Key("cycles").BeginArray();
  for (const CycleReport& c : r.cycles) AppendCycle(w, c);
  w.EndArray();
  w.EndObject();
}

// FNV-1a of the durable files a run left in `dir`.
void AppendStateFiles(JsonWriter& w, const std::string& dir) {
  for (const char* name : {"journal.wal", "checkpoint"}) {
    StatusOr<std::string> bytes = ReadFileToString(dir + "/" + name);
    RASA_CHECK(bytes.ok()) << bytes.status().ToString();
    w.Key(name).Value(testing::Fnv1a(*bytes));
  }
}

// One uninterrupted run; durable when `name` is non-empty.
std::string DigestOfRun(WorkflowOptions options, const std::string& name,
                        int threads, WorkflowReport* out) {
  JsonWriter w;
  w.BeginObject();
  if (!name.empty()) options.state_dir = FreshStateDir(name, threads);
  *out = MustRun(options, TestSnapshot().original_placement);
  w.Key("run");
  AppendReport(w, *out);
  if (!name.empty()) AppendStateFiles(w, options.state_dir);
  w.EndObject();
  return testing::Fnv1a(w.str());
}

// Runs with `crash` faults until the crash point fires, lets `tamper` damage
// the state directory, then resumes from the crashed world. The digest
// covers both reports and the final durable files.
std::string DigestOfCrashAndResume(
    const std::string& name, const WorkflowOptions& options,
    const FaultInjectionOptions& crash, WorkflowReport* resumed,
    const std::function<void(const std::string&)>& tamper = nullptr) {
  const std::string dir = FreshStateDir(name, options.rasa.num_threads);
  WorkflowOptions crash_options = options;
  crash_options.state_dir = dir;
  crash_options.inject_faults = true;
  crash_options.faults = crash;
  const WorkflowReport crashed =
      MustRun(crash_options, TestSnapshot().original_placement);
  EXPECT_TRUE(crashed.crashed) << "crash point never fired";
  if (tamper) tamper(dir);

  WorkflowOptions resume_options = options;
  resume_options.state_dir = dir;
  resume_options.resume = true;
  *resumed = MustRun(resume_options, crashed.final_placement);
  EXPECT_FALSE(resumed->crashed);
  EXPECT_EQ(resumed->sla_violations, 0);
  EXPECT_EQ(resumed->feasibility_violations, 0);

  JsonWriter w;
  w.BeginObject();
  w.Key("crashed");
  AppendReport(w, crashed);
  w.Key("resumed");
  AppendReport(w, *resumed);
  AppendStateFiles(w, dir);
  w.EndObject();
  return testing::Fnv1a(w.str());
}

TEST(GoldenWorkflowDigestTest, FaultFree) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    WorkflowOptions options = BaseOptions(threads);
    options.telemetry.enabled = true;
    WorkflowReport report;
    const std::string digest = DigestOfRun(options, "", threads, &report);
    EXPECT_GT(report.executions, 0);
    EXPECT_EQ(report.commands_failed, 0);
    EXPECT_EQ(digest, "989568898a113bae");
  }
}

// Transient command failures, a mid-migration cordon, a stale snapshot
// and an optimizer failure: the executor retries, re-plans around the
// cordon and stops short of some targets.
TEST(GoldenWorkflowDigestTest, Chaos) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    WorkflowOptions options = BaseOptions(threads);
    options.cycles = 4;
    options.inject_faults = true;
    options.faults.command_failure_probability = 0.2;
    options.faults.cordon_after_commands = 40;
    options.faults.cordon_duration_cycles = 2;
    options.faults.stale_snapshot_drift = 0.02;
    options.faults.optimizer_failure_probability = 0.2;
    // Whether a cycle stops short of its target depends on which commands
    // fail; under this fault seed some cycle does, and one optimizer call
    // fails.
    options.faults.seed = 562;
    WorkflowReport report;
    const std::string digest = DigestOfRun(options, "chaos", threads, &report);
    EXPECT_GT(report.command_retries, 0);
    EXPECT_EQ(report.cordons_fired, 1);
    EXPECT_GT(report.replans, 0);
    EXPECT_GT(report.partial_executions, 0);
    EXPECT_GT(report.solver_failures, 0);
    EXPECT_EQ(report.sla_violations, 0);
    EXPECT_EQ(report.feasibility_violations, 0);
    EXPECT_EQ(digest, "253ce82791befa55");
  }
}

TEST(GoldenWorkflowDigestTest, DurableIncremental) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    WorkflowOptions options = BaseOptions(threads);
    options.cycles = 4;
    options.incremental = true;
    options.measurement_noise = 0.0;
    WorkflowReport report;
    const std::string digest =
        DigestOfRun(options, "incremental", threads, &report);
    int reused = 0;
    for (const CycleReport& c : report.cycles) reused += c.reused_subproblems;
    EXPECT_GT(reused, 0);
    EXPECT_EQ(digest, "685684812975b52f");
  }
}

TEST(GoldenWorkflowDigestTest, CrashMidCommand) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    FaultInjectionOptions crash;
    crash.crash_after_commands = 7;
    WorkflowReport resumed;
    const std::string digest = DigestOfCrashAndResume(
        "mid_command", BaseOptions(threads), crash, &resumed);
    EXPECT_GT(resumed.recovery.commands_rolled_forward, 0);
    EXPECT_EQ(digest, "61e0b31d71aa9ead");
  }
}

TEST(GoldenWorkflowDigestTest, CrashMidBatch) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    FaultInjectionOptions crash;
    crash.crash_after_batches = 2;
    WorkflowReport resumed;
    const std::string digest = DigestOfCrashAndResume(
        "mid_batch", BaseOptions(threads), crash, &resumed);
    EXPECT_GT(resumed.recovery.commands_applied_pre_crash, 0);
    EXPECT_EQ(digest, "735093983e1c4ee4");
  }
}

TEST(GoldenWorkflowDigestTest, CrashMidDrift) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    FaultInjectionOptions crash;
    crash.crash_after_drift_moves = 3;
    WorkflowReport resumed;
    const std::string digest = DigestOfCrashAndResume(
        "mid_drift", BaseOptions(threads), crash, &resumed);
    EXPECT_GT(resumed.recovery.drift_moves_rolled_forward, 0);
    EXPECT_EQ(digest, "e88db0eb00eb5a4f");
  }
}

TEST(GoldenWorkflowDigestTest, CrashBeforeCheckpoint) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    FaultInjectionOptions crash;
    crash.crash_before_checkpoint_cycle = 1;
    WorkflowReport resumed;
    const std::string digest = DigestOfCrashAndResume(
        "pre_checkpoint", BaseOptions(threads), crash, &resumed);
    EXPECT_GT(resumed.recovery.cycles_completed_from_journal, 0);
    EXPECT_EQ(digest, "afbf8e31c96e0118");
  }
}

// Incremental mode, crash before cycle 1's checkpoint: recovery restores
// the journaled delta state, and the live cycles after it diff against it.
TEST(GoldenWorkflowDigestTest, IncrementalCrashBeforeCheckpoint) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    WorkflowOptions options = BaseOptions(threads);
    options.cycles = 4;
    options.incremental = true;
    options.measurement_noise = 0.0;
    FaultInjectionOptions crash;
    crash.crash_before_checkpoint_cycle = 1;
    WorkflowReport resumed;
    const std::string digest = DigestOfCrashAndResume(
        "incremental_pre_checkpoint", options, crash, &resumed);
    int reused = 0;
    for (const CycleReport& c : resumed.cycles) reused += c.reused_subproblems;
    EXPECT_GT(reused, 0);
    EXPECT_EQ(digest, "f9343c39c338dd89");
  }
}

// A mid-migration cordon, then a crash: commands aimed at the cordoned
// machine failed inside committed batches, so the journaled path no
// longer explains the observed world and recovery abandons it for the
// journaled target.
TEST(GoldenWorkflowDigestTest, CrashUnderCordon) {
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    FaultInjectionOptions crash;
    crash.cordon_after_commands = 15;
    crash.crash_after_commands = 40;
    WorkflowReport resumed;
    const std::string digest = DigestOfCrashAndResume(
        "cordon", BaseOptions(threads), crash, &resumed);
    EXPECT_GT(resumed.recovery.phases_abandoned, 0);
    EXPECT_EQ(digest, "e2094579509be437");
  }
}

// A crash mid-command, then a torn journal tail. Cutting into the last
// frame loses the in-flight batch's intent: the command at the applied
// prefix is classified torn. Cutting deeper also loses the previous
// batch's commit: no prefix of the in-flight batch explains the observed
// world, so all of it is torn and the roll-forward abandons.
TEST(GoldenWorkflowDigestTest, TruncatedJournalTail) {
  struct Case {
    long crash_after_commands;
    size_t cut_back;
    const char* digest;
  };
  for (const Case& c : {Case{7, 19, "fa235ad04f220731"},
                        Case{12, 100, "e35c21a1a675e3bf"}}) {
    for (int threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message() << c.cut_back << " bytes cut, "
                                        << threads << " threads");
      FaultInjectionOptions crash;
      crash.crash_after_commands = c.crash_after_commands;
      WorkflowReport resumed;
      const std::string digest = DigestOfCrashAndResume(
          "torn_tail_" + std::to_string(c.cut_back), BaseOptions(threads),
          crash,
          &resumed, [&c](const std::string& dir) {
            const std::string path = dir + "/journal.wal";
            StatusOr<std::string> journal = ReadFileToString(path);
            RASA_CHECK(journal.ok() && journal->size() > c.cut_back);
            RASA_CHECK(TruncateFileAt(path, journal->size() - c.cut_back).ok());
          });
      EXPECT_TRUE(resumed.recovery.journal_torn_tail);
      EXPECT_GT(resumed.recovery.commands_torn, 0);
      EXPECT_EQ(digest, c.digest);
    }
  }
}

}  // namespace
}  // namespace rasa
