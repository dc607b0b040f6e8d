#include "core/recovery.h"

#include <cstdio>
#include <memory>
#include <string>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "sim/fault_injection.h"
#include "test_util.h"

namespace rasa {
namespace {

using ::rasa::testing::ClusterBuilder;

std::string FreshStateDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/rasa_recovery_" + name;
  std::remove((dir + "/journal.wal").c_str());
  std::remove((dir + "/checkpoint").c_str());
  std::remove((dir + "/checkpoint.prev").c_str());
  EXPECT_TRUE(EnsureDirectory(dir).ok());
  return dir;
}

// 3 services x 2 containers on 4 roomy machines; single resource.
std::shared_ptr<Cluster> SmallCluster() {
  return ClusterBuilder()
      .AddService(2, {1.0})
      .AddService(2, {1.0})
      .AddService(2, {1.0})
      .AddMachine({10.0})
      .AddMachine({10.0})
      .AddMachine({10.0})
      .AddMachine({10.0})
      .AddAffinity(0, 1, 1.0)
      .Build();
}

// s0 on m0, s1 on m1, s2 on m2 (2 containers each).
Placement StartPlacement(const Cluster& cluster) {
  Placement p(cluster);
  p.Add(0, 0, 2);
  p.Add(1, 1, 2);
  p.Add(2, 2, 2);
  return p;
}

WorkflowCheckpoint MakeCheckpoint(std::shared_ptr<Cluster> cluster,
                                  int next_cycle) {
  WorkflowCheckpoint c;
  c.next_cycle = next_cycle;
  c.rng_state = Rng(7).SerializeState();
  c.frozen_cooldown = {0, 2, 1};
  c.counters.executions = 4;
  c.counters.dry_runs = 1;
  c.counters.rollbacks = 2;
  c.counters.command_retries = 9;
  c.counters.sla_violations = 0;
  c.ledger.subproblems = 5;
  c.ledger.greedy_fallbacks = 1;
  c.ledger.certificate_gap = 0.125;
  c.snapshot.name = "test-checkpoint";
  c.snapshot.cluster = cluster;
  c.snapshot.original_placement = StartPlacement(*cluster);
  return c;
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  const std::string dir = FreshStateDir("roundtrip");
  std::shared_ptr<Cluster> cluster = SmallCluster();
  const WorkflowCheckpoint original = MakeCheckpoint(cluster, 3);
  ASSERT_TRUE(SaveWorkflowCheckpoint(dir, original).ok());

  StatusOr<LoadedCheckpoint> loaded = LoadWorkflowCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_FALSE(loaded->used_previous);
  const WorkflowCheckpoint& c = loaded->checkpoint;
  EXPECT_EQ(c.next_cycle, 3);
  EXPECT_EQ(c.rng_state, original.rng_state);
  EXPECT_EQ(c.frozen_cooldown, original.frozen_cooldown);
  EXPECT_EQ(c.counters.executions, 4);
  EXPECT_EQ(c.counters.dry_runs, 1);
  EXPECT_EQ(c.counters.rollbacks, 2);
  EXPECT_EQ(c.counters.command_retries, 9);
  EXPECT_EQ(c.ledger.subproblems, 5);
  EXPECT_EQ(c.ledger.greedy_fallbacks, 1);
  EXPECT_DOUBLE_EQ(c.ledger.certificate_gap, 0.125);
  ASSERT_NE(c.snapshot.cluster, nullptr);
  EXPECT_EQ(c.snapshot.cluster->num_services(), 3);
  EXPECT_EQ(c.snapshot.cluster->num_machines(), 4);
  // The placement survives exactly (rebound onto the decoded cluster).
  EXPECT_EQ(c.snapshot.original_placement.CountOn(0, 0), 2);
  EXPECT_EQ(c.snapshot.original_placement.CountOn(1, 1), 2);
  EXPECT_EQ(c.snapshot.original_placement.CountOn(2, 2), 2);
}

TEST(CheckpointTest, RotationFallsBackToPreviousOnTornCurrent) {
  const std::string dir = FreshStateDir("rotation");
  std::shared_ptr<Cluster> cluster = SmallCluster();
  ASSERT_TRUE(SaveWorkflowCheckpoint(dir, MakeCheckpoint(cluster, 1)).ok());
  ASSERT_TRUE(SaveWorkflowCheckpoint(dir, MakeCheckpoint(cluster, 2)).ok());

  // Intact: the newest wins.
  StatusOr<LoadedCheckpoint> loaded = LoadWorkflowCheckpoint(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->checkpoint.next_cycle, 2);
  EXPECT_FALSE(loaded->used_previous);

  // Tear the current file: recovery falls back to checkpoint.prev and
  // reports that it did.
  StatusOr<std::string> current = ReadFileToString(dir + "/checkpoint");
  ASSERT_TRUE(current.ok());
  ASSERT_TRUE(TruncateFileAt(dir + "/checkpoint", current->size() / 2).ok());
  loaded = LoadWorkflowCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->checkpoint.next_cycle, 1);
  EXPECT_TRUE(loaded->used_previous);
}

TEST(CheckpointTest, MissingAndCorruptStates) {
  const std::string dir = FreshStateDir("missing");
  EXPECT_EQ(LoadWorkflowCheckpoint(dir).status().code(),
            StatusCode::kNotFound);

  // Both present but torn: kFailedPrecondition, not kNotFound.
  std::shared_ptr<Cluster> cluster = SmallCluster();
  ASSERT_TRUE(SaveWorkflowCheckpoint(dir, MakeCheckpoint(cluster, 1)).ok());
  ASSERT_TRUE(SaveWorkflowCheckpoint(dir, MakeCheckpoint(cluster, 2)).ok());
  ASSERT_TRUE(TruncateFileAt(dir + "/checkpoint", 10).ok());
  ASSERT_TRUE(TruncateFileAt(dir + "/checkpoint.prev", 10).ok());
  EXPECT_EQ(LoadWorkflowCheckpoint(dir).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(JournalTest, RecordCodecRoundTripsEveryType) {
  JournalRecord plan;
  plan.type = JournalRecordType::kPlan;
  plan.cycle = 5;
  plan.rng_state = Rng(11).SerializeState();
  plan.exec_seed = 0xdeadbeefcafeULL;
  plan.predicted_affinity = 0.7251;
  plan.target = {{0, 0, 1}, {1, 0, 1}, {1, 1, 2}, {2, 2, 2}};
  plan.batches = {
      {{MigrationCommandType::kDelete, 0, 0},
       {MigrationCommandType::kCreate, 0, 1}},
      {{MigrationCommandType::kDelete, 2, 2},
       {MigrationCommandType::kCreate, 2, 3}},
  };
  StatusOr<JournalRecord> decoded =
      DecodeJournalRecord(EncodeJournalRecord(plan));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->type, JournalRecordType::kPlan);
  EXPECT_EQ(decoded->cycle, 5);
  EXPECT_EQ(decoded->rng_state, plan.rng_state);
  EXPECT_EQ(decoded->exec_seed, plan.exec_seed);
  EXPECT_DOUBLE_EQ(decoded->predicted_affinity, plan.predicted_affinity);
  EXPECT_EQ(decoded->target, plan.target);
  ASSERT_EQ(decoded->batches.size(), 2u);
  ASSERT_EQ(decoded->batches[0].size(), 2u);
  EXPECT_EQ(decoded->batches[0][1].type, MigrationCommandType::kCreate);
  EXPECT_EQ(decoded->batches[1][0].service, 2);
  EXPECT_EQ(decoded->batches[1][1].machine, 3);

  JournalRecord intent;
  intent.type = JournalRecordType::kBatchIntent;
  intent.cycle = 5;
  intent.batch = 1;
  intent.commands = plan.batches[1];
  decoded = DecodeJournalRecord(EncodeJournalRecord(intent));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, JournalRecordType::kBatchIntent);
  EXPECT_EQ(decoded->batch, 1);
  ASSERT_EQ(decoded->commands.size(), 2u);
  EXPECT_EQ(decoded->commands[0].type, MigrationCommandType::kDelete);
  EXPECT_EQ(decoded->commands[0].machine, 2);

  JournalRecord commit;
  commit.type = JournalRecordType::kBatchCommit;
  commit.cycle = 5;
  commit.batch = 1;
  decoded = DecodeJournalRecord(EncodeJournalRecord(commit));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->type, JournalRecordType::kBatchCommit);
  EXPECT_EQ(decoded->batch, 1);

  JournalRecord dry;
  dry.type = JournalRecordType::kDecisionDry;
  dry.cycle = 6;
  dry.rng_state = Rng(12).SerializeState();
  dry.dry_reason = DryReason::kSolverFailed;
  decoded = DecodeJournalRecord(EncodeJournalRecord(dry));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->dry_reason, DryReason::kSolverFailed);

  JournalRecord rollback;
  rollback.type = JournalRecordType::kDecisionRollback;
  rollback.cycle = 7;
  rollback.rng_state = Rng(13).SerializeState();
  rollback.frozen_services = {3, 1, 4};
  decoded = DecodeJournalRecord(EncodeJournalRecord(rollback));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->frozen_services, rollback.frozen_services);

  JournalRecord done;
  done.type = JournalRecordType::kExecDone;
  done.cycle = 5;
  done.reached_target = true;
  done.batches_executed = 2;
  done.commands_succeeded = 4;
  done.retries = 3;
  decoded = DecodeJournalRecord(EncodeJournalRecord(done));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->reached_target);
  EXPECT_EQ(decoded->batches_executed, 2);
  EXPECT_EQ(decoded->commands_succeeded, 4);
  EXPECT_EQ(decoded->retries, 3);

  JournalRecord drift;
  drift.type = JournalRecordType::kDriftIntent;
  drift.cycle = 5;
  drift.rng_state = Rng(14).SerializeState();
  drift.moves = {{0, 0, 1}, {2, 2, 3}};
  decoded = DecodeJournalRecord(EncodeJournalRecord(drift));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->moves.size(), 2u);
  EXPECT_EQ(decoded->moves[1].service, 2);
  EXPECT_EQ(decoded->moves[1].to, 3);

  EXPECT_FALSE(DecodeJournalRecord("not a record").ok());
  EXPECT_FALSE(DecodeJournalRecord("").ok());
}

TEST(JournalTest, TornTailDropsOnlyTheLastRecord) {
  const std::string dir = FreshStateDir("torn");
  {
    StatusOr<WorkflowJournal> journal = WorkflowJournal::Open(dir);
    ASSERT_TRUE(journal.ok()) << journal.status();
    for (int i = 0; i < 3; ++i) {
      JournalRecord start;
      start.type = JournalRecordType::kCycleStart;
      start.cycle = i;
      start.rng_state = Rng(i).SerializeState();
      ASSERT_TRUE(journal->Append(start).ok());
    }
  }
  StatusOr<std::string> full = ReadFileToString(dir + "/journal.wal");
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(TruncateFileAt(dir + "/journal.wal", full->size() - 7).ok());

  StatusOr<JournalScan> scan = ReadWorkflowJournal(dir);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->torn_tail);
  ASSERT_EQ(scan->records.size(), 2u);
  EXPECT_EQ(scan->records[0].cycle, 0);
  EXPECT_EQ(scan->records[1].cycle, 1);
}

// The canonical interrupted execution used by the classification and
// roll-forward tests: batch 0 (move one s0 container m0 -> m1) committed,
// batch 1 (move one s2 container m2 -> m3) in flight.
CycleJournal InterruptedExecution() {
  CycleJournal cj;
  cj.started = true;
  cj.decision = CycleJournal::Decision::kExecute;
  cj.have_plan = true;
  cj.plan.type = JournalRecordType::kPlan;
  cj.plan.cycle = 2;
  cj.plan.rng_state = Rng(21).SerializeState();
  cj.plan.target = {{0, 0, 1}, {1, 0, 1}, {1, 1, 2}, {2, 2, 1}, {3, 2, 1}};
  cj.plan.batches = {
      {{MigrationCommandType::kDelete, 0, 0},
       {MigrationCommandType::kCreate, 0, 1}},
      {{MigrationCommandType::kDelete, 2, 2},
       {MigrationCommandType::kCreate, 2, 3}},
  };
  for (int b = 0; b < 2; ++b) {
    JournalRecord intent;
    intent.type = JournalRecordType::kBatchIntent;
    intent.cycle = 2;
    intent.batch = b;
    intent.commands = cj.plan.batches[b];
    cj.batch_intents[b] = intent;
  }
  cj.batch_commits = {0};
  return cj;
}

TEST(RecoveryTest, ClassifiesAppliedAndNotAppliedCommands) {
  std::shared_ptr<Cluster> cluster = SmallCluster();
  const Placement start = StartPlacement(*cluster);
  const CycleJournal cj = InterruptedExecution();

  // Observed: batch 0 fully applied, batch 1 died after its delete.
  Placement observed(*cluster);
  observed.Add(0, 0, 1);
  observed.Add(1, 0, 1);
  observed.Add(1, 1, 2);
  observed.Add(2, 2, 1);

  const std::vector<CommandClassification> fates = ClassifyInFlightCommands(
      *cluster, cj, start, observed, /*journal_torn_tail=*/false);
  ASSERT_EQ(fates.size(), 4u);
  EXPECT_EQ(fates[0].fate, CommandFate::kApplied);  // batch 0 delete
  EXPECT_EQ(fates[1].fate, CommandFate::kApplied);  // batch 0 create
  EXPECT_EQ(fates[2].fate, CommandFate::kApplied);  // batch 1 delete
  EXPECT_EQ(fates[3].fate, CommandFate::kNotApplied);  // batch 1 create
}

TEST(RecoveryTest, TornJournalTailMarksInFlightBatchTorn) {
  std::shared_ptr<Cluster> cluster = SmallCluster();
  const Placement start = StartPlacement(*cluster);
  CycleJournal cj = InterruptedExecution();

  // The torn frame was batch 1's intent: only the plan's copy of the batch
  // exists. The crash landed somewhere inside that batch.
  cj.batch_intents.erase(1);
  Placement observed(*cluster);
  observed.Add(0, 0, 1);
  observed.Add(1, 0, 1);
  observed.Add(1, 1, 2);
  observed.Add(2, 2, 1);

  const std::vector<CommandClassification> fates = ClassifyInFlightCommands(
      *cluster, cj, start, observed, /*journal_torn_tail=*/true);
  ASSERT_EQ(fates.size(), 4u);
  EXPECT_EQ(fates[0].fate, CommandFate::kApplied);
  EXPECT_EQ(fates[1].fate, CommandFate::kApplied);
  int torn = 0;
  for (const CommandClassification& f : fates) {
    if (f.fate == CommandFate::kTorn) ++torn;
  }
  EXPECT_GT(torn, 0);
}

TEST(RecoveryTest, RollsInterruptedBatchForwardToTarget) {
  std::shared_ptr<Cluster> cluster = SmallCluster();
  const Placement start = StartPlacement(*cluster);
  const CycleJournal cj = InterruptedExecution();

  Placement observed(*cluster);
  observed.Add(0, 0, 1);
  observed.Add(1, 0, 1);
  observed.Add(1, 1, 2);
  observed.Add(2, 2, 1);  // batch 1's create never ran

  StatusOr<RollForwardResult> rf = RollForwardExecution(
      *cluster, cj, start, observed, /*min_alive_fraction=*/0.5,
      /*journal=*/nullptr);
  ASSERT_TRUE(rf.ok()) << rf.status();
  EXPECT_TRUE(rf->exec_done.reached_target);
  EXPECT_FALSE(rf->abandoned);
  EXPECT_EQ(rf->commands_pre_applied, 3);
  EXPECT_EQ(rf->commands_rolled_forward, 1);
  EXPECT_EQ(rf->exec_done.sla_violations, 0);
  EXPECT_EQ(rf->exec_done.feasibility_violations, 0);

  // Final placement is exactly the journaled target.
  EXPECT_EQ(observed.CountOn(0, 0), 1);
  EXPECT_EQ(observed.CountOn(1, 0), 1);
  EXPECT_EQ(observed.CountOn(1, 1), 2);
  EXPECT_EQ(observed.CountOn(2, 2), 1);
  EXPECT_EQ(observed.CountOn(3, 2), 1);
}

TEST(RecoveryTest, UnmatchableObservedStateAbandonsAndReconciles) {
  std::shared_ptr<Cluster> cluster = SmallCluster();
  const Placement start = StartPlacement(*cluster);
  const CycleJournal cj = InterruptedExecution();

  // Observed world that matches NO prefix of the journaled path (s1 moved
  // to m3 behind the journal's back).
  Placement observed(*cluster);
  observed.Add(0, 0, 2);
  observed.Add(3, 1, 2);
  observed.Add(2, 2, 2);

  StatusOr<RollForwardResult> rf = RollForwardExecution(
      *cluster, cj, start, observed, /*min_alive_fraction=*/0.5,
      /*journal=*/nullptr);
  ASSERT_TRUE(rf.ok()) << rf.status();
  EXPECT_TRUE(rf->abandoned);
  // Reconciliation drives the observed world to the journaled target where
  // capacity allows; every service keeps a feasible state throughout.
  EXPECT_TRUE(observed.CheckFeasible(false).ok());
}

TEST(RecoveryTest, RollsDriftForwardFromTheAppliedPrefix) {
  std::shared_ptr<Cluster> cluster = SmallCluster();
  Placement pre_drift = StartPlacement(*cluster);
  const std::vector<DriftMove> moves = {{0, 0, 1}, {0, 0, 2}, {2, 2, 3}};

  // Crash after the first move was applied.
  Placement observed(*cluster);
  observed.Add(0, 0, 1);
  observed.Add(1, 0, 1);
  observed.Add(1, 1, 2);
  observed.Add(2, 2, 2);

  const int applied = RollForwardDrift(*cluster, moves, pre_drift, observed);
  EXPECT_EQ(applied, 2);  // the remaining two moves ran now
  EXPECT_EQ(observed.CountOn(0, 0), 0);
  EXPECT_EQ(observed.CountOn(2, 0), 1);
  EXPECT_EQ(observed.CountOn(3, 2), 1);

  // An observed state matching no prefix is left untouched.
  Placement weird(*cluster);
  weird.Add(3, 0, 2);
  weird.Add(1, 1, 2);
  weird.Add(2, 2, 2);
  const Placement before = weird;
  EXPECT_EQ(RollForwardDrift(*cluster, moves, pre_drift, weird), -1);
  EXPECT_EQ(weird.SymmetricDiff(before), 0);
}

TEST(RecoveryTest, AnalysisSkipsCyclesOlderThanTheCheckpoint) {
  const std::string dir = FreshStateDir("analysis");
  std::shared_ptr<Cluster> cluster = SmallCluster();
  {
    StatusOr<WorkflowJournal> journal = WorkflowJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    JournalRecord stale;
    stale.type = JournalRecordType::kCycleStart;
    stale.cycle = 1;
    stale.rng_state = Rng(1).SerializeState();
    ASSERT_TRUE(journal->Append(stale).ok());
    JournalRecord fresh;
    fresh.type = JournalRecordType::kCycleStart;
    fresh.cycle = 2;
    fresh.rng_state = Rng(2).SerializeState();
    ASSERT_TRUE(journal->Append(fresh).ok());
    JournalRecord dry;
    dry.type = JournalRecordType::kDecisionDry;
    dry.cycle = 2;
    dry.rng_state = Rng(3).SerializeState();
    ASSERT_TRUE(journal->Append(dry).ok());
  }
  ASSERT_TRUE(SaveWorkflowCheckpoint(dir, MakeCheckpoint(cluster, 2)).ok());

  StatusOr<RecoveryAnalysis> analysis = AnalyzeWorkflowState(dir);
  ASSERT_TRUE(analysis.ok()) << analysis.status();
  EXPECT_EQ(analysis->checkpoint.next_cycle, 2);
  ASSERT_EQ(analysis->cycles.size(), 1u);
  ASSERT_TRUE(analysis->cycles.count(2));
  EXPECT_EQ(analysis->cycles.at(2).decision, CycleJournal::Decision::kDry);
}

TEST(RecoveryTest, ReconstructsObservedPlacementFromCommittedBatches) {
  const std::string dir = FreshStateDir("reconstruct");
  std::shared_ptr<Cluster> cluster = SmallCluster();
  ASSERT_TRUE(SaveWorkflowCheckpoint(dir, MakeCheckpoint(cluster, 2)).ok());
  {
    StatusOr<WorkflowJournal> journal = WorkflowJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    const CycleJournal cj = InterruptedExecution();
    ASSERT_TRUE(journal->Append(cj.plan).ok());
    ASSERT_TRUE(journal->Append(cj.batch_intents.at(0)).ok());
    JournalRecord commit;
    commit.type = JournalRecordType::kBatchCommit;
    commit.cycle = 2;
    commit.batch = 0;
    ASSERT_TRUE(journal->Append(commit).ok());
    // Batch 1's intent is journaled but never committed.
    ASSERT_TRUE(journal->Append(cj.batch_intents.at(1)).ok());
  }
  StatusOr<RecoveryAnalysis> analysis = AnalyzeWorkflowState(dir);
  ASSERT_TRUE(analysis.ok()) << analysis.status();
  StatusOr<Placement> observed = ReconstructObservedPlacement(*analysis);
  ASSERT_TRUE(observed.ok()) << observed.status();
  // Checkpoint placement + committed batch 0, nothing of batch 1.
  EXPECT_EQ(observed->CountOn(0, 0), 1);
  EXPECT_EQ(observed->CountOn(1, 0), 1);
  EXPECT_EQ(observed->CountOn(1, 1), 2);
  EXPECT_EQ(observed->CountOn(2, 2), 2);
  EXPECT_EQ(observed->CountOn(3, 2), 0);
}

TEST(RecoveryTest, InspectionFormatsWithoutCrashing) {
  const std::string dir = FreshStateDir("inspect");
  std::shared_ptr<Cluster> cluster = SmallCluster();
  ASSERT_TRUE(SaveWorkflowCheckpoint(dir, MakeCheckpoint(cluster, 2)).ok());
  {
    StatusOr<WorkflowJournal> journal = WorkflowJournal::Open(dir);
    ASSERT_TRUE(journal.ok());
    const CycleJournal cj = InterruptedExecution();
    ASSERT_TRUE(journal->Append(cj.plan).ok());
    ASSERT_TRUE(journal->Append(cj.batch_intents.at(0)).ok());
  }
  StatusOr<std::string> text = FormatRecoveryInspection(dir);
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(text->find("checkpoint"), std::string::npos);
  EXPECT_NE(text->find("cycle 2"), std::string::npos);

  // A directory with no durable state reports kNotFound, not a crash.
  EXPECT_EQ(
      FormatRecoveryInspection(FreshStateDir("inspect_empty")).status().code(),
      StatusCode::kNotFound);
}

}  // namespace
}  // namespace rasa
