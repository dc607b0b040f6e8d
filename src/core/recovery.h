#ifndef RASA_CORE_RECOVERY_H_
#define RASA_CORE_RECOVERY_H_

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/generator.h"
#include "cluster/placement.h"
#include "common/durable_io.h"
#include "common/statusor.h"
#include "core/delta.h"
#include "core/migration.h"

namespace rasa {

/// Durable state of the periodic control loop (see DESIGN.md "Durability &
/// recovery"). A state directory holds:
///   - `checkpoint` / `checkpoint.prev`: versioned, CRC-checksummed cycle
///     boundary snapshots (written crash-atomically, rotated so one torn
///     write never loses both);
///   - `journal.wal`: the append-only migration write-ahead journal. Every
///     record is framed + fsync'd; an intent record precedes each mutation
///     of the live cluster (migration batch, drift) and a commit record
///     follows, so recovery can classify every in-flight command as
///     applied / not-applied / torn and roll the interrupted work forward.

// ---------------------------------------------------------------------------
// Checkpoints

/// Aggregate workflow counters carried across a resume (the persistent part
/// of WorkflowReport, which derives from it).
struct WorkflowCounters {
  int executions = 0;
  int dry_runs = 0;
  int rollbacks = 0;
  /// Cycles whose optimizer call errored out (counted as dry-runs).
  int solver_failures = 0;
  /// Executions that stopped short of the target placement.
  int partial_executions = 0;
  // Executor totals across all cycles.
  int commands_failed = 0;
  int command_retries = 0;
  int replans = 0;
  /// Post-batch invariant audits that failed (must stay 0, even under
  /// injected faults).
  int sla_violations = 0;
  int feasibility_violations = 0;
  // Chaos-harness totals (0 unless inject_faults).
  int faults_injected = 0;
  int cordons_fired = 0;
};

/// Condensed flight-recorder state of the last completed optimizer run,
/// checkpointed so an operator inspecting a crashed deployment still sees
/// what quality the loop was delivering.
struct LedgerSummary {
  int subproblems = 0;
  int solver_failures = 0;
  int greedy_fallbacks = 0;
  int secondary_successes = 0;
  double certificate_gap = 0.0;
};

/// Everything needed to restart the control loop at a cycle boundary: the
/// collected snapshot of record (base cluster + live placement, layered on
/// cluster/serialization), the workflow RNG state, rollback cooldowns, and
/// the aggregate counters.
struct WorkflowCheckpoint {
  int next_cycle = 0;
  std::string rng_state;  // Rng::SerializeState form
  std::vector<int> frozen_cooldown;
  WorkflowCounters counters;
  LedgerSummary ledger;
  /// Delta state of the last optimized cycle (incremental mode only;
  /// `incremental.valid` is false otherwise and for checkpoints written
  /// before the field existed — decoding stays backward compatible).
  IncrementalState incremental;
  ClusterSnapshot snapshot;
};

std::string EncodeWorkflowCheckpoint(const WorkflowCheckpoint& checkpoint);
StatusOr<WorkflowCheckpoint> DecodeWorkflowCheckpoint(const std::string& text);

/// Writes the checkpoint crash-atomically, rotating the previous one to
/// `checkpoint.prev` first so recovery survives even a torn current file.
Status SaveWorkflowCheckpoint(const std::string& state_dir,
                              const WorkflowCheckpoint& checkpoint);

struct LoadedCheckpoint {
  WorkflowCheckpoint checkpoint;
  /// The current file was torn/corrupt and `checkpoint.prev` was used; the
  /// journal replays the missing cycle forward.
  bool used_previous = false;
};

/// Loads the newest intact checkpoint. kNotFound when neither file exists;
/// kFailedPrecondition when both exist but neither verifies.
StatusOr<LoadedCheckpoint> LoadWorkflowCheckpoint(const std::string& state_dir);

// ---------------------------------------------------------------------------
// The migration write-ahead journal

enum class JournalRecordType {
  kCycleStart,     // cycle began; carries the RNG state at its start
  kDecisionDry,    // cycle decided to dry-run (incl. solver failure)
  kDecisionRollback,  // cycle rolled back; carries the frozen services
  kPlan,           // execution intent: target placement + full batch list
  kBatchIntent,    // about to execute one batch (exact commands)
  kBatchCommit,    // that batch completed and passed its audit
  kExecDone,       // execution finished (counters)
  kDriftIntent,    // about to apply inter-cycle drift (exact moves)
  kIncrementalState,  // delta state after the cycle's optimizer run
};

const char* JournalRecordTypeToString(JournalRecordType type);

/// Why a cycle dry-ran (kDecisionDry payload).
enum class DryReason { kBelowThreshold = 0, kSolverFailed = 1, kInvalidPlan = 2 };

/// One exogenous drift relocation: one container of `service` moved
/// `from` -> `to`.
struct DriftMove {
  int service = 0;
  int from = 0;
  int to = 0;
};

/// One journal record. Only the fields of the record's type are meaningful
/// (see the per-type comments).
struct JournalRecord {
  JournalRecordType type = JournalRecordType::kCycleStart;
  int cycle = 0;
  /// RNG state at the record's position in the draw sequence (kCycleStart:
  /// cycle start; decisions/kPlan: after all of the cycle's pre-execution
  /// draws; kDriftIntent: after the drift draws).
  std::string rng_state;
  DryReason dry_reason = DryReason::kBelowThreshold;     // kDecisionDry
  std::vector<int> frozen_services;                      // kDecisionRollback
  uint64_t exec_seed = 0;                                // kPlan
  double predicted_affinity = 0.0;                       // kPlan
  /// kPlan: the full target placement as (machine, service, count) triplets.
  std::vector<std::array<int, 3>> target;
  std::vector<std::vector<MigrationCommand>> batches;    // kPlan
  int batch = -1;                     // kBatchIntent / kBatchCommit
  std::vector<MigrationCommand> commands;                // kBatchIntent
  // kExecDone:
  bool reached_target = false;
  int batches_executed = 0;
  int commands_succeeded = 0;
  int commands_failed = 0;
  int retries = 0;
  int replans = 0;
  int sla_violations = 0;
  int feasibility_violations = 0;
  std::vector<DriftMove> moves;                          // kDriftIntent
  /// kIncrementalState: EncodeIncrementalStateString form of the delta
  /// state after this cycle's optimizer run. Appended before the cycle's
  /// decision record, so a journaled decision implies the state that
  /// produced it is durable and `--resume` replays incremental cycles
  /// bit-identically.
  std::string incremental_state;
};

/// The target placement a kPlan record intends to reach, bound to
/// `cluster`; triplets outside the cluster are dropped.
Placement TargetFromPlan(const Cluster& cluster, const JournalRecord& plan);

/// Applies one drift move; false (and `placement` untouched) when `from`
/// holds no container of the service.
bool ApplyDriftMove(Placement& placement, const DriftMove& move);

std::string EncodeJournalRecord(const JournalRecord& record);
StatusOr<JournalRecord> DecodeJournalRecord(const std::string& payload);

/// Append handle on the journal. Every Append is framed, CRC'd and fsync'd
/// before returning (see common/durable_io), so an acknowledged record is
/// durable and a crash mid-append leaves a detectable torn tail.
class WorkflowJournal {
 public:
  static StatusOr<WorkflowJournal> Open(const std::string& state_dir);
  Status Append(const JournalRecord& record);
  const std::string& path() const { return log_.path(); }

 private:
  DurableLogWriter log_;
};

struct JournalScan {
  std::vector<JournalRecord> records;
  bool torn_tail = false;
  std::string torn_reason;
};

/// Reads every intact journal record; a torn tail is reported, not fatal
/// (recovery treats it as "the last append never happened"). kNotFound when
/// no journal exists.
StatusOr<JournalScan> ReadWorkflowJournal(const std::string& state_dir);

// ---------------------------------------------------------------------------
// Recovery analysis

/// Journal records of one cycle, digested for recovery.
struct CycleJournal {
  bool started = false;
  enum class Decision { kNone, kDry, kRollback, kExecute } decision =
      Decision::kNone;
  JournalRecord decision_record;  // kDry / kRollback
  bool have_plan = false;
  JournalRecord plan;
  /// Batch intents in ordinal order (explicit commands, so recovery does
  /// not depend on re-deriving the plan).
  std::map<int, JournalRecord> batch_intents;
  std::set<int> batch_commits;
  bool exec_done = false;
  JournalRecord exec_record;
  bool drift_started = false;
  JournalRecord drift_record;
  bool has_incremental = false;
  JournalRecord incremental_record;  // kIncrementalState
};

/// The full recovery picture of a state directory: the newest intact
/// checkpoint plus the journal digests of every cycle at or after it.
struct RecoveryAnalysis {
  WorkflowCheckpoint checkpoint;
  bool used_previous_checkpoint = false;
  bool journal_torn_tail = false;
  std::string torn_reason;
  /// Cycles with journal activity >= checkpoint.next_cycle, i.e. work the
  /// checkpoint does not yet cover. Empty = clean shutdown.
  std::map<int, CycleJournal> cycles;
};

/// Loads checkpoint + journal and digests them. Fails only when no usable
/// checkpoint exists; journal damage degrades to a torn-tail note.
StatusOr<RecoveryAnalysis> AnalyzeWorkflowState(const std::string& state_dir);

/// How recovery classified one journaled in-flight command (the ISSUE's
/// applied / not-applied / torn trichotomy). kTorn marks commands whose
/// intent/commit records were lost to a torn journal tail — their fate is
/// recovered from the observed placement instead of the journal.
enum class CommandFate { kApplied, kNotApplied, kTorn };

struct CommandClassification {
  int batch = 0;
  MigrationCommand command;
  CommandFate fate = CommandFate::kNotApplied;
};

/// Classifies every command of an interrupted execution against the
/// observed placement: committed batches are kApplied; the in-flight batch
/// is split applied/not-applied by longest-prefix simulation from
/// `cycle_start`; batches whose records fell into a torn tail are kTorn.
std::vector<CommandClassification> ClassifyInFlightCommands(
    const Cluster& cluster, const CycleJournal& cycle_journal,
    const Placement& cycle_start, const Placement& observed,
    bool journal_torn_tail);

/// What recovery did (surfaced through WorkflowReport::recovery and the
/// `rasa_cli recover` inspection).
struct RecoveryStats {
  bool recovered = false;
  bool used_previous_checkpoint = false;
  bool journal_torn_tail = false;
  int commands_applied_pre_crash = 0;
  int commands_not_applied = 0;
  int commands_torn = 0;
  int commands_rolled_forward = 0;
  int batches_rolled_forward = 0;
  int drift_moves_rolled_forward = 0;
  /// Roll-forward could not match any prefix of the journaled intent (e.g.
  /// chaos drifted the world behind the journal's back) and fell back to
  /// reconciling the observed placement straight to the intended end state.
  int phases_abandoned = 0;
  int cycles_completed_from_journal = 0;
};

struct RollForwardResult {
  /// The execution's kExecDone record: reached_target, batches_executed,
  /// commands_succeeded (pre-applied + rolled forward) and the audit
  /// violation counts. The workflow folds it into its reports exactly like
  /// the record of an execution that finished live.
  JournalRecord exec_done;
  bool abandoned = false;
  int commands_pre_applied = 0;
  int commands_rolled_forward = 0;
  int batches_rolled_forward = 0;
};

/// Rolls an interrupted execution forward: verifies committed batches,
/// finds the applied prefix of the in-flight batch, applies the remaining
/// commands batch-by-batch (re-running the SLA/feasibility audit after each
/// batch), and — when the observed world cannot be matched to any prefix —
/// abandons the journaled path and reconciles `observed` directly to the
/// journaled target (removals before additions, so capacity feasibility is
/// never transiently violated). When `journal` is non-null the missing
/// batch commits and (unless the cycle already has one) `exec_done` are
/// appended, restoring the invariant that a completed cycle is fully
/// journaled.
StatusOr<RollForwardResult> RollForwardExecution(
    const Cluster& cluster, const CycleJournal& cycle_journal,
    const Placement& cycle_start, Placement& observed,
    double min_alive_fraction, WorkflowJournal* journal);

/// Rolls an interrupted drift forward: finds the applied prefix of `moves`
/// against `observed` (starting from `pre_drift`) and applies the rest.
/// Returns the number of moves applied now; -1 signals the observed state
/// matched no prefix (the world is accepted as-is).
int RollForwardDrift(const Cluster& cluster,
                     const std::vector<DriftMove>& moves,
                     const Placement& pre_drift, Placement& observed);

/// Reconstructs the live placement a restarted controller should assume
/// when the real cluster cannot be queried (the CLI's simulated world):
/// checkpoint placement + every committed batch + nothing in flight.
StatusOr<Placement> ReconstructObservedPlacement(
    const RecoveryAnalysis& analysis);

/// Human-readable dump of a state directory (the `rasa_cli recover`
/// subcommand): checkpoint summary, journal record list, and the
/// classification table of any in-flight work.
StatusOr<std::string> FormatRecoveryInspection(const std::string& state_dir);

}  // namespace rasa

#endif  // RASA_CORE_RECOVERY_H_
