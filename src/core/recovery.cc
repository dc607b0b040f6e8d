#include "core/recovery.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

#include "cluster/serialization.h"
#include "common/strings.h"
#include "core/migration_executor.h"

namespace rasa {
namespace {

constexpr char kCheckpointMagic[] = "rasa-workflow-checkpoint-v1";

std::string CheckpointPath(const std::string& dir) { return dir + "/checkpoint"; }
std::string PrevCheckpointPath(const std::string& dir) {
  return dir + "/checkpoint.prev";
}
std::string JournalPath(const std::string& dir) { return dir + "/journal.wal"; }

// Applies one migration command; false when the live state cannot take it
// (missing container for a delete, infeasible machine for a create).
bool ApplyCommand(Placement& placement, const MigrationCommand& cmd) {
  if (cmd.type == MigrationCommandType::kDelete) {
    return placement.Remove(cmd.machine, cmd.service).ok();
  }
  if (!placement.CanPlace(cmd.machine, cmd.service)) return false;
  placement.Add(cmd.machine, cmd.service);
  return true;
}

void EncodeCommands(std::ostringstream& os,
                    const std::vector<MigrationCommand>& commands) {
  os << " " << commands.size();
  for (const MigrationCommand& cmd : commands) {
    os << " " << (cmd.type == MigrationCommandType::kDelete ? "d" : "c") << " "
       << cmd.service << " " << cmd.machine;
  }
}

bool DecodeCommands(std::istringstream& is,
                    std::vector<MigrationCommand>& commands) {
  size_t n = 0;
  if (!(is >> n) || n > (1u << 24)) return false;
  commands.clear();
  commands.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string kind;
    MigrationCommand cmd;
    if (!(is >> kind >> cmd.service >> cmd.machine) ||
        (kind != "d" && kind != "c")) {
      return false;
    }
    cmd.type = kind == "d" ? MigrationCommandType::kDelete
                           : MigrationCommandType::kCreate;
    commands.push_back(cmd);
  }
  return true;
}

// The commands of batch ordinal `b`, preferring the explicit intent record
// (survives executor replans) over the original plan. False when unknown.
bool BatchCommands(const CycleJournal& cj, int b,
                   std::vector<MigrationCommand>& out) {
  auto it = cj.batch_intents.find(b);
  if (it != cj.batch_intents.end()) {
    out = it->second.commands;
    return true;
  }
  if (cj.have_plan && b >= 0 &&
      b < static_cast<int>(cj.plan.batches.size())) {
    out = cj.plan.batches[b];
    return true;
  }
  return false;
}

// Total batch ordinals the interrupted execution spans.
int NumBatches(const CycleJournal& cj) {
  int n = cj.have_plan ? static_cast<int>(cj.plan.batches.size()) : 0;
  if (!cj.batch_intents.empty()) {
    n = std::max(n, cj.batch_intents.rbegin()->first + 1);
  }
  return n;
}

// Longest prefix of `steps` explaining `observed`: the largest j such that
// applying the first j steps to `from` yields exactly `observed` (0 when
// `from` already does), or -1 when no prefix does. Stops at the first
// step `apply` rejects.
template <typename Step, typename Apply>
int LongestAppliedPrefix(const Cluster& cluster, const Placement& from,
                         const std::vector<Step>& steps,
                         const Placement& observed, Apply apply) {
  Placement probe = from.ReboundTo(cluster);
  int prefix = probe.SymmetricDiff(observed) == 0 ? 0 : -1;
  for (int j = 1; j <= static_cast<int>(steps.size()); ++j) {
    if (!apply(probe, steps[j - 1])) break;
    if (probe.SymmetricDiff(observed) == 0) prefix = j;
  }
  return prefix;
}

enum class BatchFate { kCommitted, kInFlight, kNotStarted };

// The journal replay walk over an interrupted execution. Visits the batch
// ordinals in order with their commands: batches before the first one
// without a commit record are committed (with `exec_done_commits`, an
// exec_done record commits every batch), the first uncommitted batch is in
// flight, and the rest never started. Each committed batch is re-applied
// to `expected` (the cycle's start state on entry) before its visit, so
// the in-flight batch's visit sees the state that batch began from.
// `visit(b, fate, commands, reapplied)` gets the number of the committed
// batch's commands that re-applied before the first one that did not, and
// returns false to stop the walk. Returns false when the walk stopped at a
// batch whose commands the journal never recorded.
template <typename Visit>
bool WalkBatches(const CycleJournal& cj, bool exec_done_commits,
                 Placement& expected, Visit visit) {
  const int num_batches = NumBatches(cj);
  bool past_frontier = false;
  for (int b = 0; b < num_batches; ++b) {
    std::vector<MigrationCommand> commands;
    if (!BatchCommands(cj, b, commands)) return false;
    BatchFate fate = BatchFate::kNotStarted;
    int reapplied = 0;
    if (!past_frontier &&
        (cj.batch_commits.count(b) || (exec_done_commits && cj.exec_done))) {
      fate = BatchFate::kCommitted;
      bool ok = true;
      for (const MigrationCommand& cmd : commands) {
        ok = ApplyCommand(expected, cmd) && ok;
        if (ok) ++reapplied;
      }
    } else if (!past_frontier) {
      fate = BatchFate::kInFlight;
      past_frontier = true;
    }
    if (!visit(b, fate, commands, reapplied)) break;
  }
  return true;
}

// Reconciles `observed` straight to `target`: removals before additions so
// every intermediate state is pointwise <= max(observed, target) and
// capacity feasibility is never transiently violated.
void ReconcileToTarget(const Cluster& cluster, const Placement& target,
                       Placement& observed, int& feasibility_violations) {
  for (int m = 0; m < cluster.num_machines(); ++m) {
    // Snapshot before mutating the map being iterated.
    std::vector<std::pair<int, int>> extra;
    for (const auto& [s, count] : observed.ServicesOn(m)) {
      const int over = count - target.CountOn(m, s);
      if (over > 0) extra.push_back({s, over});
    }
    for (const auto& [s, over] : extra) {
      if (!observed.Remove(m, s, over).ok()) ++feasibility_violations;
    }
  }
  for (int m = 0; m < cluster.num_machines(); ++m) {
    for (const auto& [s, count] : target.ServicesOn(m)) {
      const int missing = count - observed.CountOn(m, s);
      for (int i = 0; i < missing; ++i) {
        if (!observed.CanPlace(m, s)) {
          ++feasibility_violations;
          break;
        }
        observed.Add(m, s);
      }
    }
  }
}

}  // namespace

Placement TargetFromPlan(const Cluster& cluster, const JournalRecord& plan) {
  Placement target(cluster);
  for (const std::array<int, 3>& t : plan.target) {
    if (t[0] >= 0 && t[0] < cluster.num_machines() && t[1] >= 0 &&
        t[1] < cluster.num_services() && t[2] > 0) {
      target.Add(t[0], t[1], t[2]);
    }
  }
  return target;
}

bool ApplyDriftMove(Placement& placement, const DriftMove& move) {
  if (!placement.Remove(move.from, move.service).ok()) return false;
  placement.Add(move.to, move.service);
  return true;
}

// ---------------------------------------------------------------------------
// Checkpoints

std::string EncodeWorkflowCheckpoint(const WorkflowCheckpoint& c) {
  std::ostringstream os;
  os.precision(17);
  os << kCheckpointMagic << "\n";
  os << "next_cycle " << c.next_cycle << "\n";
  os << "rng " << c.rng_state << "\n";
  os << "cooldown " << c.frozen_cooldown.size();
  for (int cd : c.frozen_cooldown) os << " " << cd;
  os << "\n";
  const WorkflowCounters& n = c.counters;
  os << "counters " << n.executions << " " << n.dry_runs << " " << n.rollbacks
     << " " << n.solver_failures << " " << n.partial_executions << " "
     << n.commands_failed << " " << n.command_retries << " " << n.replans
     << " " << n.sla_violations << " " << n.feasibility_violations << " "
     << n.faults_injected << " " << n.cordons_fired << "\n";
  os << "ledger " << c.ledger.subproblems << " " << c.ledger.solver_failures
     << " " << c.ledger.greedy_fallbacks << " "
     << c.ledger.secondary_successes << " " << c.ledger.certificate_gap
     << "\n";
  if (c.incremental.valid) {
    // Optional section: absent for non-incremental runs, and readers that
    // predate it (old checkpoints) never wrote it.
    os << "incremental ";
    EncodeIncrementalState(os, c.incremental);
    os << "\n";
  }
  const std::string snapshot = SerializeSnapshot(c.snapshot);
  os << "snapshot " << snapshot.size() << "\n" << snapshot;
  return os.str();
}

StatusOr<WorkflowCheckpoint> DecodeWorkflowCheckpoint(const std::string& text) {
  std::istringstream is(text);
  std::string token;
  auto expect = [&](const char* keyword) -> Status {
    if (!(is >> token) || token != keyword) {
      return InvalidArgumentError(
          StrFormat("checkpoint: expected '%s'", keyword));
    }
    return Status::OK();
  };
  if (!(is >> token) || token != kCheckpointMagic) {
    return InvalidArgumentError("bad checkpoint header");
  }
  WorkflowCheckpoint c;
  RASA_RETURN_IF_ERROR(expect("next_cycle"));
  if (!(is >> c.next_cycle) || c.next_cycle < 0) {
    return InvalidArgumentError("bad checkpoint cycle");
  }
  RASA_RETURN_IF_ERROR(expect("rng"));
  if (!(is >> c.rng_state) || c.rng_state.size() != 64) {
    return InvalidArgumentError("bad checkpoint rng state");
  }
  RASA_RETURN_IF_ERROR(expect("cooldown"));
  size_t services = 0;
  if (!(is >> services) || services > (1u << 24)) {
    return InvalidArgumentError("bad checkpoint cooldown count");
  }
  c.frozen_cooldown.resize(services);
  for (int& cd : c.frozen_cooldown) {
    if (!(is >> cd)) return InvalidArgumentError("truncated cooldowns");
  }
  RASA_RETURN_IF_ERROR(expect("counters"));
  WorkflowCounters& n = c.counters;
  if (!(is >> n.executions >> n.dry_runs >> n.rollbacks >> n.solver_failures >>
        n.partial_executions >> n.commands_failed >> n.command_retries >>
        n.replans >> n.sla_violations >> n.feasibility_violations >>
        n.faults_injected >> n.cordons_fired)) {
    return InvalidArgumentError("truncated checkpoint counters");
  }
  RASA_RETURN_IF_ERROR(expect("ledger"));
  if (!(is >> c.ledger.subproblems >> c.ledger.solver_failures >>
        c.ledger.greedy_fallbacks >> c.ledger.secondary_successes >>
        c.ledger.certificate_gap)) {
    return InvalidArgumentError("truncated checkpoint ledger");
  }
  // The `incremental` section is optional (only written when the delta
  // state is valid; old checkpoints never have it).
  if (!(is >> token) ||
      (token != "incremental" && token != "snapshot")) {
    return InvalidArgumentError("checkpoint: expected 'snapshot'");
  }
  if (token == "incremental") {
    StatusOr<IncrementalState> inc = DecodeIncrementalState(is);
    if (!inc.ok()) return inc.status();
    c.incremental = *std::move(inc);
    RASA_RETURN_IF_ERROR(expect("snapshot"));
  }
  size_t snapshot_bytes = 0;
  if (!(is >> snapshot_bytes)) {
    return InvalidArgumentError("bad checkpoint snapshot size");
  }
  const std::streamoff pos = is.tellg();
  if (pos < 0 || static_cast<size_t>(pos) >= text.size() ||
      text[static_cast<size_t>(pos)] != '\n') {
    return InvalidArgumentError("malformed checkpoint snapshot framing");
  }
  const size_t start = static_cast<size_t>(pos) + 1;
  if (start + snapshot_bytes > text.size()) {
    return InvalidArgumentError("checkpoint snapshot truncated");
  }
  StatusOr<ClusterSnapshot> snapshot =
      DeserializeSnapshot(text.substr(start, snapshot_bytes));
  if (!snapshot.ok()) return snapshot.status();
  c.snapshot = *std::move(snapshot);
  return c;
}

Status SaveWorkflowCheckpoint(const std::string& state_dir,
                              const WorkflowCheckpoint& checkpoint) {
  RASA_RETURN_IF_ERROR(EnsureDirectory(state_dir));
  const std::string path = CheckpointPath(state_dir);
  // Rotate before overwriting: rename is atomic, so at every instant at
  // least one of {checkpoint, checkpoint.prev} holds an intact file.
  std::rename(path.c_str(), PrevCheckpointPath(state_dir).c_str());
  return WriteVersionedFile(path, EncodeWorkflowCheckpoint(checkpoint));
}

StatusOr<LoadedCheckpoint> LoadWorkflowCheckpoint(
    const std::string& state_dir) {
  StatusOr<std::string> current = ReadVersionedFile(CheckpointPath(state_dir));
  if (current.ok()) {
    StatusOr<WorkflowCheckpoint> decoded = DecodeWorkflowCheckpoint(*current);
    if (decoded.ok()) return LoadedCheckpoint{*std::move(decoded), false};
    current = decoded.status();  // fall through to the previous checkpoint
  }
  StatusOr<std::string> prev = ReadVersionedFile(PrevCheckpointPath(state_dir));
  if (prev.ok()) {
    StatusOr<WorkflowCheckpoint> decoded = DecodeWorkflowCheckpoint(*prev);
    if (decoded.ok()) return LoadedCheckpoint{*std::move(decoded), true};
    prev = decoded.status();
  }
  if (current.status().code() == StatusCode::kNotFound &&
      prev.status().code() == StatusCode::kNotFound) {
    return NotFoundError(
        StrFormat("no checkpoint in '%s'", state_dir.c_str()));
  }
  return FailedPreconditionError(StrFormat(
      "no intact checkpoint in '%s' (current: %s; previous: %s)",
      state_dir.c_str(), current.status().message().c_str(),
      prev.status().message().c_str()));
}

// ---------------------------------------------------------------------------
// Journal records

const char* JournalRecordTypeToString(JournalRecordType type) {
  switch (type) {
    case JournalRecordType::kCycleStart: return "cycle_start";
    case JournalRecordType::kDecisionDry: return "dry";
    case JournalRecordType::kDecisionRollback: return "rollback";
    case JournalRecordType::kPlan: return "plan";
    case JournalRecordType::kBatchIntent: return "batch_intent";
    case JournalRecordType::kBatchCommit: return "batch_commit";
    case JournalRecordType::kExecDone: return "exec_done";
    case JournalRecordType::kDriftIntent: return "drift_intent";
    case JournalRecordType::kIncrementalState: return "inc_state";
  }
  return "unknown";
}

std::string EncodeJournalRecord(const JournalRecord& r) {
  std::ostringstream os;
  os.precision(17);
  os << JournalRecordTypeToString(r.type) << " " << r.cycle;
  switch (r.type) {
    case JournalRecordType::kCycleStart:
      os << " " << r.rng_state;
      break;
    case JournalRecordType::kDecisionDry:
      os << " " << r.rng_state << " " << static_cast<int>(r.dry_reason);
      break;
    case JournalRecordType::kDecisionRollback:
      os << " " << r.rng_state << " " << r.frozen_services.size();
      for (int s : r.frozen_services) os << " " << s;
      break;
    case JournalRecordType::kPlan: {
      os << " " << r.rng_state << " " << r.exec_seed << " "
         << r.predicted_affinity << " target " << r.target.size();
      for (const std::array<int, 3>& t : r.target) {
        os << " " << t[0] << " " << t[1] << " " << t[2];
      }
      os << " batches " << r.batches.size();
      for (const std::vector<MigrationCommand>& batch : r.batches) {
        EncodeCommands(os, batch);
      }
      break;
    }
    case JournalRecordType::kBatchIntent:
      os << " " << r.batch;
      EncodeCommands(os, r.commands);
      break;
    case JournalRecordType::kBatchCommit:
      os << " " << r.batch;
      break;
    case JournalRecordType::kExecDone:
      os << " " << (r.reached_target ? 1 : 0) << " " << r.batches_executed
         << " " << r.commands_succeeded << " " << r.commands_failed << " "
         << r.retries << " " << r.replans << " " << r.sla_violations << " "
         << r.feasibility_violations;
      break;
    case JournalRecordType::kDriftIntent:
      os << " " << r.rng_state << " " << r.moves.size();
      for (const DriftMove& m : r.moves) {
        os << " " << m.service << " " << m.from << " " << m.to;
      }
      break;
    case JournalRecordType::kIncrementalState:
      os << " " << r.incremental_state;
      break;
  }
  return os.str();
}

StatusOr<JournalRecord> DecodeJournalRecord(const std::string& payload) {
  std::istringstream is(payload);
  std::string kind;
  JournalRecord r;
  if (!(is >> kind >> r.cycle) || r.cycle < 0) {
    return InvalidArgumentError("journal record: bad header");
  }
  auto read_rng = [&]() -> Status {
    if (!(is >> r.rng_state) || r.rng_state.size() != 64) {
      return InvalidArgumentError("journal record: bad rng state");
    }
    return Status::OK();
  };
  if (kind == "cycle_start") {
    r.type = JournalRecordType::kCycleStart;
    RASA_RETURN_IF_ERROR(read_rng());
  } else if (kind == "dry") {
    r.type = JournalRecordType::kDecisionDry;
    RASA_RETURN_IF_ERROR(read_rng());
    int reason = 0;
    if (!(is >> reason) || reason < 0 || reason > 2) {
      return InvalidArgumentError("journal record: bad dry reason");
    }
    r.dry_reason = static_cast<DryReason>(reason);
  } else if (kind == "rollback") {
    r.type = JournalRecordType::kDecisionRollback;
    RASA_RETURN_IF_ERROR(read_rng());
    size_t n = 0;
    if (!(is >> n) || n > (1u << 24)) {
      return InvalidArgumentError("journal record: bad frozen count");
    }
    r.frozen_services.resize(n);
    for (int& s : r.frozen_services) {
      if (!(is >> s)) {
        return InvalidArgumentError("journal record: truncated frozen list");
      }
    }
  } else if (kind == "plan") {
    r.type = JournalRecordType::kPlan;
    RASA_RETURN_IF_ERROR(read_rng());
    std::string token;
    size_t n = 0;
    if (!(is >> r.exec_seed >> r.predicted_affinity >> token) ||
        token != "target" || !(is >> n) || n > (1u << 26)) {
      return InvalidArgumentError("journal record: bad plan target");
    }
    r.target.resize(n);
    for (std::array<int, 3>& t : r.target) {
      if (!(is >> t[0] >> t[1] >> t[2])) {
        return InvalidArgumentError("journal record: truncated plan target");
      }
    }
    if (!(is >> token) || token != "batches" || !(is >> n) ||
        n > (1u << 20)) {
      return InvalidArgumentError("journal record: bad plan batches");
    }
    r.batches.resize(n);
    for (std::vector<MigrationCommand>& batch : r.batches) {
      if (!DecodeCommands(is, batch)) {
        return InvalidArgumentError("journal record: truncated plan batch");
      }
    }
  } else if (kind == "batch_intent") {
    r.type = JournalRecordType::kBatchIntent;
    if (!(is >> r.batch) || r.batch < 0 || !DecodeCommands(is, r.commands)) {
      return InvalidArgumentError("journal record: bad batch intent");
    }
  } else if (kind == "batch_commit") {
    r.type = JournalRecordType::kBatchCommit;
    if (!(is >> r.batch) || r.batch < 0) {
      return InvalidArgumentError("journal record: bad batch commit");
    }
  } else if (kind == "exec_done") {
    r.type = JournalRecordType::kExecDone;
    int reached = 0;
    if (!(is >> reached >> r.batches_executed >> r.commands_succeeded >>
          r.commands_failed >> r.retries >> r.replans >> r.sla_violations >>
          r.feasibility_violations)) {
      return InvalidArgumentError("journal record: truncated exec_done");
    }
    r.reached_target = reached != 0;
  } else if (kind == "drift_intent") {
    r.type = JournalRecordType::kDriftIntent;
    RASA_RETURN_IF_ERROR(read_rng());
    size_t n = 0;
    if (!(is >> n) || n > (1u << 24)) {
      return InvalidArgumentError("journal record: bad drift count");
    }
    r.moves.resize(n);
    for (DriftMove& m : r.moves) {
      if (!(is >> m.service >> m.from >> m.to)) {
        return InvalidArgumentError("journal record: truncated drift moves");
      }
    }
  } else if (kind == "inc_state") {
    r.type = JournalRecordType::kIncrementalState;
    // Validate the embedded token stream now so a corrupt payload is caught
    // at scan time (torn tail) rather than mid-replay; keep the canonical
    // re-encoding as the stored form.
    StatusOr<IncrementalState> inc = DecodeIncrementalState(is);
    if (!inc.ok()) return inc.status();
    r.incremental_state = EncodeIncrementalStateString(*inc);
  } else {
    return InvalidArgumentError(
        StrFormat("journal record: unknown type '%s'", kind.c_str()));
  }
  return r;
}

StatusOr<WorkflowJournal> WorkflowJournal::Open(const std::string& state_dir) {
  RASA_RETURN_IF_ERROR(EnsureDirectory(state_dir));
  StatusOr<DurableLogWriter> log = DurableLogWriter::Open(JournalPath(state_dir));
  if (!log.ok()) return log.status();
  WorkflowJournal journal;
  journal.log_ = std::move(log).value();
  return journal;
}

Status WorkflowJournal::Append(const JournalRecord& record) {
  return log_.Append(EncodeJournalRecord(record));
}

StatusOr<JournalScan> ReadWorkflowJournal(const std::string& state_dir) {
  StatusOr<DurableLogContents> contents =
      ReadDurableLog(JournalPath(state_dir));
  if (!contents.ok()) return contents.status();
  JournalScan scan;
  scan.torn_tail = contents->torn_tail;
  scan.torn_reason = contents->torn_reason;
  scan.records.reserve(contents->records.size());
  for (const std::string& payload : contents->records) {
    StatusOr<JournalRecord> record = DecodeJournalRecord(payload);
    if (!record.ok()) {
      // An intact frame with an unparsable payload is corruption past the
      // CRC; recovery treats everything from here on as torn.
      scan.torn_tail = true;
      scan.torn_reason = record.status().message();
      break;
    }
    scan.records.push_back(*std::move(record));
  }
  return scan;
}

// ---------------------------------------------------------------------------
// Analysis

StatusOr<RecoveryAnalysis> AnalyzeWorkflowState(const std::string& state_dir) {
  RASA_ASSIGN_OR_RETURN(LoadedCheckpoint loaded,
                        LoadWorkflowCheckpoint(state_dir));
  RecoveryAnalysis analysis;
  analysis.checkpoint = std::move(loaded.checkpoint);
  analysis.used_previous_checkpoint = loaded.used_previous;

  StatusOr<JournalScan> scan = ReadWorkflowJournal(state_dir);
  if (!scan.ok()) {
    if (scan.status().code() == StatusCode::kNotFound) return analysis;
    return scan.status();
  }
  analysis.journal_torn_tail = scan->torn_tail;
  analysis.torn_reason = scan->torn_reason;
  for (JournalRecord& record : scan->records) {
    // Cycles below the checkpoint are fully absorbed by it; their stale
    // records (including earlier recovered crashes) are irrelevant.
    if (record.cycle < analysis.checkpoint.next_cycle) continue;
    CycleJournal& cj = analysis.cycles[record.cycle];
    cj.started = true;
    switch (record.type) {
      case JournalRecordType::kCycleStart:
        break;
      case JournalRecordType::kDecisionDry:
        cj.decision = CycleJournal::Decision::kDry;
        cj.decision_record = std::move(record);
        break;
      case JournalRecordType::kDecisionRollback:
        cj.decision = CycleJournal::Decision::kRollback;
        cj.decision_record = std::move(record);
        break;
      case JournalRecordType::kPlan:
        cj.decision = CycleJournal::Decision::kExecute;
        cj.have_plan = true;
        cj.plan = std::move(record);
        break;
      case JournalRecordType::kBatchIntent:
        cj.batch_intents[record.batch] = std::move(record);
        break;
      case JournalRecordType::kBatchCommit:
        cj.batch_commits.insert(record.batch);
        break;
      case JournalRecordType::kExecDone:
        cj.exec_done = true;
        cj.exec_record = std::move(record);
        break;
      case JournalRecordType::kDriftIntent:
        cj.drift_started = true;
        cj.drift_record = std::move(record);
        break;
      case JournalRecordType::kIncrementalState:
        cj.has_incremental = true;
        cj.incremental_record = std::move(record);
        break;
    }
  }
  return analysis;
}

std::vector<CommandClassification> ClassifyInFlightCommands(
    const Cluster& cluster, const CycleJournal& cj,
    const Placement& cycle_start, const Placement& observed,
    bool journal_torn_tail) {
  std::vector<CommandClassification> out;
  if (cj.decision != CycleJournal::Decision::kExecute) return out;
  Placement expected = cycle_start.ReboundTo(cluster);
  WalkBatches(cj, /*exec_done_commits=*/true, expected,
              [&](int b, BatchFate fate,
                  const std::vector<MigrationCommand>& commands, int) {
    // A torn journal tail means the frame recording the in-flight batch's
    // fate may have been lost, so a state no prefix explains is classified
    // kTorn rather than guessed, and so is the first unapplied command.
    const int prefix =
        fate == BatchFate::kInFlight
            ? LongestAppliedPrefix(cluster, expected, commands, observed,
                                   ApplyCommand)
            : 0;
    for (int j = 0; j < static_cast<int>(commands.size()); ++j) {
      CommandFate command_fate = CommandFate::kNotApplied;
      if (fate == BatchFate::kCommitted || (prefix >= 0 && j < prefix)) {
        command_fate = CommandFate::kApplied;
      } else if (fate == BatchFate::kInFlight &&
                 (prefix < 0 || (journal_torn_tail && j == prefix))) {
        command_fate = CommandFate::kTorn;
      }
      out.push_back({b, commands[j], command_fate});
    }
    return true;
  });
  return out;
}

StatusOr<RollForwardResult> RollForwardExecution(
    const Cluster& cluster, const CycleJournal& cj,
    const Placement& cycle_start, Placement& observed,
    double min_alive_fraction, WorkflowJournal* journal) {
  if (!cj.have_plan) {
    return InternalError("roll-forward without a journaled plan");
  }
  RollForwardResult result;
  JournalRecord& done = result.exec_done;
  done.type = JournalRecordType::kExecDone;
  done.cycle = cj.plan.cycle;
  done.batches_executed = NumBatches(cj);
  const Placement target = TargetFromPlan(cluster, cj.plan);
  Placement expected = cycle_start.ReboundTo(cluster);
  bool abandon = false;
  Status appended;
  // Committed batches must re-apply; the in-flight batch resumes after its
  // applied prefix and later batches run in full, each audited and
  // committed. Anything the journaled path cannot explain abandons it.
  const bool walked = WalkBatches(
      cj, /*exec_done_commits=*/false, expected,
      [&](int b, BatchFate fate, const std::vector<MigrationCommand>& commands,
          int reapplied) {
        const int size = static_cast<int>(commands.size());
        if (fate == BatchFate::kCommitted) {
          result.commands_pre_applied += reapplied;
          abandon = reapplied < size;
          return !abandon;
        }
        int next = 0;
        if (fate == BatchFate::kInFlight) {
          next = LongestAppliedPrefix(cluster, expected, commands, observed,
                                      ApplyCommand);
          abandon = next < 0;
          if (abandon) return false;
          result.commands_pre_applied += next;
        }
        for (; next < size; ++next) {
          abandon = !ApplyCommand(observed, commands[next]);
          if (abandon) return false;
          ++result.commands_rolled_forward;
        }
        ++result.batches_rolled_forward;
        AuditMigrationStep(cluster, observed, min_alive_fraction,
                           done.sla_violations, done.feasibility_violations);
        if (journal != nullptr) {
          JournalRecord commit;
          commit.type = JournalRecordType::kBatchCommit;
          commit.cycle = cj.plan.cycle;
          commit.batch = b;
          appended = journal->Append(commit);
        }
        return appended.ok();
      });
  RASA_RETURN_IF_ERROR(appended);
  // Replan rewrote batches the journal never recorded.
  if (!walked) abandon = true;

  if (abandon || observed.SymmetricDiff(target) != 0) {
    // The journaled path cannot be replayed against this world (chaos
    // interference, lost replan records). Reconcile straight to the
    // journaled target instead — the intent is durable even when the path
    // is not.
    result.abandoned = abandon;
    ReconcileToTarget(cluster, target, observed,
                      done.feasibility_violations);
    AuditMigrationStep(cluster, observed, min_alive_fraction,
                       done.sla_violations, done.feasibility_violations);
  }
  done.reached_target = observed.SymmetricDiff(target) == 0;
  done.commands_succeeded =
      result.commands_pre_applied + result.commands_rolled_forward;
  if (journal != nullptr && !cj.exec_done) {
    RASA_RETURN_IF_ERROR(journal->Append(done));
  }
  return result;
}

int RollForwardDrift(const Cluster& cluster,
                     const std::vector<DriftMove>& moves,
                     const Placement& pre_drift, Placement& observed) {
  const int prefix = LongestAppliedPrefix(cluster, pre_drift, moves,
                                          observed, ApplyDriftMove);
  if (prefix < 0) return -1;
  int applied = 0;
  for (int j = prefix; j < static_cast<int>(moves.size()); ++j) {
    if (ApplyDriftMove(observed, moves[j])) ++applied;
  }
  return applied;
}

StatusOr<Placement> ReconstructObservedPlacement(
    const RecoveryAnalysis& analysis) {
  const ClusterSnapshot& snapshot = analysis.checkpoint.snapshot;
  if (snapshot.cluster == nullptr) {
    return InternalError("checkpoint has no cluster snapshot");
  }
  Placement world = snapshot.original_placement.ReboundTo(*snapshot.cluster);
  // Committed work is durably acknowledged; anything in flight is treated
  // as not-applied (the resume's roll-forward re-derives it). Drift intents
  // are likewise left to the roll-forward.
  for (const auto& [cycle, cj] : analysis.cycles) {
    (void)cycle;
    WalkBatches(cj, /*exec_done_commits=*/true, world,
                [](int, BatchFate fate, const std::vector<MigrationCommand>&,
                   int) { return fate == BatchFate::kCommitted; });
  }
  return world;
}

StatusOr<std::string> FormatRecoveryInspection(const std::string& state_dir) {
  RASA_ASSIGN_OR_RETURN(RecoveryAnalysis analysis,
                        AnalyzeWorkflowState(state_dir));
  const WorkflowCheckpoint& c = analysis.checkpoint;
  std::ostringstream os;
  os << "state directory: " << state_dir << "\n";
  os << "checkpoint: next_cycle=" << c.next_cycle
     << (analysis.used_previous_checkpoint
             ? " (current file torn; recovered from checkpoint.prev)"
             : "")
     << "\n";
  if (c.snapshot.cluster != nullptr) {
    int containers = 0;
    for (int s = 0; s < c.snapshot.cluster->num_services(); ++s) {
      containers += c.snapshot.original_placement.TotalOf(s);
    }
    os << "  snapshot: " << c.snapshot.cluster->num_services()
       << " services, " << c.snapshot.cluster->num_machines()
       << " machines, " << containers << " containers\n";
  }
  os << "  counters: executions=" << c.counters.executions
     << " dry_runs=" << c.counters.dry_runs
     << " rollbacks=" << c.counters.rollbacks
     << " sla_violations=" << c.counters.sla_violations
     << " feasibility_violations=" << c.counters.feasibility_violations
     << "\n";
  os << "  ledger: subproblems=" << c.ledger.subproblems
     << " greedy_fallbacks=" << c.ledger.greedy_fallbacks << " gap="
     << StrFormat("%.4f", c.ledger.certificate_gap) << "\n";
  if (analysis.journal_torn_tail) {
    os << "journal: TORN TAIL (" << analysis.torn_reason << ")\n";
  }
  if (analysis.cycles.empty()) {
    os << "journal: no work past the checkpoint (clean shutdown)\n";
    return os.str();
  }
  StatusOr<Placement> world = ReconstructObservedPlacement(analysis);
  for (const auto& [cycle, cj] : analysis.cycles) {
    os << "cycle " << cycle << ": ";
    switch (cj.decision) {
      case CycleJournal::Decision::kNone:
        os << "started, no decision journaled\n";
        break;
      case CycleJournal::Decision::kDry:
        os << "dry run (reason "
           << static_cast<int>(cj.decision_record.dry_reason) << ")\n";
        break;
      case CycleJournal::Decision::kRollback:
        os << "rollback (" << cj.decision_record.frozen_services.size()
           << " services frozen)\n";
        break;
      case CycleJournal::Decision::kExecute: {
        os << "execution: " << cj.plan.batches.size()
           << " planned batches, " << cj.batch_commits.size()
           << " committed" << (cj.exec_done ? ", finished" : ", IN FLIGHT")
           << "\n";
        if (!cj.exec_done && world.ok() &&
            c.snapshot.cluster != nullptr) {
          const std::vector<CommandClassification> fates =
              ClassifyInFlightCommands(*c.snapshot.cluster, cj,
                                       c.snapshot.original_placement, *world,
                                       analysis.journal_torn_tail);
          int applied = 0, not_applied = 0, torn = 0;
          for (const CommandClassification& f : fates) {
            if (f.fate == CommandFate::kApplied) ++applied;
            else if (f.fate == CommandFate::kNotApplied) ++not_applied;
            else ++torn;
          }
          os << "  command classification: " << applied << " applied, "
             << not_applied << " not applied, " << torn << " torn\n";
          for (const CommandClassification& f : fates) {
            if (f.fate == CommandFate::kApplied) continue;
            os << "    batch " << f.batch << " "
               << (f.command.type == MigrationCommandType::kDelete ? "delete"
                                                                   : "create")
               << " service " << f.command.service << " machine "
               << f.command.machine << ": "
               << (f.fate == CommandFate::kNotApplied ? "not applied"
                                                      : "torn")
               << "\n";
          }
        }
        break;
      }
    }
    if (cj.drift_started) {
      os << "  drift intent journaled: " << cj.drift_record.moves.size()
         << " moves\n";
    }
  }
  os << "resume with: rasa_cli workflow --state-dir=" << state_dir
     << " --resume\n";
  return os.str();
}

}  // namespace rasa
