#include "sim/workflow.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "common/durable_io.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/delta.h"
#include "core/migration.h"
#include "core/migration_executor.h"
#include "core/objective.h"
#include "core/recovery.h"
#include "sim/fault_injection.h"
#include "sim/production.h"

namespace rasa {
namespace {

// Randomly relocates ~fraction of all containers to other feasible machines
// (application updates / user modifications between cycles), drawn on a
// scratch copy and returned as an explicit move list, so the intent can be
// journaled before any move touches the live placement (crash mid-drift is
// then recoverable move-by-move).
std::vector<DriftMove> ComputeDriftMoves(const Cluster& cluster,
                                         const Placement& current,
                                         double fraction, Rng& rng) {
  Placement scratch = current.ReboundTo(cluster);
  std::vector<DriftMove> out;
  const int moves =
      static_cast<int>(fraction * cluster.num_containers());
  for (int i = 0; i < moves; ++i) {
    const int s = static_cast<int>(rng.NextUint64(cluster.num_services()));
    const auto& machines = scratch.MachinesOf(s);
    if (machines.empty()) continue;
    // Pick a random hosting machine of s, then a random feasible
    // destination.
    const int pick = static_cast<int>(rng.NextUint64(machines.size()));
    auto it = machines.begin();
    std::advance(it, pick);
    const int from = it->first;
    std::vector<int> feasible;
    for (int m = 0; m < cluster.num_machines(); ++m) {
      if (m != from && scratch.CanPlace(m, s)) feasible.push_back(m);
    }
    if (feasible.empty()) continue;
    const int to = feasible[rng.NextUint64(feasible.size())];
    out.push_back({s, from, to});
    RASA_CHECK(ApplyDriftMove(scratch, out.back()));
  }
  return out;
}

// Applies ComputeDriftMoves straight to `placement`, unjournaled (the chaos
// harness's stale-snapshot drift).
void DriftPlacement(const Cluster& cluster, Placement& placement,
                    double fraction, Rng& rng) {
  for (const DriftMove& mv :
       ComputeDriftMoves(cluster, placement, fraction, rng)) {
    RASA_CHECK(ApplyDriftMove(placement, mv));
  }
}

double MaxMachineUtilization(const Cluster& cluster,
                             const Placement& placement) {
  double worst = 0.0;
  for (int m = 0; m < cluster.num_machines(); ++m) {
    for (int r = 0; r < cluster.num_resources(); ++r) {
      const double cap = cluster.machine(m).capacity[r];
      if (cap > 0.0) {
        worst = std::max(worst, placement.UsedResource(m, r) / cap);
      }
    }
  }
  return worst;
}

// Folds an executed cycle's kExecDone record into its cycle report and the
// run totals. Live executions, executions the journal shows finished, and
// executions crash recovery rolled forward are all counted here.
void RecordExecution(const JournalRecord& done, CycleReport& cr,
                     WorkflowCounters& totals) {
  cr.executed = true;
  cr.reached_target = done.reached_target;
  cr.moved_containers = done.commands_succeeded;
  cr.migration_batches = done.batches_executed;
  cr.commands_failed = done.commands_failed;
  cr.command_retries = done.retries;
  cr.replans = done.replans;
  ++totals.executions;
  if (!done.reached_target) ++totals.partial_executions;
  totals.commands_failed += done.commands_failed;
  totals.command_retries += done.retries;
  totals.replans += done.replans;
  totals.sla_violations += done.sla_violations;
  totals.feasibility_violations += done.feasibility_violations;
}

// Runs one workflow invocation: the periodic control loop of §III-A plus
// the durability layer (checkpoints + write-ahead journal) and the resume
// path that completes interrupted cycles from the journal.
class WorkflowRunner {
 public:
  WorkflowRunner(const Cluster& cluster, const Placement& initial,
                 const AlgorithmSelector& selector,
                 const WorkflowOptions& options)
      : cluster_(cluster),
        initial_(initial),
        selector_(selector),
        options_(options),
        rng_(options.seed),
        frozen_cooldown_(cluster.num_services(), 0),
        injector_(options.faults) {}

  StatusOr<WorkflowReport> Run();

 private:
  Status InitDurableFresh();
  Status InitResume();
  Status RunCycleNormal(int cycle);
  // Step 1 of a live cycle: the collected state, with frozen services
  // muted so the partitioner treats them as trivial and leaves them in
  // place.
  CollectedState Collect();
  // Copies a successful optimizer run into the cycle report, journals the
  // delta state and refreshes the ledger summary.
  Status RecordOptimizerRun(int cycle, const RasaResult& result,
                            CycleReport& cr);
  // Step 3 of a live cycle whose plan should execute: validate it, then
  // roll it back or execute it. An invalid plan leaves `cr` a dry-run and
  // sets `dry_reason`.
  Status Reallocate(int cycle, const CollectedState& state,
                    const RasaResult& result, double min_alive_fraction,
                    CycleReport& cr, DryReason& dry_reason);
  Status RollBack(int cycle, const Placement& candidate, CycleReport& cr);
  Status Execute(int cycle, const Placement& target,
                 const MigrationPlan& migration, double min_alive_fraction,
                 CycleReport& cr);
  Status CompleteCycleFromJournal(int cycle, const CycleJournal& cj);
  // Classifies and rolls forward an execution the journal shows
  // interrupted; returns its kExecDone record.
  StatusOr<JournalRecord> RollForwardFromJournal(const CycleJournal& cj);
  // Shared end-of-cycle path: report bookkeeping, drift (journaled fresh or
  // rolled forward from `drift_rec`), cooldown ticks, checkpoint. Sets
  // `crashed_` when a crash point fires mid-tail.
  Status CycleTail(int cycle, CycleReport cr, Stopwatch& timer,
                   const JournalRecord* drift_rec, const Placement* pre_drift);
  Status WriteCheckpoint(int next_cycle);
  // Opens `<telemetry_dir>/telemetry.jsonl`: truncated on a fresh run; on
  // resume, cut to the cycles before start_cycle_, which are replayed
  // through the fold first.
  Status OpenTelemetryJournal();
  // The run's counters with the chaos totals of this invocation added.
  WorkflowCounters CurrentCounters() const;
  // Appends a `type` record for `cycle` to the write-ahead journal of a
  // durable run; in-memory runs skip it. The record is stamped with the
  // current RNG state (encoded only for the types that carry one), and
  // `fill` adds the type's payload.
  template <typename Fill>
  Status Journal(JournalRecordType type, int cycle, Fill fill);

  const Cluster& cluster_;
  const Placement& initial_;
  const AlgorithmSelector& selector_;
  const WorkflowOptions& options_;

  // The counters start at the checkpoint's on resume; faults_injected and
  // cordons_fired hold only those restored totals until Run() returns
  // (the injector restarts at 0).
  WorkflowReport report_;
  Placement live_;
  Rng rng_;
  // Telemetry verdict fold (null when disabled) + the previous cycle's
  // scrape the per-cycle registry delta is computed against.
  std::unique_ptr<TelemetryPipeline> telemetry_;
  JsonlWriter telemetry_journal_;
  MetricsSnapshot prev_scrape_;
  // Delta cache carried across cycles (incremental mode only; stays invalid
  // otherwise). Journaled after every optimizer run and checkpointed, so
  // resume replays incremental runs bit-identically.
  IncrementalState inc_state_;
  std::vector<int> frozen_cooldown_;
  FaultInjector injector_;
  std::unique_ptr<ThreadPool> solver_pool_;

  bool durable_ = false;
  std::unique_ptr<WorkflowJournal> journal_;
  std::shared_ptr<const Cluster> checkpoint_cluster_;
  LedgerSummary last_ledger_;
  bool crashed_ = false;
  int start_cycle_ = 0;
  RecoveryAnalysis analysis_;          // resume only
  Placement expected_start_;           // expected start state of the cycle
                                       // currently being completed
};

template <typename Fill>
Status WorkflowRunner::Journal(JournalRecordType type, int cycle, Fill fill) {
  if (!durable_) return Status::OK();
  JournalRecord record;
  record.type = type;
  record.cycle = cycle;
  record.rng_state = rng_.SerializeState();
  fill(record);
  return journal_->Append(record);
}

WorkflowCounters WorkflowRunner::CurrentCounters() const {
  WorkflowCounters c = report_;
  c.faults_injected += injector_.failures_injected();
  c.cordons_fired += injector_.cordons_fired();
  return c;
}

Status WorkflowRunner::WriteCheckpoint(int next_cycle) {
  WorkflowCheckpoint c;
  c.next_cycle = next_cycle;
  c.rng_state = rng_.SerializeState();
  c.frozen_cooldown = frozen_cooldown_;
  c.counters = CurrentCounters();
  c.ledger = last_ledger_;
  c.incremental = inc_state_;
  c.snapshot.name = StrFormat("workflow-cycle-%d", next_cycle);
  c.snapshot.cluster = checkpoint_cluster_;
  c.snapshot.original_placement = live_.ReboundTo(*checkpoint_cluster_);
  return SaveWorkflowCheckpoint(options_.state_dir, c);
}

Status WorkflowRunner::InitDurableFresh() {
  RASA_RETURN_IF_ERROR(EnsureDirectory(options_.state_dir));
  // A fresh (non-resume) run owns the directory: stale durable state from a
  // previous run would corrupt recovery, so it is cleared first.
  std::remove((options_.state_dir + "/journal.wal").c_str());
  std::remove((options_.state_dir + "/checkpoint").c_str());
  std::remove((options_.state_dir + "/checkpoint.prev").c_str());
  StatusOr<WorkflowJournal> journal = WorkflowJournal::Open(options_.state_dir);
  if (!journal.ok()) return journal.status();
  journal_ = std::make_unique<WorkflowJournal>(std::move(journal).value());
  durable_ = true;
  // Checkpoint 0: even a crash in the first cycle has a recovery anchor.
  return WriteCheckpoint(0);
}

Status WorkflowRunner::InitResume() {
  RASA_ASSIGN_OR_RETURN(analysis_, AnalyzeWorkflowState(options_.state_dir));
  const WorkflowCheckpoint& c = analysis_.checkpoint;
  if (c.snapshot.cluster == nullptr ||
      c.snapshot.cluster->num_services() != cluster_.num_services() ||
      c.snapshot.cluster->num_machines() != cluster_.num_machines()) {
    return InvalidArgumentError(
        StrFormat("state dir '%s' belongs to a different cluster",
                  options_.state_dir.c_str()));
  }
  if (static_cast<int>(c.frozen_cooldown.size()) != cluster_.num_services()) {
    return InvalidArgumentError("checkpoint cooldown size mismatch");
  }
  RASA_RETURN_IF_ERROR(rng_.RestoreState(c.rng_state));
  frozen_cooldown_ = c.frozen_cooldown;
  last_ledger_ = c.ledger;
  inc_state_ = c.incremental;
  static_cast<WorkflowCounters&>(report_) = c.counters;
  start_cycle_ = c.next_cycle;
  report_.resumed_cycle = start_cycle_;
  report_.recovery.recovered = true;
  report_.recovery.used_previous_checkpoint =
      analysis_.used_previous_checkpoint;
  report_.recovery.journal_torn_tail = analysis_.journal_torn_tail;
  expected_start_ = c.snapshot.original_placement.ReboundTo(cluster_);
  StatusOr<WorkflowJournal> journal = WorkflowJournal::Open(options_.state_dir);
  if (!journal.ok()) return journal.status();
  journal_ = std::make_unique<WorkflowJournal>(std::move(journal).value());
  durable_ = true;
  return Status::OK();
}

Status WorkflowRunner::OpenTelemetryJournal() {
  RASA_RETURN_IF_ERROR(EnsureDirectory(options_.telemetry_dir));
  const std::string path = options_.telemetry_dir + "/telemetry.jsonl";
  if (!options_.resume) {
    std::remove(path.c_str());  // fresh runs own the journal
  } else {
    // The checkpoint covers the cycles before start_cycle_: replay their
    // samples through the fold and drop any later line, which belongs to a
    // cycle this run redoes (one the crash cut before its checkpoint).
    StatusOr<std::string> content = ReadFileToString(path);
    std::vector<CycleSample> samples;
    if (content.ok()) {
      StatusOr<std::vector<CycleSample>> decoded =
          ParseTelemetryJournal(*content);
      if (!decoded.ok()) {
        return InvalidArgumentError(StrFormat(
            "%s: %s", path.c_str(), decoded.status().message().c_str()));
      }
      samples = *std::move(decoded);
    } else if (content.status().code() != StatusCode::kNotFound) {
      return content.status();
    }
    std::string kept;
    for (const CycleSample& sample : samples) {
      if (sample.cycle >= start_cycle_) break;
      telemetry_->RecordCycle(sample);
      kept += CycleSampleJson(sample) + "\n";
    }
    RASA_RETURN_IF_ERROR(AtomicWriteFile(path, kept));
  }
  if (!telemetry_journal_.Open(path)) {
    return InternalError(
        StrFormat("cannot open telemetry journal '%s'", path.c_str()));
  }
  return Status::OK();
}

Status WorkflowRunner::CycleTail(int cycle, CycleReport cr, Stopwatch& timer,
                                 const JournalRecord* drift_rec,
                                 const Placement* pre_drift) {
  if (!cr.executed && !cr.rolled_back) ++report_.dry_runs;

  // The post-execution, pre-drift placement — the state the cluster
  // actually serves traffic from until the next cycle. That is live_,
  // except in a recovered cycle whose drift had started before the crash:
  // there it is the pre-drift placement recovery rebuilt.
  const Placement& served = drift_rec != nullptr ? *pre_drift : live_;
  cr.affinity_after = GainedAffinity(cluster_, served);
  if (cr.executed) {
    cr.migration_truncation = cr.predicted_affinity - cr.affinity_after;
  }
  cr.seconds = timer.ElapsedSeconds();
  if (MetricsEnabled()) {
    // Per-cycle view: what the registry recorded during this cycle, not the
    // cumulative scrape (CycleReport::metrics doc).
    MetricsSnapshot current = MetricRegistry::Default().Scrape();
    cr.metrics = current.Diff(prev_scrape_);
    prev_scrape_ = std::move(current);
  }
  if (telemetry_ != nullptr) {
    const TrafficQuantiles traffic = EstimateTrafficQuantiles(cluster_, served);
    CycleSample sample;
    sample.cycle = cycle;
    sample.seconds = cr.seconds;
    sample.affinity_before = cr.affinity_before;
    sample.gained_affinity = cr.affinity_after;
    sample.optimality_gap =
        cr.explain.populated ? cr.explain.certificate.Gap() : 0.0;
    sample.migration_truncation = cr.migration_truncation;
    sample.dirty_subproblems = cr.dirty_subproblems;
    sample.reused_subproblems = cr.reused_subproblems;
    // The cycle's solver work, summed over its records (an attempt that
    // did not run carries zero stats).
    for (const LedgerRecord& rec : cr.explain.records) {
      for (const SolveAttempt* a : {&rec.primary, &rec.secondary}) {
        sample.lp_pivots += a->cg.lp_iterations + a->mip.lp_iterations;
        sample.refactorizations +=
            a->cg.refactorizations + a->mip.refactorizations;
      }
    }
    sample.latency_p50 = traffic.p50;
    sample.latency_p95 = traffic.p95;
    sample.latency_p99 = traffic.p99;
    sample.error_rate = traffic.error_rate;
    sample.executed = cr.executed;
    sample.rolled_back = cr.rolled_back;
    sample.solver_failed = cr.solver_failed;
    cr.telemetry = telemetry_->RecordCycle(sample);
    if (telemetry_journal_.is_open()) {
      telemetry_journal_.Append(CycleSampleJson(sample));
    }
  }
  report_.cycles.push_back(std::move(cr));

  // Re-base the delta cache on the placement the cycle actually ended with
  // (executions go partial, plans roll back) so the next diff sees only
  // real drift. Runs in the recovery tail too — it is a pure function of
  // (state, live placement), which is what keeps `--resume` bit-identical:
  // recovery decodes the journaled pre-decision state and re-derives the
  // same re-base from the rolled-forward placement.
  if (options_.incremental && inc_state_.valid) {
    RebaseIncrementalState(cluster_, live_, &inc_state_);
  }

  // Cluster drift before the next cycle. Fresh cycles journal the intent
  // (explicit move list + post-draw RNG state) before applying; recovered
  // cycles roll the journaled moves forward instead of redrawing.
  if (drift_rec != nullptr) {
    const int applied =
        RollForwardDrift(cluster_, drift_rec->moves, *pre_drift, live_);
    if (applied < 0) {
      ++report_.recovery.phases_abandoned;
    } else {
      report_.recovery.drift_moves_rolled_forward += applied;
    }
    RASA_RETURN_IF_ERROR(rng_.RestoreState(drift_rec->rng_state));
  } else {
    const std::vector<DriftMove> moves =
        ComputeDriftMoves(cluster_, live_, options_.drift_fraction, rng_);
    RASA_RETURN_IF_ERROR(
        Journal(JournalRecordType::kDriftIntent, cycle,
                [&](JournalRecord& r) { r.moves = moves; }));
    for (const DriftMove& mv : moves) {
      RASA_CHECK(ApplyDriftMove(live_, mv));
      if (options_.inject_faults && injector_.CrashOnDriftMove()) {
        crashed_ = true;
        return Status::OK();
      }
    }
  }

  for (int& cd : frozen_cooldown_) cd = std::max(0, cd - 1);
  if (options_.inject_faults) injector_.EndCycle();

  if (durable_) {
    if (options_.inject_faults && injector_.CrashBeforeCheckpoint(cycle)) {
      crashed_ = true;  // died with the cycle applied but not checkpointed
      return Status::OK();
    }
    RASA_RETURN_IF_ERROR(WriteCheckpoint(cycle + 1));
  }
  return Status::OK();
}

CollectedState WorkflowRunner::Collect() {
  CollectedState state = CollectClusterState(
      cluster_, live_, options_.measurement_noise, rng_.Next());
  bool any_frozen = false;
  for (int cd : frozen_cooldown_) any_frozen |= cd > 0;
  if (any_frozen) {
    AffinityGraph muted(cluster_.num_services());
    for (const AffinityEdge& e : state.measured_cluster->affinity().edges()) {
      if (frozen_cooldown_[e.u] > 0 || frozen_cooldown_[e.v] > 0) continue;
      muted.AddEdge(e.u, e.v, e.weight);
    }
    state.measured_cluster = std::make_shared<Cluster>(
        cluster_.resource_names(), cluster_.services(), cluster_.machines(),
        std::move(muted), cluster_.anti_affinity());
    state.placement = live_.ReboundTo(*state.measured_cluster);
  }
  return state;
}

Status WorkflowRunner::RunCycleNormal(int cycle) {
  const TraceSpan cycle_span(StrFormat("cycle_%d", cycle));
  Stopwatch timer;
  CycleReport cr;
  cr.affinity_before = GainedAffinity(cluster_, live_);
  RASA_RETURN_IF_ERROR(
      Journal(JournalRecordType::kCycleStart, cycle, [](JournalRecord&) {}));

  // 1) Data collection (measured traffic).
  const CollectedState state = Collect();

  // 2) The RASA algorithm on the collected state. A failed optimizer run
  //    must not abort the workflow: the cycle is recorded as a dry-run
  //    (affinity_after == affinity_before) and the loop continues.
  RasaOptions rasa_options = options_.rasa;
  rasa_options.seed = rng_.Next();
  if (options_.inject_faults && injector_.DrawSolverExhaustion()) {
    // Chaos: the cycle starts with its solver budget already spent,
    // forcing the degradation ladder straight down to the greedy.
    rasa_options.timeout_seconds = 0.0;
  }
  RasaOptimizer optimizer(rasa_options, selector_);
  StatusOr<RasaResult> optimized = [&]() -> StatusOr<RasaResult> {
    if (options_.inject_faults && injector_.DrawOptimizerFailure()) {
      return InternalError("injected optimizer failure");
    }
    const OptimizeContext ctx(solver_pool_.get(),
                              options_.incremental ? &inc_state_ : nullptr);
    return optimizer.Optimize(*state.measured_cluster, state.placement, ctx);
  }();
  DryReason dry_reason = DryReason::kBelowThreshold;
  if (!optimized.ok()) {
    RASA_LOG(Warning) << "cycle " << cycle << " optimizer failed: "
                      << optimized.status().ToString()
                      << "; recording as dry-run";
    cr.solver_failed = true;
    dry_reason = DryReason::kSolverFailed;
    ++report_.solver_failures;
  } else {
    RASA_RETURN_IF_ERROR(RecordOptimizerRun(cycle, *optimized, cr));
  }

  // 3) Reallocate per the migration plan (or dry-run).
  if (optimized.ok() && optimized->should_execute) {
    RASA_RETURN_IF_ERROR(Reallocate(
        cycle, state, *optimized, rasa_options.migration.min_alive_fraction,
        cr, dry_reason));
    if (crashed_) return Status::OK();
  }
  if (!cr.executed && !cr.rolled_back) {
    RASA_RETURN_IF_ERROR(
        Journal(JournalRecordType::kDecisionDry, cycle,
                [&](JournalRecord& r) { r.dry_reason = dry_reason; }));
  }
  return CycleTail(cycle, std::move(cr), timer, nullptr, nullptr);
}

Status WorkflowRunner::RecordOptimizerRun(int cycle, const RasaResult& result,
                                          CycleReport& cr) {
  cr.predicted_affinity = result.new_gained_affinity;
  cr.incremental = result.incremental;
  cr.dirty_subproblems = result.dirty_subproblems;
  cr.reused_subproblems = result.reused_subproblems;
  cr.incremental_reason = result.incremental_reason;
  if (options_.incremental && inc_state_.valid) {
    // The delta state must be durable before the cycle's decision record:
    // a journaled decision then implies recovery can restore the exact
    // cache the next live cycle diffs against. A crash in between leaves
    // the decision at kNone and the cycle re-runs live off the
    // checkpointed (pre-cycle) state.
    RASA_RETURN_IF_ERROR(
        Journal(JournalRecordType::kIncrementalState, cycle,
                [&](JournalRecord& r) {
                  r.incremental_state =
                      EncodeIncrementalStateString(inc_state_);
                }));
  }
  cr.explain = result.report;
  if (cr.explain.populated) {
    // What the cycle's placement rests on: reused records count with the
    // rung of the solve they re-apply.
    const LadderCounts ladder =
        CountLadder(cr.explain.records, /*include_reused=*/true);
    last_ledger_.subproblems = static_cast<int>(cr.explain.records.size());
    last_ledger_.greedy_fallbacks = ladder.greedy_fallbacks;
    last_ledger_.secondary_successes = ladder.secondary_successes;
    last_ledger_.solver_failures = report_.solver_failures;
    last_ledger_.certificate_gap = cr.explain.certificate.Gap();
  }
  return Status::OK();
}

Status WorkflowRunner::Reallocate(int cycle, const CollectedState& state,
                                  const RasaResult& result,
                                  double min_alive_fraction, CycleReport& cr,
                                  DryReason& dry_reason) {
  const Status valid = ValidateMigrationPlan(
      *state.measured_cluster, state.placement, result.new_placement,
      result.migration, min_alive_fraction);
  if (!valid.ok()) {
    RASA_LOG(Warning) << "migration plan invalid, dry-running: "
                      << valid.ToString();
    dry_reason = DryReason::kInvalidPlan;
    return Status::OK();
  }
  const Placement candidate = result.new_placement.ReboundTo(cluster_);
  if (MaxMachineUtilization(cluster_, candidate) >
      options_.rollback_utilization_threshold) {
    return RollBack(cycle, candidate, cr);
  }
  return Execute(cycle, candidate, result.migration, min_alive_fraction, cr);
}

Status WorkflowRunner::RollBack(int cycle, const Placement& candidate,
                                CycleReport& cr) {
  // Revert, tag the moved services unschedulable.
  cr.rolled_back = true;
  ++report_.rollbacks;
  std::vector<int> frozen;
  for (int s = 0; s < cluster_.num_services(); ++s) {
    bool moved = false;
    for (const auto& [m, count] : candidate.MachinesOf(s)) {
      if (live_.CountOn(m, s) != count) {
        moved = true;
        break;
      }
    }
    if (moved) {
      frozen_cooldown_[s] = options_.unschedulable_cycles;
      frozen.push_back(s);
    }
  }
  return Journal(JournalRecordType::kDecisionRollback, cycle,
                 [&](JournalRecord& r) { r.frozen_services = frozen; });
}

Status WorkflowRunner::Execute(int cycle, const Placement& target,
                               const MigrationPlan& migration,
                               double min_alive_fraction, CycleReport& cr) {
  // Chaos: the cluster drifts between collection and execution, so the
  // plan is stale and the executor must re-plan mid-flight.
  if (options_.inject_faults && options_.faults.stale_snapshot_drift > 0.0) {
    DriftPlacement(cluster_, live_, options_.faults.stale_snapshot_drift,
                   rng_);
  }
  MigrationExecutorOptions exec_options;
  exec_options.retry = options_.command_retry;
  exec_options.min_alive_fraction = min_alive_fraction;
  exec_options.max_replans = options_.max_replans;
  exec_options.seed = rng_.Next();
  // WAL plan record: the full intent (target + batches + the RNG state
  // after every pre-execution draw) is durable before the first command
  // runs, so recovery never re-runs the optimizer.
  RASA_RETURN_IF_ERROR(
      Journal(JournalRecordType::kPlan, cycle, [&](JournalRecord& r) {
        r.exec_seed = exec_options.seed;
        r.predicted_affinity = cr.predicted_affinity;
        for (int m = 0; m < cluster_.num_machines(); ++m) {
          for (const auto& [s, count] : target.ServicesOn(m)) {
            r.target.push_back({m, s, count});
          }
        }
        r.batches = migration.batches;
      }));
  PlacementActions base_actions(live_);
  FaultyClusterActions faulty_actions(base_actions, injector_);
  ClusterActions& actions =
      options_.inject_faults ? static_cast<ClusterActions&>(faulty_actions)
                             : static_cast<ClusterActions&>(base_actions);
  exec_options.journal = journal_.get();
  exec_options.journal_cycle = cycle;
  if (options_.inject_faults) {
    exec_options.crash_after_command = [this] {
      return injector_.CrashOnCommandApplied();
    };
    exec_options.crash_after_batch = [this] {
      return injector_.CrashOnBatchComplete();
    };
  }
  const MigrationExecutionReport exec = ExecuteMigration(
      cluster_, live_, target, migration, actions, exec_options);
  if (exec.crashed) {
    // Stopped dead mid-execution: the live placement is whatever the
    // applied commands left behind; nothing else runs.
    crashed_ = true;
    return Status::OK();
  }
  JournalRecord done;
  done.type = JournalRecordType::kExecDone;
  done.cycle = cycle;
  done.reached_target = exec.reached_target;
  done.batches_executed = exec.batches_executed;
  done.commands_succeeded = exec.commands_succeeded;
  done.commands_failed = exec.commands_failed;
  done.retries = exec.retries;
  done.replans = exec.replans;
  done.sla_violations = exec.sla_violations;
  done.feasibility_violations = exec.feasibility_violations;
  RecordExecution(done, cr, report_);
  return Journal(JournalRecordType::kExecDone, cycle,
                 [&](JournalRecord& r) { r = done; });
}

Status WorkflowRunner::CompleteCycleFromJournal(int cycle,
                                                const CycleJournal& cj) {
  const TraceSpan cycle_span(StrFormat("cycle_%d_recovery", cycle));
  Stopwatch timer;
  CycleReport cr;
  cr.recovered = true;
  cr.affinity_before = GainedAffinity(cluster_, expected_start_);
  ++report_.recovery.cycles_completed_from_journal;
  if (cj.has_incremental) {
    // The interrupted cycle's post-optimizer delta state was journaled
    // before its decision record; restore it so subsequent live cycles diff
    // against the same cache the original run carried.
    RASA_ASSIGN_OR_RETURN(
        inc_state_,
        DecodeIncrementalStateString(cj.incremental_record.incremental_state));
  }

  Placement pre_drift = expected_start_;
  switch (cj.decision) {
    case CycleJournal::Decision::kDry:
      RASA_RETURN_IF_ERROR(rng_.RestoreState(cj.decision_record.rng_state));
      cr.solver_failed =
          cj.decision_record.dry_reason == DryReason::kSolverFailed;
      if (cr.solver_failed) ++report_.solver_failures;
      break;
    case CycleJournal::Decision::kRollback:
      RASA_RETURN_IF_ERROR(rng_.RestoreState(cj.decision_record.rng_state));
      cr.rolled_back = true;
      ++report_.rollbacks;
      for (int s : cj.decision_record.frozen_services) {
        if (s >= 0 && s < cluster_.num_services()) {
          frozen_cooldown_[s] = options_.unschedulable_cycles;
        }
      }
      break;
    case CycleJournal::Decision::kExecute: {
      RASA_RETURN_IF_ERROR(rng_.RestoreState(cj.plan.rng_state));
      cr.predicted_affinity = cj.plan.predicted_affinity;
      // An execution that finished before the crash left the observed
      // placement at its end state; an interrupted one rolls forward.
      JournalRecord done = cj.exec_record;
      if (!cj.exec_done) {
        RASA_ASSIGN_OR_RETURN(done, RollForwardFromJournal(cj));
      }
      RecordExecution(done, cr, report_);
      pre_drift = cr.reached_target ? TargetFromPlan(cluster_, cj.plan) : live_;
      break;
    }
    case CycleJournal::Decision::kNone:
      break;  // Run() runs such cycles live
  }
  return CycleTail(cycle, std::move(cr), timer,
                   cj.drift_started ? &cj.drift_record : nullptr, &pre_drift);
}

StatusOr<JournalRecord> WorkflowRunner::RollForwardFromJournal(
    const CycleJournal& cj) {
  // Classify every journaled command against the observed world before
  // mutating it, then roll the interrupted execution forward.
  RecoveryStats& stats = report_.recovery;
  for (const CommandClassification& f :
       ClassifyInFlightCommands(cluster_, cj, expected_start_, live_,
                                analysis_.journal_torn_tail)) {
    switch (f.fate) {
      case CommandFate::kApplied:
        ++stats.commands_applied_pre_crash;
        break;
      case CommandFate::kNotApplied:
        ++stats.commands_not_applied;
        break;
      case CommandFate::kTorn:
        ++stats.commands_torn;
        break;
    }
  }
  RASA_ASSIGN_OR_RETURN(
      const RollForwardResult rf,
      RollForwardExecution(cluster_, cj, expected_start_, live_,
                           options_.rasa.migration.min_alive_fraction,
                           journal_.get()));
  stats.commands_rolled_forward += rf.commands_rolled_forward;
  stats.batches_rolled_forward += rf.batches_rolled_forward;
  if (rf.abandoned) ++stats.phases_abandoned;
  return rf.exec_done;
}

StatusOr<WorkflowReport> WorkflowRunner::Run() {
  live_ = initial_.ReboundTo(cluster_);
  // One worker pool shared by every cycle's optimizer run: spawning threads
  // once instead of per cycle keeps the per-cycle overhead at zero.
  const int solver_threads = options_.rasa.num_threads == 0
                                 ? ThreadPool::DefaultNumThreads()
                                 : std::max(1, options_.rasa.num_threads);
  if (solver_threads > 1) {
    solver_pool_ = std::make_unique<ThreadPool>(solver_threads);
  }

  if (MetricsEnabled()) {
    prev_scrape_ = MetricRegistry::Default().Scrape();
  }

  if (!options_.state_dir.empty()) {
    checkpoint_cluster_ = std::make_shared<Cluster>(
        cluster_.resource_names(), cluster_.services(), cluster_.machines(),
        cluster_.affinity(), cluster_.anti_affinity());
    if (options_.resume) {
      RASA_RETURN_IF_ERROR(InitResume());
    } else {
      RASA_RETURN_IF_ERROR(InitDurableFresh());
    }
  }
  // Opened after InitResume, which sets the start_cycle_ a resumed journal
  // is cut at.
  if (options_.telemetry.enabled || !options_.telemetry_dir.empty()) {
    telemetry_ = std::make_unique<TelemetryPipeline>();
    if (!options_.telemetry_dir.empty()) {
      RASA_RETURN_IF_ERROR(OpenTelemetryJournal());
    }
  }

  for (int cycle = start_cycle_; cycle < options_.cycles && !crashed_;
       ++cycle) {
    // Resumed runs complete the cycles the journal decided; a cycle with
    // at most a cycle_start journaled had no durable side effect (the RNG
    // and cooldowns are still at its start state), so it runs live.
    const auto it = analysis_.cycles.find(cycle);
    if (it == analysis_.cycles.end() ||
        it->second.decision == CycleJournal::Decision::kNone) {
      RASA_RETURN_IF_ERROR(RunCycleNormal(cycle));
      continue;
    }
    RASA_RETURN_IF_ERROR(CompleteCycleFromJournal(cycle, it->second));
    // A completed cycle leaves live_ at the next cycle's start state.
    expected_start_ = live_;
  }

  static_cast<WorkflowCounters&>(report_) = CurrentCounters();
  report_.crashed = crashed_;
  report_.final_placement = std::move(live_);
  return std::move(report_);
}

}  // namespace

CollectedState CollectClusterState(const Cluster& cluster,
                                   const Placement& live,
                                   double measurement_noise, uint64_t seed) {
  Rng rng(seed);
  AffinityGraph measured(cluster.num_services());
  for (const AffinityEdge& e : cluster.affinity().edges()) {
    const double factor =
        std::max(0.05, 1.0 + measurement_noise * rng.NextGaussian());
    measured.AddEdge(e.u, e.v, e.weight * factor);
  }
  measured.NormalizeWeights();
  CollectedState state{
      std::make_shared<Cluster>(cluster.resource_names(), cluster.services(),
                                cluster.machines(), std::move(measured),
                                cluster.anti_affinity()),
      Placement()};
  state.placement = live.ReboundTo(*state.measured_cluster);
  return state;
}

Status ValidateWorkflowOptions(const WorkflowOptions& options) {
  if (options.cycles < 0) {
    return InvalidArgumentError(
        StrFormat("cycles must be non-negative (got %d)", options.cycles));
  }
  // The negated comparisons also catch NaN.
  if (!(options.drift_fraction >= 0.0 && options.drift_fraction <= 1.0)) {
    return InvalidArgumentError(
        StrFormat("drift_fraction must be in [0, 1] (got %g)",
                  options.drift_fraction));
  }
  if (!(options.measurement_noise >= 0.0 &&
        options.measurement_noise <= 1.0)) {
    return InvalidArgumentError(
        StrFormat("measurement_noise must be in [0, 1] (got %g)",
                  options.measurement_noise));
  }
  if (options.max_replans <= 0) {
    return InvalidArgumentError(
        StrFormat("max_replans must be positive (got %d)",
                  options.max_replans));
  }
  if (!(options.rollback_utilization_threshold >= 1.0)) {
    // Collocation legitimately packs machines to 100%; a threshold below
    // 1.0 (or NaN, caught by the negated comparison) would roll back every
    // healthy execution.
    return InvalidArgumentError(
        StrFormat("rollback_utilization_threshold must be at least 1.0 "
                  "(got %g)",
                  options.rollback_utilization_threshold));
  }
  if (options.unschedulable_cycles < 0) {
    return InvalidArgumentError(
        StrFormat("unschedulable_cycles must be non-negative (got %d)",
                  options.unschedulable_cycles));
  }
  if (options.resume && options.state_dir.empty()) {
    return InvalidArgumentError("resume requires a state_dir");
  }
  return Status::OK();
}

TrafficQuantiles EstimateTrafficQuantiles(const Cluster& cluster,
                                          const Placement& placement) {
  // Steady-state constants of the production model: no jitter, congestion,
  // or time steps — the result is a pure function of the placement.
  const ProductionSimOptions model;
  const std::vector<AffinityEdge>& edges = cluster.affinity().edges();
  TrafficQuantiles out;
  if (edges.empty()) return out;
  const std::vector<double> rho = EdgeLocalizationRatios(cluster, placement);

  struct TrafficPoint {
    double latency;
    double weight;
  };
  std::vector<TrafficPoint> points;
  points.reserve(edges.size());
  double total_weight = 0.0;
  double weighted_error = 0.0;
  for (size_t i = 0; i < edges.size(); ++i) {
    const double w = edges[i].weight;
    if (w <= 0.0) continue;
    const double r = rho[i];
    points.push_back(
        {r * model.ipc_latency + (1.0 - r) * model.rpc_latency, w});
    weighted_error += w * (r * model.ipc_error + (1.0 - r) * model.rpc_error);
    total_weight += w;
  }
  if (total_weight <= 0.0) return out;
  out.error_rate = weighted_error / total_weight;
  std::sort(points.begin(), points.end(),
            [](const TrafficPoint& a, const TrafficPoint& b) {
              return a.latency < b.latency;
            });
  // Weighted quantile: the smallest latency whose cumulative traffic share
  // reaches q.
  const auto quantile = [&](double q) {
    const double target = q * total_weight;
    double cumulative = 0.0;
    for (const TrafficPoint& p : points) {
      cumulative += p.weight;
      if (cumulative >= target) return p.latency;
    }
    return points.back().latency;
  };
  out.p50 = quantile(0.50);
  out.p95 = quantile(0.95);
  out.p99 = quantile(0.99);
  return out;
}

StatusOr<WorkflowReport> RunWorkflow(const Cluster& cluster,
                                     const Placement& initial,
                                     const AlgorithmSelector& selector,
                                     const WorkflowOptions& options) {
  RASA_RETURN_IF_ERROR(ValidateWorkflowOptions(options));
  WorkflowRunner runner(cluster, initial, selector, options);
  return runner.Run();
}

}  // namespace rasa
