#ifndef RASA_SIM_WORKFLOW_H_
#define RASA_SIM_WORKFLOW_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/statusor.h"
#include "common/telemetry.h"
#include "core/rasa.h"
#include "core/recovery.h"
#include "sim/fault_injection.h"

namespace rasa {

/// One collected cluster state (the Data Collector of §III-A). The affinity
/// weights are the *measured* traffic: optionally perturbed by measurement
/// noise relative to ground truth. Held behind a shared_ptr because the
/// placement references it.
struct CollectedState {
  std::shared_ptr<const Cluster> measured_cluster;
  Placement placement;
};

/// Samples the live cluster: copies the placement and re-weights the
/// affinity graph with multiplicative noise of the given relative sigma.
CollectedState CollectClusterState(const Cluster& cluster,
                                   const Placement& live,
                                   double measurement_noise, uint64_t seed);

struct WorkflowOptions {
  /// Number of CronJob cycles to simulate (the paper runs every 30 min).
  int cycles = 6;
  /// Fraction of containers randomly relocated between cycles (application
  /// updates / user modifications drifting the cluster state).
  double drift_fraction = 0.04;
  double measurement_noise = 0.05;
  RasaOptions rasa;
  /// Roll back a reallocation if any machine's dominant-resource
  /// utilization exceeds this fraction afterwards (§III-B). Collocation
  /// legitimately packs machines to 100%, so the default only fires on
  /// over-commitment (e.g. the snapshot went stale mid-migration).
  double rollback_utilization_threshold = 1.0000001;
  /// Cycles a rolled-back run keeps its services tagged unschedulable
  /// (stands in for the paper's three days).
  int unschedulable_cycles = 2;
  /// Per-command retry/backoff policy of the migration executor.
  RetryPolicy command_retry;
  /// Maximum executor re-planning rounds per cycle.
  int max_replans = 4;
  /// Chaos harness: when true, commands/cordons/stale snapshots/solver
  /// budgets are faulted per `faults` (seeded; replays bit-for-bit).
  bool inject_faults = false;
  FaultInjectionOptions faults;
  /// Durable-state directory (checkpoints + migration write-ahead journal,
  /// see core/recovery.h). Empty = in-memory only, exactly the pre-durable
  /// behavior. Durable runs draw the identical random sequence, so the
  /// final placement matches the in-memory run bit-for-bit.
  std::string state_dir;
  /// Resume an interrupted run from `state_dir` instead of starting fresh:
  /// recovery reconciles the journal against `initial` (the observed live
  /// placement), rolls the interrupted cycle forward or abandons it
  /// cleanly, re-runs the SLA/feasibility audits, and continues at the
  /// interrupted cycle. Requires a non-empty `state_dir`.
  bool resume = false;
  /// Delta-aware re-optimization (off by default): cycles after the first
  /// call Optimize with a carried IncrementalState, re-solving only the
  /// subproblems the snapshot differ marks dirty and re-applying the prior
  /// cycle's solutions for the rest (see DESIGN.md "Incremental
  /// re-optimization"). The delta state is journaled and checkpointed, so
  /// `resume` replays incremental runs bit-identically. Thresholds live in
  /// `rasa.delta`. Note: `measurement_noise` re-randomizes every affinity
  /// weight per cycle, which the differ reports as full drift — pair
  /// incremental mode with exact measurement or raise
  /// `rasa.delta.weight_tolerance` to cover the noise band.
  bool incremental = false;
  /// Continuous telemetry (see common/telemetry.h): each cycle's
  /// CycleSample is folded into SLO burn-rate and anomaly verdicts, which
  /// are attached to its CycleReport. Strictly observation-only:
  /// placements are bit-identical with telemetry on or off at every thread
  /// count (telemetry_determinism_test).
  TelemetryOptions telemetry;
  /// When non-empty, enables telemetry and records each cycle's sample as
  /// one JSONL line of `<telemetry_dir>/telemetry.jsonl` (fsync per line via
  /// the logging JsonlWriter, so `rasa_cli tail` can follow a live run). A
  /// fresh (non-resume) run truncates the journal. A resumed run cuts it to
  /// the cycles its checkpoint covers, replays those samples through the
  /// fold, and appends; a malformed line fails the resume. Without a
  /// telemetry dir nothing was recorded, so a resumed fold starts empty.
  std::string telemetry_dir;
  uint64_t seed = 99;
};

/// Validates option ranges up front: negative `cycles`, `drift_fraction` or
/// `measurement_noise` outside [0, 1], non-positive `max_replans`,
/// `rollback_utilization_threshold` below 1.0, negative
/// `unschedulable_cycles`, and `resume` without a `state_dir` all return
/// kInvalidArgument. RunWorkflow calls this before touching any state.
Status ValidateWorkflowOptions(const WorkflowOptions& options);

struct CycleReport {
  double affinity_before = 0.0;
  double affinity_after = 0.0;   // after execution (== before if dry-run)
  double predicted_affinity = 0.0;
  bool executed = false;
  bool rolled_back = false;
  /// The optimizer itself returned an error; the cycle was recorded as a
  /// dry-run instead of aborting the workflow.
  bool solver_failed = false;
  /// This cycle was completed from the journal by crash recovery rather
  /// than run live (its optimizer never re-ran; the journaled plan was
  /// rolled forward or abandoned).
  bool recovered = false;
  /// Executor converged to the (cordon-adjusted) target placement.
  bool reached_target = false;
  int moved_containers = 0;
  int migration_batches = 0;
  int commands_failed = 0;
  int command_retries = 0;
  int replans = 0;
  double seconds = 0.0;
  /// Affinity the optimizer predicted but execution did not deliver:
  /// predicted_affinity - affinity_after, for executed cycles only (partial
  /// executions, executor re-planning, and measurement noise all land
  /// here). 0 for dry-runs and rollbacks.
  double migration_truncation = 0.0;
  // Incremental-path accounting (all defaults unless
  // WorkflowOptions::incremental; mirrors RasaResult).
  /// The cycle reused the cached partitioning (false also covers the
  /// incremental mode's full-resolve fallbacks).
  bool incremental = false;
  int dirty_subproblems = 0;
  int reused_subproblems = 0;
  /// Fallback reason when incremental mode resolved from scratch
  /// ("cold-start", "structure", "drift-threshold"); empty otherwise.
  std::string incremental_reason;
  /// The optimizer run's explain report (flight-recorder records, quality
  /// certificate, attribution waterfall, placement diff — see explain.h).
  /// Unpopulated when the optimizer failed.
  ExplainReport explain;
  /// What the registry recorded during *this* cycle: the end-of-cycle
  /// scrape diffed against the previous cycle's (MetricsSnapshot::Diff), so
  /// counters and histogram counts are per-cycle deltas and gauges are the
  /// cycle-end values. Empty when metrics are disabled.
  MetricsSnapshot metrics;
  /// Per-cycle telemetry verdicts (SLO statuses + anomaly flags): the fold
  /// over this run's samples, and on resume the recorded samples before
  /// it; populated only when telemetry is enabled. The cost-anomaly fields
  /// derive from wall-clock cycle seconds — determinism comparisons strip
  /// them like any other timing field. A `recovered` cycle has no optimizer
  /// report, so its sample reads gap and dirty/reused counts as 0.
  CycleTelemetry telemetry;
};

/// The run's counters (WorkflowCounters, the part a checkpoint carries
/// across a resume) plus its per-cycle reports.
struct WorkflowReport : WorkflowCounters {
  std::vector<CycleReport> cycles;
  Placement final_placement;
  /// A simulated crash point fired and stopped the run dead: the report
  /// covers only the work up to the crash and `final_placement` is the live
  /// cluster state at the instant of death (what a restarted controller
  /// would observe).
  bool crashed = false;
  /// Cycle index the resumed run picked up at; -1 when not resumed.
  int resumed_cycle = -1;
  /// What crash recovery found and did (zero-initialized unless resumed).
  RecoveryStats recovery;
};

/// Deterministic request-traffic quantiles of a placement under the
/// production model's steady state (no jitter/congestion RNG): each
/// affinity edge carries `weight` traffic at latency
/// `rho * ipc_latency + (1 - rho) * rpc_latency` where rho is the edge's
/// localization ratio, and analogously for error rates. The quantiles are
/// weighted by traffic share. A pure function of (cluster, placement), so
/// feeding it into telemetry keeps the verdicts deterministic.
struct TrafficQuantiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  /// Traffic-weighted mean modeled error rate.
  double error_rate = 0.0;
};
TrafficQuantiles EstimateTrafficQuantiles(const Cluster& cluster,
                                          const Placement& placement);

/// Simulates the full periodic system of §III-A: each cycle collects the
/// cluster state, runs the RASA algorithm, dry-runs when the improvement is
/// below the threshold, otherwise validates and applies the migration plan
/// batch by batch, then checks the rollback condition. Between cycles the
/// cluster drifts.
StatusOr<WorkflowReport> RunWorkflow(const Cluster& cluster,
                                     const Placement& initial,
                                     const AlgorithmSelector& selector,
                                     const WorkflowOptions& options);

}  // namespace rasa

#endif  // RASA_SIM_WORKFLOW_H_
