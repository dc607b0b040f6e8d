#ifndef RASA_CORE_MIGRATION_EXECUTOR_H_
#define RASA_CORE_MIGRATION_EXECUTOR_H_

#include <functional>

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/migration.h"

namespace rasa {

class WorkflowJournal;  // core/recovery.h

/// The executor's boundary to the live cluster: one container operation at a
/// time. Real deployments talk to the container orchestrator here; the
/// simulator applies commands to a `Placement` (optionally through a fault
/// injector). Implementations may fail any command — the executor retries,
/// re-batches and re-plans around failures.
class ClusterActions {
 public:
  virtual ~ClusterActions() = default;
  /// Attempts to delete one container of `service` on `machine`.
  virtual Status Delete(int machine, int service) = 0;
  /// Attempts to create one container of `service` on `machine`.
  virtual Status Create(int machine, int service) = 0;
  /// Whether the machine currently accepts commands (false = cordoned).
  virtual bool Available(int machine) const {
    (void)machine;
    return true;
  }
};

/// Applies commands directly to a live placement. Fails (permanently) only
/// on genuinely impossible commands: deleting an absent container or
/// creating one that does not fit.
class PlacementActions : public ClusterActions {
 public:
  explicit PlacementActions(Placement& live) : live_(live) {}

  Status Delete(int machine, int service) override {
    return live_.Remove(machine, service);
  }
  Status Create(int machine, int service) override;

 private:
  Placement& live_;
};

struct MigrationExecutorOptions {
  /// Per-command retry/backoff policy.
  RetryPolicy retry;
  /// SLA floor re-verified against the *actual* live state before every
  /// delete and after every (possibly partial) batch.
  double min_alive_fraction = 0.75;
  /// Maximum re-planning rounds after a batch is abandoned with stragglers.
  int max_replans = 4;
  /// Overall execution deadline (simulated backoff counts against it).
  Deadline deadline = Deadline::Infinite();
  /// Seed for backoff jitter; fixed seed + fault-free actions is fully
  /// deterministic.
  uint64_t seed = 17;
  /// Migration write-ahead journal (core/recovery.h). When set, every batch
  /// gets an intent record carrying its exact commands appended and fsync'd
  /// before the first command touches the cluster, and a commit record
  /// after the post-batch audit — recovery replays these to classify every
  /// in-flight command as applied / not-applied / torn. A failed journal
  /// append stops execution dead (acting without a durable intent would
  /// make the run unrecoverable).
  WorkflowJournal* journal = nullptr;
  /// Cycle number stamped on journal records.
  int journal_cycle = 0;
  /// Ordinal of the first batch this invocation executes (a resumed cycle
  /// continues numbering where the interrupted run stopped).
  int journal_first_batch = 0;
  /// Test-only simulated kill -9: consulted after every applied command and
  /// after every audited batch (before its commit record lands). Returning
  /// true stops execution dead — no cleanup, no further journal records.
  std::function<bool()> crash_after_command;
  std::function<bool()> crash_after_batch;
};

struct MigrationExecutionReport {
  int batches_executed = 0;
  /// Batches that completed with at least one failed or deferred command.
  int partial_batches = 0;
  int commands_attempted = 0;
  int commands_succeeded = 0;
  /// Commands that failed permanently (retries exhausted, cordoned machine,
  /// or infeasible against the actual live state).
  int commands_failed = 0;
  /// Deletes skipped because they would have violated the SLA floor given
  /// the actually-reached state (the planner assumed a create that failed).
  int commands_deferred = 0;
  int retries = 0;
  double backoff_seconds = 0.0;  // simulated backoff time
  /// Re-planning rounds from the actually-reached intermediate placement.
  int replans = 0;
  /// Re-plans that could not produce a path (the run stops gracefully).
  int replan_failures = 0;
  /// Containers dropped from the target because no machine could take them
  /// (all candidates cordoned/full). 0 in any healthy run.
  int dropped_containers = 0;
  /// Post-batch audits that found a service below the SLA floor /
  /// a machine over capacity. Both must stay 0; counted, not thrown, so a
  /// chaos run still yields a full report.
  int sla_violations = 0;
  int feasibility_violations = 0;
  /// Live placement equals the (cordon-adjusted) target on return.
  bool reached_target = false;
  /// Containers still differing from the adjusted target on return.
  int residual_diff = 0;
  /// Execution stopped dead mid-flight (simulated crash, or a journal
  /// append failure): the live placement is whatever the commands applied
  /// so far left behind, and no completion records were written.
  bool crashed = false;
};

/// The post-batch audit the executor runs and crash recovery repeats: adds
/// one to `feasibility_violations` when `live` breaks a resource or
/// anti-affinity limit and one to `sla_violations` per service below its
/// rolling-update floor (MinAliveFloor). Returns the smallest
/// (alive - floor) across services, INT_MAX when there are none.
int AuditMigrationStep(const Cluster& cluster, const Placement& live,
                       double min_alive_fraction, int& sla_violations,
                       int& feasibility_violations);

/// Executes `plan` command-by-command against `actions`, mutating nothing
/// directly — `live` changes only through commands `actions` accepted, so
/// the executor's view always matches what actually happened. Failed
/// commands are retried per `options.retry`; the SLA floor and resource
/// feasibility are re-verified after every partial step; when a pass over
/// the plan leaves stragglers, the executor re-plans from the
/// actually-reached placement (routing around cordoned machines) up to
/// `max_replans` times. Always returns a report — chaos is expected, not
/// exceptional.
MigrationExecutionReport ExecuteMigration(const Cluster& cluster,
                                          Placement& live,
                                          const Placement& target,
                                          const MigrationPlan& plan,
                                          ClusterActions& actions,
                                          const MigrationExecutorOptions& options = {});

}  // namespace rasa

#endif  // RASA_CORE_MIGRATION_EXECUTOR_H_
