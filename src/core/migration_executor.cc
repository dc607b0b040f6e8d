#include "core/migration_executor.h"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "cluster/first_fit.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "core/recovery.h"

namespace rasa {

Status PlacementActions::Create(int machine, int service) {
  if (!live_.CanPlace(machine, service)) {
    return FailedPreconditionError(
        StrFormat("create of service %d on machine %d infeasible", service,
                  machine));
  }
  live_.Add(machine, service);
  return Status::OK();
}

int AuditMigrationStep(const Cluster& cluster, const Placement& live,
                       double min_alive_fraction, int& sla_violations,
                       int& feasibility_violations) {
  if (!live.CheckFeasible(/*check_sla=*/false).ok()) ++feasibility_violations;
  int min_headroom = std::numeric_limits<int>::max();
  for (int s = 0; s < cluster.num_services(); ++s) {
    const int headroom =
        live.TotalOf(s) -
        MinAliveFloor(cluster.service(s).demand, min_alive_fraction);
    min_headroom = std::min(min_headroom, headroom);
    if (headroom < 0) ++sla_violations;
  }
  return min_headroom;
}

namespace {

// Rewrites `desired` so no command would target an unavailable machine:
// creates planned there move to available machines (or the planned move is
// cancelled, keeping the container at its source); deletes planned there
// are abandoned, cancelling the matched create elsewhere. After this,
// desired == live on every unavailable machine, so a recomputed path never
// touches one.
void AdjustTargetForUnavailable(const Cluster& cluster, const Placement& live,
                                Placement& desired,
                                const ClusterActions& actions,
                                MigrationExecutionReport& report) {
  for (int m = 0; m < cluster.num_machines(); ++m) {
    if (actions.Available(m)) continue;
    // Snapshot the per-service deltas before mutating. Only services wanted
    // or present on m can differ; they are visited in ascending id.
    std::vector<int> services;
    for (const auto& [s, count] : desired.ServicesOn(m)) services.push_back(s);
    for (const auto& [s, count] : live.ServicesOn(m)) services.push_back(s);
    std::sort(services.begin(), services.end());
    services.erase(std::unique(services.begin(), services.end()),
                   services.end());
    std::vector<std::pair<int, int>> deltas;  // (service, want - cur)
    for (int s : services) {
      const int delta = desired.CountOn(m, s) - live.CountOn(m, s);
      if (delta != 0) deltas.push_back({s, delta});
    }
    for (const auto& [s, delta] : deltas) {
      if (delta > 0) {
        // Creates on m are impossible: place the containers elsewhere.
        RASA_CHECK(desired.Remove(m, s, delta).ok());
        for (int i = 0; i < delta; ++i) {
          int dest = PickMachine(
              desired, s, FirstFitScore::kLeastAllocated,
              [&](int machine) { return actions.Available(machine); });
          if (dest < 0) {
            // Cancel the planned move instead: leave the container where it
            // currently lives (a machine with a planned surplus delete).
            for (const auto& [d, count] : live.MachinesOf(s)) {
              if (d != m && desired.CountOn(d, s) < count &&
                  desired.CanPlace(d, s)) {
                dest = d;
                break;
              }
            }
          }
          if (dest >= 0) {
            desired.Add(dest, s);
          } else {
            ++report.dropped_containers;
          }
        }
      } else {
        // Deletes on m are impossible: the containers stay; cancel the
        // matched creates elsewhere so service totals stay balanced.
        desired.Add(m, s, -delta);
        int to_cancel = -delta;
        // A planned create sits where desired has the service; the walks
        // step past each machine before removing from it.
        const std::map<int, int>& wanted_on = desired.MachinesOf(s);
        for (auto it = wanted_on.begin();
             it != wanted_on.end() && to_cancel > 0;) {
          const auto [d, count] = *it++;
          if (d == m) continue;
          const int cancellable =
              std::min(to_cancel, count - live.CountOn(d, s));
          if (cancellable > 0) {
            RASA_CHECK(desired.Remove(d, s, cancellable).ok());
            to_cancel -= cancellable;
          }
        }
        // Any remainder's matched create already executed (or the target
        // shrinks the service): compensate with a surplus delete on an
        // available machine so the service does not stay over-deployed.
        for (auto it = wanted_on.begin();
             it != wanted_on.end() && to_cancel > 0;) {
          const auto [d, count] = *it++;
          if (d == m || !actions.Available(d)) continue;
          const int removable = std::min(to_cancel, count);
          if (removable > 0) {
            RASA_CHECK(desired.Remove(d, s, removable).ok());
            to_cancel -= removable;
          }
        }
        // Only if every other replica also sits on unavailable machines
        // does the surplus genuinely stay until a machine returns.
      }
    }
  }
}

// Services left under-deployed by permanently failed creates would deadlock
// ComputeMigrationPath (creates there are gated on matching deletes), so
// missing containers are re-created directly — creates only raise alive
// counts, hence are always SLA-safe. Whatever cannot be recreated anywhere
// is dropped from the desired target so the next path stays balanced.
void RepairDeficits(const Cluster& cluster, Placement& live,
                    Placement& desired, ClusterActions& actions,
                    const MigrationExecutorOptions& options, Rng& rng,
                    MigrationExecutionReport& report) {
  for (int s = 0; s < cluster.num_services(); ++s) {
    while (live.TotalOf(s) < desired.TotalOf(s)) {
      // Prefer machines the target actually wants the container on.
      int dest = -1;
      for (const auto& [m, count] : desired.MachinesOf(s)) {
        if (count > live.CountOn(m, s) && actions.Available(m) &&
            live.CanPlace(m, s)) {
          dest = m;
          break;
        }
      }
      if (dest < 0) {
        dest = PickMachine(
            live, s, FirstFitScore::kLeastAllocated,
            [&](int machine) { return actions.Available(machine); });
      }
      bool created = false;
      if (dest >= 0) {
        RetryStats st;
        const Status status = RetryCall(
            options.retry, options.deadline, rng,
            [&](const Deadline&) { return actions.Create(dest, s); }, &st);
        report.retries += st.retries;
        report.backoff_seconds += st.backoff_seconds;
        ++report.commands_attempted;
        if (status.ok()) {
          ++report.commands_succeeded;
          created = true;
        } else {
          ++report.commands_failed;
        }
      }
      if (!created) {
        // Shrink the desired target by one container of s (preferring a
        // machine with a deficit) and record the loss.
        int victim = -1;
        for (const auto& [m, count] : desired.MachinesOf(s)) {
          if (count > live.CountOn(m, s)) {
            victim = m;
            break;
          }
        }
        if (victim < 0) break;  // totals already consistent; defensive
        RASA_CHECK(desired.Remove(victim, s).ok());
        ++report.dropped_containers;
      }
    }
  }
}

// One pass over the plan: every command attempted with retry/backoff, the
// SLA floor re-checked against the actual state before each delete, and the
// full invariants audited after every (possibly partial) batch.
void ExecutePass(const Cluster& cluster, Placement& live,
                 const MigrationPlan& plan, ClusterActions& actions,
                 const MigrationExecutorOptions& options, Rng& rng,
                 MigrationExecutionReport& report) {
  static Histogram& batch_size_metric =
      MetricRegistry::Default().GetHistogram("migration.batch_commands");
  for (const std::vector<MigrationCommand>& batch : plan.batches) {
    TraceSpan batch_span("migration_batch");
    batch_size_metric.Observe(static_cast<double>(batch.size()));
    // WAL intent: the batch's exact commands are durable before the first
    // one touches the cluster, so recovery can classify each as
    // applied / not-applied against the observed placement.
    const int ordinal = options.journal_first_batch + report.batches_executed;
    if (options.journal != nullptr) {
      JournalRecord intent;
      intent.type = JournalRecordType::kBatchIntent;
      intent.cycle = options.journal_cycle;
      intent.batch = ordinal;
      intent.commands = batch;
      const Status appended = options.journal->Append(intent);
      if (!appended.ok()) {
        RASA_LOG(Warning) << "journal intent append failed: "
                          << appended.ToString();
        report.crashed = true;
        return;
      }
    }
    bool incomplete = false;
    for (const MigrationCommand& cmd : batch) {
      if (options.deadline.Expired()) return;
      if (cmd.type == MigrationCommandType::kDelete) {
        // The planner's floor assumed every earlier create succeeded; the
        // actual state may be lower, so re-verify before deleting.
        if (live.TotalOf(cmd.service) - 1 <
            MinAliveFloor(cluster.service(cmd.service).demand,
                          options.min_alive_fraction)) {
          ++report.commands_deferred;
          incomplete = true;
          continue;
        }
      } else if (!live.CanPlace(cmd.machine, cmd.service)) {
        // Stale plan (snapshot drift): the slot is gone; re-plan later.
        ++report.commands_failed;
        incomplete = true;
        continue;
      }
      if (!actions.Available(cmd.machine)) {
        ++report.commands_failed;
        incomplete = true;
        continue;
      }
      RetryStats st;
      const Status status = RetryCall(
          options.retry, options.deadline, rng,
          [&](const Deadline&) {
            return cmd.type == MigrationCommandType::kDelete
                       ? actions.Delete(cmd.machine, cmd.service)
                       : actions.Create(cmd.machine, cmd.service);
          },
          &st);
      report.retries += st.retries;
      report.backoff_seconds += st.backoff_seconds;
      ++report.commands_attempted;
      if (status.ok()) {
        ++report.commands_succeeded;
        if (options.crash_after_command && options.crash_after_command()) {
          report.crashed = true;
          return;
        }
      } else {
        ++report.commands_failed;
        incomplete = true;
      }
    }
    ++report.batches_executed;
    if (incomplete) ++report.partial_batches;
    // The batch's SLA headroom, the smallest (alive - floor), is the
    // early-warning signal a production operator alerts on.
    const int min_headroom = AuditMigrationStep(
        cluster, live, options.min_alive_fraction, report.sla_violations,
        report.feasibility_violations);
    if (min_headroom != std::numeric_limits<int>::max()) {
      static Histogram& headroom_metric =
          MetricRegistry::Default().GetHistogram("migration.sla_headroom");
      headroom_metric.Observe(static_cast<double>(min_headroom));
    }
    if (options.crash_after_batch && options.crash_after_batch()) {
      report.crashed = true;  // died after applying, before the commit
      return;
    }
    if (options.journal != nullptr) {
      JournalRecord commit;
      commit.type = JournalRecordType::kBatchCommit;
      commit.cycle = options.journal_cycle;
      commit.batch = ordinal;
      const Status appended = options.journal->Append(commit);
      if (!appended.ok()) {
        RASA_LOG(Warning) << "journal commit append failed: "
                          << appended.ToString();
        report.crashed = true;
        return;
      }
    }
  }
}

}  // namespace

MigrationExecutionReport ExecuteMigration(const Cluster& cluster,
                                          Placement& live,
                                          const Placement& target,
                                          const MigrationPlan& plan,
                                          ClusterActions& actions,
                                          const MigrationExecutorOptions& options) {
  MigrationExecutionReport report;
  Rng rng(options.seed);
  Placement desired = target.ReboundTo(cluster);

  const MigrationPlan* current_plan = &plan;
  MigrationPlan replanned;
  for (int round = 0;; ++round) {
    ExecutePass(cluster, live, *current_plan, actions, options, rng, report);
    if (report.crashed) return report;  // stopped dead: no metrics, no audit
    if (live.SymmetricDiff(desired) == 0) {
      report.reached_target = true;
      break;
    }
    if (round >= options.max_replans || options.deadline.Expired()) break;

    // Re-plan from the actually-reached intermediate placement.
    ++report.replans;
    AdjustTargetForUnavailable(cluster, live, desired, actions, report);
    RepairDeficits(cluster, live, desired, actions, options, rng, report);
    if (live.SymmetricDiff(desired) == 0) {
      report.reached_target = true;
      break;
    }
    MigrationOptions migration_options;
    migration_options.min_alive_fraction = options.min_alive_fraction;
    StatusOr<MigrationPlan> next =
        ComputeMigrationPath(cluster, live, desired, migration_options);
    if (!next.ok()) {
      RASA_LOG(Warning) << "re-plan failed: " << next.status().ToString();
      ++report.replan_failures;
      break;
    }
    replanned = std::move(next).value();
    current_plan = &replanned;
    if (replanned.batches.empty()) {
      // Nothing executable remains (all residual moves touch cordoned
      // machines); stop gracefully.
      report.reached_target = live.SymmetricDiff(desired) == 0;
      break;
    }
  }
  report.residual_diff = live.SymmetricDiff(desired);

  // Run-level executor metrics (observation-only; per-batch sizes and SLA
  // headroom are recorded inline above).
  {
    MetricRegistry& reg = MetricRegistry::Default();
    static Counter& runs = reg.GetCounter("migration.runs");
    static Counter& batches = reg.GetCounter("migration.batches");
    static Counter& attempted = reg.GetCounter("migration.commands_attempted");
    static Counter& succeeded = reg.GetCounter("migration.commands_succeeded");
    static Counter& failed = reg.GetCounter("migration.commands_failed");
    static Counter& deferred = reg.GetCounter("migration.commands_deferred");
    static Counter& retries = reg.GetCounter("migration.retries");
    static Counter& replans = reg.GetCounter("migration.replans");
    static Counter& sla_violations = reg.GetCounter("migration.sla_violations");
    static Counter& partial = reg.GetCounter("migration.partial_executions");
    runs.Increment();
    batches.Increment(static_cast<uint64_t>(report.batches_executed));
    attempted.Increment(static_cast<uint64_t>(report.commands_attempted));
    succeeded.Increment(static_cast<uint64_t>(report.commands_succeeded));
    failed.Increment(static_cast<uint64_t>(report.commands_failed));
    deferred.Increment(static_cast<uint64_t>(report.commands_deferred));
    retries.Increment(static_cast<uint64_t>(report.retries));
    replans.Increment(static_cast<uint64_t>(report.replans));
    sla_violations.Increment(static_cast<uint64_t>(report.sla_violations));
    if (!report.reached_target) partial.Increment();
  }
  return report;
}

}  // namespace rasa
