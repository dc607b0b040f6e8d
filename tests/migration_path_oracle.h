#ifndef RASA_TESTS_MIGRATION_PATH_ORACLE_H_
#define RASA_TESTS_MIGRATION_PATH_ORACLE_H_

// The scan-every-machine form of Algorithm 2 that ComputeMigrationPath
// replaced: each iteration walks all M machines and every service on them,
// looking up surplus and deficit in both placements. It is kept only as the
// reference migration_path_differential_test holds the worklist form to;
// both must emit the same batches, commands, totals and status text.

#include <algorithm>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "core/migration.h"

namespace rasa::testing {

// Containers of `service` that must leave `machine`: positive part of
// (current - target).
inline int SurplusOn(const Placement& current, const Placement& target,
                     int machine, int service) {
  return std::max(0, current.CountOn(machine, service) -
                         target.CountOn(machine, service));
}

// Containers of `service` still to be created on `machine`.
inline int DeficitOn(const Placement& current, const Placement& target,
                     int machine, int service) {
  return std::max(0, target.CountOn(machine, service) -
                         current.CountOn(machine, service));
}

inline StatusOr<MigrationPlan> OracleMigrationPath(
    const Cluster& cluster, const Placement& original, const Placement& target,
    const MigrationOptions& options = {}) {
  MigrationPlan plan;
  Placement current = original;
  const int N = cluster.num_services();
  const int M = cluster.num_machines();

  // offline[s]: containers of s deleted and not yet recreated.
  std::vector<int> offline(N, 0);
  // How many creations each service still owes (bounded by the matched
  // delete/create volume; excess deletes are stranded to the final batch).
  // A surplus sits only where `current` has containers, a deficit only
  // where `target` has them.
  std::vector<int> pending_creates(N, 0);
  std::vector<int> pending_deletes(N, 0);
  for (int s = 0; s < N; ++s) {
    for (const auto& [m, count] : current.MachinesOf(s)) {
      pending_deletes[s] += SurplusOn(current, target, m, s);
    }
    for (const auto& [m, count] : target.MachinesOf(s)) {
      pending_creates[s] += DeficitOn(current, target, m, s);
    }
  }

  // SLA floor (shared with validator and executor; see MinAliveFloor for
  // the small-service carve-out).
  auto min_alive = [&](int s) {
    return MinAliveFloor(cluster.service(s).demand,
                         options.min_alive_fraction);
  };
  auto alive = [&](int s) { return current.TotalOf(s); };

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // ---- Delete set: at most one container per machine. Deletes in one
    // batch execute in parallel, so SLA accounting must include the picks
    // already made for other machines in this batch.
    std::vector<MigrationCommand> deletes;
    std::vector<int> batch_deletes(N, 0);
    for (int m = 0; m < M; ++m) {
      int pick = -1;
      double pick_ratio = 2.0;
      for (const auto& [s, count] : current.ServicesOn(m)) {
        (void)count;
        if (SurplusOn(current, target, m, s) <= 0) continue;
        // Only delete what will be recreated now; stranded surplus waits
        // for the final batch.
        if (pending_creates[s] <= offline[s] + batch_deletes[s]) continue;
        if (alive(s) - batch_deletes[s] - 1 < min_alive(s)) continue;  // SLA
        const int d = cluster.service(s).demand;
        const double ratio =
            d > 0 ? static_cast<double>(offline[s] + batch_deletes[s]) / d
                  : 0.0;
        // SelectDelete: lowest offline ratio.
        if (ratio < pick_ratio || (ratio == pick_ratio && s < pick)) {
          pick_ratio = ratio;
          pick = s;
        }
      }
      if (pick >= 0) {
        deletes.push_back({MigrationCommandType::kDelete, pick, m});
        ++batch_deletes[pick];
      }
    }
    const bool deleted_this_round = !deletes.empty();
    for (const MigrationCommand& cmd : deletes) {
      RASA_RETURN_IF_ERROR(current.Remove(cmd.machine, cmd.service));
      ++offline[cmd.service];
      --pending_deletes[cmd.service];
    }
    if (!deletes.empty()) {
      plan.total_deletes += static_cast<int>(deletes.size());
      plan.batches.push_back(std::move(deletes));
    }

    // ---- Create set: at most one container per machine ----
    std::vector<MigrationCommand> creates;
    for (int m = 0; m < M; ++m) {
      int pick = -1;
      double pick_ratio = -1.0;
      for (const auto& [s, count] : target.ServicesOn(m)) {
        (void)count;
        if (DeficitOn(current, target, m, s) <= 0) continue;
        if (offline[s] <= 0) continue;            // must be deleted first
        if (!current.CanPlace(m, s)) continue;    // resources must fit now
        const int d = cluster.service(s).demand;
        const double ratio = d > 0 ? static_cast<double>(offline[s]) / d : 0.0;
        // SelectCreate: highest offline ratio.
        if (ratio > pick_ratio || (ratio == pick_ratio && s < pick)) {
          pick_ratio = ratio;
          pick = s;
        }
      }
      if (pick >= 0) creates.push_back({MigrationCommandType::kCreate, pick, m});
    }
    for (const MigrationCommand& cmd : creates) {
      current.Add(cmd.machine, cmd.service);
      --offline[cmd.service];
      --pending_creates[cmd.service];
    }
    const bool progressed = !creates.empty();
    if (!creates.empty()) {
      plan.total_creates += static_cast<int>(creates.size());
      plan.batches.push_back(std::move(creates));
    }

    // Done with the matched moves?
    bool pending = false;
    for (int s = 0; s < N; ++s) {
      if (pending_creates[s] > 0) pending = true;
    }
    if (!pending) break;
    if (!progressed && !deleted_this_round) {
      return InternalError("migration path deadlocked before completion");
    }
  }

  // Verify everything matched got created.
  for (int s = 0; s < N; ++s) {
    if (pending_creates[s] > 0) {
      return InternalError(StrFormat(
          "migration ran out of iterations with %d creates pending for "
          "service %d",
          pending_creates[s], s));
    }
  }

  // Final batch: stranded deletes (target deploys fewer containers).
  std::vector<MigrationCommand> stranded;
  for (int m = 0; m < M; ++m) {
    std::vector<std::pair<int, int>> to_delete;
    for (const auto& [s, count] : current.ServicesOn(m)) {
      const int surplus = SurplusOn(current, target, m, s);
      if (surplus > 0) to_delete.push_back({s, surplus});
    }
    for (const auto& [s, surplus] : to_delete) {
      for (int c = 0; c < surplus; ++c) {
        stranded.push_back({MigrationCommandType::kDelete, s, m});
      }
      RASA_RETURN_IF_ERROR(current.Remove(m, s, surplus));
    }
  }
  if (!stranded.empty()) {
    plan.stranded_deletes = static_cast<int>(stranded.size());
    plan.total_deletes += plan.stranded_deletes;
    plan.batches.push_back(std::move(stranded));
  }

  return plan;
}

}  // namespace rasa::testing

#endif  // RASA_TESTS_MIGRATION_PATH_ORACLE_H_
