#include "core/migration.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/strings.h"

namespace rasa {

std::string MigrationPlan::Summary() const {
  return StrFormat("%zu batches, %d deletes, %d creates, %d stranded",
                   batches.size(), total_deletes, total_creates,
                   stranded_deletes);
}

namespace {

// Rank that keeps an entry out of a WalkBatch pick.
constexpr double kSkip = -HUGE_VAL;

// Containers of `service` that must still leave (surplus side) or still
// reach (deficit side) `machine`. Each side of the diff between the current
// and the target placement is one flat array sorted by (machine, service).
struct DiffEntry {
  int machine;
  int service;
  int count;
};

// One batch of `type`: each machine in `diff` takes one container of the
// service `rank(machine, service)` puts highest above `floor` (ties keep the
// lower service) and reports it to `take(machine, service)`; exhausted
// entries drop out. A create lands only where current < target and a delete
// only where current > target, so neither side of the diff grows: the walk
// visits exactly the pairs a scan of every machine would pick from, in the
// same order.
template <typename Rank, typename Take>
std::vector<MigrationCommand> WalkBatch(std::vector<DiffEntry>& diff,
                                        MigrationCommandType type,
                                        double floor, Rank rank, Take take) {
  std::vector<MigrationCommand> batch;
  size_t kept = 0;
  for (size_t begin = 0, end = 0; begin < diff.size(); begin = end) {
    const int m = diff[begin].machine;
    DiffEntry* pick = nullptr;
    double best = floor;
    for (end = begin; end < diff.size() && diff[end].machine == m; ++end) {
      const double r = rank(m, diff[end].service);
      if (r > best) {
        best = r;
        pick = &diff[end];
      }
    }
    if (pick != nullptr) {
      batch.push_back({type, pick->service, m});
      take(m, pick->service);
      --pick->count;
    }
    for (size_t i = begin; i < end; ++i) {
      if (diff[i].count > 0) diff[kept++] = diff[i];
    }
  }
  diff.resize(kept);
  return batch;
}

}  // namespace

int MinAliveFloor(int demand, double min_alive_fraction) {
  if (demand <= 0) return 0;
  const int requested =
      static_cast<int>(std::ceil(min_alive_fraction * demand));
  // Guaranteed-progress carve-out: one container may always be offline.
  return std::max(0, std::min(demand - 1, requested));
}

StatusOr<MigrationPlan> ComputeMigrationPath(const Cluster& cluster,
                                             const Placement& original,
                                             const Placement& target,
                                             const MigrationOptions& options) {
  MigrationPlan plan;
  Placement current = original;
  const int N = cluster.num_services();

  // offline[s]: containers of s deleted and not yet recreated.
  std::vector<int> offline(N, 0);
  // How many creations each service still owes (bounded by the matched
  // delete/create volume; excess deletes are stranded to the final batch).
  std::vector<int> pending_creates(N, 0);
  std::vector<DiffEntry> surplus;
  std::vector<DiffEntry> deficit;
  for (int m = 0; m < cluster.num_machines(); ++m) {
    for (const auto& [s, count] : current.ServicesOn(m)) {
      const int extra = count - target.CountOn(m, s);
      if (extra > 0) surplus.push_back({m, s, extra});
    }
    for (const auto& [s, count] : target.ServicesOn(m)) {
      const int missing = count - current.CountOn(m, s);
      if (missing > 0) {
        deficit.push_back({m, s, missing});
        pending_creates[s] += missing;
      }
    }
  }

  // SLA floor (shared with validator and executor; see MinAliveFloor for
  // the small-service carve-out).
  auto min_alive = [&](int s) {
    return MinAliveFloor(cluster.service(s).demand,
                         options.min_alive_fraction);
  };
  auto offline_ratio = [&](int s) {
    const int d = cluster.service(s).demand;
    return d > 0 ? static_cast<double>(offline[s]) / d : 0.0;
  };

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // ---- Delete set: at most one container per machine. Deletes in one
    // batch execute in parallel, so each pick is applied at once and the SLA
    // accounting of later machines includes it.
    std::vector<MigrationCommand> deletes = WalkBatch(
        surplus, MigrationCommandType::kDelete, /*floor=*/-2.0,
        [&](int, int s) {
          // Only delete what will be recreated now; stranded surplus waits
          // for the final batch.
          if (pending_creates[s] <= offline[s]) return kSkip;
          if (current.TotalOf(s) - 1 < min_alive(s)) return kSkip;  // SLA
          return -offline_ratio(s);  // SelectDelete: lowest offline ratio.
        },
        [&](int m, int s) {
          RASA_CHECK(current.Remove(m, s).ok());
          ++offline[s];
        });
    const bool deleted_this_round = !deletes.empty();
    if (!deletes.empty()) {
      plan.total_deletes += static_cast<int>(deletes.size());
      plan.batches.push_back(std::move(deletes));
    }

    // ---- Create set: at most one container per machine. Offline counts
    // move only once the whole set is picked.
    std::vector<MigrationCommand> creates = WalkBatch(
        deficit, MigrationCommandType::kCreate, /*floor=*/-1.0,
        [&](int m, int s) {
          if (offline[s] <= 0) return kSkip;          // must be deleted first
          if (!current.CanPlace(m, s)) return kSkip;  // resources must fit now
          return offline_ratio(s);  // SelectCreate: highest offline ratio.
        },
        [](int, int) {});
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

    // Done with the matched moves? The deficit left is what is pending.
    if (deficit.empty()) break;
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

  // Final batch: stranded deletes (target deploys fewer containers), the
  // surplus left over in (machine, service) order.
  std::vector<MigrationCommand> stranded;
  for (const DiffEntry& e : surplus) {
    stranded.insert(stranded.end(), e.count,
                    {MigrationCommandType::kDelete, e.service, e.machine});
  }
  if (!stranded.empty()) {
    plan.stranded_deletes = static_cast<int>(stranded.size());
    plan.total_deletes += plan.stranded_deletes;
    plan.batches.push_back(std::move(stranded));
  }

  return plan;
}

Status ValidateMigrationPlan(const Cluster& cluster, const Placement& original,
                             const Placement& target,
                             const MigrationPlan& plan,
                             double min_alive_fraction) {
  Placement current = original;
  size_t batch_index = 0;
  for (const std::vector<MigrationCommand>& batch : plan.batches) {
    for (const MigrationCommand& cmd : batch) {
      if (cmd.type == MigrationCommandType::kDelete) {
        RASA_RETURN_IF_ERROR(current.Remove(cmd.machine, cmd.service));
      } else {
        if (!current.CanPlace(cmd.machine, cmd.service)) {
          return FailedPreconditionError(StrFormat(
              "batch %zu: create of service %d on machine %d infeasible",
              batch_index, cmd.service, cmd.machine));
        }
        current.Add(cmd.machine, cmd.service);
      }
    }
    // The first batch audits every machine; a machine no later batch
    // touches keeps the state that audit passed. Touched machines go in id
    // order, so the error names the machine the full audit would.
    if (batch_index == 0) {
      RASA_RETURN_IF_ERROR(current.CheckFeasible(/*check_sla=*/false));
    } else {
      std::vector<int> touched;
      for (const MigrationCommand& cmd : batch) touched.push_back(cmd.machine);
      std::sort(touched.begin(), touched.end());
      touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
      for (int m : touched) {
        RASA_RETURN_IF_ERROR(current.CheckMachineFeasible(m));
      }
    }
    // The last batch may hold stranded deletes, after which under-deployment
    // is the (reported) end state; every intermediate batch honors the SLA.
    const bool last = batch_index + 1 == plan.batches.size();
    if (!last || plan.stranded_deletes == 0) {
      for (int s = 0; s < cluster.num_services(); ++s) {
        const int floor_alive =
            MinAliveFloor(cluster.service(s).demand, min_alive_fraction);
        if (current.TotalOf(s) < floor_alive) {
          return FailedPreconditionError(StrFormat(
              "batch %zu: service %d down to %d/%d alive", batch_index, s,
              current.TotalOf(s), cluster.service(s).demand));
        }
      }
    }
    ++batch_index;
  }
  // Final state must equal the target exactly; the scan only names the
  // first mismatch.
  if (current.SymmetricDiff(target) != 0) {
    for (int m = 0; m < cluster.num_machines(); ++m) {
      for (int s = 0; s < cluster.num_services(); ++s) {
        if (current.CountOn(m, s) != target.CountOn(m, s)) {
          return FailedPreconditionError(StrFormat(
              "final state mismatch at machine %d service %d: %d != %d", m, s,
              current.CountOn(m, s), target.CountOn(m, s)));
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace rasa
