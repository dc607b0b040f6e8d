#include "core/rasa.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>

#include "cluster/first_fit.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/greedy.h"
#include "core/objective.h"
#include "core/solve_ledger.h"

namespace rasa {
namespace {

using Assignment = SubproblemSolution::Assignment;

// Salt mixed into each subproblem's RNG stream id: every stream depends
// only on (options.seed, subproblem id), never on scheduling order, so a
// parallel run draws exactly the seeds a sequential run draws.
constexpr uint64_t kStreamSalt = 0x9e3779b97f4a7c15ULL;

// Per-run circuit breaker: after this many counted failures of one pool
// algorithm, the ladder prunes it at every later canonical position.
constexpr int kBreakerFailures = 3;

// What one Optimize call solves: the partition plus, per subproblem,
// whether the merge re-applies a cached solution (`reuse`) or the solvers
// run. A cold solve is the all-dirty plan: a fresh PartitionServices
// partition, nothing reused, no cache and no hint.
struct DeltaPlan {
  PartitionResult partition;
  std::vector<char> reuse;
  // Per subproblem, read only where `reuse` is set (see SnapshotDelta).
  std::vector<char> residual_increased;
  std::vector<double> weight_ratio;
  const IncrementalState* cache = nullptr;
  // Prior incumbent (base placement + cached assignments): CG seeds the
  // dirty re-solves' patterns from it, MIP takes it as its incumbent.
  std::optional<Placement> hint;
  // Why a carried delta state was not reused; empty otherwise.
  std::string full_resolve_reason;
};

// Adds `assignments` to `working` CanPlace-guarded: an assignment lands
// whole when it fits, otherwise one container at a time for as many as
// fit. Returns what landed, dropping assignments that placed nothing.
std::vector<Assignment> ApplyGuarded(const std::vector<Assignment>& assignments,
                                     Placement& working) {
  std::vector<Assignment> landed;
  for (const Assignment& a : assignments) {
    int fit = 0;
    if (working.CanPlace(a.machine, a.service, a.count)) {
      working.Add(a.machine, a.service, a.count);
      fit = a.count;
    } else {
      while (fit < a.count && working.CanPlace(a.machine, a.service)) {
        working.Add(a.machine, a.service);
        ++fit;
      }
    }
    if (fit > 0) landed.push_back({a.service, a.machine, fit});
  }
  return landed;
}

// Adds the containers of `sp`'s services that `landed` leaves unplaced to
// the per-service tally for the global fallback; returns their total.
int TallyUnplaced(const Cluster& cluster, const Subproblem& sp,
                  const std::vector<Assignment>& landed,
                  std::vector<int>& unplaced) {
  std::vector<int> placed(cluster.num_services(), 0);
  for (const Assignment& a : landed) placed[a.service] += a.count;
  int total = 0;
  for (int s : sp.services) {
    const int missing = cluster.service(s).demand - placed[s];
    unplaced[s] += missing;
    total += missing;
  }
  return total;
}

// The plan a delta state allows. On a full resolve it carries only the
// reason (the caller partitions afresh); otherwise the cached partitioning
// rebuilt under this snapshot's weights, the reuse/re-solve split, and the
// prior incumbent as the warm-start hint.
DeltaPlan PlanFromDelta(const Cluster& cluster, const Placement& current,
                        const IncrementalState& state,
                        const DeltaOptions& options) {
  Stopwatch diff_timer;
  SnapshotDelta delta = DiffSnapshot(cluster, current, state, options);
  DeltaPlan plan;
  if (delta.full_resolve) {
    plan.full_resolve_reason = delta.reason;
    return plan;
  }
  const int n = static_cast<int>(state.subproblems.size());
  plan.cache = &state;
  for (char dirty : delta.dirty) plan.reuse.push_back(dirty ? 0 : 1);
  plan.residual_increased = std::move(delta.residual_increased);
  plan.weight_ratio = std::move(delta.weight_ratio);

  // The PartitionResult the cached cycle produced, re-priced under this
  // snapshot's weights (DiffSnapshot already rebuilt the edges).
  PartitionResult& partition = plan.partition;
  partition.subproblems = std::move(delta.rebuilt);
  std::vector<char> crucial(cluster.num_services(), 0);
  int num_crucial = 0;
  double crucial_internal = 0.0;
  for (const Subproblem& sp : partition.subproblems) {
    crucial_internal += sp.internal_affinity;
    num_crucial += static_cast<int>(sp.services.size());
    for (int s : sp.services) crucial[s] = 1;
  }
  for (int s = 0; s < cluster.num_services(); ++s) {
    if (!crucial[s]) partition.trivial_services.push_back(s);
  }
  partition.base_placement = Placement(cluster);
  for (int m = 0; m < cluster.num_machines(); ++m) {
    for (const auto& [s, count] : current.ServicesOn(m)) {
      if (!crucial[s]) partition.base_placement.Add(m, s, count);
    }
  }
  PartitionStats& stats = partition.stats;
  stats.num_services = cluster.num_services();
  stats.num_crucial_services = num_crucial;
  stats.num_trivial_services = cluster.num_services() - num_crucial;
  stats.num_subproblems = n;
  stats.master_ratio = state.master_ratio;
  stats.master_affinity = state.master_affinity;
  const double total_weight = cluster.affinity().TotalWeight();
  stats.crucial_internal_affinity =
      total_weight > 0.0 ? crucial_internal / total_weight : 0.0;

  plan.hint.emplace(partition.base_placement);
  for (const SubproblemCache& cache : state.subproblems) {
    ApplyGuarded(cache.assignments, *plan.hint);
  }
  stats.elapsed_seconds = diff_timer.ElapsedSeconds();
  return plan;
}

// Canonical solve order: highest internal affinity first so the deadline
// starves only the tail, with an explicit index tie-break so the order —
// and therefore the merge — is unambiguous.
std::vector<int> CanonicalOrder(const std::vector<Subproblem>& subproblems) {
  std::vector<int> order(subproblems.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double aa = subproblems[a].internal_affinity;
    const double ab = subproblems[b].internal_affinity;
    return aa != ab ? aa > ab : a < b;
  });
  return order;
}

// Batch algorithm selection (parallel GCN inference; pure, so scheduling
// cannot change the labels). Only the subproblems that solve run
// inference; reused ones keep the label they were solved with (echoed into
// their ledger records).
std::vector<PoolAlgorithm> SelectStage(const Cluster& cluster,
                                       const DeltaPlan& plan,
                                       const AlgorithmSelector& selector,
                                       ThreadPool* pool) {
  const TraceSpan span("select");
  const std::vector<Subproblem>& subproblems = plan.partition.subproblems;
  std::vector<const Subproblem*> dirty;
  for (size_t i = 0; i < subproblems.size(); ++i) {
    if (!plan.reuse[i]) dirty.push_back(&subproblems[i]);
  }
  const std::vector<PoolAlgorithm> dirty_labels =
      selector.SelectBatch(cluster, dirty, pool);
  std::vector<PoolAlgorithm> labels;
  size_t next_dirty = 0;
  for (size_t i = 0; i < subproblems.size(); ++i) {
    labels.push_back(
        plan.reuse[i]
            ? static_cast<PoolAlgorithm>(plan.cache->subproblems[i].algorithm)
            : dirty_labels[next_dirty++]);
  }
  return labels;
}

// What one subproblem's solve keeps beside its ledger record: the rung
// seeds, the run's solution and POP split, and what the merge landed.
// Workers write only their own record and side; the placement and the
// counters belong to the merge.
struct SolveSide {
  uint64_t seeds[2] = {0, 0};  // POP split seeds: primary, secondary rung
  // The winning rung's solution, else the affinity greedy's; on a reused
  // subproblem, the cached solve's own account (no assignments).
  std::optional<SubproblemSolution> solution;
  PopStats pop;  // the replica split of the last rung run, on POP subproblems
  std::vector<Assignment> landed;  // what the merge placed
};

// What every rung of every subproblem solves against.
struct SolveInputs {
  const Cluster& cluster;
  const DeltaPlan& plan;
  const RasaOptions& options;
  // Handed to the solvers as the "original" placement: the prior incumbent
  // on the incremental path, the live placement otherwise.
  const Placement& warm_source;
};

// Rung 2's algorithm below a rung 1 that ran `algorithm`.
PoolAlgorithm OtherAlgorithm(PoolAlgorithm algorithm) {
  return algorithm == PoolAlgorithm::kCg ? PoolAlgorithm::kMip
                                         : PoolAlgorithm::kCg;
}

// Opens one ledger record per canonical position, then plans each dirty
// subproblem in canonical order before any solve starts: its budget, both
// rung seeds, and each rung's outcome on a run no deadline cuts short.
// Whether a rung fails depends on no solve (PopAttemptFails), so the
// circuit breaker is decided here, once. Unplanned rungs keep the default.
std::vector<SolveSide> PlanLadder(const SolveInputs& in, SelectorPolicy policy,
                                  const std::vector<PoolAlgorithm>& selected,
                                  const std::vector<int>& order,
                                  std::vector<LedgerRecord>& records) {
  const TraceSpan span("ladder");
  const std::vector<Subproblem>& subproblems = in.plan.partition.subproblems;
  records.assign(order.size(), LedgerRecord{});
  std::vector<SolveSide> sides(order.size());
  int failures[2] = {0, 0};
  // Each dirty subproblem's budget is its affinity-weighted share of the
  // timeout (even shares when no dirty one holds affinity), at least 0.02 s
  // so a zero-affinity one still gets a sliver. Reused ones take none.
  double dirty_affinity = 0.0;
  int num_dirty = 0;
  for (const int idx : order) {
    if (in.plan.reuse[idx]) continue;
    dirty_affinity += subproblems[idx].internal_affinity;
    ++num_dirty;
  }
  // Plans `algorithm` as one rung on `sp`; true iff it is planned to return
  // a solution.
  auto plan_rung = [&](const Subproblem& sp, PoolAlgorithm algorithm,
                       uint64_t seed, SolveAttempt& rung) {
    rung.algorithm = algorithm;
    int& failed = failures[static_cast<int>(algorithm)];
    if (failed >= kBreakerFailures) {
      rung.outcome = AttemptOutcome::kPruned;
    } else if (PopAttemptFails(algorithm, in.cluster, sp, seed,
                               in.options.pop)) {
      rung.outcome = AttemptOutcome::kFailed;
      ++failed;
    } else {
      rung.outcome = AttemptOutcome::kOk;
    }
    return rung.outcome == AttemptOutcome::kOk;
  };
  for (size_t position = 0; position < order.size(); ++position) {
    const int idx = order[position];
    const Subproblem& sp = subproblems[idx];
    LedgerRecord& rec = records[position];
    rec.subproblem = idx;
    rec.position = static_cast<int>(position);
    rec.num_services = static_cast<int>(sp.services.size());
    rec.num_machines = static_cast<int>(sp.machines.size());
    rec.internal_affinity = sp.internal_affinity;
    rec.selector_policy = policy;
    rec.selected = selected[idx];
    rec.reused = in.plan.reuse[idx] != 0;
    // Every certificate term starts at the trivial bound; the merge
    // tightens it where a solver proved better.
    rec.certificate_bound = sp.internal_affinity;
    // Reused subproblems skip the solvers entirely — no RNG draws (streams
    // are independent, so dirty solves draw the seeds a full run would).
    if (rec.reused) continue;
    const double share = dirty_affinity > 1e-12
                             ? sp.internal_affinity / dirty_affinity
                             : 1.0 / num_dirty;
    rec.budget_seconds = std::max(0.02, in.options.timeout_seconds * share);
    // The POP split's seeds: a per-subproblem RNG stream, both drawn up
    // front so they do not depend on which rungs actually run.
    SolveSide& side = sides[position];
    if (ShouldUsePop(in.options.pop, sp)) {
      Rng sp_rng(in.options.seed ^
                 (kStreamSalt * (static_cast<uint64_t>(idx) + 1)));
      side.seeds[0] = sp_rng.Next();
      side.seeds[1] = sp_rng.Next();
    }
    // Rung 2, the other pool algorithm, only below a rung 1 that returns
    // nothing.
    if (!plan_rung(sp, rec.selected, side.seeds[0], rec.primary)) {
      plan_rung(sp, OtherAlgorithm(rec.selected), side.seeds[1],
                rec.secondary);
    }
  }
  return sides;
}

// Runs the planned rungs, fanned out across the pool, under the one global
// deadline and each record's planned budget (which sets the B&B work cap).
// Workers share no state: each writes only its own record and side.
void SolveStage(const SolveInputs& in, const Deadline& deadline,
                ThreadPool* pool, std::vector<LedgerRecord>& records,
                std::vector<SolveSide>& sides) {
  const std::vector<Subproblem>& subproblems = in.plan.partition.subproblems;
  const int n = static_cast<int>(subproblems.size());

  // Per-subproblem spans name the solve span as their explicit parent:
  // workers run on pool threads whose thread-local span stacks are empty.
  const TraceSpan solve_span("solve");
  auto solve_one = [&](int position) {
    LedgerRecord& rec = records[position];
    if (rec.reused) return;
    const Subproblem& sp = subproblems[rec.subproblem];
    SolveSide& side = sides[position];
    TraceSpan sp_span(StrFormat("subproblem_%d", rec.subproblem),
                      solve_span.id());
    Stopwatch sp_timer;

    // A rung that finds the global budget gone records kExpired whatever
    // its plan (expired beats pruned); otherwise it starts iff planned to,
    // and the run overwrites the planned attempt. POP is the rung's
    // strategy, not a branch of the ladder: a subproblem over the POP
    // threshold runs the same pool algorithm on a split.
    auto attempt = [&](SolveAttempt& rung, PoolAlgorithm algorithm,
                       uint64_t seed) {
      if (deadline.Expired()) {
        rung.algorithm = algorithm;
        rung.outcome = AttemptOutcome::kExpired;
        return;
      }
      if (rung.outcome != AttemptOutcome::kOk &&
          rung.outcome != AttemptOutcome::kFailed) {
        return;
      }
      StatusOr<SubproblemSolution> result = RunPoolAlgorithmPop(
          algorithm, in.cluster, sp, in.plan.partition.base_placement,
          in.warm_source, deadline, rec.budget_seconds, seed, in.options.pop,
          &rung, in.plan.hint ? &*in.plan.hint : nullptr, &side.pop);
      if (result.ok()) side.solution = std::move(result).value();
    };
    attempt(rec.primary, rec.selected, side.seeds[0]);
    if (!side.solution) {
      attempt(rec.secondary, OtherAlgorithm(rec.selected), side.seeds[1]);
    }
    rec.seconds = sp_timer.ElapsedSeconds();
  };

  if (pool != nullptr) {
    pool->ParallelFor(n, solve_one);
  } else {
    for (int position = 0; position < n; ++position) solve_one(position);
  }
}

// The merge's running state: the working placement and the per-service
// tally of containers left for the global fallback.
struct MergeState {
  Placement working;
  std::vector<int> unplaced;
};

// Tightens `rec`'s certificate term to a claimed bound when that beats the
// trivial one. The realized value caps the claim from below: a correct
// claim never sits under it, and the max keeps the term sound when one
// does.
void Tighten(LedgerRecord& rec, double claim) {
  const double candidate = std::max(claim, rec.realized_affinity);
  if (candidate < rec.internal_affinity) {
    rec.certificate_bound = candidate;
    rec.bound_tightened = true;
  }
}

// A reused subproblem: re-apply the cached assignments. The CanPlace guard
// absorbs any residual shrinkage the differ tolerated, handing whatever no
// longer fits to the global fallback. The ladder fields echo the cached
// solve's; both attempts stay kNotRun.
void MergeReused(const Cluster& cluster, const DeltaPlan& plan,
                 LedgerRecord& rec, SolveSide& side, MergeState& state) {
  const int idx = rec.subproblem;
  const Subproblem& sp = plan.partition.subproblems[idx];
  const SubproblemCache& cache = plan.cache->subproblems[idx];
  rec.used_secondary = cache.used_secondary;
  rec.fell_to_greedy = cache.fell_to_greedy;
  rec.ladder_rung = cache.ladder_rung;
  side.landed = ApplyGuarded(cache.assignments, state.working);
  rec.unplaced_containers =
      TallyUnplaced(cluster, sp, side.landed, state.unplaced);
  // Re-priced under this snapshot's weights; the cached solve's own
  // unplaced count stands.
  rec.realized_affinity = SubproblemGainedAffinity(cluster, sp, side.landed);
  side.solution = SubproblemSolution{{}, rec.realized_affinity, cache.unplaced};

  // The cached bound is reused only while it is still sound for this
  // snapshot: the original tightening held, every cached container fits
  // again now, no machine regained capacity since the solve, and the weight
  // ratio inflates away any tolerated edge growth (see DESIGN.md
  // "Incremental re-optimization").
  if (cache.tightened && rec.unplaced_containers == 0 &&
      !plan.residual_increased[idx]) {
    Tighten(rec, plan.weight_ratio[idx] * cache.bound);
    if (rec.bound_tightened) rec.bound_source = cache.bound_source;
  }
}

// A solved subproblem: apply the winning rung's assignments (or the
// affinity greedy's), then settle the certificate term: min(internal,
// proven solver bound), tightened below the trivial bound only when the
// winning attempt proved a bound AND the merge placed every container
// inside the subproblem's own machines — otherwise the fallback may
// localize internal edges on machines the solver never modeled (see
// explain.h).
void MergeSolved(const SolveInputs& in, LedgerRecord& rec, SolveSide& side,
                 MergeState& state) {
  const int idx = rec.subproblem;
  const Subproblem& sp = in.plan.partition.subproblems[idx];
  // A primary that returned a solution reads kOk; anything else below a
  // solution means the secondary rescued it.
  rec.used_secondary =
      side.solution && rec.primary.outcome != AttemptOutcome::kOk;
  if (rec.used_secondary) {
    RASA_LOG(Info) << "subproblem " << idx << ": "
                   << PoolAlgorithmToString(rec.primary.algorithm)
                   << " failed, "
                   << PoolAlgorithmToString(rec.secondary.algorithm)
                   << " rescued it";
  }
  if (!side.solution) {
    rec.fell_to_greedy = true;
    RASA_LOG(Info) << "subproblem " << idx << " ("
                   << PoolAlgorithmToString(rec.selected)
                   << ") fell through the ladder; using affinity greedy";
    // Affinity-aware greedy fallback, far better than scattering the
    // containers through the default scheduler; it places straight into
    // the working placement.
    side.solution = GreedyAffinityPlace(in.cluster, sp, state.working);
    side.landed = std::move(side.solution->assignments);
  } else {
    side.landed = ApplyGuarded(side.solution->assignments, state.working);
  }
  rec.realized_affinity = side.solution->gained_affinity;
  rec.unplaced_containers =
      TallyUnplaced(in.cluster, sp, side.landed, state.unplaced);
  rec.ladder_rung = rec.fell_to_greedy ? 2 : (rec.used_secondary ? 1 : 0);

  if (rec.fell_to_greedy) return;
  const SolveAttempt& winner = rec.used_secondary ? rec.secondary : rec.primary;
  if (rec.unplaced_containers == 0) {
    if (winner.has_mip && winner.mip.solved && winner.mip.bound_proven) {
      // A proven B&B dual bound.
      rec.bound_source = "mip";
      Tighten(rec, winner.mip.best_bound);
    } else if (winner.has_cg && winner.cg.has_lp_bound) {
      // The restricted master LP bounds any integral selection of generated
      // patterns, but greedy completion may round above it — the realized
      // value caps it back to soundness.
      rec.bound_source = "cg-lp";
      Tighten(rec, winner.cg.lp_objective);
    }
  }
  if (ShouldUsePop(in.options.pop, sp)) {
    // A POP union is a heuristic over an unseen edge cut — mark its term so
    // gap consumers can attribute looseness to the split (the bound itself
    // is already trivial because POP attempts carry no solver bound).
    rec.bound_source = "pop";
  }
}

// Merges the subproblems in canonical order, single-threaded, so the
// merged placement and every record are independent of worker scheduling.
// When the call carries a delta state, each record also files the next
// cycle's cache entry.
MergeState MergeStage(const SolveInputs& in, std::vector<LedgerRecord>& records,
                      std::vector<SolveSide>& sides,
                      IncrementalState* out_state) {
  const TraceSpan span("merge");
  const DeltaPlan& plan = in.plan;
  MergeState state;
  state.working = plan.partition.base_placement;
  state.unplaced.assign(in.cluster.num_services(), 0);
  if (out_state != nullptr) {
    out_state->subproblems.assign(records.size(), SubproblemCache{});
  }
  for (size_t position = 0; position < records.size(); ++position) {
    LedgerRecord& rec = records[position];
    SolveSide& side = sides[position];
    if (rec.reused) {
      MergeReused(in.cluster, plan, rec, side, state);
    } else {
      MergeSolved(in, rec, side, state);
    }
    if (out_state == nullptr) continue;
    SubproblemCache& cap = out_state->subproblems[rec.subproblem];
    cap.subproblem = plan.partition.subproblems[rec.subproblem];
    cap.assignments = std::move(side.landed);
    cap.unplaced = rec.unplaced_containers;
    cap.realized = rec.realized_affinity;
    cap.bound = rec.certificate_bound;
    cap.tightened = rec.bound_tightened;
    cap.bound_source = rec.bound_source;
    cap.algorithm = static_cast<int>(rec.selected);
    cap.used_secondary = rec.used_secondary;
    cap.fell_to_greedy = rec.fell_to_greedy;
    cap.ladder_rung = rec.ladder_rung;
  }
  return state;
}

// The result's other per-subproblem views, derived from the records: one
// SubproblemReport row per record and the ladder counters.
void SummarizeRecords(const std::vector<SolveSide>& sides,
                      RasaResult& result) {
  const std::vector<LedgerRecord>& records = result.report.records;
  for (size_t position = 0; position < records.size(); ++position) {
    const LedgerRecord& rec = records[position];
    SubproblemReport row;
    row.num_services = rec.num_services;
    row.num_machines = rec.num_machines;
    row.internal_affinity = rec.internal_affinity;
    row.algorithm = rec.selected;
    row.gained_affinity = rec.realized_affinity;
    // The solution's own count; the record keeps what the merge could not
    // place.
    row.unplaced_containers = sides[position].solution->unplaced_containers;
    row.seconds = rec.seconds;
    row.failed = rec.fell_to_greedy;
    row.used_secondary = rec.used_secondary;
    if (!rec.reused && rec.bound_source == "pop") {
      row.used_pop = true;
      row.pop_replicas = sides[position].pop.replicas;
      row.pop_cut_affinity = sides[position].pop.cut_affinity;
      // POP attempts never surface a CG/MIP bound, so the certificate term
      // stays at the trivial internal_affinity bound: the measured give-up
      // of the split is simply bound - realized.
      row.pop_quality_loss =
          std::max(0.0, rec.internal_affinity - rec.realized_affinity);
    }
    result.subproblems.push_back(row);
  }
  const LadderCounts ladder = CountLadder(records);
  result.solver_failures = ladder.solver_failures;
  result.secondary_successes = ladder.secondary_successes;
  result.greedy_fallbacks = ladder.greedy_fallbacks;
  result.breaker_skips = ladder.breaker_skips;
  result.pop_splits = ladder.pop_splits;
  result.pop_quality_loss = ladder.pop_quality_loss;
}

// Completes the next cycle's delta state with the residuals the solvers
// observed (base = trivial residents only) — diffed by the next
// DiffSnapshot against its fresh snapshot — and the partition-wide fields.
void CaptureDeltaState(const Cluster& cluster, const PartitionResult& partition,
                       IncrementalState* out_state) {
  const int num_resources = cluster.num_resources();
  for (size_t i = 0; i < partition.subproblems.size(); ++i) {
    const Subproblem& sp = partition.subproblems[i];
    std::vector<double>& res = out_state->subproblems[i].residuals;
    res.assign(sp.machines.size() * static_cast<size_t>(num_resources), 0.0);
    for (size_t j = 0; j < sp.machines.size(); ++j) {
      for (int r = 0; r < num_resources; ++r) {
        res[j * num_resources + r] =
            partition.base_placement.FreeResource(sp.machines[j], r);
      }
    }
  }
  out_state->valid = true;
  out_state->structure_signature = ClusterStructureSignature(cluster);
  out_state->num_services = cluster.num_services();
  out_state->num_machines = cluster.num_machines();
  out_state->num_resources = num_resources;
  out_state->master_ratio = partition.stats.master_ratio;
  out_state->master_affinity = partition.stats.master_affinity;
}

// Combine: default-scheduler fallback for the crucial containers the merge
// could not place. Returns whether it placed any.
bool FallbackStage(const Cluster& cluster, const std::vector<int>& unplaced,
                   Placement& working, RasaResult& result) {
  const TraceSpan span("fallback");
  bool placed = false;
  for (int s = 0; s < cluster.num_services(); ++s) {
    for (int c = 0; c < unplaced[s]; ++c) {
      const int m = PickMachine(working, s);
      if (m < 0) {
        ++result.lost_containers;
      } else {
        working.Add(m, s);
        placed = true;
      }
    }
  }
  return placed;
}

// Explain report: the rest of the attribution waterfall (Optimize
// recorded its steps), the optimality-gap certificate on the run's final
// value, and the placement diff from the walk of the current placement
// against the final one and their edge ratios. The records, each with its
// certificate term, were completed by the merge. Observation-only —
// nothing here touches the placement.
void ExplainStage(const Cluster& cluster, const PartitionResult& partition,
                  const PlacementChange& change,
                  const std::vector<double>& current_ratios,
                  const std::vector<double>& final_ratios,
                  RasaResult& result) {
  ExplainReport& explain = result.report;
  explain.populated = true;

  double sum_internal = 0.0;
  for (const Subproblem& sp : partition.subproblems) {
    sum_internal += sp.internal_affinity;
  }
  const double total_weight = cluster.affinity().TotalWeight();
  const double external = std::max(0.0, total_weight - sum_internal);

  AttributionWaterfall& wf = explain.waterfall;
  wf.total = result.new_gained_affinity;
  wf.partition_cut_affinity = external;
  wf.original_gained_affinity = result.original_gained_affinity;

  QualityCertificate& cert = explain.certificate;
  cert.achieved = result.new_gained_affinity;
  cert.sum_internal_affinity = sum_internal;
  cert.external_affinity = external;
  cert.bound = external;
  for (const LedgerRecord& rec : explain.records) {
    cert.bound += rec.certificate_bound;
    if (rec.bound_tightened) ++cert.tightened_terms;
  }

  explain.diff =
      BuildPlacementDiff(cluster, change, current_ratios, final_ratios);

  if (SolveLedgerEnabled()) {
    SolveLedger::Default().AppendAll(explain.records);
  }
}

// Phase 3: the migration path to the optimized placement. A failed path
// demotes the run to a dry-run.
void MigrationStage(const Cluster& cluster, const Placement& current,
                    const Placement& working, const MigrationOptions& options,
                    RasaResult& result) {
  const TraceSpan span("migration_path");
  StatusOr<MigrationPlan> plan =
      ComputeMigrationPath(cluster, current, working, options);
  if (plan.ok()) {
    result.migration = std::move(plan).value();
  } else {
    RASA_LOG(Warning) << "migration path failed: " << plan.status().ToString()
                      << "; marking run as dry-run";
    result.should_execute = false;
  }
}

// The optimizer's registry series, folded from the result: the ladder
// counters, each attempt that ran (POP split or not), the partition when
// this run partitioned afresh, and the ledger appends. Observation-only;
// nothing here feeds back into the placement.
void RecordRunMetrics(const RasaResult& result, double improvement) {
  MetricRegistry& reg = MetricRegistry::Default();
  auto count = [&reg](const std::string& name, uint64_t n) {
    reg.GetCounter(name).Increment(n);
  };
  auto observe = [&reg](const std::string& name, double value) {
    reg.GetHistogram(name).Observe(value);
  };
  auto set = [&reg](const std::string& name, double value) {
    reg.GetGauge(name).Set(value);
  };
  count("rasa.runs", 1);
  if (!result.should_execute) count("rasa.dry_runs", 1);
  count("rasa.solver_failures", result.solver_failures);
  count("rasa.secondary_successes", result.secondary_successes);
  count("rasa.greedy_fallbacks", result.greedy_fallbacks);
  count("rasa.breaker_skips", result.breaker_skips);
  count("rasa.lost_containers", result.lost_containers);
  count("rasa.moved_containers", result.moved_containers);
  count("rasa.reused_subproblems", result.reused_subproblems);
  observe("rasa.optimize_seconds", result.elapsed_seconds);
  set("rasa.improvement", improvement);
  set("rasa.gained_affinity", result.new_gained_affinity);
  if (result.report.populated) {
    set("rasa.certificate_gap", result.report.certificate.Gap());
  }

  // Both pools' pick counts exist from the first run on, picked or not.
  for (const char* picks : {"pool.cg_picks", "pool.mip_picks"}) count(picks, 0);
  const std::vector<LedgerRecord>& records = result.report.records;
  for (const LedgerRecord& rec : records) {
    // Only the solves that ran: a reused record took no solver time.
    if (!rec.reused) observe("rasa.subproblem_seconds", rec.seconds);
    for (const SolveAttempt* a : {&rec.primary, &rec.secondary}) {
      if (a->outcome != AttemptOutcome::kOk &&
          a->outcome != AttemptOutcome::kFailed) {
        continue;
      }
      const std::string pool =
          a->algorithm == PoolAlgorithm::kCg ? "pool.cg_" : "pool.mip_";
      count(pool + "picks", 1);
      count(pool + "failures", a->outcome == AttemptOutcome::kFailed);
      observe(pool + "seconds", a->seconds);
      // A MIP attempt did solver work only if a branch-and-bound ran.
      if (!a->has_cg && !a->mip.solved) continue;
      if (a->has_cg) {
        observe("pool.cg_rounds", a->cg.rounds);
        observe("pool.cg_patterns", a->cg.patterns_generated);
        count("solver.cg_master_solves", a->cg.master_solves);
        count("solver.cg_master_warm_started", a->cg.master_warm_started);
      }
      if (a->mip.solved) {
        const SubproblemMipStats& mip = a->mip;
        count("pool.mip_solves", 1);
        // A POP split has no gap: its replicas' bounds do not bound it.
        if ((mip.status == MipStatus::kOptimal ||
             mip.status == MipStatus::kFeasible) &&
            rec.bound_source != "pop") {
          observe("pool.mip_gap", mip.relative_gap);
        }
        observe("pool.mip_nodes", mip.nodes);
        observe("pool.mip_lp_iterations", mip.lp_iterations);
        // The warm-start hit rate is warm_started_nodes / bnb_nodes.
        count("solver.warm_started_nodes", mip.warm_started_nodes);
        count("solver.bnb_nodes", mip.nodes);
        observe("solver.max_node_pivots", mip.max_node_pivots);
      }
      // An attempt holds the stats of one solver; the other's are zero.
      count("solver.lp_pivots", a->cg.lp_iterations + a->mip.lp_iterations);
      count("solver.refactorizations",
            a->cg.refactorizations + a->mip.refactorizations);
      observe("solver.max_eta_length",
              std::max(a->cg.max_eta_length, a->mip.max_eta_length));
    }
  }

  if (!result.incremental) {
    const PartitionStats& stats = result.partition_stats;
    count("partition.runs", 1);
    count("partition.subproblems", stats.num_subproblems);
    observe("partition.seconds", stats.elapsed_seconds);
    for (const LedgerRecord& rec : records) {
      observe("partition.subproblem_services", rec.num_services);
    }
    set("partition.master_ratio", stats.master_ratio);
    set("partition.crucial_internal_affinity",
        stats.crucial_internal_affinity);
    set("partition.trivial_services", stats.num_trivial_services);
    set("partition.crucial_services", stats.num_crucial_services);
  }
  if (SolveLedgerEnabled()) count("ledger.records", records.size());
}

}  // namespace

StatusOr<RasaResult> RasaOptimizer::Optimize(const Cluster& cluster,
                                             const Placement& current,
                                             const OptimizeContext& ctx) const {
  // Plan: a carried delta state reuses what the differ left clean. The
  // differ runs before the clock starts; a cold partition counts against
  // the budget.
  IncrementalState* state = ctx.incremental;
  DeltaPlan plan;
  if (state != nullptr) {
    plan = PlanFromDelta(cluster, current, *state, options_.delta);
  }
  Stopwatch timer;
  const Deadline deadline = Deadline::AfterSeconds(options_.timeout_seconds);
  TraceSpan optimize_span("optimize");
  RasaResult result;
  if (plan.cache == nullptr) {
    // Cold is the all-dirty plan: service partitioning + machine assignment.
    TraceSpan span("partition");
    plan.partition = PartitionServices(cluster, current, options_.partitioning);
    plan.reuse.assign(plan.partition.subproblems.size(), 0);
  }
  const PartitionResult& partition = plan.partition;
  result.partition_stats = partition.stats;
  const int num_subproblems = static_cast<int>(partition.subproblems.size());
  const std::vector<int> order = CanonicalOrder(partition.subproblems);

  // Capture into a scratch state and swap at the end, so `state` (which the
  // plan aliases as its cache) is never mutated mid-run.
  IncrementalState fresh;
  IncrementalState* out_state = state != nullptr ? &fresh : nullptr;
  if (state != nullptr) {
    result.incremental = plan.cache != nullptr;
    result.incremental_reason = plan.full_resolve_reason;
    result.reused_subproblems = static_cast<int>(
        std::count(plan.reuse.begin(), plan.reuse.end(), 1));
    result.dirty_subproblems = num_subproblems - result.reused_subproblems;
  }

  // Worker pool resolution: an external pool wins; otherwise spin one up
  // when the options ask for more than one thread.
  ThreadPool* pool = ctx.pool;
  const int requested = options_.num_threads == 0
                            ? ThreadPool::DefaultNumThreads()
                            : std::max(1, options_.num_threads);
  std::unique_ptr<ThreadPool> owned_pool;
  if (pool == nullptr && requested > 1) {
    owned_pool = std::make_unique<ThreadPool>(requested);
    pool = owned_pool.get();
  }
  result.num_threads_used = pool != nullptr ? pool->num_threads() : 1;

  const SolveInputs in{cluster, plan, options_,
                       plan.hint ? *plan.hint : current};
  const std::vector<PoolAlgorithm> selected =
      SelectStage(cluster, plan, selector_, pool);
  std::vector<LedgerRecord>& records = result.report.records;
  std::vector<SolveSide> sides =
      PlanLadder(in, selector_.policy(), selected, order, records);
  SolveStage(in, deadline, pool, records, sides);
  MergeState merged = MergeStage(in, records, sides, out_state);
  SummarizeRecords(sides, result);
  if (out_state != nullptr) CaptureDeltaState(cluster, partition, out_state);

  // Certify: score the placements the run went through. Attribution
  // waterfall: the trivial residents the partition kept in place, what the
  // subproblem solvers delivered at merge, what the default-scheduler
  // fallback added (the run's final value). Each edge of the current
  // placement is scored once; every later figure re-scores only the edges
  // with an end whose machine map changed and sums in edge order, so it
  // equals GainedAffinity bit for bit.
  Placement& working = merged.working;
  {
    const TraceSpan certify_span("certify");
    const std::vector<double> current_ratios =
        EdgeLocalizationRatios(cluster, current);
    result.original_gained_affinity =
        WeightedLocalization(cluster, current_ratios);
    // Both base builders (MakeBasePlacement, PlanFromDelta) drop the
    // subproblems' services and keep every other map as in `current`.
    std::vector<char> in_subproblem(cluster.num_services(), 0);
    for (const Subproblem& sp : partition.subproblems) {
      for (int s : sp.services) in_subproblem[s] = 1;
    }
    AttributionWaterfall& wf = result.report.waterfall;
    wf.base_retained = WeightedLocalization(
        cluster, RescoreEdgeRatios(cluster, partition.base_placement,
                                   in_subproblem, current_ratios));
    PlacementChange change;
    std::vector<double> ratios;
    auto score_working = [&] {
      change = WalkPlacements(current, working);
      ratios = RescoreEdgeRatios(cluster, working, change.changed,
                                 current_ratios);
      return WeightedLocalization(cluster, ratios);
    };
    const double merged_affinity = score_working();
    wf.solver_gain = merged_affinity - wf.base_retained;
    result.new_gained_affinity =
        FallbackStage(cluster, merged.unplaced, working, result)
            ? score_working()
            : merged_affinity;
    wf.fallback_delta = result.new_gained_affinity - merged_affinity;
    result.moved_containers = change.moved_containers;
    ExplainStage(cluster, partition, change, current_ratios, ratios, result);
  }

  // Dry-run rule (§III-B): execute only on >= min_improvement relative gain.
  const double base = std::max(result.original_gained_affinity, 1e-9);
  const double improvement =
      (result.new_gained_affinity - result.original_gained_affinity) / base;
  result.should_execute = improvement >= options_.min_improvement;
  if (options_.compute_migration && result.should_execute) {
    MigrationStage(cluster, current, working, options_.migration, result);
  }

  result.new_placement = std::move(working);
  result.elapsed_seconds = timer.ElapsedSeconds();
  RecordRunMetrics(result, improvement);
  if (state != nullptr) *state = std::move(fresh);
  return result;
}

}  // namespace rasa
