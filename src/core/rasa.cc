#include "core/rasa.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
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
#include "core/local_search.h"
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

// Thread-safe affinity-weighted split of the remaining global budget (the
// deadline ledger). Every reservation reads the *shared* global deadline —
// never a per-thread elapsed clock — so concurrent workers can neither hand
// out negative shares nor double-spend the budget.
class DeadlineLedger {
 public:
  DeadlineLedger(const Deadline& global, double total_affinity, int count)
      : global_(global),
        remaining_affinity_(total_affinity),
        remaining_count_(count) {}

  // Reserves the calling subproblem's share of whatever global budget is
  // left: affinity-weighted, floored so zero-affinity subproblems get a
  // sliver, and capped so one solve cannot starve the queue behind it.
  Deadline Reserve(double affinity, double* budget_seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    const double remaining_time = std::max(0.0, global_.RemainingSeconds());
    const int left = std::max(1, remaining_count_);
    const double share = remaining_affinity_ > 1e-12
                             ? affinity / remaining_affinity_
                             : 1.0 / left;
    const double reserve = 0.02 * static_cast<double>(left - 1);
    const double budget = std::max(
        0.02, std::min(remaining_time - reserve, remaining_time * share));
    remaining_affinity_ = std::max(0.0, remaining_affinity_ - affinity);
    --remaining_count_;
    *budget_seconds = budget;
    return std::isfinite(budget) ? global_.ClampedToSeconds(budget) : global_;
  }

 private:
  std::mutex mu_;
  const Deadline global_;
  double remaining_affinity_;
  int remaining_count_;
};

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

// One rung of a subproblem's ladder.
struct AttemptRecord {
  PoolAlgorithm algorithm = PoolAlgorithm::kCg;
  uint64_t seed = 0;
  // Planned by PlanLadder: kOk or kFailed for a rung that runs, kPruned,
  // or kNotRun for an unneeded secondary. The worker overwrites it with
  // kExpired when the global budget is gone, or with what the run returned.
  AttemptOutcome outcome = AttemptOutcome::kNotRun;
  std::optional<SubproblemSolution> solution;  // set iff the run returned one
  // Solver introspection, captured unconditionally (cheap out-params) and
  // consumed by the merge when it assembles the flight-recorder records.
  PoolAttemptStats stats;
  PopStats pop;  // the rung's replica split, on POP subproblems
};

// One subproblem's planned ladder and what the worker's solve made of it,
// filed later in canonical order. Workers never touch the placement, the
// report, or the ladder counters — those belong to the merge.
struct SolveRecord {
  double budget = 0.0;   // primary budget share, seconds
  double seconds = 0.0;  // wall-clock of the worker's solve
  AttemptRecord primary;
  AttemptRecord secondary;
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

// Plans every dirty subproblem's ladder in canonical order before any
// solve starts: both rung seeds, and each rung's outcome on a run no
// deadline cuts short. Whether a rung fails depends on no solve
// (PopAttemptFails), so the circuit breaker is decided here, once.
std::vector<SolveRecord> PlanLadder(const SolveInputs& in,
                                    const std::vector<PoolAlgorithm>& selected,
                                    const std::vector<int>& order) {
  const TraceSpan span("ladder");
  const std::vector<Subproblem>& subproblems = in.plan.partition.subproblems;
  std::vector<SolveRecord> records(order.size());
  int failures[2] = {0, 0};
  // Plans one rung on `sp`; true iff it is planned to return a solution.
  auto plan_rung = [&](const Subproblem& sp, AttemptRecord& rung) {
    int& failed = failures[static_cast<int>(rung.algorithm)];
    if (failed >= kBreakerFailures) {
      rung.outcome = AttemptOutcome::kPruned;
    } else if (PopAttemptFails(rung.algorithm, in.cluster, sp, rung.seed,
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
    // Reused subproblems skip the solvers entirely — no RNG draws (streams
    // are independent, so dirty solves draw the seeds a full run would).
    if (in.plan.reuse[idx]) continue;
    SolveRecord& rec = records[position];
    // Per-subproblem RNG stream; both attempt seeds are drawn up front so
    // they do not depend on which rungs actually run.
    Rng sp_rng(in.options.seed ^
               (kStreamSalt * (static_cast<uint64_t>(idx) + 1)));
    rec.primary.seed = sp_rng.Next();
    rec.secondary.seed = sp_rng.Next();
    rec.primary.algorithm = selected[idx];
    rec.secondary.algorithm = rec.primary.algorithm == PoolAlgorithm::kCg
                                  ? PoolAlgorithm::kMip
                                  : PoolAlgorithm::kCg;
    // Rung 2, the other pool algorithm, only below a rung 1 that returns
    // nothing.
    const Subproblem& sp = subproblems[idx];
    if (!plan_rung(sp, rec.primary)) plan_rung(sp, rec.secondary);
  }
  return records;
}

// Runs the planned rungs, fanned out across the pool. Shared state is
// confined to the deadline ledger; everything else is per-record.
void SolveStage(const SolveInputs& in, const std::vector<int>& order,
                const Deadline& deadline, ThreadPool* pool,
                std::vector<SolveRecord>& records) {
  const std::vector<Subproblem>& subproblems = in.plan.partition.subproblems;
  const int n = static_cast<int>(subproblems.size());
  // Reused subproblems consume no share of the deadline.
  double total_affinity = 0.0;
  for (int i = 0; i < n; ++i) {
    if (!in.plan.reuse[i]) total_affinity += subproblems[i].internal_affinity;
  }
  DeadlineLedger ledger(deadline, total_affinity, n);

  // Per-subproblem spans name the solve span as their explicit parent:
  // workers run on pool threads whose thread-local span stacks are empty.
  const TraceSpan solve_span("solve");
  auto solve_one = [&](int position) {
    const int idx = order[position];
    if (in.plan.reuse[idx]) return;
    const Subproblem& sp = subproblems[idx];
    SolveRecord& rec = records[position];
    TraceSpan sp_span(StrFormat("subproblem_%d", idx), solve_span.id());
    Stopwatch sp_timer;
    const Deadline sp_deadline =
        ledger.Reserve(sp.internal_affinity, &rec.budget);

    // A rung that finds the global budget gone records kExpired whatever
    // its plan (expired beats pruned); otherwise it starts iff planned to.
    // POP is the rung's strategy, not a branch of the ladder: a subproblem
    // over the POP threshold runs the same pool algorithm on a split.
    auto attempt = [&](AttemptRecord& rung, const Deadline& rung_deadline) {
      if (deadline.Expired()) {
        rung.outcome = AttemptOutcome::kExpired;
        return;
      }
      if (rung.outcome != AttemptOutcome::kOk &&
          rung.outcome != AttemptOutcome::kFailed) {
        return;
      }
      StatusOr<SubproblemSolution> result = RunPoolAlgorithmPop(
          rung.algorithm, in.cluster, sp, in.plan.partition.base_placement,
          in.warm_source, rung_deadline, rung.seed, in.options.pop,
          &rung.stats, in.plan.hint ? &*in.plan.hint : nullptr, &rung.pop);
      rung.outcome =
          result.ok() ? AttemptOutcome::kOk : AttemptOutcome::kFailed;
      if (result.ok()) rung.solution = std::move(result).value();
    };
    attempt(rec.primary, sp_deadline);
    if (!rec.primary.solution) {
      // The secondary rung's budget: a fresh slice of whatever global
      // budget remains, half the primary's share.
      attempt(rec.secondary, deadline.ClampedToSeconds(
                                 std::max(0.02, 0.5 * rec.budget)));
    }
    rec.seconds = sp_timer.ElapsedSeconds();
  };

  if (pool != nullptr) {
    pool->ParallelFor(n, solve_one);
  } else {
    for (int position = 0; position < n; ++position) solve_one(position);
  }
}

// Translates a rung into the ledger's SolveAttempt. Stats are attached
// only when a solver ran; a rung the ladder never reached keeps the
// default attempt.
SolveAttempt MakeAttempt(const AttemptRecord& rung) {
  SolveAttempt attempt;
  if (rung.outcome == AttemptOutcome::kNotRun) return attempt;
  attempt.algorithm = rung.algorithm;
  attempt.outcome = rung.outcome;
  if (rung.outcome == AttemptOutcome::kOk ||
      rung.outcome == AttemptOutcome::kFailed) {
    attempt.seconds = rung.stats.seconds;
    attempt.has_cg = rung.stats.has_cg;
    attempt.cg = rung.stats.cg;
    attempt.has_mip = rung.stats.has_mip;
    attempt.mip = rung.stats.mip;
  }
  return attempt;
}

// One subproblem as the merge decided it: reused and solved subproblems
// both reduce to the ladder outcome, what landed, and the certificate term.
struct MergedSubproblem {
  // Ladder outcome. A reused subproblem echoes the cached solve's, with
  // both attempts kNotRun and no timings.
  PoolAlgorithm algorithm = PoolAlgorithm::kCg;
  bool reused = false;
  bool used_secondary = false;
  bool fell_to_greedy = false;
  int ladder_rung = 0;
  SolveAttempt primary;
  SolveAttempt secondary;
  double budget_seconds = 0.0;
  double seconds = 0.0;
  const PopStats* pop = nullptr;  // the winning rung's POP split, if any
  // The solution's own account: realized affinity and unplaced containers
  // (a reused subproblem re-prices the realized value under this snapshot's
  // weights and reports the cached unplaced count).
  double gained_affinity = 0.0;
  int unplaced_containers = 0;
  // What landed on the working placement, and how many containers of the
  // subproblem's services it could NOT keep on the subproblem's machines
  // (they go to the global fallback).
  std::vector<Assignment> landed;
  int merge_unplaced = 0;
  CertificateTerm term;
};

// The merge's running state: the working placement and the per-service
// tally of containers left for the global fallback.
struct MergeState {
  Placement working;
  std::vector<int> unplaced;
};

// A term at the trivial bound: every internal edge fully localized.
CertificateTerm TrivialTerm(int subproblem_idx, const Subproblem& sp,
                            double realized) {
  CertificateTerm term;
  term.subproblem = subproblem_idx;
  term.internal_affinity = sp.internal_affinity;
  term.realized = realized;
  term.bound = sp.internal_affinity;
  return term;
}

// Tightens `term` to a claimed bound when that beats the trivial one. The
// realized value caps the claim from below: a correct claim never sits
// under it, and the max keeps the term sound when one does.
void Tighten(CertificateTerm& term, double claim) {
  const double candidate = std::max(claim, term.realized);
  if (candidate < term.internal_affinity) {
    term.bound = candidate;
    term.tightened = true;
  }
}

// A reused subproblem: re-apply the cached assignments. The CanPlace guard
// absorbs any residual shrinkage the differ tolerated, handing whatever no
// longer fits to the global fallback.
MergedSubproblem MergeReused(const Cluster& cluster, const DeltaPlan& plan,
                             int idx, MergeState& state) {
  const Subproblem& sp = plan.partition.subproblems[idx];
  const SubproblemCache& cache = plan.cache->subproblems[idx];
  MergedSubproblem m;
  m.reused = true;
  m.algorithm = static_cast<PoolAlgorithm>(cache.algorithm);
  m.used_secondary = cache.used_secondary;
  m.fell_to_greedy = cache.fell_to_greedy;
  m.ladder_rung = cache.ladder_rung;
  m.unplaced_containers = cache.unplaced;
  m.landed = ApplyGuarded(cache.assignments, state.working);
  m.merge_unplaced = TallyUnplaced(cluster, sp, m.landed, state.unplaced);
  m.gained_affinity = SubproblemGainedAffinity(cluster, sp, m.landed);

  // The cached bound is reused only while it is still sound for this
  // snapshot: the original tightening held, every cached container fits
  // again now, no machine regained capacity since the solve, and the weight
  // ratio inflates away any tolerated edge growth (see DESIGN.md
  // "Incremental re-optimization").
  m.term = TrivialTerm(idx, sp, m.gained_affinity);
  if (cache.tightened && m.merge_unplaced == 0 &&
      !plan.residual_increased[idx]) {
    Tighten(m.term, plan.weight_ratio[idx] * cache.bound);
    if (m.term.tightened) m.term.source = cache.bound_source;
  }
  return m;
}

// A solved subproblem's certificate term: min(internal, proven solver
// bound), tightened below the trivial bound only when the winning attempt
// proved a bound AND the merge placed every container inside the
// subproblem's own machines — otherwise the fallback may localize internal
// edges on machines the solver never modeled (see explain.h).
CertificateTerm SolvedTerm(int subproblem_idx, const Subproblem& sp,
                           const MergedSubproblem& m) {
  CertificateTerm term = TrivialTerm(subproblem_idx, sp, m.gained_affinity);
  if (m.fell_to_greedy || m.merge_unplaced != 0) return term;
  const SolveAttempt& winner = m.used_secondary ? m.secondary : m.primary;
  if (winner.has_mip && winner.mip.solved && winner.mip.bound_proven) {
    // A proven B&B dual bound.
    term.source = "mip";
    Tighten(term, winner.mip.best_bound);
  } else if (winner.has_cg && winner.cg.has_lp_bound) {
    // The restricted master LP bounds any integral selection of generated
    // patterns, but greedy completion may round above it — the realized
    // value caps it back to soundness.
    term.source = "cg-lp";
    Tighten(term, winner.cg.lp_objective);
  }
  return term;
}

// A solved subproblem: file the rungs the worker ran, then apply the
// winning rung's assignments (or the affinity greedy's).
MergedSubproblem MergeSolved(const SolveInputs& in, int idx,
                             const SolveRecord& rec, MergeState& state,
                             RasaResult& result) {
  const Subproblem& sp = in.plan.partition.subproblems[idx];
  const AttemptRecord& primary = rec.primary;
  const AttemptRecord& secondary = rec.secondary;
  MergedSubproblem m;
  m.algorithm = primary.algorithm;
  m.budget_seconds = rec.budget;
  m.seconds = rec.seconds;
  m.primary = MakeAttempt(primary);
  m.secondary = MakeAttempt(secondary);
  if (primary.outcome == AttemptOutcome::kPruned) ++result.breaker_skips;
  for (const AttemptRecord* rung : {&primary, &secondary}) {
    if (rung->outcome == AttemptOutcome::kFailed) ++result.solver_failures;
  }

  const SubproblemSolution* solution = nullptr;
  if (primary.solution) {
    solution = &*primary.solution;
  } else if (secondary.solution) {
    solution = &*secondary.solution;
    RASA_LOG(Info) << "subproblem " << idx << ": "
                   << PoolAlgorithmToString(primary.algorithm) << " failed, "
                   << PoolAlgorithmToString(secondary.algorithm)
                   << " rescued it";
    m.used_secondary = true;
    ++result.secondary_successes;
  }

  if (solution == nullptr) {
    m.fell_to_greedy = true;
    ++result.greedy_fallbacks;
    RASA_LOG(Info) << "subproblem " << idx << " ("
                   << PoolAlgorithmToString(m.algorithm)
                   << ") fell through the ladder; using affinity greedy";
    // Affinity-aware greedy fallback, far better than scattering the
    // containers through the default scheduler; it places straight into
    // the working placement.
    SubproblemSolution greedy =
        GreedyAffinityPlace(in.cluster, sp, state.working);
    m.gained_affinity = greedy.gained_affinity;
    m.unplaced_containers = greedy.unplaced_containers;
    m.landed = std::move(greedy.assignments);
  } else {
    m.landed = ApplyGuarded(solution->assignments, state.working);
    m.gained_affinity = solution->gained_affinity;
    m.unplaced_containers = solution->unplaced_containers;
  }
  m.merge_unplaced = TallyUnplaced(in.cluster, sp, m.landed, state.unplaced);
  m.ladder_rung = m.fell_to_greedy ? 2 : (m.used_secondary ? 1 : 0);
  m.term = SolvedTerm(idx, sp, m);
  if (ShouldUsePop(in.options.pop, sp) && !m.fell_to_greedy) {
    m.pop = m.used_secondary ? &secondary.pop : &primary.pop;
    // A POP union is a heuristic over an unseen edge cut — mark its term so
    // gap consumers can attribute looseness to the split (the bound itself
    // is already trivial because POP attempts carry no solver bound).
    m.term.source = "pop";
  }
  return m;
}

// Files one merged subproblem: its report, ledger record, and certificate
// term, plus — when the call carries a delta state — the next cycle's
// cache entry.
void RecordSubproblem(const Subproblem& sp, int idx, int position,
                      SelectorPolicy policy, MergedSubproblem& m,
                      RasaResult& result, IncrementalState* out_state) {
  SubproblemReport report;
  report.num_services = static_cast<int>(sp.services.size());
  report.num_machines = static_cast<int>(sp.machines.size());
  report.internal_affinity = sp.internal_affinity;
  report.algorithm = m.algorithm;
  report.gained_affinity = m.gained_affinity;
  report.unplaced_containers = m.unplaced_containers;
  report.seconds = m.seconds;
  report.failed = m.fell_to_greedy;
  report.used_secondary = m.used_secondary;
  if (m.pop != nullptr) {
    report.used_pop = true;
    report.pop_replicas = m.pop->replicas;
    report.pop_cut_affinity = m.pop->cut_affinity;
    // POP attempts never surface a CG/MIP bound, so the certificate term
    // stays at the trivial internal_affinity bound: the measured give-up of
    // the split is simply bound - realized.
    report.pop_quality_loss =
        std::max(0.0, sp.internal_affinity - report.gained_affinity);
    ++result.pop_splits;
    result.pop_quality_loss += report.pop_quality_loss;
  }
  result.subproblems.push_back(report);

  LedgerRecord lrec;
  lrec.subproblem = idx;
  lrec.position = position;
  lrec.num_services = report.num_services;
  lrec.num_machines = report.num_machines;
  lrec.internal_affinity = sp.internal_affinity;
  lrec.selector_policy = policy;
  lrec.selected = m.algorithm;
  lrec.primary = m.primary;
  lrec.secondary = m.secondary;
  lrec.ladder_rung = m.ladder_rung;
  lrec.used_secondary = m.used_secondary;
  lrec.fell_to_greedy = m.fell_to_greedy;
  lrec.reused = m.reused;
  lrec.budget_seconds = m.budget_seconds;
  lrec.seconds = m.seconds;
  lrec.realized_affinity = m.gained_affinity;
  lrec.unplaced_containers = m.merge_unplaced;
  lrec.certificate_bound = m.term.bound;
  lrec.bound_tightened = m.term.tightened;
  result.report.records.push_back(std::move(lrec));

  if (out_state != nullptr) {
    SubproblemCache& cap = out_state->subproblems[idx];
    cap.subproblem = sp;
    cap.assignments = std::move(m.landed);
    cap.unplaced = m.merge_unplaced;
    cap.realized = m.gained_affinity;
    cap.bound = m.term.bound;
    cap.tightened = m.term.tightened;
    cap.bound_source = m.term.source;
    cap.algorithm = static_cast<int>(m.algorithm);
    cap.used_secondary = m.used_secondary;
    cap.fell_to_greedy = m.fell_to_greedy;
    cap.ladder_rung = m.ladder_rung;
  }
  result.report.certificate.terms.push_back(std::move(m.term));
}

// Merges the subproblems in canonical order, single-threaded, so the
// merged placement and every counter are independent of worker scheduling.
MergeState MergeStage(const SolveInputs& in, SelectorPolicy policy,
                      const std::vector<int>& order,
                      const std::vector<SolveRecord>& records,
                      RasaResult& result, IncrementalState* out_state) {
  const TraceSpan span("merge");
  const DeltaPlan& plan = in.plan;
  MergeState state;
  state.working = plan.partition.base_placement;
  state.unplaced.assign(in.cluster.num_services(), 0);
  if (out_state != nullptr) {
    out_state->subproblems.assign(order.size(), SubproblemCache{});
  }
  for (int position = 0; position < static_cast<int>(order.size());
       ++position) {
    const int idx = order[position];
    MergedSubproblem m =
        plan.reuse[idx]
            ? MergeReused(in.cluster, plan, idx, state)
            : MergeSolved(in, idx, records[position], state, result);
    RecordSubproblem(plan.partition.subproblems[idx], idx, position, policy,
                     m, result, out_state);
  }
  return state;
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
// could not place.
void FallbackStage(const Cluster& cluster, const std::vector<int>& unplaced,
                   Placement& working, RasaResult& result) {
  const TraceSpan span("fallback");
  for (int s = 0; s < cluster.num_services(); ++s) {
    for (int c = 0; c < unplaced[s]; ++c) {
      const int m = PickMachine(working, s);
      if (m < 0) {
        ++result.lost_containers;
      } else {
        working.Add(m, s);
      }
    }
  }
}

// Optional extension: local-search refinement with the leftover budget.
void LocalSearchStage(const Cluster& cluster, const RasaOptions& options,
                      const Deadline& deadline, Placement& working,
                      ExplainReport& explain) {
  if (!options.refine_with_local_search || deadline.Expired()) return;
  const TraceSpan span("local_search");
  LocalSearchOptions ls;
  ls.deadline = deadline;
  // Own stream, independent of how many solver seeds were drawn.
  ls.seed = Rng(options.seed ^ kStreamSalt).Next();
  explain.local_search = RefinePlacement(cluster, working, ls);
  explain.local_search_ran = true;
}

// Explain report: the rest of the attribution waterfall (Optimize
// recorded the merge and fallback steps), the optimality-gap certificate
// anchored to the solver-phase value, and the placement diff. Records and
// certificate terms were assembled by the merge. Observation-only —
// nothing here touches the placement.
void ExplainStage(const Cluster& cluster, const Placement& current,
                  const PartitionResult& partition, const Placement& working,
                  double solver_phase, RasaResult& result) {
  ExplainReport& explain = result.report;
  explain.populated = true;

  double sum_internal = 0.0;
  for (const Subproblem& sp : partition.subproblems) {
    sum_internal += sp.internal_affinity;
  }
  const double total_weight = cluster.affinity().TotalWeight();
  const double external = std::max(0.0, total_weight - sum_internal);

  AttributionWaterfall& wf = explain.waterfall;
  wf.local_search_delta = result.new_gained_affinity - solver_phase;
  wf.total = result.new_gained_affinity;
  wf.partition_cut_affinity = external;
  wf.original_gained_affinity = result.original_gained_affinity;

  QualityCertificate& cert = explain.certificate;
  cert.achieved_solver_phase = solver_phase;
  cert.achieved_final = result.new_gained_affinity;
  cert.sum_internal_affinity = sum_internal;
  cert.external_affinity = external;
  double bound = external;
  for (const CertificateTerm& term : cert.terms) {
    bound += term.bound;
    if (term.tightened) ++cert.tightened_terms;
  }
  cert.bound_solver_phase = bound;
  cert.local_search_credit = std::max(0.0, wf.local_search_delta);
  cert.bound_final = cert.bound_solver_phase + cert.local_search_credit;

  explain.diff = BuildPlacementDiff(cluster, current, working);

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

// Observation-only run metrics mirroring the RasaResult ladder counters;
// nothing here feeds back into the placement.
void RecordRunMetrics(const RasaResult& result, double improvement) {
  MetricRegistry& reg = MetricRegistry::Default();
  reg.GetCounter("rasa.runs").Increment();
  if (!result.should_execute) reg.GetCounter("rasa.dry_runs").Increment();
  const std::pair<const char*, int> counters[] = {
      {"rasa.solver_failures", result.solver_failures},
      {"rasa.secondary_successes", result.secondary_successes},
      {"rasa.greedy_fallbacks", result.greedy_fallbacks},
      {"rasa.breaker_skips", result.breaker_skips},
      {"rasa.lost_containers", result.lost_containers},
      {"rasa.moved_containers", result.moved_containers},
      {"rasa.reused_subproblems", result.reused_subproblems},
  };
  for (const auto& [name, value] : counters) {
    reg.GetCounter(name).Increment(static_cast<uint64_t>(value));
  }
  Histogram& sp_seconds = reg.GetHistogram("rasa.subproblem_seconds");
  for (const SubproblemReport& report : result.subproblems) {
    sp_seconds.Observe(report.seconds);
  }
  reg.GetHistogram("rasa.optimize_seconds").Observe(result.elapsed_seconds);
  reg.GetGauge("rasa.improvement").Set(improvement);
  reg.GetGauge("rasa.gained_affinity").Set(result.new_gained_affinity);
  if (result.report.populated) {
    reg.GetGauge("rasa.certificate_gap").Set(result.report.certificate.Gap());
  }
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
  result.original_gained_affinity = GainedAffinity(cluster, current);
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
  std::vector<SolveRecord> records = PlanLadder(in, selected, order);
  SolveStage(in, order, deadline, pool, records);
  MergeState merged =
      MergeStage(in, selector_.policy(), order, records, result, out_state);
  if (out_state != nullptr) CaptureDeltaState(cluster, partition, out_state);

  // Attribution waterfall: the trivial residents the partition kept in
  // place, what the subproblem solvers delivered at merge, what the
  // default-scheduler fallback added (the solver-phase value).
  Placement& working = merged.working;
  AttributionWaterfall& wf = result.report.waterfall;
  wf.base_retained = GainedAffinity(cluster, partition.base_placement);
  const double merged_affinity = GainedAffinity(cluster, working);
  wf.solver_gain = merged_affinity - wf.base_retained;
  FallbackStage(cluster, merged.unplaced, working, result);
  const double solver_phase = GainedAffinity(cluster, working);
  wf.fallback_delta = solver_phase - merged_affinity;
  LocalSearchStage(cluster, options_, deadline, working, result.report);
  result.new_gained_affinity = GainedAffinity(cluster, working);
  result.moved_containers = working.DiffCount(current);
  ExplainStage(cluster, current, partition, working, solver_phase, result);

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
