#ifndef RASA_CORE_RASA_H_
#define RASA_CORE_RASA_H_

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/placement.h"
#include "common/statusor.h"
#include "core/delta.h"
#include "core/explain.h"
#include "core/migration.h"
#include "core/partitioning.h"
#include "core/pop.h"
#include "core/selector.h"

namespace rasa {

class ThreadPool;

/// Top-level options of the RASA algorithm (§IV-A).
struct RasaOptions {
  PartitioningOptions partitioning;
  /// Global time budget: the scaled stand-in for the paper's one-minute SLO.
  /// Planned into per-subproblem budgets; its deadline is a safety cap only.
  double timeout_seconds = 2.0;
  /// Dry-run threshold (§III-B): only produce a migration plan when gained
  /// affinity improves by at least this relative amount.
  double min_improvement = 0.03;
  /// Skip migration-path computation entirely (quality-only experiments).
  bool compute_migration = true;
  MigrationOptions migration;
  /// Worker threads for the per-subproblem solves and batch selector
  /// inference: 1 = sequential (default), 0 = one per hardware thread,
  /// n > 1 = a pool of n. Every subproblem gets its own RNG stream and
  /// results are merged in canonical order, so the optimized placement and
  /// all ladder counters are bit-identical at every thread count (see
  /// DESIGN.md "Threading model").
  int num_threads = 1;
  uint64_t seed = 42;
  /// Snapshot-differ thresholds of the incremental path (only read when
  /// OptimizeContext::incremental is set; cold solves never consult them).
  DeltaOptions delta;
  /// POP replica splitting for oversized subproblems (see core/pop.h).
  /// Disabled by default (`pop.max_services == 0`) so the paper-scale
  /// pipeline and its certificates are byte-for-byte unchanged; the
  /// full-scale bench turns it on to keep scale-factor-1 subproblems
  /// inside their planned budgets.
  PopOptions pop;
};

/// Per-subproblem row for reporting and ablation benches: a view of the
/// LedgerRecord at the same position of `RasaResult::report.records`, plus
/// the solver's own unplaced count and the POP split.
struct SubproblemReport {
  int num_services = 0;
  int num_machines = 0;
  double internal_affinity = 0.0;
  PoolAlgorithm algorithm = PoolAlgorithm::kCg;
  double gained_affinity = 0.0;
  int unplaced_containers = 0;
  double seconds = 0.0;
  bool failed = false;  // fell through the whole ladder to the greedy
  /// Rescued by the other pool algorithm after the selected one failed.
  bool used_secondary = false;
  /// Solved via a POP replica split (RasaOptions::pop triggered on this
  /// subproblem). The matching certificate term stays at the trivial bound
  /// with source "pop".
  bool used_pop = false;
  /// Replicas of the POP split (0 when used_pop is false).
  int pop_replicas = 0;
  /// Affinity-edge weight crossing replica boundaries: what the replica
  /// solvers could not see.
  double pop_cut_affinity = 0.0;
  /// Certificate-term bound minus realized affinity when POP was used: the
  /// measured quality give-up of the split against the optimality-gap
  /// certificate (the term is never tightened, so the bound is the trivial
  /// internal_affinity).
  double pop_quality_loss = 0.0;
};

struct RasaResult {
  Placement new_placement;
  /// Empty when the run dry-runs (improvement below threshold) or when
  /// compute_migration is off.
  MigrationPlan migration;
  bool should_execute = false;

  double original_gained_affinity = 0.0;
  double new_gained_affinity = 0.0;
  double elapsed_seconds = 0.0;
  /// Worker threads the subproblem phase actually ran with.
  int num_threads_used = 1;
  /// Containers that could not be placed anywhere (left offline; should be
  /// zero with default generator headroom).
  int lost_containers = 0;
  int moved_containers = 0;

  // Degradation-ladder accounting (all 0 on a healthy run), counted over
  // `report.records` by CountLadder.
  int solver_failures = 0;      // pool-algorithm attempts that failed
  int secondary_successes = 0;  // rescued by the other pool algorithm
  int greedy_fallbacks = 0;     // bottom of the ladder
  int breaker_skips = 0;        // primary attempts the breaker pruned
  int pop_splits = 0;           // subproblems solved via POP replica split
  /// Sum of pop_quality_loss over POP-solved subproblems.
  double pop_quality_loss = 0.0;

  // Incremental-path accounting (populated only when the call carried an
  // OptimizeContext::incremental state; cold solves leave the defaults: a
  // full resolve with nothing reused).
  /// True iff this run reused the cached partitioning (clean subproblems
  /// skipped the solvers entirely).
  bool incremental = false;
  int dirty_subproblems = 0;
  int reused_subproblems = 0;
  /// Why the incremental path fell back to a full resolve ("cold-start",
  /// "structure", "drift-threshold"); empty when it did not.
  std::string incremental_reason;

  PartitionStats partition_stats;
  std::vector<SubproblemReport> subproblems;

  /// Flight-recorder records, optimality-gap certificate, attribution
  /// waterfall, and placement diff of this run (see explain.h). Always
  /// populated; strictly observation-only.
  ExplainReport report;
};

/// Per-call execution context of RasaOptimizer::Optimize. Everything that
/// varies call to call — as opposed to the immutable RasaOptions the
/// optimizer was constructed with — lives here, so one entry point covers
/// cold solves, pooled solves, and delta-aware re-optimization without an
/// overload per combination.
struct OptimizeContext {
  OptimizeContext() = default;
  explicit OptimizeContext(ThreadPool* p) : pool(p) {}
  OptimizeContext(ThreadPool* p, IncrementalState* inc)
      : pool(p), incremental(inc) {}

  /// Worker pool for the per-subproblem solves and batch selector
  /// inference. Callers that run many Optimize rounds — the workflow,
  /// benches — reuse one pool instead of spawning workers per call. Null
  /// falls back to `RasaOptions::num_threads` semantics (an owned pool is
  /// spun up when the options ask for more than one thread).
  ThreadPool* pool = nullptr;

  /// Non-null selects the delta-aware incremental path (see DESIGN.md
  /// "Incremental re-optimization"): the snapshot is diffed against the
  /// state (the previous cycle's partitioning + solutions), only dirty
  /// subproblems re-solve — warm-starting CG pattern generation and the
  /// MIP incumbent from the prior placement — and cached solutions are
  /// re-applied for clean ones. Falls back to a full resolve (identical to
  /// a null state) when the state is invalid, the cluster structure
  /// changed, or drift reaches kFullResolveFraction (core/delta.h).
  /// On success the state is replaced with this run's partitioning +
  /// solutions, ready for the next cycle; on error it is left untouched.
  IncrementalState* incremental = nullptr;
};

/// The full RASA algorithm: multi-stage service partitioning, per-subproblem
/// algorithm selection, independent solves, solution combination with a
/// default-scheduler fallback for unplaced containers, and the migration
/// path to transition from `current` to the optimized mapping.
class RasaOptimizer {
 public:
  RasaOptimizer(RasaOptions options, AlgorithmSelector selector)
      : options_(std::move(options)), selector_(std::move(selector)) {}

  /// The single optimization entry point. The default context is a cold
  /// full resolve; pass an OptimizeContext to solve on a shared pool
  /// and/or to carry warm-start state across cycles.
  StatusOr<RasaResult> Optimize(
      const Cluster& cluster, const Placement& current,
      const OptimizeContext& ctx = OptimizeContext()) const;

  const RasaOptions& options() const { return options_; }

 private:
  RasaOptions options_;
  AlgorithmSelector selector_;
};

}  // namespace rasa

#endif  // RASA_CORE_RASA_H_
