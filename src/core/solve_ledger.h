#ifndef RASA_CORE_SOLVE_LEDGER_H_
#define RASA_CORE_SOLVE_LEDGER_H_

#include <mutex>
#include <string>
#include <vector>

#include "core/algorithm_pool.h"
#include "core/selector.h"

namespace rasa {

/// The one record of a per-subproblem solve: everything needed to
/// reconstruct why the ladder ended where it did and what quality bound the
/// solvers proved. Opened by the ladder plan, filled in by the worker that
/// solves it and completed by the merge, all at its canonical position, so
/// the sequence is bit-identical at every thread count. Every other
/// per-subproblem view of a run (SubproblemReport, the ladder counters,
/// the certificate terms, the delta cache) is derived from it.
struct LedgerRecord {
  int subproblem = 0;  // global subproblem index
  int position = 0;    // canonical solve position (0 = highest affinity)
  int num_services = 0;
  int num_machines = 0;
  double internal_affinity = 0.0;

  /// Why the primary algorithm was chosen.
  SelectorPolicy selector_policy = SelectorPolicy::kHeuristic;
  PoolAlgorithm selected = PoolAlgorithm::kCg;

  /// Ladder rungs in order, as planned before the solve and run by the
  /// worker: a kPruned rung was never started and carries no stats, and
  /// each kOk or kFailed rung is exactly one solver run, so the sequence
  /// is scheduling-independent.
  SolveAttempt primary;
  SolveAttempt secondary;

  /// Final rung the subproblem landed on: 0 = primary, 1 = secondary,
  /// 2 = greedy fallback.
  int ladder_rung = 0;
  bool used_secondary = false;
  bool fell_to_greedy = false;
  /// Incremental path only: no solver ran this run — the previous cycle's
  /// solution was re-applied verbatim (ladder fields echo that solve; both
  /// attempts read kNotRun).
  bool reused = false;

  double budget_seconds = 0.0;  // planned share of the timeout; sets B&B cap
  double seconds = 0.0;         // wall-clock of the subproblem's solve

  /// What the winning rung realized inside the subproblem.
  double realized_affinity = 0.0;
  int unplaced_containers = 0;

  /// This subproblem's term in the cluster optimality-gap certificate:
  /// min(internal_affinity, proven solver bound) when `bound_tightened`,
  /// else internal_affinity (the trivial bound: every internal edge fully
  /// localized) — see explain.h for when tightening is sound.
  double certificate_bound = 0.0;
  bool bound_tightened = false;
  /// Where the term's bound came from: "mip" (proven B&B dual bound),
  /// "cg-lp" (restricted master LP objective, capped by the realized value
  /// because greedy completion may round above the LP), "pop" (solved via
  /// a POP replica split, whose attempts carry no solver bound), or
  /// "trivial".
  std::string bound_source = "trivial";
};

/// Degradation-ladder outcomes counted over a run's records.
struct LadderCounts {
  int solver_failures = 0;      // attempts that ran and failed
  int secondary_successes = 0;  // rescued by the other pool algorithm
  int greedy_fallbacks = 0;     // fell to the bottom of the ladder
  int breaker_skips = 0;        // primary attempts the breaker pruned
  int pop_splits = 0;           // solved via a POP replica split
  /// Sum over the POP-solved records of bound minus realized affinity.
  double pop_quality_loss = 0.0;
};

/// Counts `records` in order. A reused record ran no solver but echoes the
/// ladder fields of the solve it re-applies: `include_reused` counts those
/// echoes too (what the last cycle's placement rests on) rather than only
/// what this run solved.
LadderCounts CountLadder(const std::vector<LedgerRecord>& records,
                         bool include_reused = false);

/// Process-wide, thread-safe flight recorder for per-subproblem solves.
/// Appending is cheap (one mutex, records are moved in); readers snapshot.
/// Strictly observation-only: with the ledger disabled the optimizer's
/// placements and reports are bit-identical (enforced by
/// explain_determinism_test).
class SolveLedger {
 public:
  static SolveLedger& Default();

  void Append(LedgerRecord record);
  void AppendAll(const std::vector<LedgerRecord>& records);

  /// Snapshot of all records appended so far (copy; safe to hold).
  std::vector<LedgerRecord> Records() const;
  size_t size() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<LedgerRecord> records_;
};

/// Global enable switch (default on). Disabling stops the optimizer from
/// appending to SolveLedger::Default(); RasaResult::report is populated
/// either way — it is part of the result, not the recorder.
void SetSolveLedgerEnabled(bool enabled);
bool SolveLedgerEnabled();

}  // namespace rasa

#endif  // RASA_CORE_SOLVE_LEDGER_H_
