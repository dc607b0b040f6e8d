#ifndef RASA_CORE_SOLVE_LEDGER_H_
#define RASA_CORE_SOLVE_LEDGER_H_

#include <mutex>
#include <vector>

#include "core/algorithm_pool.h"
#include "core/selector.h"

namespace rasa {

/// Outcome of one rung of the degradation ladder for a subproblem.
enum class AttemptOutcome {
  kNotRun,   // the ladder never reached this rung
  kOk,       // solver returned a solution
  kFailed,   // solver ran and failed (OOT / infeasible model / error)
  kExpired,  // global budget was gone before the attempt
  kPruned,   // planned away by an open circuit breaker; never started
};

const char* AttemptOutcomeToString(AttemptOutcome outcome);

/// One solver attempt as recorded by the flight recorder: which algorithm
/// ran on which rung, how it ended, and its full introspection
/// (observation-only; nothing here ever feeds back into the solve).
struct SolveAttempt {
  PoolAlgorithm algorithm = PoolAlgorithm::kCg;
  AttemptOutcome outcome = AttemptOutcome::kNotRun;
  double seconds = 0.0;
  /// At most one of the two is populated, matching `algorithm`, and only
  /// when the solver actually ran.
  bool has_cg = false;
  CgStats cg;
  bool has_mip = false;
  SubproblemMipStats mip;
};

/// Flight-recorder entry for one per-subproblem solve: everything needed to
/// reconstruct why the ladder ended where it did and what quality bound the
/// solvers proved. Assembled by the merge phase in canonical solve order,
/// so the sequence is bit-identical at every thread count.
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

  double budget_seconds = 0.0;  // primary's reserved budget share
  double seconds = 0.0;         // wall-clock of the subproblem's solve

  /// What the winning rung realized inside the subproblem.
  double realized_affinity = 0.0;
  int unplaced_containers = 0;

  /// This subproblem's term in the cluster optimality-gap certificate:
  /// min(internal_affinity, proven solver bound) — see explain.h for when
  /// tightening below internal_affinity is sound.
  double certificate_bound = 0.0;
  bool bound_tightened = false;
};

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
