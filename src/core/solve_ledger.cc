#include "core/solve_ledger.h"

#include <algorithm>
#include <atomic>

namespace rasa {
namespace {

std::atomic<bool> g_ledger_enabled{true};

}  // namespace

LadderCounts CountLadder(const std::vector<LedgerRecord>& records,
                         bool include_reused) {
  LadderCounts counts;
  for (const LedgerRecord& r : records) {
    if (r.reused && !include_reused) continue;
    for (const SolveAttempt* attempt : {&r.primary, &r.secondary}) {
      if (attempt->outcome == AttemptOutcome::kFailed) ++counts.solver_failures;
    }
    if (r.primary.outcome == AttemptOutcome::kPruned) ++counts.breaker_skips;
    if (r.used_secondary) ++counts.secondary_successes;
    if (r.fell_to_greedy) ++counts.greedy_fallbacks;
    if (!r.reused && r.bound_source == "pop") {
      ++counts.pop_splits;
      counts.pop_quality_loss +=
          std::max(0.0, r.internal_affinity - r.realized_affinity);
    }
  }
  return counts;
}

SolveLedger& SolveLedger::Default() {
  // Leaked on purpose: destruction order vs. worker threads at exit is
  // otherwise unknowable.
  static SolveLedger* ledger = new SolveLedger();
  return *ledger;
}

void SolveLedger::Append(LedgerRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
}

void SolveLedger::AppendAll(const std::vector<LedgerRecord>& records) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.insert(records_.end(), records.begin(), records.end());
}

std::vector<LedgerRecord> SolveLedger::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

size_t SolveLedger::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void SolveLedger::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
}

void SetSolveLedgerEnabled(bool enabled) {
  g_ledger_enabled.store(enabled, std::memory_order_relaxed);
}

bool SolveLedgerEnabled() {
  return g_ledger_enabled.load(std::memory_order_relaxed);
}

}  // namespace rasa
