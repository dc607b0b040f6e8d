#include "layers.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <string>

namespace perfbench {

using rasa::AttemptOutcome;
using rasa::LedgerRecord;
using rasa::SolveAttempt;
using rasa::TraceEvent;
using rasa::Tracer;

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  // VmHWM belongs to this program image; ru_maxrss would also count the
  // launcher that exec'd it (Linux carries it across execve).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void StartProgramTrace() {
  Tracer::Default().Reset();
  Tracer::Default().Enable(true);
}

std::vector<TraceEvent> StopProgramTrace() {
  Tracer::Default().Enable(false);
  std::vector<TraceEvent> recorded = Tracer::Default().Events();
  Tracer::Default().Reset();
  return recorded;
}

namespace {

bool Ran(const SolveAttempt& attempt) {
  return attempt.outcome == AttemptOutcome::kOk ||
         attempt.outcome == AttemptOutcome::kFailed;
}

// An attempt raced its budget: the global budget was already gone, CG
// stopped on its deadline, or the attempt used 90% of its slice.
bool HitDeadline(const SolveAttempt& attempt, double slice) {
  if (attempt.outcome == AttemptOutcome::kExpired) return true;
  if (!Ran(attempt)) return false;
  if (attempt.has_cg && attempt.cg.hit_deadline) return true;
  return attempt.seconds >= 0.9 * slice;
}

double SpanSeconds(const std::vector<TraceEvent>& spans,
                   const std::string& name) {
  double total = 0.0;
  for (const TraceEvent& e : spans) {
    if (e.name == name && e.duration_seconds > 0.0) total += e.duration_seconds;
  }
  return total;
}

}  // namespace

int DeadlineHits(const rasa::RasaResult& result) {
  int hits = 0;
  for (const LedgerRecord& rec : result.report.records) {
    if (rec.reused) continue;
    // The secondary rung gets half the primary's slice (rasa.cc). The
    // record's own seconds also cover a speculative attempt the canonical
    // replay discarded (it then reads as pruned).
    const double secondary_slice = std::max(0.02, 0.5 * rec.budget_seconds);
    hits += HitDeadline(rec.primary, rec.budget_seconds) ||
            HitDeadline(rec.secondary, secondary_slice) ||
            rec.seconds >= 0.9 * rec.budget_seconds;
  }
  return hits;
}

void AddPlan(const rasa::RasaResult& result,
             const std::vector<TraceEvent>& program_spans,
             LayerTotals* totals) {
  LayerTotals& t = *totals;
  t.partition_s += SpanSeconds(program_spans, "partition");
  t.select_s += SpanSeconds(program_spans, "select");
  t.solve_s += SpanSeconds(program_spans, "solve");
  t.migrate_path_s += SpanSeconds(program_spans, "migration_path");

  t.subproblems += static_cast<double>(result.subproblems.size());
  int largest = 0;
  for (const rasa::SubproblemReport& sp : result.subproblems) {
    largest = std::max(largest, sp.num_services);
    if (sp.used_pop) t.pop_s += sp.seconds;
  }
  t.largest_services += largest;
  const rasa::QualityCertificate& cert = result.report.certificate;
  const double total_affinity =
      cert.external_affinity + cert.sum_internal_affinity;
  if (total_affinity > 0.0) {
    t.cut_affinity += cert.external_affinity / total_affinity;
  }
  t.certificate_gap += cert.Gap();

  double critical = 0.0;
  for (const LedgerRecord& rec : result.report.records) {
    t.fallback_unplaced += rec.unplaced_containers;
    if (rec.reused) {
      ++t.reused;
      continue;
    }
    ++t.solved;
    if (rec.selected == rasa::PoolAlgorithm::kMip) ++t.selected_mip;
    critical = std::max(critical, rec.seconds);
    t.subproblem_s += rec.seconds;
    for (const SolveAttempt* attempt : {&rec.primary, &rec.secondary}) {
      if (!Ran(*attempt)) continue;
      ++t.attempts;
      if (attempt->outcome == AttemptOutcome::kFailed) ++t.failed_attempts;
      if (attempt->has_cg) {
        t.cg_rounds += attempt->cg.rounds;
        t.lp_pivots += attempt->cg.lp_iterations;
        t.refactorizations += attempt->cg.refactorizations;
      }
      if (attempt->has_mip) {
        t.bnb_nodes += attempt->mip.nodes;
        t.lp_pivots += attempt->mip.lp_iterations;
        t.refactorizations += attempt->mip.refactorizations;
      }
    }
  }
  t.critical_s += critical;
  if (!result.incremental_reason.empty() &&
      result.incremental_reason != "cold-start") {
    ++t.full_resolves;
  }

  t.pop_splits += result.pop_splits;
  t.pop_quality_loss += result.pop_quality_loss;
  t.migrate_batches += static_cast<double>(result.migration.batches.size());
  t.migrate_commands +=
      result.migration.total_deletes + result.migration.total_creates;
}

void AddExecution(const rasa::MigrationExecutionReport& report,
                  double seconds, LayerTotals* totals) {
  totals->execute_s += seconds;
  totals->execute_commands += report.commands_attempted;
  totals->execute_retries += report.retries;
  totals->execute_failed += report.commands_failed + report.commands_deferred;
}

double OverheadShare(const std::vector<double>& round_seconds) {
  double traced = 0.0;
  double untraced = 0.0;
  for (size_t r = 0; r + 1 < round_seconds.size(); r += 2) {
    traced += round_seconds[r];
    untraced += round_seconds[r + 1];
  }
  return untraced > 0.0 ? traced / untraced - 1.0 : 0.0;
}

std::vector<Metric> LayerMetrics(const LayerTotals& t) {
  const double ops = std::max(1, t.ops);
  auto share = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  return {
      {"cluster.generate_s", Quantile(t.generate_s, 0.5), "s"},
      {"partition.s", t.partition_s / ops, "s"},
      {"partition.subproblems", t.subproblems / ops, "count"},
      {"partition.largest_services", t.largest_services / ops, "count"},
      {"partition.cut_affinity", t.cut_affinity / ops, "share"},
      {"select.s", t.select_s / ops, "s"},
      {"select.mip_share", share(t.selected_mip, t.solved), "share"},
      {"solve.s", t.solve_s / ops, "s"},
      {"solve.critical_s", t.critical_s / ops, "s"},
      {"solve.attempts", t.attempts / ops, "count"},
      {"solve.failed_share", share(t.failed_attempts, t.attempts), "share"},
      {"solve.deadline_hits", static_cast<double>(t.deadline_hits), "count"},
      {"solve.lp_pivots", t.lp_pivots / ops, "count"},
      {"solve.refactorizations", t.refactorizations / ops, "count"},
      {"solve.bnb_nodes", t.bnb_nodes / ops, "count"},
      {"solve.cg_rounds", t.cg_rounds / ops, "count"},
      {"pool.busy_share", share(t.subproblem_s, kPoolThreads * t.solve_s),
       "share"},
      {"pop.splits", t.pop_splits / ops, "count"},
      {"pop.s", t.pop_s / ops, "s"},
      {"pop.quality_loss", t.pop_quality_loss / ops, "share"},
      {"certify.gap", t.certificate_gap / ops, "share"},
      {"fallback.unplaced", t.fallback_unplaced / ops, "count"},
      {"migrate.path_s", t.migrate_path_s / ops, "s"},
      {"migrate.batches", t.migrate_batches / ops, "count"},
      {"migrate.commands", t.migrate_commands / ops, "count"},
      {"execute.s", t.execute_s / ops, "s"},
      {"execute.commands", t.execute_commands / ops, "count"},
      {"execute.retries", t.execute_retries / ops, "count"},
      {"execute.failed_share", share(t.execute_failed, t.execute_commands),
       "share"},
      {"delta.diff_s", t.diff_s / ops, "s"},
      {"delta.reused_share", share(t.reused, t.reused + t.solved), "share"},
      {"delta.full_resolves", static_cast<double>(t.full_resolves), "count"},
      {"telemetry.s", t.telemetry_s / ops, "s"},
      {"rss.generate_mb", t.rss_generate_mb, "MiB"},
      {"rss.plan_mb", t.rss_plan_mb, "MiB"},
      {"trace.overhead_share", t.overhead_share, "share"},
  };
}

}  // namespace perfbench
