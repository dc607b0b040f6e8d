#ifndef RASA_PERFBENCH_LAYERS_H_
#define RASA_PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "bench.h"
#include "common/metrics.h"
#include "core/migration_executor.h"
#include "core/rasa.h"

namespace perfbench {

/// Turns the program's tracer on for one traced operation.
void StartProgramTrace();
/// Turns it off and returns the spans the program recorded (`partition`,
/// `select`, `solve`, `subproblem_N`, `migration_path`, ...).
std::vector<rasa::TraceEvent> StopProgramTrace();

/// Per-layer tallies of the traced operations of one run. Times are
/// seconds summed over the traced operations; the reported metrics divide
/// by `ops`, so each reads as "per operation".
struct LayerTotals {
  int ops = 0;

  std::vector<double> generate_s;  // one entry per GenerateCluster call
  double rss_generate_mb = 0.0;
  double rss_plan_mb = 0.0;

  double partition_s = 0.0;
  double subproblems = 0.0;
  double largest_services = 0.0;
  double cut_affinity = 0.0;

  double select_s = 0.0;
  int selected_mip = 0;  // of the `solved` subproblems

  double solve_s = 0.0;
  double critical_s = 0.0;
  double subproblem_s = 0.0;  // summed solve time of every subproblem
  int attempts = 0;
  int failed_attempts = 0;
  int deadline_hits = 0;  // over every operation of the run, traced or not
  double lp_pivots = 0.0;
  double refactorizations = 0.0;
  double bnb_nodes = 0.0;
  double cg_rounds = 0.0;

  double pop_splits = 0.0;
  double pop_s = 0.0;
  double pop_quality_loss = 0.0;

  double certificate_gap = 0.0;
  double fallback_unplaced = 0.0;

  double migrate_path_s = 0.0;
  double migrate_batches = 0.0;
  double migrate_commands = 0.0;

  double execute_s = 0.0;
  double execute_commands = 0.0;
  double execute_retries = 0.0;
  int execute_failed = 0;

  double diff_s = 0.0;
  int reused = 0;
  int solved = 0;  // subproblems that went to the solvers
  int full_resolves = 0;

  double telemetry_s = 0.0;

  double overhead_share = 0.0;
};

/// Subproblem solves of `result` that ran into their budget slice (or
/// found the global budget already spent). A plan with any measured the
/// wall-clock budget, not work.
int DeadlineHits(const rasa::RasaResult& result);

/// Folds one traced Optimize call: its result and the program spans it
/// recorded.
void AddPlan(const rasa::RasaResult& result,
             const std::vector<rasa::TraceEvent>& program_spans,
             LayerTotals* totals);

void AddExecution(const rasa::MigrationExecutionReport& report,
                  double seconds, LayerTotals* totals);

/// Mean ratio of traced to untraced operation time, minus 1, over rounds
/// that alternate traced / untraced (round r is traced when r is even).
/// `round_seconds[r]` is the summed operation time of round r; an unpaired
/// last round is ignored.
double OverheadShare(const std::vector<double>& round_seconds);

/// Every per-layer metric, in BENCHMARK.json order. Layers a workload does
/// not exercise read 0.
std::vector<Metric> LayerMetrics(const LayerTotals& totals);

}  // namespace perfbench

#endif  // RASA_PERFBENCH_LAYERS_H_
