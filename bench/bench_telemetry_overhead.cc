// Telemetry overhead bench (not a paper figure): wall-clock cost of
// continuous telemetry on the bench_scaling reference instance (M1 at the
// bench scale), measured as whole workflow runs in three modes:
//   off      — telemetry disabled (the baseline)
//   on       — in process: the traffic-quantile estimate of the live
//              placement and the SLO burn-rate / anomaly verdict fold
//   journal  — on, plus one JSONL sample line per cycle (one fsync each)
//
// Protocol: `reps` interleaved off/on/journal runs (interleaving cancels
// thermal / cache drift), each `cycles` control-loop cycles with the same
// seed.
//
// Two claims are checked:
//   1. Determinism — all three tracks end on bit-identical final
//      placements, every rep. Always asserted, even in smoke mode.
//   2. Overhead — the mean "on" run is <= 3% above "off". The gate is on
//      the in-process track; the journal track is reported alongside
//      but not gated, because its cost is a fixed per-cycle fsync latency
//      that only looms large against sub-second smoke cycles (production
//      cycles run minutes). Skipped under RASA_BENCH_NO_THRESHOLD (tiny
//      deadline-bound runs are jitter-dominated, not telemetry-bound).
//
// Machine-readable output: BENCH_telemetry_overhead.json (one row per
// rep+mode, plus a summary row).

#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/timer.h"
#include "sim/workflow.h"

namespace {

using namespace rasa;
using namespace rasa::bench;

WorkflowOptions BaseOptions() {
  WorkflowOptions options;
  options.cycles = 4;
  options.seed = 2024;
  options.rasa.timeout_seconds = 10.0 * BenchTimeout();
  options.rasa.partitioning.max_subproblem_services = 12;
  return options;
}

}  // namespace

int main() {
  PrintHeader("Telemetry overhead — continuous-operation telemetry",
              "workflow runs with telemetry off vs on vs on+journal");

  ClusterSpec spec = M1Spec(BenchScale());
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(spec);
  RASA_CHECK(snapshot.ok()) << snapshot.status().ToString();
  const Cluster& cluster = *snapshot->cluster;
  std::printf("%s: %d services, %d machines, %d containers\n",
              snapshot->name.c_str(), cluster.num_services(),
              cluster.num_machines(), cluster.num_containers());
  PrintRule();

  const AlgorithmSelector selector(SelectorPolicy::kHeuristic);
  const char* scratch = std::getenv("RASA_BENCH_JSON_DIR");
  const std::string telemetry_dir =
      std::string(scratch != nullptr ? scratch : ".") +
      "/telemetry_overhead_scratch";

  BenchJsonWriter json("telemetry_overhead");
  const int reps = 3;
  double off_total = 0.0;
  double on_total = 0.0;
  double journal_total = 0.0;
  std::printf("%4s %10s %10s %10s %9s %9s\n", "rep", "off_s", "on_s",
              "journal_s", "on", "journal");
  for (int rep = 0; rep < reps; ++rep) {
    Placement reference(cluster);
    double rep_seconds[3] = {0.0, 0.0, 0.0};
    for (int mode = 0; mode < 3; ++mode) {
      WorkflowOptions options = BaseOptions();
      if (mode >= 1) options.telemetry.enabled = true;
      if (mode == 2) options.telemetry_dir = telemetry_dir;
      Stopwatch timer;
      StatusOr<WorkflowReport> report = RunWorkflow(
          cluster, snapshot->original_placement, selector, options);
      const double seconds = timer.ElapsedSeconds();
      RASA_CHECK(report.ok()) << report.status().ToString();
      static const char* kModeNames[] = {"off", "on", "journal"};
      rep_seconds[mode] = seconds;
      (mode == 0 ? off_total : mode == 1 ? on_total : journal_total) +=
          seconds;
      json.BeginRow()
          .Field("rep", rep)
          .Field("mode", kModeNames[mode])
          .Field("seconds", seconds);

      // Claim 1: telemetry never steers the loop.
      if (mode == 0) {
        reference = report->final_placement;
      } else if (report->final_placement.DiffCount(reference) != 0 ||
                 reference.DiffCount(report->final_placement) != 0) {
        std::fprintf(stderr,
                     "FAIL: telemetry '%s' run diverged from the "
                     "telemetry-off run (rep %d)\n",
                     kModeNames[mode], rep);
        return 1;
      }
      if (mode >= 1) {
        for (const CycleReport& cr : report->cycles) {
          if (!cr.telemetry.populated) {
            std::fprintf(stderr,
                         "FAIL: a telemetry-on cycle carried no verdicts — "
                         "telemetry was not exercised\n");
            return 1;
          }
        }
      }
    }
    std::printf("%4d %10.3f %10.3f %10.3f %8.3fx %8.3fx\n", rep,
                rep_seconds[0], rep_seconds[1], rep_seconds[2],
                rep_seconds[0] > 0.0 ? rep_seconds[1] / rep_seconds[0] : 0.0,
                rep_seconds[0] > 0.0 ? rep_seconds[2] / rep_seconds[0]
                                     : 0.0);
  }
  PrintRule();

  const double on_overhead =
      off_total > 0.0 ? (on_total - off_total) / off_total : 0.0;
  const double journal_overhead =
      off_total > 0.0 ? (journal_total - off_total) / off_total : 0.0;
  std::printf("mean: off %.3fs, on %.3fs (%+.2f%%), journal %.3fs "
              "(%+.2f%%)\n",
              off_total / reps, on_total / reps, 100.0 * on_overhead,
              journal_total / reps, 100.0 * journal_overhead);
  json.BeginRow()
      .Field("summary", true)
      .Field("mean_off_seconds", off_total / reps)
      .Field("mean_on_seconds", on_total / reps)
      .Field("mean_journal_seconds", journal_total / reps)
      .Field("on_overhead_fraction", on_overhead)
      .Field("journal_overhead_fraction", journal_overhead);

  if (std::getenv("RASA_BENCH_NO_THRESHOLD") != nullptr) {
    std::printf("overhead threshold skipped: RASA_BENCH_NO_THRESHOLD set\n");
    return 0;
  }
  if (on_overhead > 0.03) {
    std::fprintf(stderr, "FAIL: telemetry overhead %.2f%% exceeds 3%%\n",
                 100.0 * on_overhead);
    return 1;
  }
  std::printf("overhead threshold (<= 3%% on the in-process track): PASS "
              "(%+.2f%%)\n",
              100.0 * on_overhead);
  return 0;
}
