// Scaling bench (not a paper figure): end-to-end Optimize wall time at
// 1/2/4/8 solver threads on the Table II clusters, with a generous solver
// budget so every subproblem completes and the runs are timing-independent.
//
// Two claims are checked on every row:
//   1. Determinism — the parallel placement and gained affinity are
//      bit-identical to the sequential run at every thread count.
//   2. Speedup — on a machine with >= 8 hardware threads the largest
//      cluster must reach >= 2.5x at 8 threads. On smaller machines the
//      measured numbers are still reported (and written to JSON) but the
//      threshold is not asserted: there is nothing to scale onto.
//
// Each row also records critical_s, the longest single subproblem solve: the
// parallel pool fans out whole subproblems, so a row whose critical_s is
// most of its seconds cannot speed up, and a flat 1.0x explains itself.
// critical_s never exceeds the row's seconds; the bench fails if it does.
//
// Machine-readable output: BENCH_scaling.json (threads -> seconds,
// critical_s, speedup, gained affinity per cluster).

#include <algorithm>
#include <optional>
#include <thread>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/rasa.h"

int main() {
  using namespace rasa;
  using namespace rasa::bench;

  PrintHeader("Scaling — parallel subproblem solving (fork-join pool)",
              "Optimize at 1/2/4/8 threads; placements must be bit-identical");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware threads: %u\n", hw);
  PrintRule();

  const AlgorithmSelector selector(SelectorPolicy::kHeuristic);
  // 10x the usual bench budget: the runs must be solver-bound, not
  // deadline-bound, for the timing comparison to measure parallelism.
  const double timeout = 10.0 * BenchTimeout();
  const int thread_counts[] = {1, 2, 4, 8};
  BenchJsonWriter json("scaling");

  int mismatches = 0;
  int critical_over_wall = 0;
  double largest_cluster_speedup8 = 0.0;
  std::string largest_cluster;
  int largest_containers = 0;

  for (const ClusterSnapshot& snapshot : BenchClusters()) {
    std::printf("%s (%d services, %d machines):\n", snapshot.name.c_str(),
                snapshot.cluster->num_services(),
                snapshot.cluster->num_machines());
    std::printf("  %8s %10s %10s %9s %14s %10s\n", "threads", "seconds",
                "critical_s", "speedup", "gained_aff", "identical");
    std::optional<RasaResult> sequential;
    double sequential_seconds = 0.0;
    for (int threads : thread_counts) {
      RasaOptions options;
      options.timeout_seconds = timeout;
      options.compute_migration = false;
      options.num_threads = threads;
      RasaOptimizer optimizer(options, selector);
      Stopwatch timer;
      StatusOr<RasaResult> result =
          optimizer.Optimize(*snapshot.cluster, snapshot.original_placement);
      const double seconds = timer.ElapsedSeconds();
      RASA_CHECK(result.ok()) << result.status().ToString();
      double critical_s = 0.0;
      for (const LedgerRecord& rec : result->report.records) {
        if (!rec.reused) critical_s = std::max(critical_s, rec.seconds);
      }
      if (critical_s > seconds) ++critical_over_wall;

      bool identical = true;
      double speedup = 1.0;
      if (!sequential.has_value()) {
        sequential = std::move(result).value();
        sequential_seconds = seconds;
      } else {
        speedup = seconds > 0.0 ? sequential_seconds / seconds : 0.0;
        identical =
            result->new_gained_affinity == sequential->new_gained_affinity &&
            result->new_placement.DiffCount(sequential->new_placement) == 0 &&
            sequential->new_placement.DiffCount(result->new_placement) == 0;
        if (!identical) ++mismatches;
      }
      const double gained = sequential.has_value() && threads > 1
                                ? result->new_gained_affinity
                                : sequential->new_gained_affinity;
      std::printf("  %8d %10.3f %10.3f %8.2fx %14.6f %10s\n", threads,
                  seconds, critical_s, speedup, gained,
                  identical ? "yes" : "NO");
      json.BeginRow()
          .Field("cluster", snapshot.name)
          .Field("threads", threads)
          .Field("seconds", seconds)
          .Field("critical_s", critical_s)
          .Field("speedup", speedup)
          .Field("gained_affinity", gained)
          .Field("identical_to_sequential", identical);
      if (threads == 8 &&
          snapshot.cluster->num_containers() > largest_containers) {
        largest_containers = snapshot.cluster->num_containers();
        largest_cluster = snapshot.name;
        largest_cluster_speedup8 = speedup;
      }
    }
    PrintRule();
  }

  if (mismatches > 0) {
    std::fprintf(stderr,
                 "FAIL: %d parallel run(s) diverged from sequential\n",
                 mismatches);
    return 1;
  }
  if (critical_over_wall > 0) {
    std::fprintf(stderr,
                 "FAIL: %d row(s) with a subproblem solve longer than the "
                 "whole Optimize\n",
                 critical_over_wall);
    return 1;
  }
  std::printf("all parallel placements bit-identical to sequential\n");
  std::printf("8-thread speedup on %s: %.2fx\n", largest_cluster.c_str(),
              largest_cluster_speedup8);
  if (std::getenv("RASA_BENCH_NO_THRESHOLD") != nullptr) {
    // Smoke mode (used by the bench_scaling_smoke ctest entry): clusters
    // are too small to amortize the pool, so only the determinism claim is
    // asserted and the timing rows are just recorded for bench_compare.
    std::printf("speedup threshold skipped: RASA_BENCH_NO_THRESHOLD set\n");
    return 0;
  }
  if (hw >= 8) {
    if (largest_cluster_speedup8 < 2.5) {
      std::fprintf(stderr,
                   "FAIL: expected >= 2.5x at 8 threads on %u-thread "
                   "hardware, got %.2fx\n",
                   hw, largest_cluster_speedup8);
      return 1;
    }
    std::printf("speedup threshold (>= 2.5x at 8 threads): PASS\n");
  } else {
    std::printf(
        "speedup threshold skipped: only %u hardware thread(s) available\n",
        hw);
  }
  return 0;
}
