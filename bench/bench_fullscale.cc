// Full-scale bench: M4 at scale factor 1 — the repo's first perf
// trajectory point at the paper's actual Table II size (10 682 services /
// 113 261 containers / 4 365 machines). Unlike the other benches this one
// DEFAULTS to scale 1 (RASA_BENCH_SCALE still overrides it; the ctest
// smoke fixture runs at 96), generates + partitions + optimizes M4 through
// the CSR affinity view, and asserts a peak-RSS budget on the whole
// process.
//
// The POP replica-split fallback is enabled (pop.max_services below the
// partitioner ceiling) so oversized subproblems exercise the split; each
// phase row reports peak RSS so far, and the optimize row reports the POP
// quality loss measured against the optimality-gap certificate (whose
// terms stay at the trivial bound with source "pop"). The migrate row times
// Algorithm 2's path to the optimized placement and its validation.
//
// Environment knobs (on top of the usual bench_util ones):
//   RASA_BENCH_SCALE         downscale divisor, DEFAULT 1 here (paper size)
//   RASA_BENCH_TIMEOUT       solver budget seconds, default 60 here (the
//                            paper's one-minute SLO at full scale)
//   RASA_BENCH_RSS_MB        peak-RSS budget in MiB (default 2048)
//   RASA_BENCH_NO_THRESHOLD  skip the RSS and POP-exercised asserts (the
//                            tiny smoke run keeps only the completion and
//                            certificate-soundness checks)
//
// Machine-readable output: BENCH_fullscale.json (one row per phase).

#include <sys/resource.h>

#include <thread>

#include "bench_util.h"
#include "common/timer.h"
#include "core/migration.h"
#include "core/partitioning.h"
#include "core/rasa.h"

namespace {

using namespace rasa;
using namespace rasa::bench;

// Peak resident set of this process so far, in MiB (ru_maxrss is KiB on
// Linux). Monotone over the process lifetime, so each phase row reports
// the high-water mark up to that phase.
double PeakRssMb() {
  struct rusage usage;
  RASA_CHECK(getrusage(RUSAGE_SELF, &usage) == 0);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double FullscaleScale() {
  const char* env = std::getenv("RASA_BENCH_SCALE");
  const double v = env != nullptr ? std::atof(env) : 0.0;
  return v > 0.0 ? v : 1.0;
}

double FullscaleTimeout() {
  const char* env = std::getenv("RASA_BENCH_TIMEOUT");
  const double v = env != nullptr ? std::atof(env) : 0.0;
  return v > 0.0 ? v : 60.0;
}

double RssBudgetMb() {
  const char* env = std::getenv("RASA_BENCH_RSS_MB");
  const double v = env != nullptr ? std::atof(env) : 0.0;
  return v > 0.0 ? v : 2048.0;
}

}  // namespace

int main() {
  const double scale = FullscaleScale();
  const double timeout = FullscaleTimeout();
  const double rss_budget = RssBudgetMb();
  const bool thresholds = std::getenv("RASA_BENCH_NO_THRESHOLD") == nullptr;

  std::printf("==================================================================\n");
  std::printf("Full scale — M4 at scale factor %.0f (Table II row: 10682 "
              "services / 113261 containers / 4365 machines at factor 1)\n",
              scale);
  std::printf("timeout=%.2fs  rss_budget=%.0f MiB  hardware threads: %u\n",
              timeout, rss_budget, std::thread::hardware_concurrency());
  std::printf("==================================================================\n");

  BenchJsonWriter json("fullscale");

  // --- Phase 1: generate ---------------------------------------------------
  Stopwatch gen_timer;
  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(M4Spec(scale));
  RASA_CHECK(snapshot.ok()) << snapshot.status().ToString();
  const double gen_seconds = gen_timer.ElapsedSeconds();
  const Cluster& cluster = *snapshot->cluster;
  std::printf("generate: %d services, %d containers, %d machines in %.2fs "
              "(peak RSS %.0f MiB)\n",
              cluster.num_services(), cluster.num_containers(),
              cluster.num_machines(), gen_seconds, PeakRssMb());
  json.BeginRow()
      .Field("phase", "generate")
      .Field("scale", static_cast<int>(scale))
      .Field("services", cluster.num_services())
      .Field("containers", cluster.num_containers())
      .Field("machines", cluster.num_machines())
      .Field("seconds", gen_seconds)
      .Field("peak_rss_mb", PeakRssMb());
  if (thresholds && scale == 1.0) {
    // Factor 1 must reproduce the Table II row exactly (generator gates).
    RASA_CHECK(cluster.num_services() == 10682);
    RASA_CHECK(cluster.num_containers() == 113261);
    RASA_CHECK(cluster.num_machines() == 4365);
  }

  // --- Phase 2: partition (reported separately, then redone inside
  // Optimize; the duplicate costs a few seconds and keeps the phase
  // attribution honest) ----------------------------------------------------
  PartitioningOptions part_options;
  Stopwatch part_timer;
  PartitionResult partition = PartitionServices(
      cluster, snapshot->original_placement, part_options);
  const double part_seconds = part_timer.ElapsedSeconds();
  int largest_subproblem = 0;
  for (const Subproblem& sp : partition.subproblems) {
    largest_subproblem = std::max(largest_subproblem,
                                  static_cast<int>(sp.services.size()));
  }
  std::printf("partition: %d subproblems (largest %d services, %d crucial / "
              "%d trivial services) in %.2fs (peak RSS %.0f MiB)\n",
              partition.stats.num_subproblems, largest_subproblem,
              partition.stats.num_crucial_services,
              partition.stats.num_trivial_services, part_seconds,
              PeakRssMb());
  json.BeginRow()
      .Field("phase", "partition")
      .Field("scale", static_cast<int>(scale))
      .Field("subproblems", partition.stats.num_subproblems)
      .Field("largest_subproblem", largest_subproblem)
      .Field("seconds", part_seconds)
      .Field("peak_rss_mb", PeakRssMb());

  // --- Phase 3: optimize (POP enabled) -------------------------------------
  RasaOptions options;
  options.timeout_seconds = timeout;
  options.compute_migration = false;
  options.num_threads = 8;
  // Split anything the balance slack let grow past the target subproblem
  // size: at factor 1 that exercises the POP path on the heavy tail.
  options.pop.max_services = 24;
  options.pop.num_replicas = 2;
  RasaOptimizer optimizer(options,
                          AlgorithmSelector(SelectorPolicy::kHeuristic));
  Stopwatch opt_timer;
  StatusOr<RasaResult> result =
      optimizer.Optimize(cluster, snapshot->original_placement);
  const double opt_seconds = opt_timer.ElapsedSeconds();
  RASA_CHECK(result.ok()) << result.status().ToString();

  // Certificate soundness around POP: every "pop" term stays untightened
  // at the trivial bound, and the reported quality loss matches it.
  int pop_terms = 0;
  for (size_t i = 0; i < result->subproblems.size(); ++i) {
    const SubproblemReport& report = result->subproblems[i];
    const LedgerRecord& rec = result->report.records[i];
    if (!report.used_pop) continue;
    ++pop_terms;
    RASA_CHECK(rec.bound_source == "pop");
    RASA_CHECK(!rec.bound_tightened);
    RASA_CHECK(rec.certificate_bound == report.internal_affinity);
  }
  RASA_CHECK(pop_terms == result->pop_splits);

  std::printf("optimize: gained affinity %.4f -> %.4f in %.2fs "
              "(%d threads, peak RSS %.0f MiB)\n",
              result->original_gained_affinity, result->new_gained_affinity,
              opt_seconds, result->num_threads_used, PeakRssMb());
  std::printf("POP: %d subproblems split; quality loss %.6f against the "
              "certificate's trivial bounds (optimality gap %.6f)\n",
              result->pop_splits, result->pop_quality_loss,
              result->report.certificate.Gap());
  json.BeginRow()
      .Field("phase", "optimize")
      .Field("scale", static_cast<int>(scale))
      .Field("threads", 8)
      .Field("seconds", opt_seconds)
      .Field("gained_affinity_before", result->original_gained_affinity)
      .Field("gained_affinity_after", result->new_gained_affinity)
      .Field("pop_splits", result->pop_splits)
      .Field("pop_quality_loss", result->pop_quality_loss)
      .Field("certificate_gap", result->report.certificate.Gap())
      .Field("peak_rss_mb", PeakRssMb());

  // --- Phase 4: migration path (Algorithm 2) to the optimized placement,
  // replayed batch by batch by the validator ------------------------------
  Stopwatch path_timer;
  StatusOr<MigrationPlan> plan =
      ComputeMigrationPath(cluster, snapshot->original_placement,
                           result->new_placement, options.migration);
  const double path_seconds = path_timer.ElapsedSeconds();
  RASA_CHECK(plan.ok()) << plan.status().ToString();
  Stopwatch validate_timer;
  const Status valid = ValidateMigrationPlan(
      cluster, snapshot->original_placement, result->new_placement, *plan,
      options.migration.min_alive_fraction);
  const double validate_seconds = validate_timer.ElapsedSeconds();
  RASA_CHECK(valid.ok()) << valid.ToString();
  int commands = 0;
  for (const std::vector<MigrationCommand>& batch : plan->batches) {
    commands += static_cast<int>(batch.size());
  }
  std::printf("migrate: %zu batches, %d commands; path %.3fs, validation "
              "%.3fs (peak RSS %.0f MiB)\n",
              plan->batches.size(), commands, path_seconds, validate_seconds,
              PeakRssMb());
  json.BeginRow()
      .Field("phase", "migrate")
      .Field("scale", static_cast<int>(scale))
      .Field("batches", static_cast<int>(plan->batches.size()))
      .Field("commands", commands)
      .Field("seconds", path_seconds)
      .Field("validate_seconds", validate_seconds)
      .Field("peak_rss_mb", PeakRssMb());

  const double peak = PeakRssMb();
  std::printf("------------------------------------------------------------------\n");
  std::printf("peak RSS: %.0f MiB (budget %.0f MiB)%s\n", peak, rss_budget,
              thresholds ? "" : " [not asserted]");
  if (thresholds) {
    RASA_CHECK(peak < rss_budget)
        << "peak RSS " << peak << " MiB exceeds budget " << rss_budget;
    // The whole point of the bench: the POP path must actually run at
    // scale, not just exist.
    RASA_CHECK(result->pop_splits > 0)
        << "no subproblem exceeded pop.max_services; POP not exercised";
  }
  std::printf("OK\n");
  return 0;
}
