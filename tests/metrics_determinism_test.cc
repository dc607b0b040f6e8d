// The observation-only contract of the metrics layer: the optimizer's
// output is bit-identical with metrics (and tracing) on or off, at every
// thread count — instrumentation may watch the hot path but never steer it.
// Also covers the end-to-end export: a workflow run with an executing cycle
// populates all five instrumented subsystems (rasa., partition., pool.,
// threadpool., migration.) and snapshots them once per cycle, and the
// optimizer's solver series are folds of its ledger records.

#include <string>
#include <vector>

#include "cluster/generator.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "core/rasa.h"
#include "gtest/gtest.h"
#include "rasa_test_util.h"
#include "sim/workflow.h"

namespace rasa {
namespace {

ClusterSnapshot MakeCluster(uint64_t seed) {
  return testing::MakeSnapshot(M1Spec(48.0), seed);
}

RasaResult RunOptimize(const ClusterSnapshot& snapshot, int threads) {
  RasaOptions options;
  // Generous timeout + small subproblems: every solve stops on its planned
  // work caps and the global deadline never fires, so the comparison never
  // races the wall clock (same regime
  // as core_rasa_determinism_test).
  options.timeout_seconds = 30.0;
  options.seed = 1234;
  return testing::OptimizeSmallSubproblems(snapshot, options, threads);
}

// Bit-exact equality of everything except wall-clock timings.
void ExpectIdenticalResults(const RasaResult& a, const RasaResult& b) {
  EXPECT_EQ(testing::CanonicalResultJson(a), testing::CanonicalResultJson(b));
}

TEST(MetricsDeterminismTest, MetricsOnOffBitIdenticalAcrossThreadCounts) {
  const ClusterSnapshot snapshot = MakeCluster(17);
  for (int threads : {1, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");

    ASSERT_TRUE(MetricsEnabled());
    Tracer::Default().Enable(true);  // tracing must not perturb either
    const RasaResult with_metrics = RunOptimize(snapshot, threads);
    Tracer::Default().Enable(false);
    Tracer::Default().Reset();

    SetMetricsEnabled(false);
    const RasaResult without_metrics = RunOptimize(snapshot, threads);
    SetMetricsEnabled(true);

    ExpectIdenticalResults(with_metrics, without_metrics);
  }
}

TEST(MetricsDeterminismTest, DisabledRunRecordsNothing) {
  const ClusterSnapshot snapshot = MakeCluster(23);
  MetricRegistry& reg = MetricRegistry::Default();
  reg.Reset();
  SetMetricsEnabled(false);
  (void)RunOptimize(snapshot, 2);
  SetMetricsEnabled(true);
  const MetricsSnapshot snap = reg.Scrape();
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(value, 0u) << name;
  }
  for (const auto& [name, histogram] : snap.histograms) {
    EXPECT_EQ(histogram.count, 0u) << name;
  }
}

// The optimizer's registry series are a fold of its ledger records, POP
// replicas included: on GoldenDigestTest.PopSplit's inputs the registry
// deltas equal the records' sums, and every POP attempt that ran carries
// its replicas' pivots but no bound.
TEST(MetricsDeterminismTest, SolverSeriesAreRecordSums) {
  const ClusterSnapshot snapshot = testing::MakeSnapshot(M1Spec(32.0), 5);
  RasaOptions options;
  options.timeout_seconds = 60.0;
  options.partitioning.max_subproblem_services = 12;
  options.seed = 17;
  options.pop.max_services = 6;
  for (int threads : {1, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    options.num_threads = threads;
    const RasaOptimizer optimizer(
        options, AlgorithmSelector(SelectorPolicy::kHeuristic));
    const MetricsSnapshot before = MetricRegistry::Default().Scrape();
    StatusOr<RasaResult> r = optimizer.Optimize(*snapshot.cluster,
                                                snapshot.original_placement);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const MetricsSnapshot delta =
        MetricRegistry::Default().Scrape().Diff(before);
    auto counter = [&](const std::string& name) -> uint64_t {
      for (const auto& [n, v] : delta.counters) {
        if (n == name) return v;
      }
      return 0;
    };

    uint64_t pivots = 0, refactorizations = 0, nodes = 0, ran = 0;
    int pop_attempts = 0;
    for (const LedgerRecord& rec : r->report.records) {
      for (const SolveAttempt* a : {&rec.primary, &rec.secondary}) {
        pivots += a->cg.lp_iterations + a->mip.lp_iterations;
        refactorizations += a->cg.refactorizations + a->mip.refactorizations;
        nodes += a->mip.nodes;
        const bool run = a->outcome == AttemptOutcome::kOk ||
                         a->outcome == AttemptOutcome::kFailed;
        ran += run;
        if (run && !rec.reused && rec.bound_source == "pop") {
          ++pop_attempts;
          EXPECT_GT(a->cg.lp_iterations + a->mip.lp_iterations, 0);
          EXPECT_FALSE(a->cg.has_lp_bound);
          EXPECT_FALSE(a->mip.bound_proven);
          EXPECT_FALSE(a->mip.has_root_lp);
          EXPECT_FALSE(rec.bound_tightened);
        }
      }
    }
    EXPECT_GT(pop_attempts, 0);
    EXPECT_GT(pivots, 0u);
    EXPECT_EQ(counter("solver.lp_pivots"), pivots);
    EXPECT_EQ(counter("solver.refactorizations"), refactorizations);
    EXPECT_EQ(counter("solver.bnb_nodes"), nodes);
    EXPECT_EQ(counter("pool.cg_picks") + counter("pool.mip_picks"), ran);
  }
}

// One workflow run with executing cycles must light up every instrumented
// subsystem and attach a registry snapshot to every cycle report.
TEST(MetricsDeterminismTest, WorkflowCoversAllFiveSubsystems) {
  const ClusterSnapshot snapshot = MakeCluster(31);
  MetricRegistry::Default().Reset();

  WorkflowOptions options;
  options.cycles = 2;
  options.rasa.timeout_seconds = 10.0;
  // >= 2 threads so the thread pool's metrics are exercised by a real
  // worker pool.
  options.rasa.num_threads = 4;
  options.seed = 7;
  StatusOr<WorkflowReport> report =
      RunWorkflow(*snapshot.cluster, snapshot.original_placement,
                  AlgorithmSelector(SelectorPolicy::kHeuristic), options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->executions, 0);  // migration metrics need a real run

  const MetricsSnapshot snap = MetricRegistry::Default().Scrape();
  auto counter = [&](const std::string& name) -> uint64_t {
    for (const auto& [n, v] : snap.counters) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "counter not registered: " << name;
    return 0;
  };
  EXPECT_GT(counter("rasa.runs"), 0u);
  EXPECT_GT(counter("partition.runs"), 0u);
  EXPECT_GT(counter("pool.cg_picks") + counter("pool.mip_picks"), 0u);
  EXPECT_GT(counter("threadpool.tasks_executed"), 0u);
  EXPECT_GT(counter("migration.runs"), 0u);

  // Per-cycle snapshots are registry *deltas* (MetricsSnapshot::Diff):
  // every cycle ran the optimizer exactly once, so each cycle's delta of
  // rasa.runs is exactly 1 — not the cumulative 1, 2, ...
  ASSERT_EQ(report->cycles.size(), 2u);
  for (const CycleReport& cr : report->cycles) {
    EXPECT_FALSE(cr.metrics.counters.empty());
    uint64_t runs = 0;
    for (const auto& [n, v] : cr.metrics.counters) {
      if (n == "rasa.runs") runs = v;
    }
    EXPECT_EQ(runs, 1u);
  }

  // The machine-readable export mentions all five subsystem prefixes.
  const std::string json = snap.ToJson();
  for (const char* prefix :
       {"\"rasa.", "\"partition.", "\"pool.", "\"threadpool.",
        "\"migration."}) {
    EXPECT_NE(json.find(prefix), std::string::npos) << prefix;
  }
}

}  // namespace
}  // namespace rasa
