// The observation-only contract of the explain layer: the optimizer's
// placement AND its explain report are bit-identical with the solve ledger
// on or off, at every thread count. The report is rendered without
// wall-clock fields (AppendExplainJson include_timings=false) and compared
// as a string — one differing byte anywhere (a record out of canonical
// order, an attempt outcome that depends on worker scheduling, a float
// that drifted) fails the test.

#include <string>
#include <vector>

#include "cluster/generator.h"
#include "common/json_writer.h"
#include "common/logging.h"
#include "core/explain.h"
#include "core/rasa.h"
#include "core/solve_ledger.h"
#include "gtest/gtest.h"
#include "rasa_test_util.h"

namespace rasa {
namespace {

ClusterSnapshot MakeCluster(uint64_t seed) {
  return testing::MakeSnapshot(M1Spec(48.0), seed);
}

RasaResult RunOptimize(const ClusterSnapshot& snapshot, int threads) {
  RasaOptions options;
  // Generous timeout + small subproblems: every solve stops on its planned
  // work caps and the global deadline never fires, so the comparison never
  // races the wall clock.
  options.timeout_seconds = 30.0;
  options.seed = 1234;
  return testing::OptimizeSmallSubproblems(snapshot, options, threads);
}

std::string RenderWithoutTimings(const RasaResult& result) {
  JsonWriter writer;
  AppendExplainJson(writer, result.report, /*include_timings=*/false);
  return writer.str();
}

TEST(ExplainDeterminismTest, LedgerOnOffBitIdenticalAcrossThreadCounts) {
  const ClusterSnapshot snapshot = MakeCluster(17);
  ASSERT_TRUE(SolveLedgerEnabled());

  // The 1-thread ledger-on run is the reference everything must match.
  const RasaResult reference = RunOptimize(snapshot, 1);
  const std::string reference_report = RenderWithoutTimings(reference);
  ASSERT_TRUE(reference.report.populated);
  ASSERT_GT(reference.report.records.size(), 1u);

  for (int threads : {1, 4, 8}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");

    const RasaResult with_ledger = RunOptimize(snapshot, threads);

    SetSolveLedgerEnabled(false);
    const RasaResult without_ledger = RunOptimize(snapshot, threads);
    SetSolveLedgerEnabled(true);

    for (const RasaResult* result : {&with_ledger, &without_ledger}) {
      EXPECT_EQ(result->new_placement.DiffCount(reference.new_placement), 0);
      EXPECT_EQ(reference.new_placement.DiffCount(result->new_placement), 0);
      EXPECT_EQ(result->new_gained_affinity, reference.new_gained_affinity);
      EXPECT_EQ(RenderWithoutTimings(*result), reference_report);
    }
  }
}

TEST(ExplainDeterminismTest, GlobalLedgerMatchesResultRecords) {
  const ClusterSnapshot snapshot = MakeCluster(23);
  SolveLedger& ledger = SolveLedger::Default();
  ledger.Reset();
  const RasaResult result = RunOptimize(snapshot, 4);
  const std::vector<LedgerRecord> recorded = ledger.Records();
  ASSERT_EQ(recorded.size(), result.report.records.size());
  for (size_t i = 0; i < recorded.size(); ++i) {
    EXPECT_EQ(recorded[i].subproblem, result.report.records[i].subproblem);
    EXPECT_EQ(recorded[i].position, result.report.records[i].position);
    EXPECT_EQ(recorded[i].realized_affinity,
              result.report.records[i].realized_affinity);
  }
  ledger.Reset();
}

}  // namespace
}  // namespace rasa
