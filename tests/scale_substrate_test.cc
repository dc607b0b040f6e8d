// Scale-substrate suite (`scale` ctest label): the pieces that let the
// repo run Table II at scale factor 1 on one box. Covers (a) generator
// exactness — the factor-1 specs must hit the paper's row totals exactly,
// with the scaled-down specs left ungated — and (b) a peak-RSS budget for
// partitioning M4 at factor 1 plus one subproblem solve through the CSR
// view API (the asan preset runs this suite, so it is also a leak probe
// for that solve).

#include <sys/resource.h>

#include <vector>

#include "cluster/generator.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/algorithm_pool.h"
#include "core/partitioning.h"
#include "gtest/gtest.h"

namespace rasa {
namespace {

// Peak resident set of this process so far, in bytes (Linux ru_maxrss is
// in KiB). Monotone: includes every phase run before the call.
size_t PeakRssBytes() {
  struct rusage usage;
  RASA_CHECK(getrusage(RUSAGE_SELF, &usage) == 0);
  return static_cast<size_t>(usage.ru_maxrss) * 1024;
}

// Table II row totals (generator.cc keeps the same table in its comment).
struct TableTwoRow {
  const char* name;
  int services;
  int containers;
  int machines;
};
constexpr TableTwoRow kTableTwo[] = {
    {"M1", 5904, 25640, 977},
    {"M2", 10180, 152833, 5284},
    {"M3", 547, 3485, 96},
    {"M4", 10682, 113261, 4365},
};

// At scale factor 1 the generated clusters must reproduce Table II
// exactly — not approximately — so the full-scale bench is comparable
// against the paper's row sizes.
TEST(ScaleSubstrateTest, TableTwoExactAtFactorOne) {
  const std::vector<ClusterSpec> specs = TableTwoSpecs(1.0);
  ASSERT_EQ(specs.size(), 4u);
  for (size_t i = 0; i < specs.size(); ++i) {
    StatusOr<ClusterSnapshot> snapshot = GenerateCluster(specs[i]);
    ASSERT_TRUE(snapshot.ok())
        << kTableTwo[i].name << ": " << snapshot.status().ToString();
    EXPECT_EQ(snapshot->cluster->num_services(), kTableTwo[i].services)
        << kTableTwo[i].name;
    EXPECT_EQ(snapshot->cluster->num_containers(), kTableTwo[i].containers)
        << kTableTwo[i].name;
    EXPECT_EQ(snapshot->cluster->num_machines(), kTableTwo[i].machines)
        << kTableTwo[i].name;
  }
}

// Scaled-down specs (every tier-1 fixture) must not pick up the exact-total
// gates: their generation stream is frozen by the determinism suites.
TEST(ScaleSubstrateTest, ScaledSpecsStayUngated) {
  for (const ClusterSpec& spec : TableTwoSpecs(16.0)) {
    EXPECT_EQ(spec.exact_total_containers, 0) << spec.name;
    EXPECT_EQ(spec.exact_num_machines, 0) << spec.name;
  }
}

// The memory budget of the factor-1 substrate: generate M4 at factor 1,
// partition it, and run one pool solve on the largest subproblem — all
// through the CSR view API — inside a peak-RSS budget.
// The budget is deliberately generous (the point is catching a regression
// to dense O(n^2) storage, which for 10 682 services would add ~900 MB on
// its own), and covers the whole process including gtest and the
// generator.
TEST(ScaleSubstrateTest, M4PartitionAndSolveWithinMemoryBudget) {
  constexpr size_t kBudgetBytes = size_t{1536} * 1024 * 1024;  // 1.5 GiB

  StatusOr<ClusterSnapshot> snapshot = GenerateCluster(M4Spec(1.0));
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  PartitioningOptions options;
  PartitionResult partition = PartitionServices(
      *snapshot->cluster, snapshot->original_placement, options);
  ASSERT_GT(partition.stats.num_subproblems, 0);

  // Largest subproblem by service count: the worst case for solver state.
  const Subproblem* largest = &partition.subproblems[0];
  for (const Subproblem& sp : partition.subproblems) {
    if (sp.services.size() > largest->services.size()) largest = &sp;
  }
  SolveAttempt stats;
  StatusOr<SubproblemSolution> solved = RunPoolAlgorithm(
      PoolAlgorithm::kCg, *snapshot->cluster, *largest,
      partition.base_placement, snapshot->original_placement,
      Deadline::AfterSeconds(30.0), 30.0, &stats);
  EXPECT_TRUE(solved.ok()) << solved.status().ToString();

  const size_t peak = PeakRssBytes();
  RASA_LOG(Info) << "M4 factor-1 peak RSS: " << peak / (1024 * 1024)
                 << " MiB (budget " << kBudgetBytes / (1024 * 1024)
                 << " MiB), largest subproblem "
                 << largest->services.size() << " services";
  EXPECT_LT(peak, kBudgetBytes);
}

}  // namespace
}  // namespace rasa
