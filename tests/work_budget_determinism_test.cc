// Every solve stops on planned work, not on the wall clock: the optimizer
// plans each subproblem's budget before any solve, and a branch-and-bound
// stops on the work cap planned from it. Inputs whose B&B runs until a cap
// stops it must give the same placement and the same records, B&B nodes
// and iterations included, at 1 and 4 threads and at 1 thread while three
// other threads spin, and must finish far inside the timeout.
//
// The inputs: M1 at 1/64, generator seed 8, subproblems of at most 10
// services, every one on MIP, the default 2 s timeout. Its 12x4 MIP holds
// under 2% of the internal affinity, so its planned budget is 0.035 s,
// and its search would run on for thousands of nodes: a wall-clock slice
// of the timeout cut it at a point that depended on host load. No other
// MIP reaches its cap, and the whole run stays far inside the timeout
// under the sanitizer builds too, which run 10-20x slower than the work
// rate the cap is planned with.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cluster/generator.h"
#include "core/rasa.h"
#include "gtest/gtest.h"
#include "rasa_test_util.h"

namespace rasa {
namespace {

constexpr double kTimeoutSeconds = 2.0;

RasaResult RunAlwaysMip(const ClusterSnapshot& snapshot, uint64_t seed,
                        int threads) {
  RasaOptions options;
  options.timeout_seconds = kTimeoutSeconds;
  options.seed = seed;
  options.num_threads = threads;
  options.compute_migration = false;
  options.partitioning.max_subproblem_services = 10;
  const RasaOptimizer optimizer(options,
                                AlgorithmSelector(SelectorPolicy::kAlwaysMip));
  StatusOr<RasaResult> result =
      optimizer.Optimize(*snapshot.cluster, snapshot.original_placement);
  RASA_CHECK(result.ok()) << result.status().ToString();
  return *std::move(result);
}

// Threads that keep the host busy for as long as the object lives.
class Spinners {
 public:
  explicit Spinners(int count) {
    for (int i = 0; i < count; ++i) {
      threads_.emplace_back([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~Spinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  Spinners(const Spinners&) = delete;
  Spinners& operator=(const Spinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// The run stopped on planned work: a branch-and-bound branched and its
// work cap stopped it short of its optimum, not its node cap (at least 2000
// nodes) and not the deadline (no rung found it gone, and the run ended far
// inside its timeout).
void ExpectStoppedOnWork(const RasaResult& result) {
  EXPECT_LT(result.elapsed_seconds, kTimeoutSeconds / 2);
  int capped = 0;
  for (const LedgerRecord& rec : result.report.records) {
    EXPECT_NE(rec.primary.outcome, AttemptOutcome::kExpired);
    EXPECT_NE(rec.secondary.outcome, AttemptOutcome::kExpired);
    const SubproblemMipStats& mip = rec.primary.mip;
    if (!mip.solved || mip.stop != MipStop::kWorkCap) continue;
    ++capped;
    EXPECT_EQ(mip.status, MipStatus::kFeasible);
    EXPECT_GT(mip.nodes, 1);
    EXPECT_LT(mip.nodes, 2000);
  }
  EXPECT_GT(capped, 0);
}

TEST(WorkBudgetDeterminismTest, SameRunAtAnyThreadCountAndLoad) {
  const ClusterSnapshot snapshot =
      testing::MakeSnapshot(M1Spec(64.0), /*seed=*/8);
  for (const uint64_t seed : {1u, 42u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const RasaResult sequential = RunAlwaysMip(snapshot, seed, 1);
    ExpectStoppedOnWork(sequential);
    const std::string expected = testing::CanonicalResultJson(sequential);

    const RasaResult pooled = RunAlwaysMip(snapshot, seed, 4);
    ExpectStoppedOnWork(pooled);
    EXPECT_EQ(testing::CanonicalResultJson(pooled), expected);

    const Spinners load(3);
    const RasaResult loaded = RunAlwaysMip(snapshot, seed, 1);
    ExpectStoppedOnWork(loaded);
    EXPECT_EQ(testing::CanonicalResultJson(loaded), expected);
  }
}

}  // namespace
}  // namespace rasa
