#ifndef RASA_COMMON_THREAD_POOL_H_
#define RASA_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rasa {

class Counter;
class Histogram;

/// Fixed-size fork-join pool: one `ParallelFor` job at a time.
///
/// The workers and the calling thread claim the job's indices in ascending
/// order from a shared atomic cursor, so index 0 (the largest subproblem in
/// the solve's canonical order) starts first. A `ParallelFor` issued from
/// inside a running task runs inline on that thread; concurrent callers
/// from outside the pool take turns. Results must not depend on which
/// thread ran an index — every caller in this repo writes index-owned slots
/// and merges them in index order.
///
/// Deadlines stay cooperative: the pool never cancels a task, callers pass a
/// `Deadline` into the task and the task checks it (the same contract every
/// anytime solver in this repo already follows).
class ThreadPool {
 public:
  /// Creates `num_threads` workers. Values < 1 are clamped to 1.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// The machine's hardware concurrency (>= 1).
  static int DefaultNumThreads();

  /// Runs fn(0), ..., fn(n - 1) across the workers and the calling thread
  /// and blocks until all calls have finished. Every index runs even when
  /// one throws; the first exception is then rethrown.
  void ParallelFor(int n, const std::function<void(int)>& fn);

 private:
  struct Job;

  void WorkerLoop();
  // Claims and runs `job`'s indices until the cursor passes the end.
  void RunIndices(Job& job);

  // Observability (cached registry handles; observation-only, see
  // common/metrics.h): one count per index run, one idle sample per worker
  // sleep.
  Counter* tasks_metric_ = nullptr;
  Histogram* idle_metric_ = nullptr;

  std::mutex caller_mu_;  // held by the external caller whose job is open
  // Guards job_, generation_, stopping_ and the open job's active/error.
  std::mutex mu_;
  std::condition_variable wake_cv_;  // a job was opened, or shutdown
  std::condition_variable done_cv_;  // a worker left the open job
  Job* job_ = nullptr;               // the open job; null between jobs
  uint64_t generation_ = 0;          // bumped per opened job
  bool stopping_ = false;

  // Last, so the workers start after everything they read exists.
  std::vector<std::thread> workers_;
};

}  // namespace rasa

#endif  // RASA_COMMON_THREAD_POOL_H_
