#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/metrics.h"
#include "common/timer.h"

namespace rasa {
namespace {

// True while the current thread runs a ParallelFor index (of any pool); a
// ParallelFor issued then runs inline instead of waiting for a pool whose
// threads may all be inside the enclosing job.
thread_local bool tls_in_task = false;

}  // namespace

struct ThreadPool::Job {
  Job(const std::function<void(int)>& f, int count) : fn(&f), n(count) {}

  const std::function<void(int)>* fn;
  int n;
  std::atomic<int> next{0};  // the next unclaimed index
  int active = 0;            // workers inside the job
  std::exception_ptr error;  // the first exception thrown
};

int ThreadPool::DefaultNumThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(int num_threads) {
  MetricRegistry& registry = MetricRegistry::Default();
  tasks_metric_ = &registry.GetCounter("threadpool.tasks_executed");
  idle_metric_ = &registry.GetHistogram("threadpool.idle_seconds");
  const int n = std::max(1, num_threads);
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::RunIndices(Job& job) {
  const bool was_in_task = tls_in_task;
  tls_in_task = true;
  for (int i = job.next.fetch_add(1, std::memory_order_relaxed); i < job.n;
       i = job.next.fetch_add(1, std::memory_order_relaxed)) {
    try {
      (*job.fn)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!job.error) job.error = std::current_exception();
    }
    tasks_metric_->Increment();
  }
  tls_in_task = was_in_task;
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  for (;;) {
    const Stopwatch idle_timer;
    Job* job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_cv_.wait(lock, [&]() {
        return stopping_ || (job_ != nullptr && generation_ != seen);
      });
      if (stopping_) return;
      seen = generation_;
      job = job_;
      ++job->active;
    }
    idle_metric_->Observe(idle_timer.ElapsedSeconds());
    RunIndices(*job);
    // The caller frees the job once `active` drops to zero, so this is the
    // worker's last touch of it.
    std::lock_guard<std::mutex> lock(mu_);
    if (--job->active == 0) done_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  Job job(fn, n);
  // A single index needs no workers; a nested call must not wait for them.
  if (n == 1 || tls_in_task) {
    RunIndices(job);
  } else {
    const std::lock_guard<std::mutex> turn(caller_mu_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      ++generation_;
    }
    wake_cv_.notify_all();
    RunIndices(job);
    // Close the job to late wakers, then wait out the workers inside it.
    std::unique_lock<std::mutex> lock(mu_);
    job_ = nullptr;
    done_cv_.wait(lock, [&]() { return job.active == 0; });
  }
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace rasa
