// Minimal fork-join thread pool for deterministic fan-out parallelism.
//
// The budgeted sweeps evaluate waves of independent items; ParallelFor
// runs one closure per index across the pool's workers plus the calling
// thread and returns when every index has completed. Scheduling order is
// nondeterministic, so callers that need deterministic results must make
// the closure for index i write only to slot i and do any order-sensitive
// reduction themselves after ParallelFor returns (see common/waves.h for
// the wave driver the sweeps use).

#ifndef MDC_COMMON_THREAD_POOL_H_
#define MDC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mdc {

class ThreadPool {
 public:
  // Spawns `threads - 1` workers; the caller participates in every
  // ParallelFor, so the pool executes on `threads` threads total.
  // threads <= 1 spawns nothing and ParallelFor degenerates to a serial
  // loop on the calling thread.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Threads that execute a ParallelFor (workers + the caller).
  int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

  // Runs fn(0) .. fn(count - 1), each exactly once, and blocks until all
  // have returned. `fn` must be thread-safe across indices and must not
  // throw. Reentrant calls (fn itself calling ParallelFor) are not
  // supported.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

  // threads <= 0 means "use the hardware": hardware_concurrency with a
  // floor of 1. Positive values pass through.
  static int ResolveThreadCount(int threads);

 private:
  // One fan-out. Workers hold the job via shared_ptr so a worker that wakes
  // late touches its own (already exhausted) claim counter rather than a
  // reused slot — `next` claims indices, `done` counts completions.
  struct Job {
    const std::function<void(size_t)>* fn = nullptr;
    size_t count = 0;
    std::atomic<size_t> next{0};
    std::mutex mu;
    std::condition_variable done_cv;
    size_t done = 0;  // Guarded by mu.
  };

  static void RunJob(Job& job);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::shared_ptr<Job> job_;  // Guarded by mu_.
  uint64_t generation_ = 0;   // Guarded by mu_; bumped per ParallelFor.
  bool shutdown_ = false;     // Guarded by mu_.
  std::vector<std::thread> workers_;
};

}  // namespace mdc

#endif  // MDC_COMMON_THREAD_POOL_H_
