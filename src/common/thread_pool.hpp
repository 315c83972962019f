// Minimal thread pool for the shared-memory sorting library.
//
// Two ways in. The index-based run_all(count, body) is the fork-join hot
// path: the caller publishes one job, workers that are spinning (or parked)
// on a generation counter join it, everyone claims indices through a shared
// atomic cursor, and the caller returns once every joined worker has left.
// No allocation, no mutex and no condition variable on that path: a
// round trip costs about a microsecond while workers still spin
// (BM_RunAllRoundTrip) and one futex wake once they have parked; a caller
// left waiting on a straggler parks the same way. submit()/wait_idle()
// keep a mutex-protected FIFO for coarse task graphs that submit from
// tasks.
//
// A pool of size 0 executes everything inline on the caller, which is also
// the degenerate path used when callers pass no pool at all.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace pgxd {

class ThreadPool {
 public:
  // `threads` counts *extra* workers; 0 means run everything inline.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

  // Enqueues a task. Tasks must not throw.
  void submit(std::function<void()> task);

  // Blocks until every submitted task has finished. The caller participates
  // by draining the queue, so wait() makes progress even with 0 workers.
  void wait_idle();

  // Runs all tasks and waits; inline when the pool has no workers.
  void run_all(std::vector<std::function<void()>> tasks);

  // Index-based fork-join for the sorting hot path: runs body(i) for every
  // i in [0, count) across the workers and the caller, then waits. `body`
  // must be safe to invoke concurrently for distinct indices and must not
  // throw. Runs inline when count <= 1, when the pool has no workers, and
  // when another fork-join job already holds the pool (a nested call from
  // inside a body, or a second host thread): the result never depends on
  // how many threads took part.
  template <typename F>
  void run_all(std::size_t count, F&& body) {
    using Fn = std::remove_reference_t<F>;
    if (count == 0) return;
    if (count == 1 || threads_.empty() ||
        job_claimed_.exchange(true, std::memory_order_acquire)) {
      for (std::size_t i = 0; i < count; ++i) body(i);
      return;
    }
    fork_join(count,
              [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); },
              const_cast<std::remove_const_t<Fn>*>(std::addressof(body)));
    job_claimed_.store(false, std::memory_order_release);
  }

  // Splits [begin, end) into roughly `pieces` contiguous chunks and runs
  // body(chunk_begin, chunk_end) for each, in parallel, then waits.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t pieces,
                    const std::function<void(std::size_t, std::size_t)>& body);

 private:
  using JobFn = void (*)(void*, std::size_t);

  void worker_loop();
  bool run_one();  // returns false if the queue was empty
  // Publishes the job, runs the caller's share, waits out joined workers.
  // Requires the claimed job slot (job_claimed_).
  void fork_join(std::size_t count, JobFn fn, void* ctx);
  // Worker side: runs indices of the open job, if any.
  void join_job();
  // Bumps the generation counter and wakes parked workers.
  void wake_workers();

  std::mutex mu_;  // pgxd-lock-order: pool-queue rank 10
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  // queued + executing
  std::atomic<bool> stop_{false};

  // Fork-join job slot. A caller claims it by flipping job_claimed_ from
  // false to true (a caller that finds it taken runs inline) and frees it
  // once the job has drained. The plain fields are written by the caller
  // before job_open_ is set and read by workers only after seeing it set,
  // while counted in job_busy_; the caller clears job_open_ and waits for
  // job_busy_ to drain before it returns or publishes the next job.
  std::atomic<bool> job_claimed_{false};
  JobFn job_fn_ = nullptr;
  void* job_ctx_ = nullptr;
  std::size_t job_count_ = 0;
  std::atomic<std::size_t> job_next_{0};
  std::atomic<bool> job_open_{false};
  std::atomic<unsigned> job_busy_{0};

  // Generation counter: every submit, job and stop bumps it; idle workers
  // spin on it briefly, then park in std::atomic::wait.
  std::atomic<std::uint32_t> epoch_{0};
  std::vector<std::thread> threads_;
};

// Worker count for the process-wide host pool: the CPUs in this process's
// affinity mask, capped at 8, minus the calling thread.
unsigned host_pool_workers();

// The process-wide host pool that the sorter's large per-rank kernels and
// result validation run on. Created on first use.
ThreadPool& host_pool();

}  // namespace pgxd
