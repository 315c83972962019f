#include "common/thread_pool.hpp"

#include <sched.h>

#include <algorithm>

#include "common/assert.hpp"

namespace pgxd {
namespace {

// Idle workers poll the generation counter this many times before parking:
// about 54 us of pause instructions on a 4-core Xeon host, long enough to
// cover the gap between two back-to-back kernels on the caller's thread.
constexpr int kSpinPolls = 1 << 11;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  threads_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  wake_workers();
  for (auto& t : threads_) t.join();
}

void ThreadPool::wake_workers() {
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
}

void ThreadPool::submit(std::function<void()> task) {
  PGXD_CHECK(task != nullptr);
  if (threads_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  wake_workers();
}

bool ThreadPool::run_one() {
  std::function<void()> task;
  {
    std::lock_guard lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  task();
  {
    std::lock_guard lock(mu_);
    PGXD_CHECK(in_flight_ > 0);
    --in_flight_;
    if (in_flight_ == 0) idle_cv_.notify_all();
  }
  return true;
}

void ThreadPool::fork_join(std::size_t count, JobFn fn, void* ctx) {
  job_fn_ = fn;
  job_ctx_ = ctx;
  job_count_ = count;
  job_next_.store(0, std::memory_order_relaxed);
  job_open_.store(true, std::memory_order_seq_cst);
  wake_workers();
  for (std::size_t i = job_next_.fetch_add(1, std::memory_order_relaxed);
       i < count; i = job_next_.fetch_add(1, std::memory_order_relaxed))
    fn(ctx, i);
  // A worker counts itself in job_busy_ before it looks at job_open_, so
  // once the job is closed and job_busy_ reads zero no worker can still be
  // inside it (both sides seq_cst: one of them sees the other's write).
  // Like an idle worker, the caller spins briefly on a straggler, then
  // parks until the last one out wakes it.
  job_open_.store(false, std::memory_order_seq_cst);
  for (int polls = 0;;) {
    const unsigned busy = job_busy_.load(std::memory_order_seq_cst);
    if (busy == 0) break;
    if (++polls < kSpinPolls)
      cpu_relax();
    else
      job_busy_.wait(busy, std::memory_order_seq_cst);
  }
}

void ThreadPool::join_job() {
  if (!job_open_.load(std::memory_order_acquire)) return;
  job_busy_.fetch_add(1, std::memory_order_seq_cst);
  if (job_open_.load(std::memory_order_seq_cst)) {
    const JobFn fn = job_fn_;
    void* const ctx = job_ctx_;
    const std::size_t count = job_count_;
    for (std::size_t i = job_next_.fetch_add(1, std::memory_order_relaxed);
         i < count; i = job_next_.fetch_add(1, std::memory_order_relaxed))
      fn(ctx, i);
  }
  if (job_busy_.fetch_sub(1, std::memory_order_release) == 1)
    job_busy_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    // Read the generation before looking for work, so a job or task
    // published after the look changes it and the wait below falls through.
    const std::uint32_t seen = epoch_.load(std::memory_order_acquire);
    join_job();
    while (run_one()) {
    }
    if (stop_.load(std::memory_order_acquire)) return;  // queue drained
    bool changed = false;
    for (int polls = 0; polls < kSpinPolls && !changed; ++polls) {
      cpu_relax();
      changed = epoch_.load(std::memory_order_acquire) != seen;
    }
    if (!changed) epoch_.wait(seen, std::memory_order_acquire);
  }
}

void ThreadPool::wait_idle() {
  // Help drain the queue so waiting makes progress on any worker count.
  while (run_one()) {
  }
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::run_all(std::vector<std::function<void()>> tasks) {
  if (threads_.empty()) {
    for (auto& t : tasks) t();
    return;
  }
  for (auto& t : tasks) submit(std::move(t));
  wait_idle();
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t pieces,
                              const std::function<void(std::size_t, std::size_t)>& body) {
  PGXD_CHECK(end >= begin);
  const std::size_t n = end - begin;
  if (n == 0) return;
  pieces = std::clamp<std::size_t>(pieces, 1, n);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(pieces);
  for (std::size_t p = 0; p < pieces; ++p) {
    const std::size_t lo = begin + n * p / pieces;
    const std::size_t hi = begin + n * (p + 1) / pieces;
    if (lo == hi) continue;
    tasks.push_back([&body, lo, hi] { body(lo, hi); });
  }
  run_all(std::move(tasks));
}

unsigned host_pool_workers() {
  unsigned cpus = 0;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    cpus = static_cast<unsigned>(CPU_COUNT(&set));
  if (cpus == 0) cpus = std::thread::hardware_concurrency();
  cpus = std::clamp(cpus, 1u, 8u);
  return cpus - 1;
}

ThreadPool& host_pool() {
  static ThreadPool pool(host_pool_workers());
  return pool;
}

}  // namespace pgxd
