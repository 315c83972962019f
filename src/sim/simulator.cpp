#include "sim/simulator.hpp"

#include <cstddef>
#include <cstdio>
#include <cstdlib>

namespace pgxd::sim {

namespace {
// The simulator whose step() is currently on the stack. Single-threaded
// simulation; thread_local only so independent simulators on different
// threads don't interfere.
thread_local Simulator* g_current_simulator = nullptr;
}  // namespace

Simulator* Simulator::current() { return g_current_simulator; }

namespace detail {

void PromiseBase::reclaim_root(Simulator* sim, PromiseBase& promise) {
  sim->reclaim(promise);
}

void PromiseBase::schedule_continuation(std::coroutine_handle<> c) {
  Simulator* sim = Simulator::current();
  PGXD_CHECK_MSG(sim != nullptr,
                 "a sim::Task completed outside of a simulator step");
  sim->schedule_now(c);
}

}  // namespace detail

Simulator::~Simulator() {
  // Destroy still-suspended root frames (their nested child frames are
  // destroyed transitively through the Task members they hold).
  for (auto h : roots_)
    if (h) h.destroy();
}

void Simulator::schedule_at(SimTime at, std::coroutine_handle<> h) {
  enqueue(at, h, /*cancellable=*/false);
}

std::uint64_t Simulator::schedule_cancellable(SimTime at,
                                              std::coroutine_handle<> h) {
  const std::uint64_t ticket = enqueue(at, h, /*cancellable=*/true);
  cancellable_live_.insert(ticket);
  return ticket;
}

std::uint64_t Simulator::enqueue(SimTime at, std::coroutine_handle<> h,
                                 bool cancellable) {
  PGXD_CHECK_MSG(at >= now_, "scheduling into the past");
  PGXD_CHECK(h != nullptr);
  const std::uint64_t seq = next_seq_++;
  const std::uint64_t key = (seq << 1) | (cancellable ? 1U : 0U);
  if (perturb_.enabled)
    queue_.push(Scheduled{at, perturb_rng_.next(), key, h});
  else if (at == now_)
    lane_.push_back(Scheduled{at, 0, key, h});
  else
    queue_.push(Scheduled{at, 0, key, h});
  return seq;
}

bool Simulator::cancel(std::uint64_t ticket) {
  if (cancellable_live_.erase(ticket) == 0) return false;
  cancelled_.insert(ticket);
  return true;
}

void Simulator::spawn(Task<void> task) {
  auto h = task.release();
  PGXD_CHECK_MSG(h != nullptr, "spawning an empty task");
  h.promise().owner = this;
  h.promise().root_slot = roots_.size();
  roots_.push_back(h);
  ++live_roots_;
  schedule_now(h);
}

void Simulator::reclaim(detail::PromiseBase& promise) {
  if (promise.exception) {
    // A root process died with no awaiter to receive the exception. The
    // simulation state is unreliable from here on; fail loudly.
    try {
      std::rethrow_exception(promise.exception);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sim: unhandled exception in root process: %s\n",
                   e.what());
    } catch (...) {
      std::fprintf(stderr, "sim: unhandled non-standard exception in root process\n");
    }
    std::abort();
  }
  reclaimed_.push_back(&promise);
  PGXD_CHECK(live_roots_ > 0);
  --live_roots_;
}

void Simulator::drain_reclaimed() {
  for (detail::PromiseBase* p : reclaimed_) {
    const std::size_t slot = p->root_slot;
    PGXD_CHECK_MSG(slot < roots_.size() && &roots_[slot].promise() == p,
                   "reclaimed frame is not a known root");
    const RootHandle h = roots_[slot];
    roots_[slot] = roots_.back();
    roots_[slot].promise().root_slot = slot;
    roots_.pop_back();
    h.destroy();
  }
  reclaimed_.clear();
}

void Simulator::step(const Scheduled& ev) {
  now_ = ev.at;
  ++events_processed_;
  Simulator* const prev = g_current_simulator;
  g_current_simulator = this;
  ev.handle.resume();
  g_current_simulator = prev;
  drain_reclaimed();
}

// pop_next and dispatch run once per event; `inline` keeps them (and the
// heap pop) in the loop body, which is worth ~10% on small queues.
inline Simulator::Scheduled Simulator::pop_next() {
  if (!lane_empty() && (queue_.empty() || queue_.top() > lane_[lane_head_])) {
    const Scheduled ev = lane_[lane_head_++];
    if (lane_head_ == lane_.size()) {
      lane_.clear();
      lane_head_ = 0;
    } else if (lane_head_ >= 4096 && 2 * lane_head_ >= lane_.size()) {
      // A long same-instant burst: drop the consumed prefix, so the lane
      // never holds more than twice its live entries.
      lane_.erase(lane_.begin(),
                  lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
      lane_head_ = 0;
    }
    return ev;
  }
  const Scheduled ev = queue_.top();
  queue_.pop();
  return ev;
}

inline void Simulator::dispatch(const Scheduled& ev) {
  if (ev.cancellable()) {
    if (cancelled_.erase(ev.seq()) != 0) return;  // cancelled: never fires
    cancellable_live_.erase(ev.seq());
  }
  step(ev);
}

SimTime Simulator::run() {
  while (has_events() && !stop_requested_) dispatch(pop_next());
  return now_;
}

SimTime Simulator::run_until(SimTime t) {
  PGXD_CHECK(t >= now_);
  while (has_events() && next_at() <= t && !stop_requested_)
    dispatch(pop_next());
  if (!stop_requested_) now_ = t;
  return now_;
}

}  // namespace pgxd::sim
