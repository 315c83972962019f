// Microbenchmarks (google-benchmark) of the simulation substrate itself:
// DES event throughput, root reclaim, same-instant wake-ups, channel
// handoffs, and fabric transfer modeling.
// These bound how large a cluster/problem the figure benches can sweep.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "net/fabric.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace {

using namespace pgxd::sim;

Task<void> delay_chain(Simulator& sim, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim.delay(1);
}

void BM_SimDelayEvents(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    sim.spawn(delay_chain(sim, hops));
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * hops);
}
BENCHMARK(BM_SimDelayEvents)->Arg(1 << 10)->Arg(1 << 14);

Task<void> sleep_for(Simulator& sim, SimTime dt) { co_await sim.delay(dt); }

// Root reclaim: n roots finishing in a scrambled order (an odd multiplier
// permutes 0..n-1 for power-of-two n), so each reclaimed frame sits at an
// arbitrary position of the simulator's root table — the shape of a large
// sort, where every asynchronous post is its own short-lived root.
void BM_SimReclaimManyRoots(benchmark::State& state) {
  const auto roots = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    for (std::uint64_t i = 0; i < roots; ++i)
      sim.spawn(sleep_for(sim, static_cast<SimTime>((i * 40503) % roots)));
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(roots));
}
BENCHMARK(BM_SimReclaimManyRoots)->Arg(1 << 16);

Task<void> yield_hops(Simulator& sim, int hops) {
  for (int i = 0; i < hops; ++i) co_await sim.delay(0);
}

// Same-instant wake-ups behind a large timer queue: n sleepers park at
// distinct future instants (set-up, untimed), then one process yields n
// times at t=0. Only the yields are timed: each is a same-instant event
// the queue must order against the n pending timers.
void BM_SimSameInstantWakeups(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    {
      Simulator sim;
      for (int i = 0; i < n; ++i) sim.spawn(sleep_for(sim, 1 + i));
      sim.run_until(0);
      sim.spawn(yield_hops(sim, n));
      state.ResumeTiming();
      sim.run_until(0);
      state.PauseTiming();
      benchmark::DoNotOptimize(sim.events_processed());
    }  // the parked sleepers are destroyed untimed
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SimSameInstantWakeups)->Arg(1 << 16);

Task<void> ping(Simulator&, Channel<int>& tx, Channel<int>& rx, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    tx.send(i);
    (void)co_await rx.recv();
  }
}

Task<void> pong(Simulator&, Channel<int>& rx, Channel<int>& tx, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    int v = co_await rx.recv();
    tx.send(v);
  }
}

void BM_ChannelPingPong(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    Channel<int> a(sim), b(sim);
    sim.spawn(ping(sim, a, b, rounds));
    sim.spawn(pong(sim, a, b, rounds));
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * rounds);
}
BENCHMARK(BM_ChannelPingPong)->Arg(1 << 10)->Arg(1 << 13);

pgxd::sim::Task<void> all_to_all(Simulator& sim, pgxd::net::Fabric& fab,
                                 std::size_t rank, std::size_t machines,
                                 std::uint64_t bytes) {
  for (std::size_t step = 1; step < machines; ++step) {
    const std::size_t dst = (rank + step) % machines;
    co_await fab.transfer(rank, dst, bytes);
  }
  (void)sim;
}

void BM_FabricAllToAll(benchmark::State& state) {
  const auto machines = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    pgxd::net::Fabric fab(sim, machines, pgxd::net::NetConfig{});
    for (std::size_t r = 0; r < machines; ++r)
      sim.spawn(all_to_all(sim, fab, r, machines, 256 * 1024));
    sim.run();
    benchmark::DoNotOptimize(fab.total_bytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(machines * (machines - 1)));
}
BENCHMARK(BM_FabricAllToAll)->Arg(8)->Arg(32)->Arg(52);

}  // namespace

BENCHMARK_MAIN();
