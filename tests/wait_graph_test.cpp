// Tests for the runtime wait-for graph: edge/hold bookkeeping and the
// conservative deadlock verdict at the unit level, then the Comm/Cluster
// integration — blocking receives and barriers bracket their suspension
// with wait edges, timed waits never register (so recovery paths cannot
// false-abort), and the deterministic blocked-receive report names stuck
// ranks sorted by rank then tag.
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "runtime/cluster.hpp"
#include "sim/wait_graph.hpp"

namespace pgxd {
namespace {

using rt::Cluster;
using rt::ClusterConfig;
using rt::Machine;
using sim::WaitGraph;
using sim::WaitResource;

// --- WaitGraph unit behaviour -----------------------------------------------

TEST(WaitGraph, BlockedCountsDistinctRanksNotEdges) {
  WaitGraph g;
  g.process_spawned(0);
  g.process_spawned(1);
  g.process_spawned(2);  // never blocks, so detection cannot trigger
  const auto t0 = g.begin_wait(0, WaitResource::mailbox(0, 3));
  const auto t1 = g.begin_wait(0, WaitResource::mailbox(0, 4));
  EXPECT_EQ(g.blocked(), 1u);  // two edges, one rank
  const auto t2 = g.begin_wait(1, WaitResource::barrier());
  EXPECT_EQ(g.blocked(), 2u);
  g.end_wait(t0);
  EXPECT_EQ(g.blocked(), 2u);  // rank 0 still holds its second edge
  g.end_wait(t1);
  EXPECT_EQ(g.blocked(), 1u);
  g.end_wait(t2);
  EXPECT_EQ(g.blocked(), 0u);

  const auto& st = g.stats();
  EXPECT_EQ(st.mailbox_waits, 2u);
  EXPECT_EQ(st.barrier_waits, 1u);
  EXPECT_EQ(st.pool_waits, 0u);
  EXPECT_EQ(st.max_blocked, 2u);
  EXPECT_EQ(st.deadlocks, 0u);
}

TEST(WaitGraph, AnnotationEdgesNeverCountTowardBlockedness) {
  WaitGraph g;
  g.process_spawned(0);
  const auto t = g.begin_wait(0, WaitResource::pool(), /*annotation=*/true);
  EXPECT_EQ(g.blocked(), 0u);
  // Every live process "blocked" would otherwise be true here with an
  // absent probe — annotation edges must not establish a deadlock.
  EXPECT_FALSE(g.deadlock().has_value());
  EXPECT_EQ(g.stats().pool_waits, 1u);
  g.end_wait(t);
}

TEST(WaitGraph, TokensAreRecycledAfterEndWait) {
  WaitGraph g;
  g.process_spawned(0);
  g.process_spawned(1);  // keeps detection from firing mid-test
  const auto a = g.begin_wait(0, WaitResource::mailbox(0, 1));
  g.end_wait(a);
  const auto b = g.begin_wait(0, WaitResource::mailbox(0, 2));
  EXPECT_EQ(b, a);  // free-listed slot reused
  g.end_wait(b);
}

TEST(WaitGraph, EndWaitTwiceDies) {
  WaitGraph g;
  g.process_spawned(0);
  g.process_spawned(1);
  const auto t = g.begin_wait(0, WaitResource::mailbox(0, 1));
  g.end_wait(t);
  EXPECT_DEATH(g.end_wait(t), "inactive wait edge");
}

TEST(WaitGraph, HoldsAreCountedAndOverRemoveIsHarmless) {
  WaitGraph g;
  g.process_spawned(0);
  g.process_spawned(1);
  const auto pool = WaitResource::pool();
  g.add_hold(pool, 1);
  g.add_hold(pool, 1);
  g.remove_hold(pool, 1);
  g.remove_hold(pool, 1);
  g.remove_hold(pool, 1);  // below zero: no-op (duplicate-chunk returns)
  g.remove_hold(pool, 7);  // never held: no-op
  EXPECT_EQ(g.stats().holds_added, 2u);

  // With all holds gone, a full wedge names no cycle but still trips.
  const auto t0 = g.begin_wait(0, pool);
  const auto t1 = g.begin_wait(1, pool);
  (void)t0;
  (void)t1;
  ASSERT_TRUE(g.deadlock().has_value());
  EXPECT_TRUE(g.deadlock()->cycle_ranks.empty());
  EXPECT_NE(g.deadlock()->description.find("no hold edges close a cycle"),
            std::string::npos);
}

TEST(WaitGraph, DetectsWedgeAndNamesTheCycleFromHolds) {
  WaitGraph g;
  g.process_spawned(0);
  g.process_spawned(1);
  // 0 waits on its mailbox, which only 1 can fill; symmetrically for 1.
  g.add_hold(WaitResource::mailbox(0, 3), 1);
  g.add_hold(WaitResource::mailbox(1, 3), 0);
  std::optional<WaitGraph::Deadlock> seen;
  g.set_on_deadlock([&](const WaitGraph::Deadlock& d) { seen = d; });
  g.begin_wait(0, WaitResource::mailbox(0, 3));
  EXPECT_FALSE(seen.has_value());  // rank 1 still live and runnable
  g.begin_wait(1, WaitResource::mailbox(1, 3));
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->blocked, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(seen->cycle_ranks, (std::vector<std::size_t>{0, 1}));
  EXPECT_NE(seen->description.find("wait-for cycle"), std::string::npos);
  EXPECT_NE(seen->description.find("mailbox(rank 0, tag 3)"),
            std::string::npos);
  EXPECT_EQ(g.stats().deadlocks, 1u);
}

TEST(WaitGraph, CycleNamingIsByteStable) {
  // Ranks spawned, held and blocked out of order; the walk starts at the
  // lowest blocked rank and follows the lowest blocked holder each hop.
  WaitGraph g;
  for (std::size_t r : {9u, 2u, 5u, 0u}) g.process_spawned(r);
  g.add_hold(WaitResource::mailbox(2, 43), 9);
  g.add_hold(WaitResource::mailbox(2, 43), 5);  // lower holder wins the hop
  g.add_hold(WaitResource::mailbox(5, 3), 9);
  g.add_hold(WaitResource::mailbox(9, 1), 2);
  g.add_hold(WaitResource::barrier(), 0);  // 0 never blocks: not a holder
  g.add_hold(WaitResource::barrier(), 2);
  g.process_done(0);
  g.begin_wait(9, WaitResource::mailbox(9, 1));
  g.begin_wait(5, WaitResource::mailbox(5, 3));
  g.begin_wait(5, WaitResource::pool(), /*annotation=*/true);
  g.begin_wait(2, WaitResource::mailbox(2, 43));
  ASSERT_TRUE(g.deadlock().has_value());
  const auto& d = *g.deadlock();
  EXPECT_EQ(d.blocked, (std::vector<std::size_t>{2, 5, 9}));
  EXPECT_EQ(d.cycle_ranks, (std::vector<std::size_t>{2, 5, 9}));
  EXPECT_EQ(d.description,
            "wait-for cycle: rank 2 waits on mailbox(rank 2, tag 43) <- held "
            "by rank 5; rank 5 waits on mailbox(rank 5, tag 3) [also blocked "
            "on buffer-pool 0] <- held by rank 9; rank 9 waits on "
            "mailbox(rank 9, tag 1) <- held by rank 2; blocked receives: "
            "rank 2 waits on tag 43 (1 recv); rank 5 waits on tag 3 (1 recv) "
            "[also blocked on buffer-pool 0]; rank 9 waits on tag 1 (1 recv)");
}

TEST(WaitGraph, SatisfiableProbeVetoesTheVerdict) {
  WaitGraph g;
  g.process_spawned(0);
  bool satisfiable = true;
  g.set_satisfiable_probe([&](const WaitResource&) { return satisfiable; });
  const auto t = g.begin_wait(0, WaitResource::mailbox(0, 9));
  EXPECT_FALSE(g.deadlock().has_value());  // a message is still in flight
  EXPECT_EQ(g.stats().deadlock_checks, 1u);
  g.end_wait(t);
  satisfiable = false;
  g.begin_wait(0, WaitResource::mailbox(0, 9));
  EXPECT_TRUE(g.deadlock().has_value());
}

TEST(WaitGraph, ProcessCompletionTriggersDetection) {
  WaitGraph g;
  g.process_spawned(0);
  g.process_spawned(1);
  g.begin_wait(0, WaitResource::mailbox(0, 2));
  EXPECT_FALSE(g.deadlock().has_value());
  g.process_done(1);  // the last runnable process exits: 0 can never wake
  EXPECT_TRUE(g.deadlock().has_value());
}

TEST(WaitGraph, RespawnRevivesACompletedProcess) {
  WaitGraph g;
  g.process_spawned(0);
  g.process_spawned(1);
  g.process_done(1);
  EXPECT_EQ(g.live(), 1u);
  g.process_spawned(1);  // recovery attempts re-run ranks
  EXPECT_EQ(g.live(), 2u);
  g.process_spawned(1);  // idempotent while live
  EXPECT_EQ(g.live(), 2u);
}

TEST(WaitGraph, ReportSortsByRankThenResourceAndBracketsAnnotations) {
  WaitGraph g;
  g.process_spawned(2);
  g.process_spawned(0);
  g.process_spawned(9);  // live spare: no detection during setup
  // Registered deliberately out of order.
  g.begin_wait(2, WaitResource::mailbox(2, 9));
  g.begin_wait(2, WaitResource::mailbox(2, 3));
  g.begin_wait(0, WaitResource::barrier());
  g.begin_wait(2, WaitResource::pool(), /*annotation=*/true);
  EXPECT_EQ(g.report(),
            " rank 0 waits on the barrier;"
            " rank 2 waits on tag 3 (1 recv) [also blocked on buffer-pool 0];"
            " rank 2 waits on tag 9 (1 recv)");
}

TEST(WaitGraph, EmptyReportSaysNone) {
  WaitGraph g;
  EXPECT_EQ(g.report(), " (none)");
}

// --- Comm/Cluster integration -----------------------------------------------

ClusterConfig tiny_cluster(std::size_t machines) {
  ClusterConfig cfg;
  cfg.machines = machines;
  cfg.threads_per_machine = 4;
  cfg.net.link_bandwidth_Bps = 1e9;
  cfg.net.latency = 100;
  cfg.net.per_message_overhead = 10;
  return cfg;
}

TEST(WaitGraphIntegration, BlockingRecvBracketsItsSuspension) {
  Cluster<std::vector<int>> cluster(tiny_cluster(2));
  cluster.run([&](Machine& m) -> sim::Task<void> {
    auto& comm = cluster.comm();
    if (m.rank() == 0) {
      co_await cluster.simulator().delay(500);
      comm.post(0, 1, /*tag=*/7, {1}, 4);
    } else {
      auto msg = co_await comm.recv(1, 7);  // parks until t=500+wire
      EXPECT_EQ(msg.payload[0], 1);
    }
    co_return;
  });
  const auto& st = cluster.wait_graph().stats();
  EXPECT_EQ(st.mailbox_waits, 1u);
  EXPECT_EQ(st.max_blocked, 1u);
  EXPECT_EQ(st.deadlocks, 0u);
  EXPECT_EQ(cluster.wait_graph().blocked(), 0u);  // edge unregistered
}

TEST(WaitGraphIntegration, ImmediatelyReadyRecvRegistersNothing) {
  Cluster<std::vector<int>> cluster(tiny_cluster(1));
  cluster.run([&](Machine&) -> sim::Task<void> {
    auto& comm = cluster.comm();
    comm.post(0, 0, /*tag=*/1, {5}, 4);  // local: delivered instantly
    auto msg = co_await comm.recv(0, 1);
    EXPECT_EQ(msg.payload[0], 5);
    co_return;
  });
  EXPECT_EQ(cluster.wait_graph().stats().mailbox_waits, 0u);
}

TEST(WaitGraphIntegration, TimedRecvNeverRegistersOrFalseAborts) {
  // Every rank parked in a deadline-bounded receive with nothing in flight
  // is the recovery-path steady state; it must neither count as blocked
  // nor trip the detector (this run would abort if it did).
  Cluster<std::vector<int>> cluster(tiny_cluster(2));
  std::size_t timeouts = 0;
  cluster.run([&](Machine& m) -> sim::Task<void> {
    auto msg = co_await cluster.comm().recv_until(m.rank(), /*tag=*/4,
                                                  /*deadline=*/2000);
    if (!msg.has_value()) ++timeouts;
    co_return;
  });
  EXPECT_EQ(timeouts, 2u);
  const auto& st = cluster.wait_graph().stats();
  EXPECT_EQ(st.mailbox_waits, 0u);
  EXPECT_EQ(st.max_blocked, 0u);
  EXPECT_EQ(st.deadlocks, 0u);
}

TEST(WaitGraphIntegration, BarrierWaitsAreTypedEdges) {
  Cluster<int> cluster(tiny_cluster(3));
  cluster.run([&](Machine& m) -> sim::Task<void> {
    co_await m.compute(static_cast<sim::SimTime>(100 * (m.rank() + 1)));
    co_await cluster.comm().barrier(m.rank());
  });
  const auto& st = cluster.wait_graph().stats();
  // The last arrival passes straight through; the two early ranks park.
  EXPECT_EQ(st.barrier_waits, 2u);
  EXPECT_EQ(st.deadlocks, 0u);
  EXPECT_EQ(cluster.wait_graph().blocked(), 0u);
}

TEST(WaitGraphIntegration, CrossRankWedgeAbortsWithSortedBlockedList) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto doomed = [] {
    Cluster<std::vector<int>> cluster(tiny_cluster(2));
    cluster.run([&cluster](Machine& m) -> sim::Task<void> {
      // Each rank waits for the other; nobody ever sends.
      co_await cluster.comm().recv(m.rank(), /*tag=*/6);
    });
  };
  // The abort happens the instant the second rank parks, and the blocked
  // listing is deterministic: rank 0 before rank 1.
  EXPECT_DEATH(doomed(),
               "deadlocked.*rank 0 waits on tag 6.*rank 1 waits on tag 6");
}

// --- Comm::blocked_report ----------------------------------------------------

TEST(BlockedReport, SortsByRankThenTag) {
  Cluster<std::vector<int>> cluster(tiny_cluster(3));
  std::string mid_run;
  cluster.run([&](Machine& m) -> sim::Task<void> {
    auto& comm = cluster.comm();
    if (m.rank() == 0) {
      co_await cluster.simulator().delay(1000);  // let the others park
      mid_run = comm.blocked_report();
      comm.post(0, 1, 5, {1}, 4);
      comm.post(0, 2, 3, {1}, 4);
    } else if (m.rank() == 1) {
      co_await comm.recv(1, 5);
    } else {
      co_await comm.recv(2, 3);
    }
    co_return;
  });
  // Rank-major order: rank 1 lists first even though its tag (5) sorts
  // after rank 2's tag (3).
  EXPECT_EQ(mid_run,
            " rank 1 waits on tag 5 (1 recv)"
            " rank 2 waits on tag 3 (1 recv)");
}

TEST(BlockedReport, ListsEveryWaitingTagOfARankInTagOrder) {
  Cluster<std::vector<int>> cluster(tiny_cluster(3));
  std::string comm_report;
  std::string graph_report;
  cluster.run([&](Machine& m) -> sim::Task<void> {
    auto& comm = cluster.comm();
    if (m.rank() == 0) {
      // A second receiver on rank 2's mailbox, at a tag below the first.
      cluster.simulator().spawn([](rt::Comm<std::vector<int>>& c)
                                    -> sim::Task<void> {
        co_await c.recv(2, 4);
      }(comm));
      co_await cluster.simulator().delay(1000);  // let the others park
      comm_report = comm.blocked_report();
      graph_report = cluster.wait_graph().report();
      comm.post(0, 2, 43, {1}, 4);
      comm.post(0, 2, 4, {1}, 4);
      comm.post(0, 1, 0, {1}, 4);
    } else if (m.rank() == 1) {
      co_await comm.recv(1, 0);
    } else {
      co_await comm.recv(2, 43);
    }
    co_return;
  });
  EXPECT_EQ(comm_report,
            " rank 1 waits on tag 0 (1 recv)"
            " rank 2 waits on tag 4 (1 recv)"
            " rank 2 waits on tag 43 (1 recv)");
  EXPECT_EQ(graph_report,
            " rank 1 waits on tag 0 (1 recv);"
            " rank 2 waits on tag 4 (1 recv);"
            " rank 2 waits on tag 43 (1 recv)");
}

TEST(StrayReport, NamesUndrainedMailboxesByRankThenTag) {
  ClusterConfig cfg = tiny_cluster(3);
  cfg.allow_undrained = true;
  Cluster<std::vector<int>> cluster(cfg);
  cluster.run([&](Machine& m) -> sim::Task<void> {
    auto& comm = cluster.comm();
    if (m.rank() == 2) {
      comm.post(2, 2, 40, {1}, 4);
      comm.post(2, 2, 1, {1}, 4);
      comm.post(2, 0, 5, {1}, 4);
      comm.post(2, 0, 5, {2}, 4);
    }
    co_return;
  });
  const auto& comm = cluster.comm();
  EXPECT_EQ(comm.stray_report(),
            " rank 0 tag 5 (2 msg) rank 2 tag 1 (1 msg) rank 2 tag 40 (1 msg)");
  EXPECT_EQ(comm.total_pending(), 4u);
  EXPECT_EQ(comm.pending_total(0), 2u);
  EXPECT_EQ(comm.pending_total(1), 0u);
}

TEST(BlockedReport, NamesRanksStuckAtTheBarrier) {
  Cluster<int> cluster(tiny_cluster(3));
  std::string mid_run;
  cluster.run([&](Machine& m) -> sim::Task<void> {
    if (m.rank() == 1) {
      co_await cluster.simulator().delay(750);
      mid_run = cluster.comm().blocked_report();
    }
    co_await cluster.comm().barrier(m.rank());
  });
  EXPECT_EQ(mid_run, " [2 rank(s) stuck at the barrier: 0 2]");
}

TEST(BlockedReport, SaysNoneWhenNothingWaits) {
  Cluster<int> cluster(tiny_cluster(2));
  std::string mid_run;
  cluster.run([&](Machine& m) -> sim::Task<void> {
    if (m.rank() == 0) mid_run = cluster.comm().blocked_report();
    co_return;
  });
  EXPECT_EQ(mid_run, " (none — processes are blocked elsewhere)");
}

}  // namespace
}  // namespace pgxd
