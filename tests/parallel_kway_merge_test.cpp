// Tests for the single-pass parallel k-way merge: the multisequence
// selection (kway_select), bit-identical agreement with the Fig. 2 pairwise
// tree on both planes (keys AND permutation — provenance rides the perm),
// the cached-head tournament engine against the engine it replaced, and
// the per-range split under a real thread pool (TSan coverage).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sort/balanced_merge.hpp"
#include "sort/kway_merge.hpp"
#include "sort/parallel_kway_merge.hpp"
#include "sort/partition.hpp"
#include "sort/soa_merge.hpp"

namespace pgxd::sort {
namespace {

struct RunSet {
  std::vector<std::uint64_t> keys;
  std::vector<std::size_t> bounds;
};

RunSet make_runs(std::size_t runs, std::size_t max_per_run, std::uint64_t seed,
                 std::uint64_t domain = 1 << 20, bool allow_empty = true) {
  Rng rng(seed);
  RunSet rs;
  rs.bounds.assign(1, 0);
  for (std::size_t r = 0; r < runs; ++r) {
    const std::size_t len =
        allow_empty ? rng.bounded(max_per_run + 1)
                    : 1 + rng.bounded(max_per_run);
    std::vector<std::uint64_t> run(len);
    for (auto& x : run) x = rng.bounded(domain);
    std::sort(run.begin(), run.end());
    rs.keys.insert(rs.keys.end(), run.begin(), run.end());
    rs.bounds.push_back(rs.keys.size());
  }
  return rs;
}

// The tournament engine before it cached node keys (one heap index per
// node, heads read through cursor -> keys, two comp calls per match), kept
// as the oracle the cached-head engine must reproduce: same emitted order,
// same comparison count.
template <typename K, typename Comp, typename Emit>
std::uint64_t legacy_kway_merge_range(const K* keys,
                                      std::span<const std::size_t> bounds,
                                      std::span<std::size_t> cursor,
                                      std::size_t count, Comp comp,
                                      Emit&& emit) {
  const std::size_t runs = bounds.size() - 1;
  std::uint64_t comparisons = 0;
  if (count == 0) return comparisons;
  if (runs == 1) {
    for (std::size_t i = 0; i < count; ++i) emit(cursor[0]++);
    return comparisons;
  }
  const std::size_t k = std::bit_ceil(runs);
  auto exhausted = [&](std::size_t r) {
    return r >= runs || cursor[r] >= bounds[r + 1];
  };
  auto beats = [&](std::size_t a, std::size_t b) {
    if (exhausted(b)) return true;
    if (exhausted(a)) return false;
    ++comparisons;
    if (comp(keys[cursor[a]], keys[cursor[b]])) return true;
    if (comp(keys[cursor[b]], keys[cursor[a]])) return false;
    return a < b;
  };
  std::vector<std::size_t> losers(k, k);
  std::vector<std::size_t> level(k);
  for (std::size_t i = 0; i < k; ++i) level[i] = i;
  for (std::size_t width = k, node_base = k; width > 1;) {
    width /= 2;
    node_base /= 2;
    for (std::size_t i = 0; i < width; ++i) {
      const std::size_t a = level[2 * i], b = level[2 * i + 1];
      const bool a_wins = beats(a, b);
      losers[node_base + i] = a_wins ? b : a;
      level[i] = a_wins ? a : b;
    }
  }
  std::size_t winner = level[0];
  for (std::size_t out = 0; out < count; ++out) {
    emit(cursor[winner]);
    ++cursor[winner];
    for (std::size_t node = (k + winner) / 2; node >= 1; node /= 2)
      if (beats(losers[node], winner)) std::swap(losers[node], winner);
  }
  return comparisons;
}

// Runs both engines over the whole of `rs` and checks the cached-head one
// against the legacy oracle: keys, permutation, comparison count, and that
// every emit(pos, run) names the run holding pos.
void expect_engine_matches_legacy(const RunSet& rs) {
  const std::size_t runs = rs.bounds.size() - 1;
  const std::size_t n = rs.keys.size();
  const std::span<const std::size_t> bspan(rs.bounds);
  std::vector<std::size_t> want_cur(rs.bounds.begin(), rs.bounds.end() - 1);
  std::vector<std::uint32_t> want_perm;
  const auto want_comps = legacy_kway_merge_range(
      rs.keys.data(), bspan, std::span<std::size_t>(want_cur), n, Less{},
      [&](std::size_t pos) {
        want_perm.push_back(static_cast<std::uint32_t>(pos));
      });
  std::vector<std::size_t> cur(rs.bounds.begin(), rs.bounds.end() - 1);
  std::vector<std::uint32_t> perm;
  std::vector<std::uint64_t> keys;
  std::size_t wrong_run = 0;
  const auto comps = kway_merge_range(
      rs.keys.data(), bspan, std::span<std::size_t>(cur), n, Less{},
      [&](std::size_t pos, std::size_t run) {
        perm.push_back(static_cast<std::uint32_t>(pos));
        keys.push_back(rs.keys[pos]);
        if (run >= runs || pos < rs.bounds[run] || pos >= rs.bounds[run + 1])
          ++wrong_run;
      });
  EXPECT_EQ(perm, want_perm);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(comps, want_comps);
  EXPECT_EQ(wrong_run, 0u);
  EXPECT_EQ(cur, want_cur);
}

// Reference: the Fig. 2 pairwise SoA tree, whose output (both planes) the
// parallel k-way merge must reproduce bit for bit.
void reference_merge(const RunSet& rs, std::vector<std::uint64_t>& keys,
                     std::vector<std::uint32_t>& perm) {
  keys = rs.keys;
  perm.resize(keys.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::vector<std::uint64_t> ks;
  std::vector<std::uint32_t> ps;
  auto bounds = rs.bounds;
  const auto res = balanced_merge_soa(keys, perm, std::move(bounds), ks, ps);
  if (res.in_scratch) {
    keys.swap(ks);
    perm.swap(ps);
  }
}

TEST(KwaySelect, PrefixMatchesStableMerge) {
  // cursor(k) must carve exactly the first k elements of the stable merge,
  // ties dealt to the lower run — checked against the reference merge's
  // permutation plane at every 97th rank.
  const RunSet rs = make_runs(7, 600, 11, /*domain=*/64);  // heavy ties
  std::vector<std::uint64_t> mkeys;
  std::vector<std::uint32_t> mperm;
  reference_merge(rs, mkeys, mperm);
  const std::size_t n = rs.keys.size();
  for (std::size_t k = 0; k <= n; k += 97) {
    const auto cur = kway_select(rs.keys.data(), rs.bounds, k);
    std::size_t total = 0;
    for (std::size_t r = 0; r + 1 < rs.bounds.size(); ++r) {
      ASSERT_GE(cur[r], rs.bounds[r]);
      ASSERT_LE(cur[r], rs.bounds[r + 1]);
      total += cur[r] - rs.bounds[r];
    }
    ASSERT_EQ(total, k);
    // The selected set must be exactly the pre-merge positions of the
    // stable merge's first k elements.
    std::vector<bool> selected(n, false);
    for (std::size_t r = 0; r + 1 < rs.bounds.size(); ++r)
      for (std::size_t i = rs.bounds[r]; i < cur[r]; ++i) selected[i] = true;
    for (std::size_t i = 0; i < k; ++i)
      ASSERT_TRUE(selected[mperm[i]]) << "rank " << i << " of prefix " << k;
  }
}

class ParallelKwaySweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(ParallelKwaySweep, BitIdenticalToPairwiseTree) {
  const auto [runs, domain] = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const RunSet rs = make_runs(runs, 1200, seed * 131 + runs, domain);
    std::vector<std::uint64_t> want_keys;
    std::vector<std::uint32_t> want_perm;
    reference_merge(rs, want_keys, want_perm);

    std::vector<std::uint32_t> perm(rs.keys.size());
    std::iota(perm.begin(), perm.end(), 0u);
    for (std::size_t ranges : {std::size_t{1}, std::size_t{4}, std::size_t{7}}) {
      std::vector<std::uint64_t> got_keys;
      std::vector<std::uint32_t> got_perm;
      const auto stats = parallel_kway_merge_soa(
          rs.keys, perm, rs.bounds, got_keys, got_perm, Less{},
          /*pool=*/nullptr, ranges);
      EXPECT_EQ(got_keys, want_keys);
      EXPECT_EQ(got_perm, want_perm);
      EXPECT_EQ(stats.runs, runs);
      EXPECT_LE(stats.ranges, std::max<std::size_t>(1, ranges));
    }
  }
}

TEST_P(ParallelKwaySweep, EngineMatchesLegacyEngine) {
  const auto [runs, domain] = GetParam();
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    expect_engine_matches_legacy(make_runs(runs, 1200, seed * 131 + runs,
                                           domain));
}

INSTANTIATE_TEST_SUITE_P(
    RunsByDomain, ParallelKwaySweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 5, 8, 16, 32,
                                                      52),
                       // full-width, tie-heavy, and single-value keys
                       ::testing::Values(std::uint64_t{1} << 40,
                                         std::uint64_t{40}, std::uint64_t{1})));

TEST(KwayMergeEngine, ManyTinyRunsMatchLegacyEngine) {
  // The scale_p1024 shape: 1024 runs of 4 keys each.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_engine_matches_legacy(make_runs(1024, 4, seed, std::uint64_t{1} << 40,
                                           /*allow_empty=*/false));
    expect_engine_matches_legacy(make_runs(1024, 4, seed, 1 << 12,
                                           /*allow_empty=*/false));
  }
}

TEST(KwayMergeEngine, DupHeavyWithEmptyRunsMatchLegacyEngine) {
  // Few distinct keys across runs of uneven length, every third run empty.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    RunSet rs;
    rs.bounds.assign(1, 0);
    for (std::size_t r = 0; r < 37; ++r) {
      std::vector<std::uint64_t> run(r % 3 == 0 ? 0 : rng.bounded(900));
      for (auto& x : run) x = rng.bounded(4);
      std::sort(run.begin(), run.end());
      rs.keys.insert(rs.keys.end(), run.begin(), run.end());
      rs.bounds.push_back(rs.keys.size());
    }
    expect_engine_matches_legacy(rs);
  }
}

TEST(KwayMergeEngine, ResumesFromInteriorCursors) {
  // Two consecutive calls over one cursor set emit what one call does.
  const RunSet rs = make_runs(11, 500, 5, /*domain=*/30);
  const std::size_t n = rs.keys.size();
  const std::span<const std::size_t> bspan(rs.bounds);
  std::vector<std::size_t> whole(n), split(n);
  std::vector<std::size_t> cur(rs.bounds.begin(), rs.bounds.end() - 1);
  std::size_t o = 0;
  kway_merge_range(rs.keys.data(), bspan, std::span<std::size_t>(cur), n,
                   Less{}, [&](std::size_t pos, std::size_t) { whole[o++] = pos; });
  cur.assign(rs.bounds.begin(), rs.bounds.end() - 1);
  o = 0;
  for (std::size_t part : {n / 3, n - n / 3})
    kway_merge_range(rs.keys.data(), bspan, std::span<std::size_t>(cur), part,
                     Less{}, [&](std::size_t pos, std::size_t) { split[o++] = pos; });
  EXPECT_EQ(split, whole);
}

TEST(ParallelKwayMerge, PresortedAndEmptyRuns) {
  // Presorted: run r's keys all below run r+1's (splitters land on run
  // boundaries); plus interleaved empty runs.
  std::vector<std::uint64_t> keys;
  std::vector<std::size_t> bounds{0};
  Rng rng(3);
  std::uint64_t base = 0;
  for (std::size_t len : {0u, 900u, 0u, 0u, 2500u, 1u, 700u, 0u}) {
    std::vector<std::uint64_t> run(len);
    for (auto& x : run) x = base + rng.bounded(1000);
    std::sort(run.begin(), run.end());
    keys.insert(keys.end(), run.begin(), run.end());
    bounds.push_back(keys.size());
    base += 1000;
  }
  const RunSet rs{keys, bounds};
  std::vector<std::uint64_t> want_keys;
  std::vector<std::uint32_t> want_perm;
  reference_merge(rs, want_keys, want_perm);
  std::vector<std::uint32_t> perm(keys.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::vector<std::uint64_t> got_keys;
  std::vector<std::uint32_t> got_perm;
  parallel_kway_merge_soa(keys, perm, bounds, got_keys, got_perm, Less{},
                          nullptr, /*ranges=*/5);
  EXPECT_EQ(got_keys, want_keys);
  EXPECT_EQ(got_perm, want_perm);
}

TEST(ParallelKwayMerge, AosMatchesSequentialKway) {
  const RunSet rs = make_runs(9, 2000, 17, /*domain=*/50);  // heavy ties
  auto seq = rs.keys;
  std::vector<std::uint64_t> scratch;
  kway_merge(seq, rs.bounds, scratch);
  std::vector<std::uint64_t> par;
  const auto stats = parallel_kway_merge(rs.keys, rs.bounds, par, Less{},
                                         nullptr, /*ranges=*/6);
  EXPECT_EQ(par, seq);
  EXPECT_GT(stats.select_rounds, 0u);
}

TEST(ParallelKwayMerge, EmptyAndSingleRun) {
  std::vector<std::uint64_t> empty, out;
  auto stats = parallel_kway_merge(empty, {0}, out);
  EXPECT_EQ(stats.runs, 0u);
  EXPECT_TRUE(out.empty());

  std::vector<std::uint64_t> one{3, 5, 9};
  stats = parallel_kway_merge(one, {0, 3}, out);
  EXPECT_EQ(out, one);
  EXPECT_EQ(stats.ranges, 1u);
}

TEST(ParallelKwayMerge, RangeClampKeepsPiecesCoarse) {
  // Tiny inputs must not shatter into per-element ranges.
  const RunSet rs = make_runs(4, 40, 23, 1 << 10, /*allow_empty=*/false);
  std::vector<std::uint64_t> out;
  const auto stats =
      parallel_kway_merge(rs.keys, rs.bounds, out, Less{}, nullptr, 64);
  EXPECT_EQ(stats.ranges, 1u);
  auto expect = rs.keys;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(out, expect);
}

TEST(ParallelKwayMergeStress, PoolMatchesSequential) {
  // The per-range split under a real pool: TSan-visible concurrency over
  // disjoint destination slices, repeated across shapes.
  ThreadPool pool(4);
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    // >= 2 * kMinMergePiece elements guaranteed, so the split engages.
    Rng rng(41 + seed);
    RunSet rs;
    rs.bounds.assign(1, 0);
    for (std::size_t r = 0; r < 5 + seed; ++r) {
      std::vector<std::uint64_t> run(2000 + rng.bounded(2000));
      for (auto& x : run) x = rng.bounded(std::uint64_t{1} << (4 + seed));
      std::sort(run.begin(), run.end());
      rs.keys.insert(rs.keys.end(), run.begin(), run.end());
      rs.bounds.push_back(rs.keys.size());
    }
    std::vector<std::uint64_t> want;
    parallel_kway_merge(rs.keys, rs.bounds, want);  // sequential
    std::vector<std::uint32_t> perm(rs.keys.size());
    std::iota(perm.begin(), perm.end(), 0u);
    std::vector<std::uint64_t> got;
    std::vector<std::uint64_t> got_keys;
    std::vector<std::uint32_t> got_perm;
    const auto aos = parallel_kway_merge(rs.keys, rs.bounds, got, Less{},
                                         &pool);
    const auto soa = parallel_kway_merge_soa(rs.keys, perm, rs.bounds,
                                             got_keys, got_perm, Less{},
                                             &pool);
    EXPECT_EQ(got, want);
    EXPECT_EQ(got_keys, want);
    EXPECT_GT(aos.ranges, 1u);
    EXPECT_GT(soa.ranges, 1u);
    for (std::size_t i = 0; i < got_perm.size(); ++i)
      EXPECT_EQ(rs.keys[got_perm[i]], got_keys[i]);
  }
}

// --- AMS level-1 merge ---------------------------------------------------------

// The two-level AMS level-1 merge as it was before the fused pass, kept as
// the oracle: the Fig. 2 SoA tree over an identity u32 permutation, then a
// second pass permuting the origin plane.
void old_level1_merge(std::vector<std::uint64_t>& keys,
                      std::vector<std::uint64_t>& origin,
                      const std::vector<std::size_t>& bounds) {
  std::vector<std::uint32_t> perm(keys.size());
  std::iota(perm.begin(), perm.end(), 0u);
  std::vector<std::uint64_t> kscr;
  std::vector<std::uint32_t> pscr;
  const auto res = balanced_merge_soa(keys, perm, bounds, kscr, pscr, Less{});
  if (res.in_scratch) keys = std::move(kscr);
  const std::uint32_t* mp = (res.in_scratch ? pscr : perm).data();
  std::vector<std::uint64_t> permuted(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) permuted[i] = origin[mp[i]];
  origin = std::move(permuted);
}

struct Level1Case {
  std::size_t q;
  std::uint64_t domain;  // small domains make the runs tie-heavy
};

class AmsLevel1Merge : public ::testing::TestWithParam<Level1Case> {};

// One receiver of group 1 in a q-rank two-level AMS sort: its senders are
// the ranks that AmsLayout::partner maps to it, each contributing the
// contiguous slice of its sorted shard that falls in group 1's key range,
// with origins (sender, index in shard) — the shape sort_attempt_impl
// merges after the level-1 exchange. Keys and origins of the fused pass
// (inline and on a pool) must equal the old path's.
TEST_P(AmsLevel1Merge, FusedPassMatchesOldPath) {
  const Level1Case c = GetParam();
  const AmsLayout layout = ams_layout(c.q);
  const std::size_t g_me = 1, idx = layout.start[g_me];
  const std::uint64_t lo = c.domain / layout.groups;
  const std::uint64_t hi = 2 * c.domain / layout.groups;
  Rng rng(c.q * 31 + c.domain);
  std::vector<std::uint64_t> keys, origin;
  std::vector<std::size_t> bounds{0};
  for (std::size_t k = 0; k < c.q; ++k) {
    if (layout.partner(k, g_me) != idx) continue;
    std::vector<std::uint64_t> shard(40000);
    for (auto& x : shard) x = rng.bounded(c.domain);
    std::sort(shard.begin(), shard.end());
    const auto b = std::lower_bound(shard.begin(), shard.end(), lo);
    const auto e = std::lower_bound(shard.begin(), shard.end(), hi);
    for (auto it = b; it != e; ++it) {
      keys.push_back(*it);
      origin.push_back((std::uint64_t{k} << 32) |
                       static_cast<std::uint64_t>(it - shard.begin()));
    }
    bounds.push_back(keys.size());
  }
  ASSERT_EQ(bounds.size() - 1, c.q / layout.size(g_me));
  ASSERT_GE(keys.size(), 2 * kMinMergePiece);  // the pooled split engages

  auto want_keys = keys;
  auto want_origin = origin;
  old_level1_merge(want_keys, want_origin, bounds);

  ThreadPool inline_pool(0), workers(3);
  for (ThreadPool* pool : {&inline_pool, &workers}) {
    std::vector<std::uint64_t> got_keys, got_origin;
    const auto stats = parallel_kway_merge_soa(
        keys, origin, bounds, got_keys, got_origin, Less{}, pool);
    EXPECT_GT(stats.ranges, 1u);
    EXPECT_EQ(got_keys, want_keys) << "workers " << pool->workers();
    EXPECT_EQ(got_origin, want_origin) << "workers " << pool->workers();
  }
}

INSTANTIATE_TEST_SUITE_P(
    P16AndP64, AmsLevel1Merge,
    ::testing::Values(Level1Case{16, std::uint64_t{1} << 40},
                      Level1Case{16, 64}, Level1Case{64, std::uint64_t{1} << 40},
                      Level1Case{64, 64}),
    [](const ::testing::TestParamInfo<Level1Case>& case_info) {
      return "P" + std::to_string(case_info.param.q) +
             (case_info.param.domain <= 64 ? "DupHeavy" : "Uniform");
    });

}  // namespace
}  // namespace pgxd::sort
