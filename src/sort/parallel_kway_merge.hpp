// Single-pass parallel k-way merge — the final-merge strategy that replaces
// the upper levels of the Fig. 2 pairwise tree (sort/balanced_merge.hpp /
// sort/soa_merge.hpp).
//
// The pairwise tree moves every element once per level (ceil(log2 R)
// times); at R = 32 runs that is 5 full passes over the partition, and the
// committed bench baseline shows it topping out at ~1/6th of a single
// MergeInto pass. Here every element is moved exactly once:
//
//   1. *Splitter search*: the merged output [0, n) is cut into near-equal
//      ranges, as many as n allows (never as many as a pool has threads).
//      Each range locates its start by multisequence selection
//      (kway_select): a value-pivot binary search across all R runs at
//      once, the classic multiway-partition algorithm (Varman et al.; also
//      __gnu_parallel::multiseq_partition).
//   2. *Per-range loser trees*: each range merges independently with the
//      tournament engine from sort/kway_merge.hpp, paying log2(R)
//      comparisons but only ONE move per element, handing each element to
//      a callback that writes it straight into its disjoint slice of the
//      destination (kway_merge_split; the sorter's final and AMS level-1
//      merges and both wrappers below all go through it).
//
// Boundary cursors deal equal keys to the lower run first — the same tie
// rule as the loser tree and merge_into — so the concatenated ranges are
// *bit-identical* to the stable sequential merge (and to the Fig. 2 tree),
// permutation plane included. tests/parallel_kway_merge_test.cpp holds that
// property under a randomized sweep.
// pgxd-lint: hot-path  (tools/lint_pgxd.py: no std::function, naked new,
// or std::set in this file)
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "common/thread_pool.hpp"
#include "sort/comparator.hpp"
#include "sort/kway_merge.hpp"
#include "sort/merge.hpp"

namespace pgxd::sort {

struct ParallelKwayMergeStats {
  std::size_t runs = 0;
  std::size_t ranges = 1;          // independent loser trees
  std::uint64_t comparisons = 0;   // across all ranges
  std::uint64_t select_rounds = 0; // pivot rounds over all splitter searches
};

// Multisequence selection: finds per-run cursors that split the stable
// k-way merge of the sorted runs over `keys` (run r at
// [bounds[r], bounds[r+1])) at global rank `k` — cursor[r] elements of run r
// belong to the merged prefix of length k, sum(cursor[r] - bounds[r]) == k.
// Equal keys on the boundary are dealt to the lower run first, matching the
// loser tree's tie rule, so the prefix is exactly the first k elements of
// the stable merge.
//
// Value-pivot binary search: keep a candidate window per run, draw the
// pivot from the largest window, rank it exactly across all runs with
// lower/upper_bound, and discard the side of every window the rank rules
// out. Every copy of the true boundary value stays inside the windows, and
// the pivot's window strictly shrinks each round, so the terminating branch
// (count_lt <= k <= count_le) is always reached. O(R log n) per round,
// O(log n) rounds in practice.
//
// Writes the cursors into `cur` (R entries) and works in `work` (4R
// entries), so a pool worker can run it without allocating.
template <typename K, typename Comp = Less>
void kway_select_into(const K* keys, std::span<const std::size_t> bounds,
                      std::size_t k, Comp comp, std::span<std::size_t> cur,
                      std::span<std::size_t> work,
                      std::uint64_t* rounds = nullptr) {
  const std::size_t runs = bounds.size() - 1;
  PGXD_DCHECK(cur.size() >= runs && work.size() >= 4 * runs);
  for (std::size_t r = 0; r < runs; ++r) cur[r] = bounds[r];
  PGXD_CHECK(k <= bounds[runs] - bounds[0]);
  if (k == 0) return;
  if (k == bounds[runs] - bounds[0]) {
    for (std::size_t r = 0; r < runs; ++r) cur[r] = bounds[r + 1];
    return;
  }

  std::size_t* lo = work.data();
  std::size_t* hi = lo + runs;
  std::size_t* lb = hi + runs;
  std::size_t* ub = lb + runs;
  for (std::size_t r = 0; r < runs; ++r) {
    lo[r] = bounds[r];
    hi[r] = bounds[r + 1];
  }
  for (;;) {
    // Pivot from the largest window (deterministic: ties -> lowest run).
    std::size_t p = runs;
    std::size_t best = 0;
    for (std::size_t r = 0; r < runs; ++r) {
      const std::size_t width = hi[r] - lo[r];
      if (width > best) {
        best = width;
        p = r;
      }
    }
    // The boundary value always survives inside some window (see above), so
    // the windows cannot all drain before the terminating branch fires.
    PGXD_CHECK_MSG(p < runs, "kway_select: candidate windows drained");
    if (rounds != nullptr) ++*rounds;
    const K& pivot = keys[lo[p] + (hi[p] - lo[p]) / 2];

    // Exact global rank of the pivot value: count_lt strictly-smaller
    // elements, count_le smaller-or-equal.
    std::size_t count_lt = 0, count_le = 0;
    for (std::size_t r = 0; r < runs; ++r) {
      lb[r] = static_cast<std::size_t>(
          std::lower_bound(keys + bounds[r], keys + bounds[r + 1], pivot,
                           comp) -
          keys);
      ub[r] = static_cast<std::size_t>(
          std::upper_bound(keys + bounds[r], keys + bounds[r + 1], pivot,
                           comp) -
          keys);
      count_lt += lb[r] - bounds[r];
      count_le += ub[r] - bounds[r];
    }
    if (k < count_lt) {
      // Boundary < pivot: nothing >= pivot can sit on the boundary.
      for (std::size_t r = 0; r < runs; ++r)
        hi[r] = std::max(lo[r], std::min(hi[r], lb[r]));
    } else if (k > count_le) {
      // Boundary > pivot: nothing <= pivot can sit on the boundary.
      for (std::size_t r = 0; r < runs; ++r)
        lo[r] = std::min(hi[r], std::max(lo[r], ub[r]));
    } else {
      // The pivot value spans the boundary: take every strictly-smaller
      // element, then deal the k - count_lt equal keys to the lowest runs
      // first (the loser tree's tie order).
      std::size_t rem = k - count_lt;
      for (std::size_t r = 0; r < runs; ++r) {
        const std::size_t take = std::min(ub[r] - lb[r], rem);
        cur[r] = lb[r] + take;
        rem -= take;
      }
      PGXD_DCHECK(rem == 0);
      return;
    }
  }
}

template <typename K, typename Comp = Less>
std::vector<std::size_t> kway_select(const K* keys,
                                     std::span<const std::size_t> bounds,
                                     std::size_t k, Comp comp = {},
                                     std::uint64_t* rounds = nullptr) {
  const std::size_t runs = bounds.size() - 1;
  std::vector<std::size_t> cur(runs), work(4 * runs);
  kway_select_into(keys, bounds, k, comp, std::span<std::size_t>(cur),
                   std::span<std::size_t>(work), rounds);
  return cur;
}

// Most output ranges one merge is cut into. Eight ranges of at least
// kMinMergePiece keep four threads evenly busy; sixteen mostly spent more on
// selection than they saved (EXPERIMENTS.md, "Host parallelism").
inline constexpr std::size_t kMaxMergeRanges = 8;

namespace detail {

// Elements of T that span at least one cache line.
template <typename T>
constexpr std::size_t line_pad() {
  return (64 + sizeof(T) - 1) / sizeof(T);
}

// Output ranges for one k-way merge of n elements over `runs` runs, the
// one place that decides the split: `want` when nonzero, else
// kMaxMergeRanges; either way clamped so no range merges fewer than
// kMinMergePiece elements. So only merges of 2 * kMinMergePiece (8Ki) or
// more are split and dispatched to a pool; below that one serial loser tree
// won (EXPERIMENTS.md, "Host parallelism"). A function of n (and an
// explicit override) alone, never of how many threads a pool has, so the
// split — and with it every statistic — is the same on any pool.
inline std::size_t kway_ranges(std::size_t want, std::size_t n,
                               std::size_t runs) {
  if (runs <= 1) return 1;
  if (want == 0) want = kMaxMergeRanges;
  return std::min(want, std::max<std::size_t>(1, n / kMinMergePiece));
}

}  // namespace detail

// Range-split k-way merge, the one merge entry point: cuts the stable merge
// of the sorted runs over `keys` (run r at [bounds[r], bounds[r+1]),
// bounds[0] == 0) into output ranges — as many as n allows (kway_ranges),
// or `ranges` when nonzero — and merges each with its own loser tree,
// concurrently on `pool` when given. Calls
// emit(out_pos, src_pos, run) once per element: keys[src_pos] of run `run`
// is the out_pos-th element of the merge. Distinct ranges emit disjoint
// out_pos sets, so emit may write straight into a pre-sized output.
//
// Each range locates its own start by multisequence selection and merges
// in storage sized here, on the calling thread: the pool's workers never
// allocate. The ranges concatenate into exactly the stable sequential
// merge, so the output is the same for any range count or pool.
template <typename K, typename Comp, typename Emit>
ParallelKwayMergeStats kway_merge_split(const K* keys,
                                        std::span<const std::size_t> bounds,
                                        std::size_t ranges, Comp comp,
                                        Emit&& emit,
                                        ThreadPool* pool = nullptr) {
  PGXD_CHECK(!bounds.empty());
  PGXD_CHECK(bounds.front() == 0);
  ParallelKwayMergeStats stats;
  const std::size_t runs = bounds.size() - 1;
  const std::size_t n = bounds[runs];
  stats.runs = runs;
  if (n == 0) return stats;
  ranges = detail::kway_ranges(ranges, n, runs);
  stats.ranges = ranges;

  // Per-range scratch (cursors, then selection windows), strided with a
  // cache line of slack so concurrent ranges never write to a shared line
  // (the cursors and tree nodes are rewritten on every element).
  const bool split = ranges > 1;
  const std::size_t slots = kway_tree_slots(runs);
  const std::size_t cur_stride =
      split ? 5 * runs + detail::line_pad<std::size_t>() : runs;
  const std::size_t key_stride = split ? slots + detail::line_pad<K>() : slots;
  const std::size_t tag_stride =
      split ? slots + detail::line_pad<std::size_t>() : slots;
  std::vector<std::size_t> cursors(ranges * cur_stride);
  std::vector<K> tree_key(ranges * key_stride);
  std::vector<std::size_t> tree_tag(ranges * tag_stride);
  std::vector<std::uint64_t> comps(ranges, 0), rounds(ranges, 0);
  auto run_range = [&](std::size_t i) {
    std::size_t* const base = cursors.data() + i * cur_stride;
    const std::span<std::size_t> cur(base, runs);
    const std::size_t k0 = n * i / ranges;
    const std::size_t k1 = n * (i + 1) / ranges;
    std::uint64_t select_rounds = 0;
    if (i == 0)
      std::copy(bounds.begin(), bounds.end() - 1, cur.begin());
    else
      kway_select_into(keys, bounds, k0, comp, cur,
                       std::span<std::size_t>(base + runs, 4 * runs),
                       &select_rounds);
    std::size_t out = k0;
    const std::uint64_t c = kway_merge_range(
        keys, bounds, cur, k1 - k0, comp,
        std::span<K>(tree_key.data() + i * key_stride, slots),
        std::span<std::size_t>(tree_tag.data() + i * tag_stride, slots),
        [&](std::size_t pos, std::size_t r) { emit(out++, pos, r); });
    comps[i] = c;
    rounds[i] = select_rounds;
  };
  if (pool != nullptr && split)
    pool->run_all(ranges, run_range);
  else
    for (std::size_t i = 0; i < ranges; ++i) run_range(i);
  stats.comparisons =
      std::accumulate(comps.begin(), comps.end(), std::uint64_t{0});
  stats.select_rounds =
      std::accumulate(rounds.begin(), rounds.end(), std::uint64_t{0});
  return stats;
}

// Full records: merges the sorted runs of `src` described by `bounds` into
// `dst` (resized to src.size()). `ranges` overrides the n-derived split
// count when nonzero.
template <typename T, typename Comp = Less>
ParallelKwayMergeStats parallel_kway_merge(const std::vector<T>& src,
                                           const std::vector<std::size_t>& bounds,
                                           std::vector<T>& dst, Comp comp = {},
                                           ThreadPool* pool = nullptr,
                                           std::size_t ranges = 0) {
  PGXD_CHECK(!bounds.empty());
  PGXD_CHECK(bounds.back() == src.size());
  dst.resize(src.size());
  return kway_merge_split(
      src.data(), std::span<const std::size_t>(bounds),
      ranges, comp,
      [&](std::size_t out, std::size_t pos, std::size_t) {
        dst[out] = src[pos];
      },
      pool);
}

// SoA variant: bare keys plus a payload plane (the compact u32
// permutation, or any per-element word) move through ONE pass. The merged
// result always lands in (key_out, payload_out); there is no ping-pong and
// no copy-back, the caller reads the output planes directly (the same
// no-staging contract as SoaMergeResult with in_scratch == true).
template <typename K, typename P, typename Comp = Less>
ParallelKwayMergeStats parallel_kway_merge_soa(
    const std::vector<K>& keys, const std::vector<P>& payload,
    const std::vector<std::size_t>& bounds, std::vector<K>& key_out,
    std::vector<P>& payload_out, Comp comp = {}, ThreadPool* pool = nullptr,
    std::size_t ranges = 0) {
  PGXD_CHECK(!bounds.empty());
  PGXD_CHECK(bounds.back() == keys.size());
  PGXD_CHECK(payload.size() == keys.size());
  key_out.resize(keys.size());
  payload_out.resize(keys.size());
  return kway_merge_split(
      keys.data(), std::span<const std::size_t>(bounds),
      ranges, comp,
      [&](std::size_t out, std::size_t pos, std::size_t) {
        key_out[out] = keys[pos];
        payload_out[out] = payload[pos];
      },
      pool);
}

}  // namespace pgxd::sort
