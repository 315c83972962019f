// Loser-tree k-way merge — the classical alternative to the paper's Fig. 2
// balanced merge tree. One comparison per element per tree level (log2 k),
// and every element is moved exactly once.
//
// The tournament engine is exposed as a *range* primitive
// (`kway_merge_range`): it starts from arbitrary per-run cursors and emits
// exactly `count` elements in merged order, each with the run it came
// from. `kway_merge` runs one engine over the whole buffer (the sequential
// merge-strategy ablation); sort/parallel_kway_merge.hpp cuts the output
// into per-thread ranges via multisequence selection and runs one engine
// per range — the single-pass parallel merge. The distributed sorter's
// final merge runs one engine over a whole partition and builds each
// output Item, provenance included, from emit(pos, run).
// pgxd-lint: hot-path  (tools/lint_pgxd.py: no std::function, naked new,
// or std::set in this file)
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sort/comparator.hpp"

namespace pgxd::sort {

struct KwayMergeStats {
  std::size_t runs = 0;
  std::uint64_t comparisons = 0;
};

namespace detail {

// Branch-free select for the tournament's hot loop: integral values go
// through a mask (GCC turns the ternary into a jump there), anything else
// through the ternary.
template <typename T>
inline T pick(bool c, T a, T b) {
  if constexpr (std::is_integral_v<T>) {
    const auto mask = static_cast<T>(T{0} - static_cast<T>(c));
    return static_cast<T>(b ^ ((a ^ b) & mask));
  } else {
    return c ? a : b;
  }
}

}  // namespace detail

// Tournament engine: merges the next `count` elements of the k-way merge of
// the sorted runs over `keys` described by `bounds` (size R+1; run r is
// [bounds[r], bounds[r+1])), starting from `cursor` (size R, with
// bounds[r] <= cursor[r] <= bounds[r+1]; advanced in place). Emits each
// element's *source position* and *run* in ascending merged order:
// emit(pos, r) with keys[pos] the next element and
// bounds[r] <= pos < bounds[r+1]. Returns the comparison count.
//
// Loser tree with cached heads: every internal node holds its loser's head
// key and a tag (the run index, with kDead set once the run is exhausted or
// for padding), and the current winner's key and tag live in locals. A
// match therefore compares two cached keys, and the replay picks the new
// winner with masked selects instead of branches — random keys make those
// branches mispredict about half the time.
//
// Stability: ties resolve to the lower run index — the same convention as
// merge_into / the Fig. 2 tree, and the one kway_select's boundary cursors
// assume, so disjoint ranges of one merge concatenate into exactly the
// stable merge of the whole input.
//
// `node_key` and `node_tag` are the tree's storage, each at least
// kway_tree_slots(R) long, so a caller that merges on pool workers can
// pre-size them and the engine allocates nothing; the overload below
// allocates its own.
template <typename K, typename Comp, typename Emit>
std::uint64_t kway_merge_range(const K* keys,
                               std::span<const std::size_t> bounds,
                               std::span<std::size_t> cursor,
                               std::size_t count, Comp comp,
                               std::span<K> node_key,
                               std::span<std::size_t> node_tag, Emit&& emit) {
  const std::size_t runs = bounds.size() - 1;
  PGXD_DCHECK(cursor.size() == runs);
  std::uint64_t comparisons = 0;
  if (count == 0) return comparisons;
  if (runs == 1) {
    for (std::size_t i = 0; i < count; ++i) emit(cursor[0]++, std::size_t{0});
    PGXD_DCHECK(cursor[0] <= bounds[1]);
    return comparisons;
  }

  // k leaves, padded to a power of two with dead sentinels; internal node i
  // (1..k-1) holds its match's loser.
  const std::size_t k = std::bit_ceil(runs);
  constexpr std::size_t kDead = std::size_t{1} << 63;
  auto head = [&](std::size_t r, K& key, std::size_t& tag) {
    if (r < runs && cursor[r] < bounds[r + 1]) {
      key = keys[cursor[r]];
      tag = r;
    } else {
      tag = r | kDead;
    }
  };
  // (ck, ct) beats (wk, wt) if its key is smaller, or keys are equal and
  // its run is lower. A dead run always loses; a comparison is counted
  // only between live runs.
  auto beats = [&](const K& ck, std::size_t ct, const K& wk, std::size_t wt) {
    const bool lt = comp(ck, wk);
    const bool gt = comp(wk, ck);
    comparisons += ((ct | wt) >> 63) ^ 1;
    return ((wt >> 63) | (((ct >> 63) ^ 1) & (lt | (!gt & (ct < wt))))) != 0;
  };

  PGXD_DCHECK(node_key.size() >= 2 * k && node_tag.size() >= 2 * k);
  K win_key{};
  std::size_t win_tag = kDead;
  {
    // Build: play the tournament bottom-up in the upper half of the
    // storage; internal nodes 1..k-1 live in the lower half.
    const std::span<K> level_key = node_key.subspan(k, k);
    const std::span<std::size_t> level_tag = node_tag.subspan(k, k);
    for (std::size_t i = 0; i < k; ++i) head(i, level_key[i], level_tag[i]);
    std::size_t width = k;
    std::size_t node_base = k;
    while (width > 1) {
      width /= 2;
      node_base /= 2;
      for (std::size_t i = 0; i < width; ++i) {
        const std::size_t a = 2 * i, b = 2 * i + 1;
        const bool a_wins =
            beats(level_key[a], level_tag[a], level_key[b], level_tag[b]);
        const std::size_t win = a_wins ? a : b, lose = a_wins ? b : a;
        node_key[node_base + i] = level_key[lose];
        node_tag[node_base + i] = level_tag[lose];
        level_key[i] = level_key[win];
        level_tag[i] = level_tag[win];
      }
    }
    win_key = level_key[0];
    win_tag = level_tag[0];
  }

  for (std::size_t out = 0; out < count; ++out) {
    PGXD_DCHECK((win_tag & kDead) == 0);
    const std::size_t r = win_tag;
    emit(cursor[r], r);
    ++cursor[r];
    head(r, win_key, win_tag);
    // Replay the winner's path to the root.
    for (std::size_t node = (k + r) / 2; node >= 1; node /= 2) {
      const K ck = node_key[node];
      const std::size_t ct = node_tag[node];
      const bool swap = beats(ck, ct, win_key, win_tag);
      node_key[node] = detail::pick(swap, win_key, ck);
      node_tag[node] = detail::pick(swap, win_tag, ct);
      win_key = detail::pick(swap, ck, win_key);
      win_tag = detail::pick(swap, ct, win_tag);
    }
  }
  return comparisons;
}

// Tree storage kway_merge_range needs for R runs, per plane.
inline std::size_t kway_tree_slots(std::size_t runs) {
  return 2 * std::bit_ceil(runs);
}

template <typename K, typename Comp, typename Emit>
std::uint64_t kway_merge_range(const K* keys,
                               std::span<const std::size_t> bounds,
                               std::span<std::size_t> cursor,
                               std::size_t count, Comp comp, Emit&& emit) {
  const std::size_t slots = kway_tree_slots(bounds.size() - 1);
  std::vector<K> node_key(slots);
  std::vector<std::size_t> node_tag(slots);
  return kway_merge_range(keys, bounds, cursor, count, comp,
                          std::span<K>(node_key),
                          std::span<std::size_t>(node_tag),
                          std::forward<Emit>(emit));
}

// Merges the sorted runs described by `bounds` (size R+1, bounds[0] == 0,
// bounds[R] == data.size()) into sorted order in `data`, via one pass
// through a loser tree. Stable across runs (ties resolve to the lower run
// index).
template <typename T, typename Comp = Less>
KwayMergeStats kway_merge(std::vector<T>& data,
                          const std::vector<std::size_t>& bounds,
                          std::vector<T>& scratch, Comp comp = {}) {
  PGXD_CHECK(!bounds.empty());
  PGXD_CHECK(bounds.front() == 0);
  PGXD_CHECK(bounds.back() == data.size());
  KwayMergeStats stats;
  const std::size_t runs = bounds.size() - 1;
  stats.runs = runs;
  if (runs <= 1) return stats;

  scratch.resize(data.size());
  std::vector<std::size_t> cursor(bounds.begin(), bounds.end() - 1);
  std::size_t out = 0;
  stats.comparisons = kway_merge_range(
      data.data(), std::span<const std::size_t>(bounds),
      std::span<std::size_t>(cursor), data.size(), comp,
      [&](std::size_t pos, std::size_t) { scratch[out++] = data[pos]; });
  data.swap(scratch);
  return stats;
}

}  // namespace pgxd::sort
