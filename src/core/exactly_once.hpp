// Exactly-once audit of one rank's merged partition: provenance makes
// delivery auditable. Any drop, duplicate or misplacement by the exchange
// (or the reliable-delivery layer under fault injection, or a hedged
// re-send slipping past dedup) breaks the invariants checked here. Pure
// host-side functions of the merged items and the exchange's announced
// counts; a violation aborts through PGXD_CHECK_MSG.
//
// Both audits first take one O(n) walk that proves the invariant for a
// correct partition, and fall back to the per-source sort check only when
// the walk finds something out of order, so the verdict and the abort
// message are those of the sort check.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/assert.hpp"
#include "core/provenance.hpp"

namespace pgxd::core {

// Flat exchange: `midx` maps a physical rank to its index in the exchange
// scope (midx.size() == p; an entry >= q marks a rank outside the scope),
// and recv_counts[s] is the element count scope member s announced. For
// every source, the prev_index values present must be recv_counts[s]
// distinct contiguous integers.
//
// Fast path: a stable merge keeps each source's run in order, so a correct
// partition lists every source's indices as consecutive integers from the
// first one seen. The walk checks that and the per-source counts; complete
// but reordered indices still pass, through the sort check.
template <typename Key>
void audit_exactly_once(std::span<const Item<Key>> items,
                        std::span<const std::size_t> midx,
                        std::span<const std::uint64_t> recv_counts) {
  const std::size_t p = midx.size();
  const std::size_t q = recv_counts.size();
  std::vector<std::uint64_t> seen(q, 0);
  std::vector<std::uint64_t> next(q, 0);
  bool in_order = true;
  for (const Item<Key>& item : items) {
    PGXD_CHECK(item.prov.prev_machine < p);
    const std::size_t sj = midx[item.prov.prev_machine];
    PGXD_CHECK_MSG(sj < q,
                   "exactly-once audit: element attributed to a rank "
                   "outside the attempt membership");
    if (seen[sj]++ > 0 && item.prov.prev_index != next[sj]) in_order = false;
    next[sj] = item.prov.prev_index + 1;
  }
  for (std::size_t s = 0; s < q && in_order; ++s)
    in_order = seen[s] == recv_counts[s];
  if (in_order) return;

  std::vector<std::vector<std::uint64_t>> prev_indices(q);
  for (std::size_t s = 0; s < q; ++s) prev_indices[s].reserve(seen[s]);
  for (const Item<Key>& item : items)
    prev_indices[midx[item.prov.prev_machine]].push_back(
        item.prov.prev_index);
  for (std::size_t s = 0; s < q; ++s) {
    PGXD_CHECK_MSG(prev_indices[s].size() == recv_counts[s],
                   "exactly-once audit: received element count from a "
                   "source disagrees with its announced count");
    std::sort(prev_indices[s].begin(), prev_indices[s].end());
    for (std::size_t i = 1; i < prev_indices[s].size(); ++i)
      PGXD_CHECK_MSG(prev_indices[s][i] == prev_indices[s][i - 1] + 1,
                     "exactly-once audit: an element was duplicated or "
                     "lost in the exchange");
  }
}

// Two-hop (AMS) exchange: provenance names origin ranks anywhere in the
// p-rank attempt membership, and the level-1 merge destroys per-source
// contiguity, so the audit checks origin distinctness instead: a
// dropped-then-rehedged or duplicated delivery shows up as a repeated
// (machine, index) pair. Global coverage (every origin index present
// exactly once, cluster-wide) is the host validator's job.
//
// Fast path: each origin's indices strictly increasing along the partition
// proves them distinct.
template <typename Key>
void audit_distinct_origins(std::span<const Item<Key>> items, std::size_t p) {
  std::vector<std::uint64_t> seen(p, 0);
  std::vector<std::uint64_t> last(p, 0);
  bool increasing = true;
  for (const Item<Key>& item : items) {
    PGXD_CHECK(item.prov.prev_machine < p);
    const std::size_t s = item.prov.prev_machine;
    if (seen[s]++ > 0 && item.prov.prev_index <= last[s]) increasing = false;
    last[s] = item.prov.prev_index;
  }
  if (increasing) return;

  std::vector<std::vector<std::uint64_t>> prev_indices(p);
  for (std::size_t s = 0; s < p; ++s) prev_indices[s].reserve(seen[s]);
  for (const Item<Key>& item : items)
    prev_indices[item.prov.prev_machine].push_back(item.prov.prev_index);
  for (auto& v : prev_indices) {
    std::sort(v.begin(), v.end());
    for (std::size_t i = 1; i < v.size(); ++i)
      PGXD_CHECK_MSG(v[i] != v[i - 1],
                     "exactly-once audit: an element was duplicated "
                     "in the two-hop exchange");
  }
}

}  // namespace pgxd::core
