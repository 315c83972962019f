// Result validation for distributed sorts — the checks the test suite
// applies, packaged for library users and the CLI driver: per-partition
// order, global cross-machine order, permutation preservation (multiset
// equality against the input), and provenance integrity.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/distributed_sort.hpp"
#include "sort/comparator.hpp"

namespace pgxd::core {

struct ValidationReport {
  bool partitions_sorted = false;   // each partition internally ordered
  bool globally_ordered = false;    // machine m's max <= machine m+1's min
  bool permutation_ok = false;      // output multiset == input multiset
  bool provenance_ok = false;       // every record points at a real source
  std::string failure;              // first failure description, if any

  bool ok() const {
    return partitions_sorted && globally_ordered && permutation_ok &&
           provenance_ok;
  }
};

namespace detail {

// True when every output item's provenance names a distinct position of the
// locally sorted input shards holding an equivalent key. With equal output
// and input totals that makes provenance a bijection from output to input
// that preserves keys, which proves checks (c) and (d) at once. Distinctness
// is a bitmap over the global input position (shard offset + index).
template <typename Key, typename Comp>
bool provenance_is_bijection(
    const std::vector<std::vector<Item<Key>>>& partitions,
    const std::vector<std::vector<Key>>& sorted_shards, Comp comp) {
  std::vector<std::size_t> base(sorted_shards.size() + 1, 0);
  for (std::size_t m = 0; m < sorted_shards.size(); ++m)
    base[m + 1] = base[m] + sorted_shards[m].size();
  std::vector<std::uint64_t> taken((base.back() + 63) / 64, 0);
  for (const auto& part : partitions) {
    for (const auto& item : part) {
      if (item.prov.prev_machine >= sorted_shards.size()) return false;
      const auto& shard = sorted_shards[item.prov.prev_machine];
      if (item.prov.prev_index >= shard.size()) return false;
      const Key& src = shard[item.prov.prev_index];
      if (comp(src, item.key) || comp(item.key, src)) return false;
      const std::size_t at = base[item.prov.prev_machine] +
                             static_cast<std::size_t>(item.prov.prev_index);
      const std::uint64_t bit = std::uint64_t{1} << (at % 64);
      if (taken[at / 64] & bit) return false;
      taken[at / 64] |= bit;
    }
  }
  return true;
}

}  // namespace detail

// Validates sorter output against the original input shards. A correct
// output costs the per-shard sorts (O(n log(n/p))) plus O(n) passes, with
// one extra copy of the input and an n-bit bitmap. Only a failing output
// pays the full multiset check: both sides copied and sorted, O(n log n)
// time and 2n extra keys, so the report names the first failure in the
// order (c) permutation, (d) provenance.
//
// The per-shard copies and sorts run on the process-wide host_pool(), one
// shard per task, with std::sort as the oracle — independent of the
// sorter's own kernels. Storage is reserved on the calling thread, so the
// workers never allocate.
template <typename Key, typename Comp = sort::Less>
ValidationReport validate_sorted(
    const std::vector<std::vector<Item<Key>>>& partitions,
    const std::vector<std::vector<Key>>& input, Comp comp = {}) {
  ValidationReport report;

  // (a) per-partition order and (b) global order.
  report.partitions_sorted = true;
  report.globally_ordered = true;
  const Key* prev_max = nullptr;
  for (std::size_t m = 0; m < partitions.size(); ++m) {
    const auto& part = partitions[m];
    for (std::size_t i = 1; i < part.size(); ++i) {
      if (comp(part[i].key, part[i - 1].key)) {
        report.partitions_sorted = false;
        report.failure = "partition " + std::to_string(m) +
                         " unsorted at index " + std::to_string(i);
        return report;
      }
    }
    if (!part.empty()) {
      if (prev_max != nullptr && comp(part.front().key, *prev_max)) {
        report.globally_ordered = false;
        report.failure = "machine " + std::to_string(m) +
                         " starts below its predecessor's maximum";
        return report;
      }
      prev_max = &part.back().key;
    }
  }

  // (c) permutation, element totals first.
  std::size_t total_in = 0, total_out = 0;
  for (const auto& shard : input) total_in += shard.size();
  for (const auto& part : partitions) total_out += part.size();
  if (total_in != total_out) {
    report.failure = "output has " + std::to_string(total_out) +
                     " elements, input had " + std::to_string(total_in);
    return report;
  }
  std::vector<std::vector<Key>> sorted_shards(input.size());
  for (std::size_t m = 0; m < input.size(); ++m)
    sorted_shards[m].reserve(input[m].size());
  auto sort_shard = [&](std::size_t m) {
    auto& shard = sorted_shards[m];
    shard.assign(input[m].begin(), input[m].end());
    std::sort(shard.begin(), shard.end(), comp);
  };
  host_pool().run_all(input.size(), sort_shard);
  if (detail::provenance_is_bijection(partitions, sorted_shards, comp)) {
    report.permutation_ok = true;
    report.provenance_ok = true;
    return report;
  }

  // Something failed: the multiset check, then (d), name the failure.
  std::vector<Key> all_in, all_out;
  all_in.reserve(total_in);
  all_out.reserve(total_out);
  for (const auto& shard : input)
    all_in.insert(all_in.end(), shard.begin(), shard.end());
  for (const auto& part : partitions)
    for (const auto& item : part) all_out.push_back(item.key);
  std::sort(all_in.begin(), all_in.end(), comp);
  std::sort(all_out.begin(), all_out.end(), comp);
  for (std::size_t i = 0; i < all_in.size(); ++i) {
    if (comp(all_in[i], all_out[i]) || comp(all_out[i], all_in[i])) {
      report.failure = "output is not a permutation of the input (first "
                       "mismatch at sorted rank " + std::to_string(i) + ")";
      return report;
    }
  }
  report.permutation_ok = true;

  // (d) provenance: prev_index refers to the source machine's locally
  // sorted shard.
  for (const auto& part : partitions) {
    for (const auto& item : part) {
      if (item.prov.prev_machine >= sorted_shards.size()) {
        report.failure = "provenance names machine " +
                         std::to_string(item.prov.prev_machine) +
                         " which does not exist";
        return report;
      }
      const auto& shard = sorted_shards[item.prov.prev_machine];
      if (item.prov.prev_index >= shard.size()) {
        report.failure = "provenance index out of range on machine " +
                         std::to_string(item.prov.prev_machine);
        return report;
      }
      const Key& src = shard[item.prov.prev_index];
      if (comp(src, item.key) || comp(item.key, src)) {
        report.failure = "provenance points at a different key";
        return report;
      }
    }
  }
  report.provenance_ok = true;
  return report;
}

}  // namespace pgxd::core
