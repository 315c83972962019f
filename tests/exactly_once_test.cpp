// Tests for the exactly-once audit (core/exactly_once.hpp): a clean merged
// partition passes through the O(n) walk, each delivery defect aborts with
// the sort check's message, and complete but reordered indices pass
// through the sort check.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "core/exactly_once.hpp"

namespace pgxd::core {
namespace {

using ItemT = Item<std::uint64_t>;

// A 5-rank cluster whose exchange scope is ranks {1, 3, 4}; rank 0 and 2
// are outside it.
struct Partition {
  std::vector<std::size_t> midx{3, 0, 3, 1, 2};
  std::vector<std::uint64_t> recv_counts{3, 2, 4};
  std::vector<ItemT> items;

  Partition() {
    // Merged order interleaves sources; each source's indices are
    // consecutive from its range start (10, 0 and 7).
    const std::uint32_t src[] = {1, 4, 3, 1, 4, 4, 3, 1, 4};
    std::uint64_t next[5] = {0, 10, 0, 0, 7};
    for (std::size_t i = 0; i < std::size(src); ++i)
      items.push_back(ItemT{i, Provenance{src[i], next[src[i]]++}});
  }

  void audit() const {
    audit_exactly_once(std::span<const ItemT>(items),
                       std::span<const std::size_t>(midx),
                       std::span<const std::uint64_t>(recv_counts));
  }
};

TEST(ExactlyOnceAudit, CleanPartitionPasses) {
  Partition part;
  part.audit();
}

TEST(ExactlyOnceAudit, EmptyPartitionPasses) {
  Partition part;
  part.items.clear();
  part.recv_counts.assign(3, 0);
  part.audit();
}

TEST(ExactlyOnceAudit, CompleteButReorderedIndicesPass) {
  // Swapping two of one source's indices breaks the walk's order but not
  // the invariant, so the sort check must accept it.
  Partition part;
  std::swap(part.items[1].prov, part.items[4].prov);
  part.audit();
}

TEST(ExactlyOnceAuditDeath, DuplicatedIndex) {
  Partition part;
  part.items[3].prov.prev_index = part.items[0].prov.prev_index;
  EXPECT_DEATH(part.audit(), "an element was duplicated or lost");
}

TEST(ExactlyOnceAuditDeath, GapInIndices) {
  Partition part;
  part.items[7].prov.prev_index += 1;  // source 1's last index skips one
  EXPECT_DEATH(part.audit(), "an element was duplicated or lost");
}

TEST(ExactlyOnceAuditDeath, WrongPerSourceCount) {
  Partition part;
  part.recv_counts[1] = 3;
  EXPECT_DEATH(part.audit(), "disagrees with its announced count");
}

TEST(ExactlyOnceAuditDeath, ExtraConsecutiveElement) {
  // One more element continuing the run: consecutive, so only the count
  // can catch it.
  Partition part;
  part.items.push_back(ItemT{9, Provenance{3, 2}});
  EXPECT_DEATH(part.audit(), "disagrees with its announced count");
}

TEST(ExactlyOnceAuditDeath, SourceOutsideMembership) {
  Partition part;
  part.items[2].prov.prev_machine = 2;
  EXPECT_DEATH(part.audit(), "outside the attempt membership");
}

TEST(ExactlyOnceAuditDeath, SourceBeyondCluster) {
  Partition part;
  part.items[2].prov.prev_machine = 5;
  EXPECT_DEATH(part.audit(), "prev_machine < p");
}

// Two-hop partitions: origins anywhere in the cluster, each origin's
// indices increasing along the partition but not contiguous.
std::vector<ItemT> two_hop_items() {
  return {ItemT{1, Provenance{0, 4}}, ItemT{2, Provenance{2, 0}},
          ItemT{3, Provenance{0, 9}}, ItemT{4, Provenance{1, 3}},
          ItemT{5, Provenance{2, 5}}, ItemT{6, Provenance{0, 10}}};
}

TEST(DistinctOriginsAudit, CleanAndReorderedPass) {
  auto items = two_hop_items();
  audit_distinct_origins(std::span<const ItemT>(items), 3);
  std::swap(items[0].prov, items[5].prov);  // distinct, out of order
  audit_distinct_origins(std::span<const ItemT>(items), 3);
}

TEST(DistinctOriginsAuditDeath, RepeatedOrigin) {
  auto items = two_hop_items();
  items[5].prov = items[0].prov;
  EXPECT_DEATH(audit_distinct_origins(std::span<const ItemT>(items), 3),
               "duplicated in the two-hop exchange");
}

TEST(DistinctOriginsAuditDeath, OriginBeyondCluster) {
  auto items = two_hop_items();
  items[1].prov.prev_machine = 3;
  EXPECT_DEATH(audit_distinct_origins(std::span<const ItemT>(items), 3),
               "prev_machine < p");
}

}  // namespace
}  // namespace pgxd::core
