// Tests for the result validator: it must accept correct output and
// pinpoint each class of corruption, and it must give exactly the verdict
// of the multiset-sort validator it replaced on a mutation corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "core/distributed_sort.hpp"
#include "core/validate.hpp"
#include "datagen/distributions.hpp"

namespace pgxd::core {
namespace {

using Key = std::uint64_t;
using Sorter = DistributedSorter<Key>;
using ItemT = Item<Key>;

class ValidateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    gen::DataGenConfig dcfg;
    dcfg.seed = 3;
    for (std::size_t r = 0; r < 4; ++r)
      input_.push_back(gen::generate_shard(dcfg, 8000, 4, r));

    rt::ClusterConfig ccfg;
    ccfg.machines = 4;
    ccfg.threads_per_machine = 4;
    rt::Cluster<Sorter::Msg> cluster(ccfg);
    Sorter sorter(cluster, SortConfig{});
    sorter.run(input_);
    parts_ = sorter.partitions();
  }

  std::vector<std::vector<Key>> input_;
  std::vector<std::vector<ItemT>> parts_;
};

TEST_F(ValidateTest, AcceptsCorrectOutput) {
  const auto report = validate_sorted(parts_, input_);
  EXPECT_TRUE(report.ok()) << report.failure;
  EXPECT_TRUE(report.partitions_sorted);
  EXPECT_TRUE(report.globally_ordered);
  EXPECT_TRUE(report.permutation_ok);
  EXPECT_TRUE(report.provenance_ok);
  EXPECT_TRUE(report.failure.empty());
}

TEST_F(ValidateTest, DetectsLocalDisorder) {
  std::swap(parts_[1][10], parts_[1][500]);
  const auto report = validate_sorted(parts_, input_);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.partitions_sorted);
  EXPECT_NE(report.failure.find("partition 1"), std::string::npos);
}

TEST_F(ValidateTest, DetectsGlobalDisorder) {
  // Swap whole partitions: each remains sorted, global order breaks.
  std::swap(parts_[0], parts_[3]);
  const auto report = validate_sorted(parts_, input_);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.globally_ordered);
}

TEST_F(ValidateTest, DetectsLostElement) {
  parts_[2].pop_back();
  const auto report = validate_sorted(parts_, input_);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.failure.find("elements"), std::string::npos);
}

TEST_F(ValidateTest, DetectsMutatedKey) {
  // Replace a key with one that keeps order locally but breaks the
  // multiset (duplicate an adjacent value).
  auto& part = parts_[2];
  ASSERT_GT(part.size(), 2u);
  part[1].key = part[0].key;
  const auto report = validate_sorted(parts_, input_);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.permutation_ok);
}

TEST_F(ValidateTest, DetectsBrokenProvenanceMachine) {
  parts_[0][0].prov.prev_machine = 99;
  const auto report = validate_sorted(parts_, input_);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.failure.find("machine 99"), std::string::npos);
}

TEST_F(ValidateTest, DetectsBrokenProvenanceIndex) {
  parts_[0][0].prov.prev_index = 1u << 30;
  const auto report = validate_sorted(parts_, input_);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.failure.find("out of range"), std::string::npos);
}

// The validator before its provenance fast path: (c) sorts copies of both
// sides and compares them, (d) looks every item up in the sorted shards.
// Kept as the oracle for the differential test below.
ValidationReport legacy_validate_sorted(
    const std::vector<std::vector<ItemT>>& partitions,
    const std::vector<std::vector<Key>>& input) {
  ValidationReport report;
  report.partitions_sorted = true;
  report.globally_ordered = true;
  const Key* prev_max = nullptr;
  for (std::size_t m = 0; m < partitions.size(); ++m) {
    const auto& part = partitions[m];
    for (std::size_t i = 1; i < part.size(); ++i) {
      if (part[i].key < part[i - 1].key) {
        report.partitions_sorted = false;
        report.failure = "partition " + std::to_string(m) +
                         " unsorted at index " + std::to_string(i);
        return report;
      }
    }
    if (!part.empty()) {
      if (prev_max != nullptr && part.front().key < *prev_max) {
        report.globally_ordered = false;
        report.failure = "machine " + std::to_string(m) +
                         " starts below its predecessor's maximum";
        return report;
      }
      prev_max = &part.back().key;
    }
  }
  std::vector<Key> all_in, all_out;
  for (const auto& shard : input)
    all_in.insert(all_in.end(), shard.begin(), shard.end());
  for (const auto& part : partitions)
    for (const auto& item : part) all_out.push_back(item.key);
  if (all_in.size() != all_out.size()) {
    report.failure = "output has " + std::to_string(all_out.size()) +
                     " elements, input had " + std::to_string(all_in.size());
    return report;
  }
  std::sort(all_in.begin(), all_in.end());
  std::sort(all_out.begin(), all_out.end());
  for (std::size_t i = 0; i < all_in.size(); ++i) {
    if (all_in[i] != all_out[i]) {
      report.failure = "output is not a permutation of the input (first "
                       "mismatch at sorted rank " + std::to_string(i) + ")";
      return report;
    }
  }
  report.permutation_ok = true;
  std::vector<std::vector<Key>> sorted_shards = input;
  for (auto& shard : sorted_shards) std::sort(shard.begin(), shard.end());
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
      if (shard[item.prov.prev_index] != item.key) {
        report.failure = "provenance points at a different key";
        return report;
      }
    }
  }
  report.provenance_ok = true;
  return report;
}

using Parts = std::vector<std::vector<ItemT>>;

struct Mutation {
  const char* name;
  std::function<void(Parts&)> apply;
};

// Each mutation keeps the partitions non-empty-indexable for the 4-rank
// fixtures below. Items are picked mid-partition so local order holds
// unless the mutation is meant to break it.
std::vector<Mutation> mutation_corpus() {
  return {
      {"none", [](Parts&) {}},
      {"swapped_keys", [](Parts& p) { std::swap(p[1][10], p[1][500]); }},
      {"duplicated_item", [](Parts& p) { p[2][41] = p[2][40]; }},
      {"duplicated_item_appended",
       [](Parts& p) { p[3].push_back(p[3].back()); }},
      {"dropped_item", [](Parts& p) { p[2].erase(p[2].begin() + 7); }},
      {"mutated_key", [](Parts& p) { p[2][1].key = p[2][0].key; }},
      {"wrong_prev_machine_missing",
       [](Parts& p) { p[0][3].prov.prev_machine = 99; }},
      {"wrong_prev_machine_real",
       [](Parts& p) { p[0][3].prov.prev_machine ^= 1; }},
      {"wrong_prev_index_range",
       [](Parts& p) { p[1][5].prov.prev_index = 1u << 30; }},
      {"wrong_prev_index_neighbor",
       [](Parts& p) { p[1][5].prov.prev_index ^= 1; }},
      {"provenance_points_at_same_slot",
       [](Parts& p) { p[1][6].prov = p[1][5].prov; }},
      {"cross_shard_provenance_swap",
       [](Parts& p) { std::swap(p[0][20].prov, p[3][20].prov); }},
      {"cross_shard_provenance_and_key_swap",
       [](Parts& p) {
         // Keeps the key multiset and every item's provenance valid, but
         // breaks order unless the keys are equal.
         std::swap(p[0][20], p[3][20]);
       }},
  };
}

void expect_same_verdict(const Parts& parts,
                         const std::vector<std::vector<Key>>& input,
                         const std::string& what) {
  const auto got = validate_sorted(parts, input);
  const auto want = legacy_validate_sorted(parts, input);
  EXPECT_EQ(got.partitions_sorted, want.partitions_sorted) << what;
  EXPECT_EQ(got.globally_ordered, want.globally_ordered) << what;
  EXPECT_EQ(got.permutation_ok, want.permutation_ok) << what;
  EXPECT_EQ(got.provenance_ok, want.provenance_ok) << what;
  EXPECT_EQ(got.failure, want.failure) << what;
}

TEST(ValidateDifferential, MatchesLegacyValidatorOnMutationCorpus) {
  for (auto dist : {gen::Distribution::kUniform,
                    gen::Distribution::kFewDistinct}) {
    gen::DataGenConfig dcfg;
    dcfg.dist = dist;
    dcfg.seed = 9;
    std::vector<std::vector<Key>> input;
    for (std::size_t r = 0; r < 4; ++r)
      input.push_back(gen::generate_shard(dcfg, 8000, 4, r));
    rt::ClusterConfig ccfg;
    ccfg.machines = 4;
    ccfg.threads_per_machine = 4;
    rt::Cluster<Sorter::Msg> cluster(ccfg);
    Sorter sorter(cluster, SortConfig{});
    sorter.run(input);
    for (const auto& mutation : mutation_corpus()) {
      Parts parts = sorter.partitions();
      for (const auto& part : parts) ASSERT_GT(part.size(), 600u);
      mutation.apply(parts);
      expect_same_verdict(parts, input,
                          std::string(mutation.name) + " on " +
                              gen::name(dist));
    }
  }
}

TEST(ValidateDifferential, CleanOutputTakesTheFastPath) {
  // The fast path alone must accept a correct output: the legacy and new
  // validators agree, and every flag is set.
  gen::DataGenConfig dcfg;
  dcfg.seed = 4;
  std::vector<std::vector<Key>> input;
  for (std::size_t r = 0; r < 3; ++r)
    input.push_back(gen::generate_shard(dcfg, 3000, 3, r));
  Parts parts(3);
  std::vector<std::vector<Key>> sorted = input;
  for (auto& s : sorted) std::sort(s.begin(), s.end());
  // One partition per shard range of the merged order, built directly.
  std::vector<ItemT> all;
  for (std::uint32_t m = 0; m < 3; ++m)
    for (std::uint64_t i = 0; i < sorted[m].size(); ++i)
      all.push_back(ItemT{sorted[m][i], Provenance{m, i}});
  std::stable_sort(all.begin(), all.end(),
                   [](const ItemT& a, const ItemT& b) { return a.key < b.key; });
  for (std::size_t i = 0; i < all.size(); ++i)
    parts[i * 3 / all.size()].push_back(all[i]);
  const auto report = validate_sorted(parts, input);
  EXPECT_TRUE(report.ok()) << report.failure;
  expect_same_verdict(parts, input, "hand-built");
}

TEST(Validate, EmptyEverything) {
  const std::vector<std::vector<ItemT>> parts(3);
  const std::vector<std::vector<Key>> input(3);
  const auto report = validate_sorted(parts, input);
  EXPECT_TRUE(report.ok());
}

}  // namespace
}  // namespace pgxd::core
