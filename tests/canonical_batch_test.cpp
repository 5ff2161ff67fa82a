// Tests for summary::WriteCanonicalBatch, the one routine that lays out
// canonical batch answers (input order, every list ascending) for the
// scatter-gather coordinator and the paged batch path. Each case checks
// offsets and bytes against a std::sort reference (or a hand-written
// answer): random contributors at every digit-pass count (ids up to
// 2^31 - 1 take three passes), empty batches and lists, positions named
// by several lists, a skipped contributor, and scratch reuse across
// batches of different sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "summary/canonical_batch.hpp"

namespace slugger::summary {
namespace {

/// One contributor's owned lists, viewable as a ListSource.
struct Contributor {
  std::vector<uint32_t> positions;
  std::vector<NodeId> neighbors;
  std::vector<uint64_t> offsets;

  void Add(uint32_t position, const std::vector<NodeId>& list) {
    if (offsets.empty()) offsets.push_back(0);
    positions.push_back(position);
    neighbors.insert(neighbors.end(), list.begin(), list.end());
    offsets.push_back(neighbors.size());
  }
  ListSource source() const { return {positions, neighbors, offsets}; }
};

/// `lists` random lists of up to `max_len` ids below num_nodes, at random
/// positions below batch (repeats allowed). The largest and smallest
/// legal ids are always present when there is room for them.
Contributor RandomContributor(std::mt19937_64* rng, size_t batch,
                              uint64_t num_nodes, size_t lists,
                              size_t max_len) {
  Contributor c;
  std::uniform_int_distribution<uint64_t> id(0, num_nodes - 1);
  std::uniform_int_distribution<size_t> len(0, max_len);
  std::uniform_int_distribution<size_t> pos(0, batch - 1);
  for (size_t k = 0; k < lists; ++k) {
    std::vector<NodeId> list(len(*rng));
    for (NodeId& v : list) v = static_cast<NodeId>(id(*rng));
    if (k == 0 && list.size() >= 2) {
      list[0] = static_cast<NodeId>(num_nodes - 1);
      list[1] = 0;
    }
    c.Add(static_cast<uint32_t>(pos(*rng)), list);
  }
  return c;
}

BatchResult Reference(const std::vector<const Contributor*>& contributors,
                      size_t batch) {
  std::vector<std::vector<NodeId>> lists(batch);
  for (const Contributor* c : contributors) {
    for (size_t k = 0; k < c->positions.size(); ++k) {
      lists[c->positions[k]].insert(lists[c->positions[k]].end(),
                                    c->neighbors.begin() + c->offsets[k],
                                    c->neighbors.begin() + c->offsets[k + 1]);
    }
  }
  BatchResult out;
  out.offsets.push_back(0);
  for (std::vector<NodeId>& list : lists) {
    std::sort(list.begin(), list.end());
    out.neighbors.insert(out.neighbors.end(), list.begin(), list.end());
    out.offsets.push_back(out.neighbors.size());
  }
  return out;
}

void ExpectCanonical(const std::vector<const Contributor*>& contributors,
                     size_t batch, uint64_t num_nodes,
                     CanonicalScratch* scratch) {
  std::vector<ListSource> sources;
  for (const Contributor* c : contributors) sources.push_back(c->source());
  BatchResult got;
  WriteCanonicalBatch(sources, batch, num_nodes, scratch, &got);
  const BatchResult expected = Reference(contributors, batch);
  ASSERT_EQ(got.offsets, expected.offsets)
      << "batch " << batch << ", num_nodes " << num_nodes;
  ASSERT_EQ(got.neighbors, expected.neighbors)
      << "batch " << batch << ", num_nodes " << num_nodes;
}

TEST(CanonicalBatch, MatchesSortAtEveryDigitPassCount) {
  std::mt19937_64 rng(17);
  CanonicalScratch scratch;
  // 1, 1, 1, 1, 2, 2, 3 and 3 digit passes.
  for (const uint64_t num_nodes :
       {uint64_t{1}, uint64_t{2}, uint64_t{100}, uint64_t{2048},
        uint64_t{2049}, uint64_t{1} << 22, (uint64_t{1} << 22) + 1,
        uint64_t{1} << 31}) {
    for (const size_t batch : {size_t{1}, size_t{7}, size_t{300}}) {
      std::vector<Contributor> shards;
      for (int s = 0; s < 4; ++s) {
        shards.push_back(
            RandomContributor(&rng, batch, num_nodes, batch / 2 + 3, 40));
      }
      std::vector<const Contributor*> all;
      for (const Contributor& c : shards) all.push_back(&c);
      ExpectCanonical(all, batch, num_nodes, &scratch);
    }
  }
}

TEST(CanonicalBatch, EmptyBatchAndEmptyLists) {
  CanonicalScratch scratch;
  BatchResult got;
  got.neighbors = {5, 6};
  WriteCanonicalBatch({}, 0, 1000, &scratch, &got);
  EXPECT_EQ(got.offsets, std::vector<uint64_t>{0});
  EXPECT_TRUE(got.neighbors.empty());
  EXPECT_EQ(got.size(), 0u);

  // A contributor with no lists, and lists that are empty.
  Contributor none;
  Contributor empties;
  empties.Add(0, {});
  empties.Add(2, {});
  Contributor some;
  some.Add(2, {9, 3});
  ExpectCanonical({&none}, 3, 1000, &scratch);
  ExpectCanonical({&none, &empties}, 3, 1000, &scratch);
  ExpectCanonical({&empties, &some, &none}, 3, 1000, &scratch);
}

TEST(CanonicalBatch, PositionsNamedByManyListsMergeIntoOne) {
  CanonicalScratch scratch;
  Contributor a;
  a.Add(1, {40, 2});
  a.Add(1, {7});
  a.Add(0, {3000, 1});
  Contributor b;
  b.Add(1, {5, 2});
  b.Add(0, {2999});
  std::vector<ListSource> sources = {a.source(), b.source()};
  BatchResult got;
  WriteCanonicalBatch(sources, 2, 4096, &scratch, &got);
  EXPECT_EQ(got.offsets, (std::vector<uint64_t>{0, 3, 8}));
  EXPECT_EQ(got.neighbors,
            (std::vector<NodeId>{1, 2999, 3000, 2, 2, 5, 7, 40}));
}

TEST(CanonicalBatch, SkippedContributorAddsNothing) {
  // The coordinator leaves a failed shard out of the sources; the batch
  // is then exactly the other shards' lists.
  std::mt19937_64 rng(23);
  CanonicalScratch scratch;
  const size_t batch = 64;
  const uint64_t num_nodes = 5000;
  std::vector<Contributor> shards;
  for (int s = 0; s < 3; ++s) {
    shards.push_back(RandomContributor(&rng, batch, num_nodes, batch, 30));
  }
  ExpectCanonical({&shards[0], &shards[2]}, batch, num_nodes, &scratch);
}

TEST(CanonicalBatch, ScratchReuseAcrossShrinkingAndGrowingBatches) {
  std::mt19937_64 rng(29);
  CanonicalScratch scratch;
  for (const size_t batch : {size_t{500}, size_t{3}, size_t{900}, size_t{1}}) {
    const uint64_t num_nodes = batch % 2 == 0 ? 70000 : 300;
    Contributor c = RandomContributor(&rng, batch, num_nodes, batch, 60);
    ExpectCanonical({&c}, batch, num_nodes, &scratch);
  }
}

}  // namespace
}  // namespace slugger::summary
