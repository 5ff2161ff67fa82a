// Tests for the unified persistence layer (slugger::storage) and the
// paged v2 read path: format negotiation between v1 monolithic and v2
// paged files, byte-exact agreement between a paged-open handle and an
// in-memory one across the whole query surface (single, batched,
// overlayed via DynamicGraph), page-touch accounting (a cold open does
// O(header + page table) I/O and a single query faults in no more pages
// than its ancestor chain explains), residency bounds of the pread
// backend, and lazy materialization for analytics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/dynamic_graph.hpp"
#include "api/engine.hpp"
#include "gen/generators.hpp"
#include "graph/graph.hpp"
#include "storage/buffer_manager.hpp"
#include "storage/format.hpp"
#include "storage/paged_source.hpp"
#include "storage/storage.hpp"
#include "summary/serialize.hpp"

namespace slugger {
namespace {

CompressedGraph Summarize(const graph::Graph& g, uint64_t seed = 7) {
  EngineOptions options;
  options.config.iterations = 10;
  options.config.seed = seed;
  Engine engine(options);
  StatusOr<CompressedGraph> compressed = engine.Summarize(g);
  EXPECT_TRUE(compressed.ok()) << compressed.status().ToString();
  return std::move(compressed).value();
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<NodeId> SortedNeighbors(const CompressedGraph& cg, NodeId v,
                                    QueryScratch* scratch) {
  std::vector<NodeId> out = cg.Neighbors(v, scratch);
  std::sort(out.begin(), out.end());
  return out;
}

/// Asserts the full query surface of `paged` agrees with `mem`:
/// single-node, batched (with duplicates), and degree flavors.
void ExpectAgreement(const CompressedGraph& mem, const CompressedGraph& paged) {
  ASSERT_EQ(mem.num_nodes(), paged.num_nodes());
  QueryScratch qa, qb;
  for (NodeId v = 0; v < mem.num_nodes(); ++v) {
    EXPECT_EQ(SortedNeighbors(mem, v, &qa), SortedNeighbors(paged, v, &qb))
        << "node " << v;
    EXPECT_EQ(mem.Degree(v, &qa), paged.Degree(v, &qb)) << "node " << v;
  }

  // A batch over every node plus shuffled duplicates.
  std::vector<NodeId> nodes(mem.num_nodes());
  for (NodeId v = 0; v < mem.num_nodes(); ++v) nodes[v] = v;
  std::mt19937 rng(99);
  for (int i = 0; i < 64 && mem.num_nodes() > 0; ++i) {
    nodes.push_back(static_cast<NodeId>(rng() % mem.num_nodes()));
  }
  std::shuffle(nodes.begin(), nodes.end(), rng);

  BatchResult ra, rb;
  BatchScratch sa, sb;
  ASSERT_TRUE(mem.NeighborsBatch(nodes, &ra, &sa).ok());
  ASSERT_TRUE(paged.NeighborsBatch(nodes, &rb, &sb).ok());
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    std::vector<NodeId> a(ra[i].begin(), ra[i].end());
    std::vector<NodeId> b(rb[i].begin(), rb[i].end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "batch position " << i;
  }

  std::vector<uint64_t> da, db;
  ASSERT_TRUE(mem.DegreeBatch(nodes, &da, &sa).ok());
  ASSERT_TRUE(paged.DegreeBatch(nodes, &db, &sb).ok());
  EXPECT_EQ(da, db);
}

// ------------------------------------------------------------- agreement
TEST(PagedStorage, PagedOpenAgreesWithInMemoryOnRmat) {
  graph::Graph g = gen::RMat(10, 6000, 0.57, 0.19, 0.19, 11);
  CompressedGraph mem = Summarize(g);
  const std::string path = TempPath("agree_rmat.slg2");
  storage::SaveOptions save;
  save.page_size = 4096;
  ASSERT_TRUE(storage::Save(mem, path, save).ok());

  StatusOr<CompressedGraph> paged = storage::Open(path);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_TRUE(paged.value().paged());
  EXPECT_EQ(paged.value().stats().cost, mem.stats().cost);
  ExpectAgreement(mem, paged.value());
  // Serving the whole sweep never required materializing.
  EXPECT_TRUE(paged.value().paged());
  std::remove(path.c_str());
}

TEST(PagedStorage, PagedOpenAgreesWithInMemoryOnErdosRenyi) {
  graph::Graph g = gen::ErdosRenyi(700, 4200, 23);
  CompressedGraph mem = Summarize(g, 23);
  storage::SaveOptions save;
  save.page_size = 1024;  // many small pages: records straddle boundaries
  StatusOr<std::string> bytes = storage::Serialize(mem, save);
  ASSERT_TRUE(bytes.ok());

  StatusOr<CompressedGraph> paged = storage::OpenBuffer(bytes.value());
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  EXPECT_TRUE(paged.value().paged());
  ExpectAgreement(mem, paged.value());
}

TEST(PagedStorage, DynamicGraphOverPagedBaseAgrees) {
  graph::Graph g = gen::ErdosRenyi(400, 2000, 31);
  CompressedGraph mem = Summarize(g, 31);
  StatusOr<std::string> bytes = storage::Serialize(mem);
  ASSERT_TRUE(bytes.ok());
  StatusOr<CompressedGraph> paged = storage::OpenBuffer(std::move(bytes).value());
  ASSERT_TRUE(paged.ok());

  DynamicGraphOptions options;
  options.auto_compact = false;  // keep both sides serving overlay + base
  DynamicGraph over_mem(std::move(mem), options);
  DynamicGraph over_paged(std::move(paged).value(), options);

  std::vector<stream::EdgeEdit> edits;
  std::mt19937 rng(5);
  for (int i = 0; i < 300; ++i) {
    NodeId u = static_cast<NodeId>(rng() % 400);
    NodeId v = static_cast<NodeId>(rng() % 400);
    if (u == v) continue;
    edits.push_back({u, v,
                     (rng() & 1) ? stream::EditKind::kInsert
                                 : stream::EditKind::kDelete});
  }
  ASSERT_TRUE(over_mem.ApplyEdits(edits).ok());
  ASSERT_TRUE(over_paged.ApplyEdits(edits).ok());

  QueryScratch qa, qb;
  for (NodeId v = 0; v < 400; ++v) {
    std::vector<NodeId> a = over_mem.Neighbors(v, &qa);
    std::vector<NodeId> b = over_paged.Neighbors(v, &qb);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "node " << v;
    EXPECT_EQ(over_mem.Degree(v, &qa), over_paged.Degree(v, &qb));
  }

  std::vector<NodeId> nodes;
  for (NodeId v = 0; v < 400; ++v) nodes.push_back(v);
  BatchResult ra, rb;
  OverlayBatchScratch sa, sb;
  ASSERT_TRUE(over_mem.NeighborsBatch(nodes, &ra, &sa).ok());
  ASSERT_TRUE(over_paged.NeighborsBatch(nodes, &rb, &sb).ok());
  for (size_t i = 0; i < nodes.size(); ++i) {
    std::vector<NodeId> a(ra[i].begin(), ra[i].end());
    std::vector<NodeId> b(rb[i].begin(), rb[i].end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "batch position " << i;
  }
}

// ----------------------------------------------------------- negotiation
TEST(StorageApi, V1FilesOpenThroughTheSameEntryPoint) {
  graph::Graph g = gen::ErdosRenyi(300, 1500, 41);
  CompressedGraph cg = Summarize(g, 41);
  const std::string path = TempPath("negotiate.v1.summary");
  storage::SaveOptions v1;
  v1.format = storage::Format::kMonolithicV1;
  ASSERT_TRUE(storage::Save(cg, path, v1).ok());

  // Byte-compatible with the legacy writer.
  StatusOr<std::string> bytes = storage::Serialize(cg, v1);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes.value(), summary::SerializeSummary(cg.summary()));

  for (auto mode : {storage::OpenOptions::Mode::kAuto,
                    storage::OpenOptions::Mode::kInMemory,
                    storage::OpenOptions::Mode::kPaged}) {
    storage::OpenOptions options;
    options.mode = mode;
    StatusOr<CompressedGraph> opened = storage::Open(path, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    // A v1 file has no pages to serve from; every mode lands in memory.
    EXPECT_FALSE(opened.value().paged());
    EXPECT_TRUE(opened.value().Verify(g).ok());
  }
  std::remove(path.c_str());
}

TEST(StorageApi, OpenModeControlsPagedServing) {
  graph::Graph g = gen::ErdosRenyi(300, 1500, 43);
  CompressedGraph cg = Summarize(g, 43);
  const std::string path = TempPath("negotiate.v2.slg2");
  ASSERT_TRUE(storage::Save(cg, path).ok());  // default: paged v2

  StatusOr<CompressedGraph> paged = storage::Open(path);
  ASSERT_TRUE(paged.ok());
  EXPECT_TRUE(paged.value().paged());
  ASSERT_NE(paged.value().paged_source(), nullptr);

  storage::OpenOptions in_memory;
  in_memory.mode = storage::OpenOptions::Mode::kInMemory;
  StatusOr<CompressedGraph> eager = storage::Open(path, in_memory);
  ASSERT_TRUE(eager.ok()) << eager.status().ToString();
  EXPECT_FALSE(eager.value().paged());
  EXPECT_TRUE(eager.value().Verify(g).ok());
  std::remove(path.c_str());
}

// Overwriting a file that a handle serves paged over mmap must leave that
// handle working. Save replaces the file by rename, so the mapping keeps
// the old inode; a Save that truncated the file in place made the old
// handle's next page fault past the new length raise SIGBUS.
TEST(StorageApi, SaveOverAFileServedOverMmapKeepsTheOldHandle) {
  CompressedGraph first =
      Summarize(gen::RMat(10, 6000, 0.57, 0.19, 0.19, 31));
  CompressedGraph second = Summarize(gen::ErdosRenyi(200, 600, 32), 32);
  const std::string path = TempPath("overwrite_served.slg2");
  storage::SaveOptions save;
  save.page_size = 4096;
  ASSERT_TRUE(storage::Save(first, path, save).ok());
  storage::OpenOptions open;
  open.mode = storage::OpenOptions::Mode::kPaged;
  open.buffer.io = storage::Io::kMmap;
  StatusOr<CompressedGraph> served = storage::Open(path, open);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_TRUE(served.value().paged());

  // The second summary's file is smaller, so in-place truncation would
  // have cut pages the served handle has not faulted in yet.
  ASSERT_TRUE(storage::Save(second, path, save).ok());
  ExpectAgreement(first, served.value());
  EXPECT_TRUE(served.value().paged());

  StatusOr<CompressedGraph> reopened = storage::Open(path, open);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ExpectAgreement(second, reopened.value());

  // A Save that cannot create its temporary file reports it.
  EXPECT_FALSE(
      storage::Save(second, TempPath("missing_dir/overwrite.slg2"), save).ok());

  // The temporary file was renamed away, not left beside the target.
  for (const auto& entry :
       std::filesystem::directory_iterator(testing::TempDir())) {
    EXPECT_EQ(entry.path().filename().string().rfind(
                  "overwrite_served.slg2.tmp", 0),
              std::string::npos)
        << entry.path();
  }
  std::remove(path.c_str());
}

TEST(StorageApi, MissingAndGarbageFilesAreErrors) {
  EXPECT_FALSE(storage::Open(TempPath("absent.slg2")).ok());
  EXPECT_FALSE(storage::OpenBuffer("definitely not a summary").ok());
  EXPECT_FALSE(storage::OpenBuffer("").ok());
}

TEST(StorageApi, EmptyGraphRoundTripsBothFormats) {
  CompressedGraph empty{summary::SummaryGraph(0)};
  for (auto format :
       {storage::Format::kMonolithicV1, storage::Format::kPagedV2}) {
    storage::SaveOptions save;
    save.format = format;
    StatusOr<std::string> bytes = storage::Serialize(empty, save);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    StatusOr<CompressedGraph> opened =
        storage::OpenBuffer(std::move(bytes).value());
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ(opened.value().num_nodes(), 0u);
  }
}

TEST(StorageApi, InvalidPageSizeIsRejected) {
  CompressedGraph cg = Summarize(gen::ErdosRenyi(50, 100, 3), 3);
  for (uint32_t page_size : {0u, 100u, 128u, 1u << 17, 3000u}) {
    storage::SaveOptions save;
    save.page_size = page_size;
    EXPECT_FALSE(storage::Serialize(cg, save).ok()) << page_size;
  }
}

// ------------------------------------------------------- page accounting
TEST(PagedStorage, ColdOpenReadsOnlyHeaderAndPageTable) {
  graph::Graph g = gen::RMat(11, 12000, 0.57, 0.19, 0.19, 13);
  CompressedGraph mem = Summarize(g, 13);
  const std::string path = TempPath("accounting.slg2");
  storage::SaveOptions save;
  save.page_size = 1024;
  ASSERT_TRUE(storage::Save(mem, path, save).ok());

  StatusOr<CompressedGraph> paged = storage::Open(path);
  ASSERT_TRUE(paged.ok());
  auto source = paged.value().paged_source();
  ASSERT_NE(source, nullptr);
  // The open itself parsed the header and page table with plain reads —
  // the buffer manager has not faulted a single page yet.
  EXPECT_EQ(source->buffer_stats().faults, 0u);
  EXPECT_GT(source->header().num_pages, 16u);
  std::remove(path.c_str());
}

TEST(PagedStorage, SingleQueryPinsNoMoreThanItsAncestorChain) {
  graph::Graph g = gen::RMat(11, 12000, 0.57, 0.19, 0.19, 13);
  CompressedGraph mem = Summarize(g, 13);
  storage::SaveOptions save;
  save.page_size = 1024;
  StatusOr<std::string> bytes = storage::Serialize(mem, save);
  ASSERT_TRUE(bytes.ok());
  storage::OpenOptions options;
  options.record_cache_capacity = 0;  // count real page touches
  StatusOr<CompressedGraph> paged =
      storage::OpenBuffer(std::move(bytes).value(), options);
  ASSERT_TRUE(paged.ok());
  auto source = paged.value().paged_source();
  ASSERT_NE(source, nullptr);
  const uint32_t psz = source->header().page_size;

  QueryScratch scratch;
  std::mt19937 rng(17);
  for (int probe = 0; probe < 20; ++probe) {
    const NodeId v = static_cast<NodeId>(rng() % paged.value().num_nodes());
    StatusOr<storage::ChainInfo> chain = source->ChainOf(v);
    ASSERT_TRUE(chain.ok());
    const uint64_t before = source->buffer_stats().faults;
    (void)paged.value().Neighbors(v, &scratch);
    const uint64_t touched = source->buffer_stats().faults - before;

    // Page budget the chain explains: one rank page, locator and record
    // pages for each ancestor (a record may straddle a page boundary),
    // and the leaf_at runs of each superedge's endpoint interval.
    const storage::ChainInfo& c = chain.value();
    const uint64_t budget = 1 + c.chain_len            // rank + locator
                            + c.chain_len + c.chain_bytes / psz  // records
                            + c.num_edges + (c.covered_leaves * 4) / psz + 2;
    EXPECT_LE(touched, budget) << "node " << v;
  }
  // Pins are released as the walk goes; nothing stays pinned after, and
  // the walk never held more than a handful of pages at once.
  EXPECT_EQ(source->buffer_stats().pinned_now, 0u);
  EXPECT_LE(source->buffer_stats().max_pinned, 4u);
}

TEST(PagedStorage, PreadBackendBoundsResidency) {
  graph::Graph g = gen::ErdosRenyi(600, 3600, 53);
  CompressedGraph mem = Summarize(g, 53);
  const std::string path = TempPath("pread.slg2");
  storage::SaveOptions save;
  save.page_size = 512;
  ASSERT_TRUE(storage::Save(mem, path, save).ok());

  storage::OpenOptions options;
  options.buffer.io = storage::Io::kPread;
  options.buffer.max_resident_pages = 8;
  StatusOr<CompressedGraph> paged = storage::Open(path, options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  auto source = paged.value().paged_source();
  ASSERT_EQ(source->backend(), storage::Io::kPread);

  ExpectAgreement(mem, paged.value());
  const storage::BufferStats stats = source->buffer_stats();
  EXPECT_LE(stats.resident_pages, 8u);
  EXPECT_GT(stats.evictions, 0u);  // the sweep cycled the tiny cache
  std::remove(path.c_str());
}

TEST(PagedStorage, PagedBatchListsAreCanonical) {
  // Paged batches come out in input order with every list ascending:
  // byte-identical to the in-memory batch once its lists are sorted.
  graph::Graph g = gen::RMat(12, 9000, 0.57, 0.19, 0.19, 41);
  ASSERT_GT(g.num_nodes(), 2048u);  // two digit passes
  CompressedGraph mem = Summarize(g, 41);
  StatusOr<std::string> bytes = storage::Serialize(mem, {});
  ASSERT_TRUE(bytes.ok());
  StatusOr<CompressedGraph> paged = storage::OpenBuffer(bytes.value());
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();

  std::vector<NodeId> nodes;
  std::mt19937 rng(5);
  for (int i = 0; i < 3000; ++i) nodes.push_back(rng() % g.num_nodes());
  BatchResult expected, got;
  BatchScratch sa, sb;
  ASSERT_TRUE(mem.NeighborsBatch(nodes, &expected, &sa).ok());
  for (size_t i = 0; i < expected.size(); ++i) {
    std::sort(expected.neighbors.begin() + expected.offsets[i],
              expected.neighbors.begin() + expected.offsets[i + 1]);
  }
  ASSERT_TRUE(paged.value().NeighborsBatch(nodes, &got, &sb).ok());
  EXPECT_EQ(got.offsets, expected.offsets);
  EXPECT_EQ(got.neighbors, expected.neighbors);
}

TEST(BufferManagerPread, RecyclesEvictedFramesAndAgreesWithMemory) {
  constexpr uint32_t kPageSize = 256;
  constexpr uint32_t kPages = 9;
  std::string image(kPageSize * kPages, '\0');
  std::mt19937 rng(3);
  for (char& c : image) c = static_cast<char>(rng());
  std::vector<uint64_t> checksums(kPages);
  const auto page_bytes = [&](uint32_t p) {
    return reinterpret_cast<const uint8_t*>(image.data()) +
           static_cast<size_t>(p) * kPageSize;
  };
  for (uint32_t p = 0; p < kPages; ++p) {
    checksums[p] = storage::Checksum64(page_bytes(p), kPageSize);
  }
  const std::string path = TempPath("pread_frames.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(image.data(), 1, image.size(), f), image.size());
    std::fclose(f);
  }
  storage::BufferOptions options;
  options.io = storage::Io::kPread;
  options.max_resident_pages = 2;
  auto pread = storage::BufferManager::OpenFile(path, kPageSize, checksums,
                                                options);
  ASSERT_TRUE(pread.ok()) << pread.status().ToString();
  auto memory = storage::BufferManager::FromBuffer(image, kPageSize, checksums);
  ASSERT_TRUE(memory.ok()) << memory.status().ToString();

  // Two frames and a sequential cycle: every fetch faults, and every
  // fault past the first two evicts (reusing the victim's frame).
  for (int round = 0; round < 2; ++round) {
    for (uint32_t p = 0; p < kPages; ++p) {
      StatusOr<storage::PageRef> a = pread.value()->Fetch(p);
      StatusOr<storage::PageRef> b = memory.value()->Fetch(p);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      ASSERT_EQ(std::memcmp(a.value().data(), b.value().data(), kPageSize), 0)
          << "round " << round << ", page " << p;
    }
  }
  storage::BufferStats stats = pread.value()->stats();
  EXPECT_EQ(stats.fetches, 2u * kPages);
  EXPECT_EQ(stats.faults, 2u * kPages);
  EXPECT_EQ(stats.evictions, 2u * kPages - 2);
  EXPECT_EQ(stats.resident_pages, 2u);
  EXPECT_EQ(stats.pinned_now, 0u);

  // A failed load still evicts its victim but leaves no frame resident:
  // a checksum mismatch, then a short read past a truncated end.
  std::vector<uint64_t> wrong = checksums;
  wrong[4] ^= 1;
  auto bad = storage::BufferManager::OpenFile(path, kPageSize, wrong, options);
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  ASSERT_TRUE(bad.value()->Fetch(0).ok());
  ASSERT_TRUE(bad.value()->Fetch(1).ok());
  StatusOr<storage::PageRef> corrupt = bad.value()->Fetch(4);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), Status::Code::kCorruption);
  stats = bad.value()->stats();
  EXPECT_EQ(stats.checksum_failures, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_pages, 1u);
  {
    StatusOr<storage::PageRef> survivor = bad.value()->Fetch(1);
    ASSERT_TRUE(survivor.ok());
    EXPECT_EQ(std::memcmp(survivor.value().data(), page_bytes(1), kPageSize),
              0);
  }

  std::filesystem::resize_file(path, kPageSize * 6);
  StatusOr<storage::PageRef> cut = bad.value()->Fetch(7);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), Status::Code::kIOError);
  EXPECT_EQ(bad.value()->stats().resident_pages, 1u);
  StatusOr<storage::PageRef> reload = bad.value()->Fetch(2);
  ASSERT_TRUE(reload.ok()) << reload.status().ToString();
  EXPECT_EQ(std::memcmp(reload.value().data(), page_bytes(2), kPageSize), 0);
  EXPECT_EQ(bad.value()->stats().resident_pages, 2u);
  std::remove(path.c_str());
}

// -------------------------------------------------------- materialization
TEST(PagedStorage, AnalyticsMaterializeAndAgree) {
  graph::Graph g = gen::ErdosRenyi(500, 3000, 61);
  CompressedGraph mem = Summarize(g, 61);
  StatusOr<std::string> bytes = storage::Serialize(mem);
  ASSERT_TRUE(bytes.ok());
  StatusOr<CompressedGraph> paged = storage::OpenBuffer(std::move(bytes).value());
  ASSERT_TRUE(paged.ok());
  EXPECT_TRUE(paged.value().paged());

  EXPECT_EQ(paged.value().Triangles(), mem.Triangles());
  EXPECT_EQ(paged.value().Bfs(0), mem.Bfs(0));
  // The rebuilt summary renumbers supernodes, so PageRank sums in a
  // different order — equal up to floating-point rounding.
  const std::vector<double> pr_paged = paged.value().PageRank();
  const std::vector<double> pr_mem = mem.PageRank();
  ASSERT_EQ(pr_paged.size(), pr_mem.size());
  for (size_t i = 0; i < pr_mem.size(); ++i) {
    EXPECT_NEAR(pr_paged[i], pr_mem[i], 1e-12) << "node " << i;
  }
  EXPECT_TRUE(paged.value().Decode() == g);
  EXPECT_TRUE(paged.value().Verify(g).ok());
  // The first analytics call materialized the summary; from here on the
  // handle serves from memory.
  EXPECT_FALSE(paged.value().paged());
  ExpectAgreement(mem, paged.value());
}

TEST(PagedStorage, ExplicitMaterializeIsIdempotent) {
  graph::Graph g = gen::ErdosRenyi(200, 1000, 67);
  CompressedGraph mem = Summarize(g, 67);
  StatusOr<std::string> bytes = storage::Serialize(mem);
  ASSERT_TRUE(bytes.ok());
  StatusOr<CompressedGraph> paged = storage::OpenBuffer(std::move(bytes).value());
  ASSERT_TRUE(paged.ok());

  // Copies share one materialization.
  CompressedGraph copy = paged.value();
  ASSERT_TRUE(copy.Materialize().ok());
  ASSERT_TRUE(copy.Materialize().ok());
  EXPECT_FALSE(paged.value().paged());
  EXPECT_EQ(copy.summary().num_leaves(), mem.num_nodes());
  ExpectAgreement(mem, copy);
}

// ------------------------------------------------------ concurrent churn
// These run under ThreadSanitizer in CI (gtest_filter=PagedChurn.*): the
// pread frame cache is the one storage path with a real lock, and a tiny
// residency cap under concurrent readers keeps it constantly evicting —
// the access pattern most likely to expose a race in Fetch/Unpin or the
// record cache shards.

TEST(PagedChurn, ConcurrentReadersChurnTinyPreadCache) {
  graph::Graph g = gen::ErdosRenyi(500, 3000, 71);
  CompressedGraph mem = Summarize(g, 71);
  const std::string path = TempPath("churn.slg2");
  storage::SaveOptions save;
  save.page_size = 512;
  ASSERT_TRUE(storage::Save(mem, path, save).ok());

  storage::OpenOptions options;
  options.buffer.io = storage::Io::kPread;
  // Small enough to churn, big enough that four concurrent ancestor-chain
  // pin sets cannot exhaust the frames (exhaustion is an Aborted that
  // degrades to an empty answer — a different contract than this test).
  options.buffer.max_resident_pages = 16;
  StatusOr<CompressedGraph> paged = storage::Open(path, options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  auto source = paged.value().paged_source();
  ASSERT_EQ(source->backend(), storage::Io::kPread);

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 400;
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(100 + t);
      QueryScratch scratch;
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const NodeId v = rng() % mem.num_nodes();
        std::vector<NodeId> got = paged.value().Neighbors(v, &scratch);
        QueryScratch mem_scratch;
        std::vector<NodeId> want = mem.Neighbors(v, &mem_scratch);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        if (got != want) failed.store(true, std::memory_order_relaxed);
      }
    });
  }
  // Stats polling races the readers by design — the accessors must stay
  // safe (and the residency bound must hold) mid-churn.
  for (int i = 0; i < 200; ++i) {
    const storage::BufferStats stats = source->buffer_stats();
    EXPECT_LE(stats.resident_pages, 16u);
  }
  for (std::thread& th : readers) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(source->buffer_stats().evictions, 0u);
  std::remove(path.c_str());
}

TEST(PagedChurn, MaterializeRacesPagedReaders) {
  graph::Graph g = gen::ErdosRenyi(400, 2400, 73);
  CompressedGraph mem = Summarize(g, 73);
  const std::string path = TempPath("churn_mat.slg2");
  storage::SaveOptions save;
  save.page_size = 512;
  ASSERT_TRUE(storage::Save(mem, path, save).ok());

  storage::OpenOptions options;
  options.buffer.io = storage::Io::kPread;
  options.buffer.max_resident_pages = 6;
  StatusOr<CompressedGraph> paged = storage::Open(path, options);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();

  // Readers start on the paged path; Materialize swings the handle to
  // the in-memory summary mid-flight. Answers must agree regardless of
  // which side of the swap each query lands on.
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(200 + t);
      QueryScratch scratch;
      for (int i = 0; i < 300; ++i) {
        const NodeId v = rng() % mem.num_nodes();
        std::vector<NodeId> got = paged.value().Neighbors(v, &scratch);
        QueryScratch mem_scratch;
        std::vector<NodeId> want = mem.Neighbors(v, &mem_scratch);
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        if (got != want) failed.store(true, std::memory_order_relaxed);
      }
    });
  }
  EXPECT_TRUE(paged.value().Materialize().ok());
  for (std::thread& th : readers) th.join();
  EXPECT_FALSE(failed.load());
  EXPECT_FALSE(paged.value().paged());
  ExpectAgreement(mem, paged.value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace slugger
