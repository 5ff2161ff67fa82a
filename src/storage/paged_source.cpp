#include "storage/paged_source.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <new>
#include <numeric>
#include <stdexcept>
#include <sys/stat.h>
#include <utility>

#include "obs/metrics.hpp"
#include "summary/canonical_batch.hpp"

namespace slugger::storage {

namespace {

// Decoded-record cache effectiveness across every open paged source.
struct RecordCacheObsHandles {
  obs::Counter* hits = obs::MetricsRegistry::Global().GetCounter(
      "slugger_paged_record_cache_hits_total",
      "ancestor-record lookups served from the decoded cache");
  obs::Counter* misses = obs::MetricsRegistry::Global().GetCounter(
      "slugger_paged_record_cache_misses_total",
      "ancestor-record lookups that parsed pages");
};

const RecordCacheObsHandles& RecordCacheObs() {
  static RecordCacheObsHandles handles;
  return handles;
}

/// Mirrors the override dominance constant of summary/neighbor_query.cpp:
/// large enough to out-vote any real net coverage on a pair.
constexpr int32_t kForcedCoverage = INT32_MAX / 2;

/// Restores the between-queries scratch invariant after a walk, complete
/// or aborted: zero counts over touched, clear touched.
void ResetScratch(summary::QueryScratch* scratch) {
  for (NodeId u : scratch->touched) scratch->count[u] = 0;
  scratch->touched.clear();
}

/// Varint cursor over the record stream, following it across page
/// boundaries through the buffer manager. Bounded by record_bytes: any
/// read past the stream end is Corruption, so a forged length can never
/// walk off the file.
class RecordCursor {
 public:
  RecordCursor(BufferManager* buffer, const PagedHeader& header, uint64_t pos)
      : buffer_(buffer),
        first_page_(header.records.first_page),
        page_size_(header.page_size),
        end_(header.record_bytes),
        pos_(pos) {}

  uint64_t pos() const { return pos_; }
  uint64_t remaining() const { return end_ - pos_; }

  Status Get(uint64_t* value) {
    uint64_t result = 0;
    int shift = 0;
    for (;;) {
      if (pos_ >= end_) {
        return Status::Corruption("record stream overrun");
      }
      const uint32_t rel = static_cast<uint32_t>(pos_ / page_size_);
      if (!page_ || rel != rel_page_) {
        StatusOr<PageRef> ref = buffer_->Fetch(first_page_ + rel);
        if (!ref.ok()) return ref.status();
        page_ = std::move(ref.value());
        rel_page_ = rel;
      }
      const uint8_t byte = page_.data()[pos_ % page_size_];
      ++pos_;
      if (shift > 63 || (shift == 63 && (byte & 0x7F) > 1)) {
        return Status::Corruption("varint overflow in record stream");
      }
      result |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    *value = result;
    return Status::OK();
  }

 private:
  BufferManager* buffer_;
  uint32_t first_page_;
  uint32_t rel_page_ = kInvalidId;
  uint64_t page_size_;
  uint64_t end_;
  uint64_t pos_;
  PageRef page_;
};

Status FullPread(int fd, uint8_t* out, size_t n, uint64_t off,
                 const std::string& what) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r =
        ::pread(fd, out + got, n - got, static_cast<off_t>(off + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("read failed on " + what + ": " +
                             std::strerror(errno));
    }
    if (r == 0) return Status::Corruption("short read on " + what);
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<uint64_t>> PagedSummarySource::LoadPageTable(
    const PagedHeader& header, const uint8_t* pt_bytes) {
  const uint64_t pt_len =
      static_cast<uint64_t>(header.page_table.num_pages) * header.page_size;
  if (Checksum64(pt_bytes, pt_len) != header.page_table_checksum) {
    return Status::Corruption("page table checksum mismatch");
  }
  std::vector<uint64_t> sums(header.num_pages);
  const uint64_t epp = header.page_size / kPageTableStride;
  for (uint32_t p = 0; p < header.num_pages; ++p) {
    sums[p] = GetLE64(pt_bytes + (p / epp) * header.page_size +
                      (p % epp) * kPageTableStride);
  }
  return sums;
}

StatusOr<std::shared_ptr<PagedSummarySource>> PagedSummarySource::Finish(
    PagedHeader header, std::unique_ptr<BufferManager> buffer,
    const PagedOpenOptions& options) {
  // lint:allow(naked-new: private ctor, wrapped in shared_ptr on this line)
  auto src = std::shared_ptr<PagedSummarySource>(new PagedSummarySource());
  src->header_ = header;
  src->buffer_ = std::move(buffer);
  src->cache_capacity_per_shard_ =
      options.record_cache_capacity == 0
          ? 0
          : std::max<uint32_t>(
                1, options.record_cache_capacity /
                       static_cast<uint32_t>(kCacheShards));
  if (options.eager_verify) {
    // The header checksums cover page 0 only up to kMinPageSize (the
    // parser checks that window's slack); with larger pages the rest of
    // the header page must be the writer's zero fill.
    if (header.page_size > kMinPageSize) {
      StatusOr<PageRef> head = src->buffer_->Fetch(0);
      if (!head.ok()) return head.status();
      const uint8_t* data = head.value().data();
      for (uint32_t i = kMinPageSize; i < header.page_size; ++i) {
        if (data[i] != 0) {
          return Status::Corruption("nonzero slack in the header page");
        }
      }
    }
    // Touch every data page once; verify-once backends keep the verdict.
    for (uint32_t p = header.locator.first_page; p < header.num_pages; ++p) {
      StatusOr<PageRef> ref = src->buffer_->Fetch(p);
      if (!ref.ok()) return ref.status();
    }
  }
  return src;
}

StatusOr<std::shared_ptr<PagedSummarySource>> PagedSummarySource::OpenFile(
    const std::string& path, const PagedOpenOptions& options) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IOError("fstat failed on " + path + ": " +
                           std::strerror(err));
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  uint8_t head[kMinPageSize] = {};
  const size_t head_len =
      static_cast<size_t>(std::min<uint64_t>(file_size, kMinPageSize));
  Status s = FullPread(fd, head, head_len, 0, path + " header");
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  StatusOr<PagedHeader> header = ParsePagedHeader(
      reinterpret_cast<const char*>(head), head_len, file_size);
  if (!header.ok()) {
    ::close(fd);
    return header.status();
  }
  const PagedHeader& h = header.value();
  std::string pt(static_cast<uint64_t>(h.page_table.num_pages) * h.page_size,
                 '\0');
  s = FullPread(fd, reinterpret_cast<uint8_t*>(pt.data()), pt.size(),
                static_cast<uint64_t>(h.page_table.first_page) * h.page_size,
                path + " page table");
  ::close(fd);
  if (!s.ok()) return s;
  StatusOr<std::vector<uint64_t>> sums =
      LoadPageTable(h, reinterpret_cast<const uint8_t*>(pt.data()));
  if (!sums.ok()) return sums.status();
  StatusOr<std::unique_ptr<BufferManager>> buffer = BufferManager::OpenFile(
      path, h.page_size, std::move(sums).value(), options.buffer);
  if (!buffer.ok()) return buffer.status();
  return Finish(h, std::move(buffer).value(), options);
}

StatusOr<std::shared_ptr<PagedSummarySource>> PagedSummarySource::OpenBuffer(
    std::string bytes, const PagedOpenOptions& options) {
  StatusOr<PagedHeader> header =
      ParsePagedHeader(bytes.data(), bytes.size(), bytes.size());
  if (!header.ok()) return header.status();
  const PagedHeader& h = header.value();
  StatusOr<std::vector<uint64_t>> sums = LoadPageTable(
      h, reinterpret_cast<const uint8_t*>(bytes.data()) +
             static_cast<uint64_t>(h.page_table.first_page) * h.page_size);
  if (!sums.ok()) return sums.status();
  StatusOr<std::unique_ptr<BufferManager>> buffer = BufferManager::FromBuffer(
      std::move(bytes), h.page_size, std::move(sums).value());
  if (!buffer.ok()) return buffer.status();
  return Finish(h, std::move(buffer).value(), options);
}

StatusOr<uint64_t> PagedSummarySource::LocateRecord(uint32_t fid) const {
  if (fid >= header_.total_supernodes()) {
    return Status::InvalidArgument("supernode id out of range");
  }
  const uint64_t epp = header_.page_size / kLocatorStride;
  StatusOr<PageRef> ref =
      buffer_->Fetch(header_.locator.first_page +
                     static_cast<uint32_t>(fid / epp));
  if (!ref.ok()) return ref.status();
  const uint8_t* e = ref.value().data() + (fid % epp) * kLocatorStride;
  const uint32_t rpage = GetLE32(e);
  const uint32_t roff = GetLE16(e + 4);
  if (rpage < header_.records.first_page ||
      rpage >= header_.records.first_page + header_.records.num_pages ||
      roff >= header_.page_size) {
    return Status::Corruption("locator entry out of range");
  }
  const uint64_t pos =
      static_cast<uint64_t>(rpage - header_.records.first_page) *
          header_.page_size +
      roff;
  if (pos >= header_.record_bytes) {
    return Status::Corruption("locator points past the record stream");
  }
  return pos;
}

StatusOr<PagedSummarySource::DecodedRecord> PagedSummarySource::ParseRecord(
    uint32_t fid, uint64_t pos, uint64_t* consumed) const {
  RecordCursor cur(buffer_.get(), header_, pos);
  const uint64_t total = header_.total_supernodes();
  const NodeId n = header_.num_leaves;
  uint64_t id = 0, parent_p1 = 0, lo = 0, len = 0, nedges = 0;
  Status s = cur.Get(&id);
  if (!s.ok()) return s;
  if (id != fid) {
    return Status::Corruption("record id disagrees with locator");
  }
  if (!(s = cur.Get(&parent_p1)).ok()) return s;
  DecodedRecord rec;
  if (parent_p1 != 0) {
    const uint64_t parent = parent_p1 - 1;
    // Bottom-up ids make every parent a later, internal supernode.
    if (parent >= total || parent <= fid || parent < n) {
      return Status::Corruption("record parent out of range");
    }
    rec.parent = static_cast<uint32_t>(parent);
  }
  if (!(s = cur.Get(&lo)).ok()) return s;
  if (!(s = cur.Get(&len)).ok()) return s;
  if (len == 0 || lo > n || len > n - lo) {
    return Status::Corruption("record leaf interval out of range");
  }
  rec.lo = static_cast<uint32_t>(lo);
  rec.len = static_cast<uint32_t>(len);
  if (!(s = cur.Get(&nedges)).ok()) return s;
  // An edge encodes as three varints of at least one byte each; bound the
  // count by what the remaining stream can back before reserving.
  if (nedges > cur.remaining() / 3) {
    return Status::Corruption("record edge count exceeds the stream");
  }
  rec.edges.reserve(nedges);
  uint64_t prev = 0;
  for (uint64_t i = 0; i < nedges; ++i) {
    uint64_t packed = 0, olo = 0, olen = 0;
    if (!(s = cur.Get(&packed)).ok()) return s;
    const uint64_t delta = packed >> 1;
    if (delta > 0xFFFFFFFFull) {
      return Status::Corruption("edge endpoint delta out of range");
    }
    if (i > 0 && delta == 0) {
      return Status::Corruption("duplicate edge endpoint");
    }
    const uint64_t other = prev + delta;
    prev = other;
    if (other >= total) {
      return Status::Corruption("edge endpoint out of range");
    }
    if (!(s = cur.Get(&olo)).ok()) return s;
    if (!(s = cur.Get(&olen)).ok()) return s;
    if (olen == 0 || olo > n || olen > n - olo) {
      return Status::Corruption("edge endpoint interval out of range");
    }
    rec.edges.push_back(DecodedEdge{(packed & 1) ? +1 : -1,
                                    static_cast<uint32_t>(olo),
                                    static_cast<uint32_t>(olen)});
  }
  // The hot path stops here: children are only needed by Materialize,
  // which parses the stream sequentially itself.
  if (consumed != nullptr) *consumed = cur.pos() - pos;
  return rec;
}

StatusOr<std::shared_ptr<const PagedSummarySource::DecodedRecord>>
PagedSummarySource::FetchRecord(uint32_t fid) const {
  CacheShard& shard = cache_[fid % kCacheShards];
  if (cache_capacity_per_shard_ > 0) {
    MutexLock lock(&shard.mu);
    auto it = shard.map.find(fid);
    if (it != shard.map.end()) {
      RecordCacheObs().hits->Add(1);
      return it->second;
    }
  }
  RecordCacheObs().misses->Add(1);
  StatusOr<uint64_t> pos = LocateRecord(fid);
  if (!pos.ok()) return pos.status();
  StatusOr<DecodedRecord> rec = ParseRecord(fid, pos.value(), nullptr);
  if (!rec.ok()) return rec.status();
  auto ptr =
      std::make_shared<const DecodedRecord>(std::move(rec).value());
  if (cache_capacity_per_shard_ > 0) {
    MutexLock lock(&shard.mu);
    if (shard.map.find(fid) == shard.map.end()) {
      if (shard.map.size() >= cache_capacity_per_shard_ &&
          !shard.fifo.empty()) {
        shard.map.erase(shard.fifo.front());
        shard.fifo.pop_front();
      }
      shard.map.emplace(fid, ptr);
      shard.fifo.push_back(fid);
    }
  }
  return StatusOr<std::shared_ptr<const DecodedRecord>>(std::move(ptr));
}

template <typename Fn>
Status PagedSummarySource::ForLeafRange(uint32_t lo, uint32_t len,
                                        Fn&& fn) const {
  const uint64_t epp = header_.page_size / kLeafAtStride;
  uint32_t r = lo;
  const uint32_t end = lo + len;
  while (r < end) {
    const uint32_t page_idx = static_cast<uint32_t>(r / epp);
    StatusOr<PageRef> ref =
        buffer_->Fetch(header_.leaf_at.first_page + page_idx);
    if (!ref.ok()) return ref.status();
    const uint32_t page_end = static_cast<uint32_t>(
        std::min<uint64_t>(end, (static_cast<uint64_t>(page_idx) + 1) * epp));
    const uint8_t* base = ref.value().data();
    for (; r < page_end; ++r) {
      const uint32_t leaf = GetLE32(base + (r % epp) * kLeafAtStride);
      if (leaf >= header_.num_leaves) {
        return Status::Corruption("leaf_at entry out of range");
      }
      fn(static_cast<NodeId>(leaf));
    }
  }
  return Status::OK();
}

Status PagedSummarySource::AccumulatePaged(
    NodeId v, summary::QueryScratch* scratch) const {
  if (scratch->count.size() < header_.num_leaves) {
    scratch->count.resize(header_.num_leaves, 0);
  }
  const uint64_t total = header_.total_supernodes();
  uint64_t iters = 0;
  uint32_t node = v;
  while (node != kInvalidId) {
    if (++iters > total) {
      return Status::Corruption("parent cycle in paged hierarchy");
    }
    StatusOr<std::shared_ptr<const DecodedRecord>> rec = FetchRecord(node);
    if (!rec.ok()) return rec.status();
    for (const DecodedEdge& e : rec.value()->edges) {
      Status s = ForLeafRange(e.olo, e.olen, [&](NodeId u) {
        if (scratch->count[u] == 0) scratch->touched.push_back(u);
        scratch->count[u] += e.sign;
      });
      if (!s.ok()) return s;
    }
    node = rec.value()->parent;
  }
  return Status::OK();
}

Status PagedSummarySource::Neighbors(
    NodeId v, summary::QueryScratch* scratch,
    std::span<const summary::NeighborOverride> overrides) const {
  if (v >= header_.num_leaves) {
    return Status::InvalidArgument("node id " + std::to_string(v) +
                                   " out of range");
  }
  scratch->result.clear();
  Status s = AccumulatePaged(v, scratch);
  if (!s.ok()) {
    ResetScratch(scratch);
    return s;
  }
  for (const summary::NeighborOverride& o : overrides) {
    if (o.neighbor >= header_.num_leaves) continue;
    if (scratch->count[o.neighbor] == 0) scratch->touched.push_back(o.neighbor);
    scratch->count[o.neighbor] =
        o.sign > 0 ? kForcedCoverage : -kForcedCoverage;
  }
  for (NodeId u : scratch->touched) {
    if (scratch->count[u] > 0 && u != v) scratch->result.push_back(u);
    scratch->count[u] = 0;
  }
  scratch->touched.clear();
  std::sort(scratch->result.begin(), scratch->result.end());
  return Status::OK();
}

StatusOr<uint64_t> PagedSummarySource::Degree(
    NodeId v, summary::QueryScratch* scratch,
    std::span<const summary::NeighborOverride> overrides) const {
  if (v >= header_.num_leaves) {
    return Status::InvalidArgument("node id " + std::to_string(v) +
                                   " out of range");
  }
  Status s = AccumulatePaged(v, scratch);
  if (!s.ok()) {
    ResetScratch(scratch);
    return s;
  }
  for (const summary::NeighborOverride& o : overrides) {
    if (o.neighbor >= header_.num_leaves) continue;
    if (scratch->count[o.neighbor] == 0) scratch->touched.push_back(o.neighbor);
    scratch->count[o.neighbor] =
        o.sign > 0 ? kForcedCoverage : -kForcedCoverage;
  }
  uint64_t degree = 0;
  for (NodeId u : scratch->touched) {
    degree += scratch->count[u] > 0 && u != v;
    scratch->count[u] = 0;
  }
  scratch->touched.clear();
  return degree;
}

StatusOr<uint32_t> PagedSummarySource::RankOf(NodeId v,
                                              PageRef* cached) const {
  const uint64_t epp = header_.page_size / kRankStride;
  const uint32_t pg =
      header_.rank.first_page + static_cast<uint32_t>(v / epp);
  if (!*cached || cached->page() != pg) {
    StatusOr<PageRef> ref = buffer_->Fetch(pg);
    if (!ref.ok()) return ref.status();
    *cached = std::move(ref.value());
  }
  const uint32_t r = GetLE32(cached->data() + (v % epp) * kRankStride);
  if (r >= header_.num_leaves) {
    return Status::Corruption("rank entry out of range");
  }
  return r;
}

template <bool kDegreesOnly>
Status PagedSummarySource::RunPagedBatch(
    std::span<const NodeId> nodes, summary::BatchResult* result,
    std::vector<uint64_t>* degrees, summary::BatchScratch* s) const {
  const size_t batch = nodes.size();
  if constexpr (kDegreesOnly) {
    degrees->assign(batch, 0);
  } else {
    result->neighbors.clear();
    result->offsets.assign(batch + 1, 0);
  }
  if (batch == 0) return Status::OK();
  for (NodeId v : nodes) {
    if (v >= header_.num_leaves) {
      return Status::InvalidArgument("node id " + std::to_string(v) +
                                     " out of range");
    }
  }
  const auto fail = [&](Status st) {
    ResetScratch(&s->query);
    if constexpr (kDegreesOnly) {
      degrees->clear();
    } else {
      result->neighbors.clear();
      result->offsets.clear();
    }
    return st;
  };

  // Sort the batch by the file's leaf preorder so consecutive nodes share
  // record and leaf_at pages; `chains` doubles as the per-position rank
  // buffer (it is a plain uint32 scratch vector).
  s->chains.resize(batch);
  {
    PageRef cached;
    for (size_t i = 0; i < batch; ++i) {
      StatusOr<uint32_t> r = RankOf(nodes[i], &cached);
      if (!r.ok()) return fail(r.status());
      s->chains[i] = r.value();
    }
  }
  s->order.resize(batch);
  std::iota(s->order.begin(), s->order.end(), 0u);
  std::sort(s->order.begin(), s->order.end(),
            [s](uint32_t a, uint32_t b) {
              if (s->chains[a] != s->chains[b]) {
                return s->chains[a] < s->chains[b];
              }
              return a < b;
            });

  summary::QueryScratch& q = s->query;
  if (q.count.size() < header_.num_leaves) {
    q.count.resize(header_.num_leaves, 0);
  }
  if constexpr (!kDegreesOnly) {
    s->staged.clear();
    s->staged_begin.assign(1, 0);
  }

  for (size_t k = 0; k < batch; ++k) {
    const uint32_t i = s->order[k];
    const NodeId v = nodes[i];
    // Duplicates sort adjacently; copy the previous answer.
    if (k > 0 && nodes[s->order[k - 1]] == v) {
      if constexpr (kDegreesOnly) {
        (*degrees)[i] = (*degrees)[s->order[k - 1]];
      } else {
        const uint64_t prev_b = s->staged_begin[k - 1];
        const uint64_t prev_e = s->staged_begin[k];
        const size_t old_size = s->staged.size();
        s->staged.resize(old_size + (prev_e - prev_b));
        std::copy(s->staged.begin() + prev_b, s->staged.begin() + prev_e,
                  s->staged.begin() + old_size);
        s->staged_begin.push_back(s->staged.size());
      }
      continue;
    }
    Status st = AccumulatePaged(v, &q);
    if (!st.ok()) return fail(st);
    if constexpr (kDegreesOnly) {
      uint64_t degree = 0;
      for (NodeId u : q.touched) {
        degree += q.count[u] > 0 && u != v;
        q.count[u] = 0;
      }
      q.touched.clear();
      (*degrees)[i] = degree;
    } else {
      for (NodeId u : q.touched) {
        if (q.count[u] > 0 && u != v) s->staged.push_back(u);
        q.count[u] = 0;
      }
      q.touched.clear();
      s->staged_begin.push_back(s->staged.size());
    }
  }

  if constexpr (!kDegreesOnly) {
    // Staged answers are in processing order and unsorted; the staged
    // list k belongs to input position order[k].
    const summary::ListSource staged{s->order, s->staged, s->staged_begin};
    summary::WriteCanonicalBatch({&staged, 1}, batch, header_.num_leaves,
                                 &s->canonical, result);
  }
  return Status::OK();
}

Status PagedSummarySource::NeighborsBatch(std::span<const NodeId> nodes,
                                          summary::BatchResult* result,
                                          summary::BatchScratch* scratch)
    const {
  return RunPagedBatch<false>(nodes, result, nullptr, scratch);
}

Status PagedSummarySource::DegreeBatch(std::span<const NodeId> nodes,
                                       std::vector<uint64_t>* degrees,
                                       summary::BatchScratch* scratch) const {
  return RunPagedBatch<true>(nodes, nullptr, degrees, scratch);
}

StatusOr<ChainInfo> PagedSummarySource::ChainOf(NodeId v) const {
  if (v >= header_.num_leaves) {
    return Status::InvalidArgument("node id " + std::to_string(v) +
                                   " out of range");
  }
  ChainInfo info;
  const uint64_t total = header_.total_supernodes();
  uint64_t iters = 0;
  uint32_t node = v;
  while (node != kInvalidId) {
    if (++iters > total) {
      return Status::Corruption("parent cycle in paged hierarchy");
    }
    StatusOr<uint64_t> pos = LocateRecord(node);
    if (!pos.ok()) return pos.status();
    uint64_t consumed = 0;
    StatusOr<DecodedRecord> rec = ParseRecord(node, pos.value(), &consumed);
    if (!rec.ok()) return rec.status();
    info.chain_len++;
    info.chain_bytes += consumed;
    info.num_edges += rec.value().edges.size();
    for (const DecodedEdge& e : rec.value().edges) {
      info.covered_leaves += e.olen;
    }
    node = rec.value().parent;
  }
  return info;
}

StatusOr<summary::SummaryGraph> PagedSummarySource::Materialize() const {
  // The structural bounds below reject everything the stream itself can
  // contradict, but like the v1 deserializer the declared leaf count has
  // no byte-level bound — surface allocation failure as a Status instead
  // of tearing down the process.
  try {
    return MaterializeImpl();
  } catch (const std::bad_alloc&) {
    return Status::InvalidArgument(
        "paged summary declares more supernodes than memory allows");
  } catch (const std::length_error&) {
    return Status::InvalidArgument(
        "paged summary declares more supernodes than memory allows");
  }
}

StatusOr<summary::SummaryGraph> PagedSummarySource::MaterializeImpl() const {
  const NodeId n = header_.num_leaves;
  const uint64_t total = header_.total_supernodes();
  RecordCursor cur(buffer_.get(), header_, 0);

  std::vector<uint32_t> parent(total, kInvalidId);
  std::vector<uint32_t> lo(total, 0);
  std::vector<uint32_t> len(total, 0);
  std::vector<std::vector<SupernodeId>> pending(header_.num_internal);
  std::vector<uint8_t> seen(total, 0);
  struct DirectedEntry {
    uint32_t a, b;      // a's record listed b
    int8_t sign;
    uint32_t olo, olen; // b's interval as a's record claims it
  };
  std::vector<DirectedEntry> directed;

  for (uint64_t count = 0; count < total; ++count) {
    const uint64_t start = cur.pos();
    uint64_t id = 0, parent_p1 = 0, rlo = 0, rlen = 0, nedges = 0,
             nchildren = 0;
    Status s = cur.Get(&id);
    if (!s.ok()) return s;
    if (id >= total || seen[id]) {
      return Status::Corruption("record id out of range or duplicated");
    }
    seen[id] = 1;
    // Locator agreement: the random-access index must name exactly the
    // position the sequential scan found this record at.
    StatusOr<uint64_t> loc = LocateRecord(static_cast<uint32_t>(id));
    if (!loc.ok()) return loc.status();
    if (loc.value() != start) {
      return Status::Corruption("locator disagrees with record position");
    }
    if (!(s = cur.Get(&parent_p1)).ok()) return s;
    if (parent_p1 != 0) {
      const uint64_t p = parent_p1 - 1;
      if (p >= total || p <= id || p < n) {
        return Status::Corruption("record parent out of range");
      }
      parent[id] = static_cast<uint32_t>(p);
    }
    if (!(s = cur.Get(&rlo)).ok()) return s;
    if (!(s = cur.Get(&rlen)).ok()) return s;
    if (rlen == 0 || rlo > n || rlen > n - rlo) {
      return Status::Corruption("record leaf interval out of range");
    }
    if (id < n && rlen != 1) {
      return Status::Corruption("leaf record must cover one leaf");
    }
    lo[id] = static_cast<uint32_t>(rlo);
    len[id] = static_cast<uint32_t>(rlen);
    if (!(s = cur.Get(&nedges)).ok()) return s;
    if (nedges > cur.remaining() / 3) {
      return Status::Corruption("record edge count exceeds the stream");
    }
    uint64_t prev = 0;
    for (uint64_t i = 0; i < nedges; ++i) {
      uint64_t packed = 0, olo = 0, olen = 0;
      if (!(s = cur.Get(&packed)).ok()) return s;
      const uint64_t delta = packed >> 1;
      if (delta > 0xFFFFFFFFull) {
        return Status::Corruption("edge endpoint delta out of range");
      }
      if (i > 0 && delta == 0) {
        return Status::Corruption("duplicate edge endpoint");
      }
      const uint64_t other = prev + delta;
      prev = other;
      if (other >= total) {
        return Status::Corruption("edge endpoint out of range");
      }
      if (!(s = cur.Get(&olo)).ok()) return s;
      if (!(s = cur.Get(&olen)).ok()) return s;
      if (olen == 0 || olo > n || olen > n - olo) {
        return Status::Corruption("edge endpoint interval out of range");
      }
      directed.push_back(DirectedEntry{
          static_cast<uint32_t>(id), static_cast<uint32_t>(other),
          static_cast<int8_t>((packed & 1) ? +1 : -1),
          static_cast<uint32_t>(olo), static_cast<uint32_t>(olen)});
    }
    if (!(s = cur.Get(&nchildren)).ok()) return s;
    if (id < n) {
      if (nchildren != 0) {
        return Status::Corruption("leaf record with children");
      }
    } else {
      if (nchildren < 2) {
        return Status::Corruption("supernode with <2 children");
      }
      if (nchildren > cur.remaining()) {
        return Status::Corruption("child count exceeds the stream");
      }
      auto& kids = pending[id - n];
      kids.reserve(nchildren);
      uint64_t prev_c = 0;
      for (uint64_t j = 0; j < nchildren; ++j) {
        uint64_t delta = 0;
        if (!(s = cur.Get(&delta)).ok()) return s;
        if (delta > 0xFFFFFFFFull) {
          return Status::Corruption("child delta out of range");
        }
        if (j > 0 && delta == 0) {
          return Status::Corruption("duplicate child");
        }
        const uint64_t child = prev_c + delta;
        prev_c = child;
        if (child >= id) {
          return Status::Corruption("child id out of range (not bottom-up)");
        }
        kids.push_back(static_cast<SupernodeId>(child));
      }
    }
  }
  if (cur.pos() != header_.record_bytes) {
    return Status::Corruption("trailing bytes in record stream");
  }

  // Rebuild the forest with the v1 construction discipline: internal
  // nodes in ascending fid order, Merge on the first two children,
  // AdoptChild for the rest. Fresh ids are sequential, so created id ==
  // fid by construction.
  summary::SummaryGraph summary(n);
  summary.Reserve(static_cast<SupernodeId>(total));
  summary::HierarchyForest& forest = summary.forest();
  std::vector<uint8_t> has_parent(total, 0);
  for (uint32_t i = 0; i < header_.num_internal; ++i) {
    for (SupernodeId c : pending[i]) {
      if (has_parent[c]) return Status::Corruption("node parented twice");
      has_parent[c] = 1;
      if (!forest.IsRoot(c)) return Status::Corruption("child is not a root");
    }
    const SupernodeId m = summary.Merge(pending[i][0], pending[i][1]);
    assert(m == n + i);
    (void)m;
    for (size_t j = 2; j < pending[i].size(); ++j) {
      forest.AdoptChild(m, pending[i][j]);
    }
  }

  // Cross-check the per-record parent and interval claims against the
  // forest the children lists produced — the walk trusts the former, the
  // materialized summary embodies the latter, and they must be one truth.
  for (uint64_t id = 0; id < total; ++id) {
    if (forest.Parent(static_cast<SupernodeId>(id)) != parent[id]) {
      return Status::Corruption("record parent disagrees with children");
    }
    if (forest.Size(static_cast<SupernodeId>(id)) != len[id]) {
      return Status::Corruption("record interval disagrees with subtree size");
    }
  }
  // Laminar check: the children of every internal node partition its
  // interval exactly.
  {
    std::vector<SupernodeId> kids;
    for (uint32_t i = 0; i < header_.num_internal; ++i) {
      const uint64_t id = n + i;
      kids = pending[i];
      std::sort(kids.begin(), kids.end(),
                [&lo](SupernodeId a, SupernodeId b) { return lo[a] < lo[b]; });
      uint32_t at = lo[id];
      for (SupernodeId c : kids) {
        if (lo[c] != at) {
          return Status::Corruption("child intervals do not tile the parent");
        }
        at += len[c];
      }
      if (at != lo[id] + len[id]) {
        return Status::Corruption("child intervals do not tile the parent");
      }
    }
  }
  // The rank and leaf_at sections must agree with the records: rank is
  // the interval start of each leaf, and leaf_at is its inverse.
  {
    std::vector<uint32_t> ranks(n);
    PageRef cached;
    for (NodeId v = 0; v < n; ++v) {
      StatusOr<uint32_t> r = RankOf(v, &cached);
      if (!r.ok()) return r.status();
      if (r.value() != lo[v]) {
        return Status::Corruption("rank section disagrees with records");
      }
      ranks[v] = r.value();
    }
    uint32_t at = 0;
    bool inverse_ok = true;
    Status s = ForLeafRange(0, n, [&](NodeId u) {
      if (ranks[u] != at) inverse_ok = false;
      ++at;
    });
    if (!s.ok()) return s;
    if (!inverse_ok) {
      return Status::Corruption("leaf_at section is not the rank inverse");
    }
  }

  // Superedges: every non-self edge must be listed by both endpoint
  // records with the same sign, self-loops exactly once, endpoint
  // intervals as the records themselves declared.
  for (const DirectedEntry& e : directed) {
    if (e.olo != lo[e.b] || e.olen != len[e.b]) {
      return Status::Corruption("edge interval disagrees with endpoint");
    }
  }
  std::sort(directed.begin(), directed.end(),
            [](const DirectedEntry& x, const DirectedEntry& y) {
              const uint64_t kx =
                  (static_cast<uint64_t>(std::min(x.a, x.b)) << 32) |
                  std::max(x.a, x.b);
              const uint64_t ky =
                  (static_cast<uint64_t>(std::min(y.a, y.b)) << 32) |
                  std::max(y.a, y.b);
              if (kx != ky) return kx < ky;
              return x.a < y.a;
            });
  for (size_t i = 0; i < directed.size();) {
    const DirectedEntry& e = directed[i];
    const SupernodeId a = std::min(e.a, e.b);
    const SupernodeId b = std::max(e.a, e.b);
    size_t j = i;
    while (j < directed.size() &&
           std::min(directed[j].a, directed[j].b) == a &&
           std::max(directed[j].a, directed[j].b) == b) {
      ++j;
    }
    const size_t copies = j - i;
    const bool self = a == b;
    if ((self && copies != 1) || (!self && copies != 2) ||
        (copies == 2 && directed[i].sign != directed[i + 1].sign)) {
      return Status::Corruption("asymmetric superedge listing");
    }
    if (a != b && (forest.IsProperAncestor(a, b) ||
                   forest.IsProperAncestor(b, a))) {
      return Status::Corruption("nested superedge");
    }
    if (summary.GetSign(a, b) != 0) {
      return Status::Corruption("duplicate superedge");
    }
    summary.AddEdge(a, b, e.sign);
    i = j;
  }
  return summary;
}

}  // namespace slugger::storage
