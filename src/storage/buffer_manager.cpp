#include "storage/buffer_manager.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/metrics.hpp"
#include "storage/format.hpp"

namespace slugger::storage {

namespace {

// Process-wide mirrors of the per-instance counters below: the registry
// counters sum across every BufferManager (all shards of a sharded
// serving run), so a cross-shard read is one consistent Counter::Value()
// instead of a stale sum over per-source stats() snapshots.
struct BufferObs {
  obs::Counter* fetches = obs::MetricsRegistry::Global().GetCounter(
      "slugger_buffer_fetches_total", "page fetches that returned a page");
  obs::Counter* faults = obs::MetricsRegistry::Global().GetCounter(
      "slugger_buffer_faults_total",
      "first-touch page loads (mmap verify / pread disk read)");
  obs::Counter* evictions = obs::MetricsRegistry::Global().GetCounter(
      "slugger_buffer_evictions_total", "pread LRU frames dropped");
  obs::Counter* checksum_failures = obs::MetricsRegistry::Global().GetCounter(
      "slugger_buffer_checksum_failures_total", "page checksum mismatches");
  obs::Gauge* resident = obs::MetricsRegistry::Global().GetGauge(
      "slugger_buffer_resident_pages",
      "pages currently resident across all buffer managers");
  obs::Gauge* pinned = obs::MetricsRegistry::Global().GetGauge(
      "slugger_buffer_pinned_pages",
      "pages currently pinned across all buffer managers");
};

const BufferObs& Obs() {
  static BufferObs handles;
  return handles;
}

void BumpMax(std::atomic<uint64_t>* max, uint64_t candidate) {
  uint64_t cur = max->load(std::memory_order_relaxed);
  while (candidate > cur &&
         !max->compare_exchange_weak(cur, candidate,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

void PageRef::Release() {
  if (mgr_ != nullptr) {
    mgr_->Unpin(page_);
    mgr_ = nullptr;
    data_ = nullptr;
  }
}

StatusOr<std::unique_ptr<BufferManager>> BufferManager::OpenFile(
    const std::string& path, uint32_t page_size,
    std::vector<uint64_t> page_checksums, const BufferOptions& options) {
  if (page_size == 0 || page_checksums.empty()) {
    return Status::InvalidArgument("buffer manager needs pages");
  }
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
  const uint64_t expected =
      static_cast<uint64_t>(page_checksums.size()) * page_size;
  if (static_cast<uint64_t>(st.st_size) != expected) {
    ::close(fd);
    return Status::Corruption("file length changed under the open");
  }

  // lint:allow(naked-new: private ctor, wrapped in unique_ptr on this line)
  auto mgr = std::unique_ptr<BufferManager>(new BufferManager());
  mgr->page_size_ = page_size;
  mgr->num_pages_ = static_cast<uint32_t>(page_checksums.size());
  mgr->checksums_ = std::move(page_checksums);

  if (options.io == Io::kAuto || options.io == Io::kMmap) {
    void* map = ::mmap(nullptr, expected, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::close(fd);
      mgr->backend_ = Io::kMmap;
      mgr->map_ = static_cast<const uint8_t*>(map);
      mgr->map_len_ = expected;
      mgr->verified_ =
          std::make_unique<std::atomic<uint8_t>[]>(mgr->num_pages_);
      for (uint32_t p = 0; p < mgr->num_pages_; ++p) {
        mgr->verified_[p].store(0, std::memory_order_relaxed);
      }
      return mgr;
    }
    if (options.io == Io::kMmap) {
      const int err = errno;
      ::close(fd);
      return Status::IOError("mmap failed on " + path + ": " +
                             std::strerror(err));
    }
    // kAuto: fall through to pread.
  }

  mgr->backend_ = Io::kPread;
  mgr->fd_ = fd;
  mgr->max_resident_ = options.max_resident_pages == 0
                           ? 1
                           : options.max_resident_pages;
  return mgr;
}

StatusOr<std::unique_ptr<BufferManager>> BufferManager::FromBuffer(
    std::string bytes, uint32_t page_size,
    std::vector<uint64_t> page_checksums) {
  if (page_size == 0 || page_checksums.empty() ||
      bytes.size() !=
          static_cast<uint64_t>(page_checksums.size()) * page_size) {
    return Status::InvalidArgument("buffer length does not match pages");
  }
  // lint:allow(naked-new: private ctor, wrapped in unique_ptr on this line)
  auto mgr = std::unique_ptr<BufferManager>(new BufferManager());
  mgr->backend_ = Io::kMemory;
  mgr->page_size_ = page_size;
  mgr->num_pages_ = static_cast<uint32_t>(page_checksums.size());
  mgr->checksums_ = std::move(page_checksums);
  mgr->owned_ = std::move(bytes);
  mgr->map_ = reinterpret_cast<const uint8_t*>(mgr->owned_.data());
  mgr->map_len_ = mgr->owned_.size();
  mgr->verified_ = std::make_unique<std::atomic<uint8_t>[]>(mgr->num_pages_);
  for (uint32_t p = 0; p < mgr->num_pages_; ++p) {
    mgr->verified_[p].store(0, std::memory_order_relaxed);
  }
  return mgr;
}

BufferManager::~BufferManager() {
  // This manager's pages leave the process-wide residency gauge with it.
  const uint64_t resident = resident_.load(std::memory_order_relaxed);
  if (resident != 0) Obs().resident->Add(-static_cast<int64_t>(resident));
  if (backend_ == Io::kMmap && map_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(map_), map_len_);
  }
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<PageRef> BufferManager::Fetch(uint32_t page) {
  if (page >= num_pages_) {
    return Status::InvalidArgument("page " + std::to_string(page) +
                                   " out of range");
  }
  StatusOr<const uint8_t*> data = backend_ == Io::kPread
                                      ? FetchPread(page)
                                      : FetchDirect(page);
  if (!data.ok()) return data.status();
  fetches_.fetch_add(1, std::memory_order_relaxed);
  Obs().fetches->Add(1);
  const uint64_t pins = pinned_.fetch_add(1, std::memory_order_relaxed) + 1;
  Obs().pinned->Add(1);
  BumpMax(&max_pinned_, pins);
  return PageRef(this, page, data.value());
}

StatusOr<const uint8_t*> BufferManager::FetchDirect(uint32_t page) {
  const uint8_t* data = map_ + static_cast<uint64_t>(page) * page_size_;
  uint8_t state = verified_[page].load(std::memory_order_acquire);
  if (state == 0) {
    // First touch: verify once, then publish the sticky verdict. Two
    // racing verifiers compute the same verdict, so last-store-wins is
    // fine.
    if (checksums_[page] != 0 &&
        Checksum64(data, page_size_) != checksums_[page]) {
      state = 2;
      checksum_failures_.fetch_add(1, std::memory_order_relaxed);
      Obs().checksum_failures->Add(1);
    } else {
      state = 1;
    }
    faults_.fetch_add(1, std::memory_order_relaxed);
    resident_.fetch_add(1, std::memory_order_relaxed);
    Obs().faults->Add(1);
    Obs().resident->Add(1);
    verified_[page].store(state, std::memory_order_release);
  }
  if (state == 2) {
    return Status::Corruption("page " + std::to_string(page) +
                              " checksum mismatch");
  }
  return data;
}

StatusOr<const uint8_t*> BufferManager::FetchPread(uint32_t page) {
  MutexLock lock(&mu_);
  auto it = frames_.find(page);
  if (it != frames_.end()) {
    it->second.pins++;
    it->second.tick = ++clock_;
    return static_cast<const uint8_t*>(it->second.data.get());
  }
  // A full cache recycles its least-recently-used unpinned frame: the
  // map node and the page buffer are reused, so a steady-state fault
  // allocates nothing and its latency does not depend on the heap. If
  // the load below fails, the recycled frame is dropped with it — the
  // victim stays evicted and nothing new becomes resident.
  decltype(frames_)::node_type recycled;
  if (frames_.size() >= max_resident_) {
    auto victim = frames_.end();
    for (auto f = frames_.begin(); f != frames_.end(); ++f) {
      if (f->second.pins == 0 &&
          (victim == frames_.end() || f->second.tick < victim->second.tick)) {
        victim = f;
      }
    }
    if (victim == frames_.end()) {
      return Status::Aborted("all " + std::to_string(max_resident_) +
                             " buffer frames are pinned");
    }
    recycled = frames_.extract(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    resident_.fetch_sub(1, std::memory_order_relaxed);
    Obs().evictions->Add(1);
    Obs().resident->Add(-1);
  }
  Frame fresh;
  Frame& frame = recycled ? recycled.mapped() : fresh;
  if (frame.data == nullptr) {
    frame.data = std::make_unique_for_overwrite<uint8_t[]>(page_size_);
  }
  uint8_t* data = frame.data.get();
  const uint64_t off = static_cast<uint64_t>(page) * page_size_;
  size_t got = 0;
  while (got < page_size_) {
    const ssize_t r = ::pread(fd_, data + got, page_size_ - got,
                              static_cast<off_t>(off + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread failed on page " + std::to_string(page) +
                             ": " + std::strerror(errno));
    }
    if (r == 0) {
      return Status::IOError("short read on page " + std::to_string(page));
    }
    got += static_cast<size_t>(r);
  }
  // Unlike mmap, a frame reloaded after eviction is re-verified — the
  // bytes just came off storage again.
  if (checksums_[page] != 0 &&
      Checksum64(data, page_size_) != checksums_[page]) {
    checksum_failures_.fetch_add(1, std::memory_order_relaxed);
    Obs().checksum_failures->Add(1);
    return Status::Corruption("page " + std::to_string(page) +
                              " checksum mismatch");
  }
  faults_.fetch_add(1, std::memory_order_relaxed);
  resident_.fetch_add(1, std::memory_order_relaxed);
  Obs().faults->Add(1);
  Obs().resident->Add(1);
  frame.pins = 1;
  frame.tick = ++clock_;
  if (recycled) {
    recycled.key() = page;
    frames_.insert(std::move(recycled));
  } else {
    frames_.emplace(page, std::move(fresh));
  }
  return static_cast<const uint8_t*>(data);
}

void BufferManager::Unpin(uint32_t page) {
  pinned_.fetch_sub(1, std::memory_order_relaxed);
  Obs().pinned->Add(-1);
  if (backend_ == Io::kPread) {
    MutexLock lock(&mu_);
    auto it = frames_.find(page);
    if (it != frames_.end() && it->second.pins > 0) it->second.pins--;
  }
}

BufferStats BufferManager::stats() const {
  // Read order makes a concurrent snapshot internally consistent: each
  // eviction increments evictions_ before decrementing resident_, and
  // each fault increments faults_ before a later fetch can complete, so
  // reading evictions -> faults -> fetches (and pinned before its
  // high-water mark, clamping below) preserves the invariants
  //   evictions <= faults,  faults - evictions >= resident's floor,
  //   pinned_now <= max_pinned
  // even while writers are mid-flight. An unordered read could observe
  // e.g. more evictions than faults and report negative residency math.
  BufferStats s;
  s.evictions = evictions_.load(std::memory_order_acquire);
  s.faults = faults_.load(std::memory_order_acquire);
  s.fetches = fetches_.load(std::memory_order_acquire);
  s.checksum_failures = checksum_failures_.load(std::memory_order_relaxed);
  s.resident_pages = resident_.load(std::memory_order_relaxed);
  s.pinned_now = pinned_.load(std::memory_order_acquire);
  s.max_pinned = max_pinned_.load(std::memory_order_acquire);
  if (s.max_pinned < s.pinned_now) s.max_pinned = s.pinned_now;
  return s;
}

}  // namespace slugger::storage
