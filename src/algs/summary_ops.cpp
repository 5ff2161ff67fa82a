#include "algs/summary_ops.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace slugger::algs {

namespace {

/// Below this many superedges the per-worker array zeroing and merge of
/// the parallel SpMV cost more than the edge loop itself.
constexpr size_t kMinParallelEdges = 2048;

/// Scratch buffer selection by scalar type (double for PageRank, int64
/// for frontier counts and degrees).
template <typename T>
struct Buffers;

template <>
struct Buffers<double> {
  static std::vector<double>& permuted(SummaryOps::Scratch& s) { return s.permuted_d; }
  static std::vector<double>& prefix(SummaryOps::Scratch& s) { return s.prefix_d; }
  static std::vector<double>& diff(SummaryOps::Scratch& s) { return s.diff_d; }
  static std::vector<double>& dcoef(SummaryOps::Scratch& s) { return s.dcoef_d; }
  static std::vector<double>& worker(SummaryOps::Scratch& s) { return s.worker_d; }
};

template <>
struct Buffers<int64_t> {
  static std::vector<int64_t>& permuted(SummaryOps::Scratch& s) { return s.permuted_i; }
  static std::vector<int64_t>& prefix(SummaryOps::Scratch& s) { return s.prefix_i; }
  static std::vector<int64_t>& diff(SummaryOps::Scratch& s) { return s.diff_i; }
  static std::vector<int64_t>& dcoef(SummaryOps::Scratch& s) { return s.dcoef_i; }
  static std::vector<int64_t>& worker(SummaryOps::Scratch& s) { return s.worker_i; }
};

/// Runs fn over [0, n) — chunked across the pool when one is available,
/// inline as worker 0 otherwise. Callers size per-worker accumulators by
/// WorkerCount().
void ForRange(ThreadPool* pool, uint64_t n, uint64_t grain,
              const std::function<void(uint64_t, uint64_t, unsigned)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || pool->size() <= 1 || n <= grain) {
    fn(0, n, 0);
    return;
  }
  pool->ParallelFor(n, grain, fn);
}

unsigned WorkerCount(ThreadPool* pool) {
  return pool == nullptr ? 1u : pool->size();
}

/// A sparse table packed into one array: row r is at[off[r], off[r + 1]).
/// Per-call tables use it rather than vectors of vectors: thousands of
/// small blocks freed after a call are left for the next large malloc to
/// sort, which made paged queries' p95 (a 4 KiB frame per fault) 67% worse.
template <typename T>
struct Csr {
  std::vector<uint64_t> off;
  std::vector<T> at;
  std::span<const T> Row(uint64_t r) const {
    return {at.data() + off[r], at.data() + off[r + 1]};
  }
};

/// Builds a Csr by counting sort without staging the items: `emit(add)`
/// must call add(row, item) for every item, the same way both times it
/// runs (once to count, once to fill).
template <typename T, typename Emit>
Csr<T> BuildCsr(size_t rows, const Emit& emit) {
  Csr<T> m;
  m.off.assign(rows + 1, 0);
  emit([&m](uint32_t r, const T&) { ++m.off[r + 1]; });
  for (size_t r = 0; r < rows; ++r) m.off[r + 1] += m.off[r];
  m.at.resize(m.off[rows]);
  std::vector<uint64_t> cursor(m.off.begin(), m.off.end() - 1);
  emit([&](uint32_t r, const T& item) { m.at[cursor[r]++] = item; });
  return m;
}

obs::Counter* TriangleProducts() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "slugger_algs_triangle_products_total",
      "multiply-adds of the all-structural triangle trace");
  return counter;
}

}  // namespace

SummaryOps::SummaryOps(const summary::SummaryGraph& s)
    : n_(s.num_leaves()),
      summary_(&s),
      layout_(s.forest().ComputeLeafLayout()) {
  edges_.reserve(s.p_count() + s.n_count());
  s.ForEachEdge([&](SupernodeId a, SupernodeId b, EdgeSign sign) {
    Superedge e;
    e.alo = layout_.lo[a];
    e.ahi = layout_.hi[a];
    e.blo = layout_.lo[b];
    e.bhi = layout_.hi[b];
    e.sign = sign;
    e.self = (a == b) ? 1u : 0u;
    e.a = a;
    e.b = b;
    edges_.push_back(e);
  });
}

template <typename T>
void SummaryOps::MultiplyImpl(std::span<const T> x, std::span<T> y,
                              Scratch* scratch, ThreadPool* pool,
                              std::span<const EdgeCorrection> corrections) const {
  assert(x.size() == n_ && y.size() == n_);
  if (n_ == 0) return;
  std::vector<T>& permuted = Buffers<T>::permuted(*scratch);
  std::vector<T>& prefix = Buffers<T>::prefix(*scratch);
  std::vector<T>& diff = Buffers<T>::diff(*scratch);
  std::vector<T>& dcoef = Buffers<T>::dcoef(*scratch);
  const std::vector<NodeId>& leaf_at = layout_.leaf_at;

  permuted.resize(n_);
  for (uint32_t pos = 0; pos < n_; ++pos) permuted[pos] = x[leaf_at[pos]];
  prefix.resize(size_t{n_} + 1);
  prefix[0] = T{};
  for (uint32_t pos = 0; pos < n_; ++pos) {
    prefix[pos + 1] = prefix[pos] + permuted[pos];
  }

  // The per-superedge loop: each edge is O(1) — two interval sums off the
  // prefix array, four difference-array updates (self-loops additionally
  // push -sign onto the diagonal-coefficient array, which later excludes
  // each leaf's own x from its block sum).
  auto apply = [this, &prefix](size_t begin, size_t end, T* d, T* dc) {
    for (size_t e = begin; e < end; ++e) {
      const Superedge& se = edges_[e];
      const T s = static_cast<T>(se.sign);
      const T sum_a = s * (prefix[se.ahi] - prefix[se.alo]);
      if (se.self == 0) {
        const T sum_b = s * (prefix[se.bhi] - prefix[se.blo]);
        d[se.alo] += sum_b;
        d[se.ahi] -= sum_b;
        d[se.blo] += sum_a;
        d[se.bhi] -= sum_a;
      } else {
        d[se.alo] += sum_a;
        d[se.ahi] -= sum_a;
        dc[se.alo] -= s;
        dc[se.ahi] += s;
      }
    }
  };

  const size_t m = edges_.size();
  if (pool == nullptr || pool->size() <= 1 || m < kMinParallelEdges) {
    diff.assign(size_t{n_} + 1, T{});
    dcoef.assign(size_t{n_} + 1, T{});
    apply(0, m, diff.data(), dcoef.data());
  } else {
    // Shard the edge list into one contiguous chunk per worker, each with
    // its own pair of difference arrays (zeroed inside the task so the
    // O(workers * n) wipe is itself parallel), then merge by position.
    std::vector<T>& worker = Buffers<T>::worker(*scratch);
    const size_t num_chunks = pool->size();
    const size_t stride = 2 * (size_t{n_} + 1);
    worker.resize(num_chunks * stride);
    pool->Run(num_chunks, [&](uint64_t chunk, unsigned) {
      T* wdiff = worker.data() + chunk * stride;
      std::fill(wdiff, wdiff + stride, T{});
      apply(m * chunk / num_chunks, m * (chunk + 1) / num_chunks, wdiff,
            wdiff + n_ + 1);
    });
    diff.resize(size_t{n_} + 1);
    dcoef.resize(size_t{n_} + 1);
    pool->ParallelFor(
        size_t{n_} + 1, 1 << 14, [&](uint64_t begin, uint64_t end, unsigned) {
          for (uint64_t pos = begin; pos < end; ++pos) {
            T d{};
            T dc{};
            for (size_t c = 0; c < num_chunks; ++c) {
              d += worker[c * stride + pos];
              dc += worker[c * stride + n_ + 1 + pos];
            }
            diff[pos] = d;
            dcoef[pos] = dc;
          }
        });
  }

  T acc{};
  T dacc{};
  for (uint32_t pos = 0; pos < n_; ++pos) {
    acc += diff[pos];
    dacc += dcoef[pos];
    y[leaf_at[pos]] = acc + dacc * permuted[pos];
  }
  // Overlay corrections: extra signed rank-1 terms on leaf pairs.
  for (const EdgeCorrection& c : corrections) {
    const T s = static_cast<T>(c.sign);
    y[c.u] += s * x[c.v];
    y[c.v] += s * x[c.u];
  }
}

void SummaryOps::Multiply(std::span<const double> x, std::span<double> y,
                          Scratch* scratch, ThreadPool* pool,
                          std::span<const EdgeCorrection> corrections) const {
  MultiplyImpl<double>(x, y, scratch, pool, corrections);
}

void SummaryOps::Multiply(std::span<const int64_t> x, std::span<int64_t> y,
                          Scratch* scratch, ThreadPool* pool,
                          std::span<const EdgeCorrection> corrections) const {
  MultiplyImpl<int64_t>(x, y, scratch, pool, corrections);
}

std::vector<int64_t> SummaryOps::Degrees(
    Scratch* scratch, ThreadPool* pool,
    std::span<const EdgeCorrection> corrections) const {
  std::vector<int64_t> ones(n_, 1);
  std::vector<int64_t> deg(n_);
  Multiply(std::span<const int64_t>(ones), std::span<int64_t>(deg), scratch,
           pool, corrections);
  return deg;
}

std::vector<uint32_t> SummaryOps::BfsDistances(
    NodeId start, Scratch* scratch,
    std::span<const EdgeCorrection> corrections) const {
  std::vector<uint32_t> dist(n_, kUnreached);
  if (n_ == 0) return dist;
  assert(start < n_);

  // Everything runs in leaf-preorder position space; only dist writes
  // translate back to node ids. xp is the 0/1 frontier indicator; under
  // the unit-coverage invariant y[pos] is then the exact count of
  // frontier neighbors, so y > 0 is the discovery test.
  std::vector<int64_t>& xp = scratch->permuted_i;
  std::vector<int64_t>& prefix = scratch->prefix_i;
  std::vector<int64_t>& diff = scratch->diff_i;
  std::vector<int64_t>& dcoef = scratch->dcoef_i;
  xp.assign(n_, 0);
  prefix.resize(size_t{n_} + 1);
  std::vector<int64_t> y(n_);
  std::vector<uint8_t> visited(n_, 0);
  std::vector<uint32_t> vis_prefix(size_t{n_} + 1);

  std::vector<Superedge> active(edges_);
  struct Corr {
    uint32_t pu, pv;
    int32_t sign;
  };
  std::vector<Corr> corr;
  corr.reserve(corrections.size());
  for (const EdgeCorrection& c : corrections) {
    corr.push_back({layout_.rank[c.u], layout_.rank[c.v], c.sign});
  }

  const uint32_t pstart = layout_.rank[start];
  visited[pstart] = 1;
  dist[start] = 0;
  xp[pstart] = 1;
  uint64_t frontier = 1;
  for (uint32_t level = 1; frontier > 0; ++level) {
    prefix[0] = 0;
    for (uint32_t pos = 0; pos < n_; ++pos) prefix[pos + 1] = prefix[pos] + xp[pos];
    diff.assign(size_t{n_} + 1, 0);
    dcoef.assign(size_t{n_} + 1, 0);
    for (const Superedge& se : active) {
      const int64_t raw_a = prefix[se.ahi] - prefix[se.alo];
      if (se.self == 0) {
        const int64_t raw_b = prefix[se.bhi] - prefix[se.blo];
        if (raw_a == 0 && raw_b == 0) continue;  // no frontier mass nearby
        const int64_t sum_a = se.sign * raw_a;
        const int64_t sum_b = se.sign * raw_b;
        diff[se.alo] += sum_b;
        diff[se.ahi] -= sum_b;
        diff[se.blo] += sum_a;
        diff[se.bhi] -= sum_a;
      } else {
        if (raw_a == 0) continue;
        const int64_t sum_a = se.sign * raw_a;
        diff[se.alo] += sum_a;
        diff[se.ahi] -= sum_a;
        dcoef[se.alo] -= se.sign;
        dcoef[se.ahi] += se.sign;
      }
    }
    int64_t acc = 0;
    int64_t dacc = 0;
    for (uint32_t pos = 0; pos < n_; ++pos) {
      acc += diff[pos];
      dacc += dcoef[pos];
      y[pos] = acc + dacc * xp[pos];
    }
    for (const Corr& c : corr) {
      y[c.pu] += c.sign * xp[c.pv];
      y[c.pv] += c.sign * xp[c.pu];
    }

    frontier = 0;
    for (uint32_t pos = 0; pos < n_; ++pos) {
      if (visited[pos] == 0 && y[pos] > 0) {
        visited[pos] = 1;
        dist[layout_.leaf_at[pos]] = level;
        xp[pos] = 1;
        ++frontier;
      } else {
        xp[pos] = 0;
      }
    }
    if (frontier == 0) break;

    // Visited-bitmask pruning: a superedge whose BOTH supernodes are
    // fully visited can never discover a leaf again — its block updates
    // land only on visited positions — so it is retired. Retired edges
    // leave unvisited positions' coverage untouched, keeping y exact
    // where the discovery test reads it.
    vis_prefix[0] = 0;
    for (uint32_t pos = 0; pos < n_; ++pos) {
      vis_prefix[pos + 1] = vis_prefix[pos] + visited[pos];
    }
    auto fully_visited = [&vis_prefix](uint32_t lo, uint32_t hi) {
      return vis_prefix[hi] - vis_prefix[lo] == hi - lo;
    };
    size_t kept = 0;
    for (const Superedge& se : active) {
      const bool dead = fully_visited(se.alo, se.ahi) &&
                        (se.self != 0 || fully_visited(se.blo, se.bhi));
      if (!dead) active[kept++] = se;
    }
    active.resize(kept);
    size_t ckept = 0;
    for (const Corr& c : corr) {
      if (visited[c.pu] == 0 || visited[c.pv] == 0) corr[ckept++] = c;
    }
    corr.resize(ckept);
  }
  return dist;
}

uint64_t SummaryOps::CountTriangles(
    ThreadPool* pool, std::span<const EdgeCorrection> corrections) const {
  if (n_ < 3) return 0;
  const std::vector<uint32_t>& rank = layout_.rank;
  const unsigned workers = WorkerCount(pool);

  // ---- split the combined edge set -----------------------------------
  // Flat: both endpoints are leaves (plus every overlay correction), net
  // weight per pair. Structural: a non-leaf side or a self-loop.
  struct Flat {
    uint32_t pu, pv;  ///< positions, pu < pv
    int64_t w;
  };
  std::vector<Flat> flat;
  std::vector<Superedge> structural;
  flat.reserve(edges_.size() + corrections.size());
  structural.reserve(edges_.size());
  for (const Superedge& se : edges_) {
    if (se.self == 0 && se.ahi - se.alo == 1 && se.bhi - se.blo == 1) {
      uint32_t pu = se.alo;
      uint32_t pv = se.blo;
      if (pu > pv) std::swap(pu, pv);
      flat.push_back({pu, pv, se.sign});
    } else {
      structural.push_back(se);
    }
  }
  for (const EdgeCorrection& c : corrections) {
    uint32_t pu = rank[c.u];
    uint32_t pv = rank[c.v];
    if (pu > pv) std::swap(pu, pv);
    flat.push_back({pu, pv, c.sign});
  }
  // A base leaf-leaf superedge and a correction can hit the same pair;
  // coverage is additive, so parallel entries merge to one net weight.
  std::sort(flat.begin(), flat.end(), [](const Flat& a, const Flat& b) {
    return a.pu != b.pu ? a.pu < b.pu : a.pv < b.pv;
  });
  size_t kept = 0;
  for (size_t i = 0; i < flat.size();) {
    size_t j = i;
    int64_t w = 0;
    while (j < flat.size() && flat[j].pu == flat[i].pu && flat[j].pv == flat[i].pv) {
      w += flat[j].w;
      ++j;
    }
    if (w != 0) flat[kept++] = {flat[i].pu, flat[i].pv, w};
    i = j;
  }
  flat.resize(kept);

  // ---- flat adjacency CSR in position space --------------------------
  // Sorted neighbor positions with a global cumulative-weight array, so
  // "signed flat mass from p into interval [lo, hi)" is two binary
  // searches and one subtraction.
  Csr<std::pair<uint32_t, int64_t>> adj =
      BuildCsr<std::pair<uint32_t, int64_t>>(n_, [&](const auto& add) {
        for (const Flat& f : flat) {
          add(f.pu, {f.pv, f.w});
          add(f.pv, {f.pu, f.w});
        }
      });
  ForRange(pool, n_, 1024, [&](uint64_t begin, uint64_t end, unsigned) {
    for (uint64_t p = begin; p < end; ++p) {
      std::sort(adj.at.begin() + adj.off[p], adj.at.begin() + adj.off[p + 1]);
    }
  });
  std::vector<uint32_t> nbr_pos(adj.at.size());
  std::vector<int64_t> wcum(adj.at.size() + 1, 0);
  for (size_t k = 0; k < adj.at.size(); ++k) {
    nbr_pos[k] = adj.at[k].first;
    wcum[k + 1] = wcum[k] + adj.at[k].second;
  }
  const std::vector<uint64_t> off = std::move(adj.off);
  adj.at = {};  // weights live on as differences of wcum
  // Signed flat mass from p into positions [lo, hi). Always stays inside
  // p's slice, so the global cumulative array subtracts cleanly.
  auto flat_interval_sum = [&](uint32_t p, uint32_t lo, uint32_t hi) -> int64_t {
    const uint32_t* base = nbr_pos.data();
    const uint32_t* b = std::lower_bound(base + off[p], base + off[p + 1], lo);
    const uint32_t* e = std::lower_bound(b, base + off[p + 1], hi);
    return wcum[e - base] - wcum[b - base];
  };

  // ---- per-leaf structural link lists --------------------------------
  // links.Row(pos) = structural edges covering the leaf at that position, as
  // (partner interval, sign, self). Discovered once per leaf by walking
  // its ancestor chain over per-supernode incidence lists.
  struct Link {
    uint32_t ylo, yhi;
    int32_t sign;
    uint32_t self;
  };
  const summary::HierarchyForest& forest = summary_->forest();
  const Csr<uint32_t> inc =
      BuildCsr<uint32_t>(layout_.lo.size(), [&](const auto& add) {
        for (uint32_t e = 0; e < structural.size(); ++e) {
          add(structural[e].a, e);
          if (structural[e].self == 0) add(structural[e].b, e);
        }
      });
  const Csr<Link> links = BuildCsr<Link>(n_, [&](const auto& add) {
    for (uint32_t pos = 0; pos < n_; ++pos) {
      for (SupernodeId x = layout_.leaf_at[pos]; x != kInvalidId;
           x = forest.Parent(x)) {
        for (uint32_t e : inc.Row(x)) {
          // The partner is the other side; a self-loop's partner is the
          // supernode itself (minus the leaf).
          const Superedge& st = structural[e];
          const bool under_a = st.self != 0 || x == st.a;
          add(pos, Link{under_a ? st.blo : st.alo, under_a ? st.bhi : st.ahi,
                        st.sign, st.self});
        }
      }
    }
  });

  // ---- T0: all three sides flat --------------------------------------
  // Signed triangle count over the flat graph, each triple once
  // (smallest-two-positions edge owns it), weights multiplied.
  std::vector<int64_t> acc0(workers, 0);
  ForRange(pool, flat.size(), 256, [&](uint64_t begin, uint64_t end, unsigned w) {
    int64_t local = 0;
    for (uint64_t fi = begin; fi < end; ++fi) {
      const Flat& f = flat[fi];
      const uint32_t* base = nbr_pos.data();
      const uint32_t* i = std::upper_bound(base + off[f.pu], base + off[f.pu + 1], f.pv);
      const uint32_t* iend = base + off[f.pu + 1];
      const uint32_t* j = std::upper_bound(base + off[f.pv], base + off[f.pv + 1], f.pv);
      const uint32_t* jend = base + off[f.pv + 1];
      int64_t sum = 0;
      while (i < iend && j < jend) {
        if (*i == *j) {
          sum += (wcum[i - base + 1] - wcum[i - base]) *
                 (wcum[j - base + 1] - wcum[j - base]);
          ++i;
          ++j;
        } else if (*i < *j) {
          ++i;
        } else {
          ++j;
        }
      }
      local += f.w * sum;
    }
    acc0[w] += local;
  });

  // ---- T1: two flat sides, one structural ----------------------------
  // For each directed flat edge (center -> anchor) and each structural
  // link of the anchor, the third vertex ranges over the center's flat
  // neighbors inside the partner interval (minus the anchor itself for
  // self-loops). Every (wedge, cover) pair is found from both anchors,
  // so the sum is exactly twice T1.
  std::vector<int64_t> acc1(workers, 0);
  ForRange(pool, flat.size(), 256, [&](uint64_t begin, uint64_t end, unsigned w) {
    int64_t local = 0;
    auto one_direction = [&](uint32_t center, uint32_t anchor, int64_t fw) {
      for (const Link& l : links.Row(anchor)) {
        int64_t mass = flat_interval_sum(center, l.ylo, l.yhi);
        if (l.self != 0) mass -= fw;  // exclude the anchor itself
        local += l.sign * fw * mass;
      }
    };
    for (uint64_t fi = begin; fi < end; ++fi) {
      const Flat& f = flat[fi];
      one_direction(f.pu, f.pv, f.w);
      one_direction(f.pv, f.pu, f.w);
    }
    acc1[w] += local;
  });

  // ---- T2: one flat side, two structural -----------------------------
  // For flat edge {u, v}, the apex w runs over the intersection of a
  // partner interval of v and one of u; self-loop links exclude their
  // own leaf from the partner set (w = u / w = v are excluded
  // automatically: a partner set never contains its own leaf).
  std::vector<int64_t> acc2(workers, 0);
  ForRange(pool, flat.size(), 256, [&](uint64_t begin, uint64_t end, unsigned w) {
    int64_t local = 0;
    for (uint64_t fi = begin; fi < end; ++fi) {
      const Flat& f = flat[fi];
      for (const Link& l1 : links.Row(f.pv)) {
        for (const Link& l2 : links.Row(f.pu)) {
          const uint32_t lo = std::max(l1.ylo, l2.ylo);
          const uint32_t hi = std::min(l1.yhi, l2.yhi);
          if (lo >= hi) continue;
          int64_t count = hi - lo;
          if (l1.self != 0 && f.pv >= lo && f.pv < hi) --count;
          if (l2.self != 0 && f.pu >= lo && f.pu < hi) --count;
          local += f.w * l1.sign * l2.sign * count;
        }
      }
    }
    acc2[w] += local;
  });

  // ---- T3: all three sides structural --------------------------------
  // 6 * T3 = tr(C^3) for C = sum of signed structural blocks. Over the k
  // distinct endpoint supernodes, C = R^T W R - D: R holds their leaf-
  // interval indicators, W is the k x k signed superedge matrix (self-
  // loops on the diagonal) and D = diag(d) with d_p = sum of self-loop
  // signs over supernodes containing leaf p. With Q = R^T W R and
  // G = R R^T,
  //   tr(C^3) = tr((WG)^3) - 3 tr(Q^2 D) + 3 tr(Q D^2) - tr(D^3).
  // G[x][y] = |x ^ y| is nonzero only for nested pairs (the intervals are
  // laminar), so G pairs each member with its member ancestors and WG
  // stays sparse.
  std::vector<uint32_t> member(layout_.lo.size(), kInvalidId);
  std::vector<SupernodeId> ends;  // member index -> supernode id
  for (const Superedge& st : structural) {
    for (SupernodeId x : {st.a, st.b}) {
      if (member[x] != kInvalidId) continue;
      member[x] = static_cast<uint32_t>(ends.size());
      ends.push_back(x);
    }
  }
  const size_t k = ends.size();

  // Sparse k x k matrices as rows of (column, value); W's parallel
  // superedges (if any) merge through the dense accumulators below.
  struct Entry {
    uint32_t col;
    int64_t val;
  };
  const Csr<Entry> wm = BuildCsr<Entry>(k, [&](const auto& add) {
    for (const Superedge& st : structural) {
      const uint32_t a = member[st.a];
      const uint32_t b = member[st.b];
      add(a, Entry{b, st.sign});
      if (a != b) add(b, Entry{a, st.sign});
    }
  });
  const Csr<Entry> gm = BuildCsr<Entry>(k, [&](const auto& add) {
    for (uint32_t a = 0; a < k; ++a) {
      const int64_t size = layout_.hi[ends[a]] - layout_.lo[ends[a]];
      add(a, Entry{a, size});
      for (SupernodeId y = forest.Parent(ends[a]); y != kInvalidId;
           y = forest.Parent(y)) {
        if (member[y] == kInvalidId) continue;
        add(a, Entry{member[y], size});
        add(member[y], Entry{a, size});
      }
    }
  });

  // M = W G row by row (Gustavson, dense accumulator).
  uint64_t products = 0;  // its multiply-adds, also a bound on nnz(M)
  for (const Entry& w : wm.at) products += gm.Row(w.col).size();
  Csr<Entry> mm;
  mm.off.assign(1, 0);
  mm.at.reserve(std::min<uint64_t>(products, uint64_t{k} * k));
  std::vector<int64_t> dense(k, 0);
  std::vector<uint32_t> touched;
  for (uint32_t a = 0; a < k; ++a) {
    for (const Entry& w : wm.Row(a)) {
      for (const Entry& g : gm.Row(w.col)) {
        if (dense[g.col] == 0) touched.push_back(g.col);
        dense[g.col] += w.val * g.val;
      }
    }
    for (uint32_t c : touched) {
      if (dense[c] != 0) mm.at.push_back({c, dense[c]});
      dense[c] = 0;
    }
    touched.clear();
    mm.off.push_back(mm.at.size());
  }

  // tr(M^3) = sum over x of <row x of M^2, column x of M>. Column x is
  // row x of G W (W and G are symmetric), scattered into a dense
  // per-worker vector; row x of M^2 streams past it.
  std::vector<__int128> acc3(workers, 0);
  std::vector<uint64_t> products3(workers, 0);
  std::vector<std::vector<int64_t>> columns(workers);
  ForRange(pool, k, 64, [&](uint64_t begin, uint64_t end, unsigned w) {
    std::vector<int64_t>& column = columns[w];
    column.resize(k, 0);
    __int128 local = 0;
    uint64_t count = 0;
    for (uint64_t x = begin; x < end; ++x) {
      for (const Entry& g : gm.Row(x)) {
        count += wm.Row(g.col).size();
        for (const Entry& e : wm.Row(g.col)) column[e.col] += g.val * e.val;
      }
      for (const Entry& xz : mm.Row(x)) {
        count += mm.Row(xz.col).size();
        __int128 sum = 0;
        for (const Entry& zy : mm.Row(xz.col)) {
          sum += static_cast<__int128>(zy.val) * column[zy.col];
        }
        local += xz.val * sum;
      }
      for (const Entry& g : gm.Row(x)) {
        for (const Entry& e : wm.Row(g.col)) column[e.col] = 0;
      }
    }
    acc3[w] += local;
    products3[w] += count;
  });

  // The D corrections, one pass over the leaves under a self-loop. Row p
  // of Q is the sum of s_l * chi(Y_l) over p's links l, so
  //   Q_pp = sum_l s_l [p in Y_l],  (Q^2)_pp = sum_{l,l'} s_l s_l' |Y_l ^ Y_l'|.
  std::vector<int64_t> d(size_t{n_} + 1, 0);  // difference array, then d_p
  for (const Superedge& st : structural) {
    if (st.self == 0) continue;
    d[st.alo] += st.sign;
    d[st.ahi] -= st.sign;
  }
  for (uint32_t pos = 0; pos < n_; ++pos) d[pos + 1] += d[pos];
  ForRange(pool, n_, 1024, [&](uint64_t begin, uint64_t end, unsigned w) {
    __int128 local = 0;
    uint64_t count = 0;
    for (uint64_t p = begin; p < end; ++p) {
      const int64_t dp = d[p];
      if (dp == 0) continue;
      int64_t qpp = 0;
      int64_t q2pp = 0;
      const std::span<const Link> lp = links.Row(p);
      for (size_t i = 0; i < lp.size(); ++i) {
        if (p >= lp[i].ylo && p < lp[i].yhi) qpp += lp[i].sign;
        for (size_t j = i; j < lp.size(); ++j) {  // l = l' once, l != l' twice
          const uint32_t lo = std::max(lp[i].ylo, lp[j].ylo);
          const uint32_t hi = std::min(lp[i].yhi, lp[j].yhi);
          if (lo < hi) {
            q2pp += (i == j ? 1 : 2) * int64_t{lp[i].sign} * lp[j].sign * (hi - lo);
          }
        }
      }
      count += lp.size() * (lp.size() + 1) / 2;
      local += 3 * static_cast<__int128>(qpp) * dp * dp -
               3 * static_cast<__int128>(q2pp) * dp -
               static_cast<__int128>(dp) * dp * dp;
    }
    acc3[w] += local;
    products3[w] += count;
  });

  int64_t t0 = 0, t1x2 = 0, t2 = 0;
  __int128 t3x6 = 0;
  for (unsigned w = 0; w < workers; ++w) {
    t0 += acc0[w];
    t1x2 += acc1[w];
    t2 += acc2[w];
    t3x6 += acc3[w];
    products += products3[w];
  }
  TriangleProducts()->Add(products);
  assert(t1x2 % 2 == 0);
  assert(t3x6 % 6 == 0);
  const int64_t total = t0 + t1x2 / 2 + t2 + static_cast<int64_t>(t3x6 / 6);
  assert(total >= 0);
  return static_cast<uint64_t>(total);
}

std::vector<double> PageRankOnHierarchy(
    const summary::SummaryGraph& s, double d, uint32_t iterations,
    ThreadPool* pool, std::span<const EdgeCorrection> corrections) {
  SummaryOps ops(s);
  SummaryOps::Scratch scratch;
  const NodeId n = ops.num_nodes();
  std::vector<double> rank(n, n ? 1.0 / n : 0.0);
  if (n == 0) return rank;
  const std::vector<int64_t> deg = ops.Degrees(&scratch, pool, corrections);
  std::vector<double> scaled(n);
  std::vector<double> y(n);
  for (uint32_t t = 0; t < iterations; ++t) {
    // Same recurrence as the edge-cost kernel: push rank[u] / deg(u),
    // with the retained mass (isolated nodes push nothing) feeding the
    // uniform teleport term.
    double mass = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      if (deg[u] > 0) {
        scaled[u] = rank[u] / static_cast<double>(deg[u]);
        mass += rank[u];
      } else {
        scaled[u] = 0.0;
      }
    }
    ops.Multiply(std::span<const double>(scaled), std::span<double>(y),
                 &scratch, pool, corrections);
    const double teleport = (1.0 - d * mass) / static_cast<double>(n);
    for (NodeId v = 0; v < n; ++v) rank[v] = d * y[v] + teleport;
  }
  return rank;
}

std::vector<uint32_t> BfsOnHierarchy(
    const summary::SummaryGraph& s, NodeId start,
    std::span<const EdgeCorrection> corrections) {
  SummaryOps ops(s);
  SummaryOps::Scratch scratch;
  return ops.BfsDistances(start, &scratch, corrections);
}

uint64_t TrianglesOnHierarchy(const summary::SummaryGraph& s, ThreadPool* pool,
                              std::span<const EdgeCorrection> corrections) {
  SummaryOps ops(s);
  return ops.CountTriangles(pool, corrections);
}

}  // namespace slugger::algs
