// Summary-domain analytics: linear-algebra passes evaluated directly on
// the compressed structure, at summary cost instead of edge cost.
//
// The core primitive is a summary SpMV, y = A * x, where A is the exact
// adjacency matrix of the represented graph. Every superedge (A, B, s)
// contributes the signed rank-1 block s * (x_A x_B^T + x_B x_A^T), and a
// self-loop (A, A, s) the block s * (x_A x_A^T - diag(x_A)), so signed
// coverage composes exactly like the Algorithm-4 walk: the unit-coverage
// invariant (net signed coverage of every pair equals the 0/1 adjacency
// indicator) makes the sum of blocks EQUAL the adjacency matrix, not an
// approximation of it.
//
// The blocks never materialize. In the leaf preorder of the hierarchy
// forest the leaves of any supernode occupy one contiguous interval
// (HierarchyForest::LeafLayout), so per multiply:
//   1. permute x into preorder and take prefix sums — sum(x over any
//      supernode) becomes one subtraction;
//   2. each superedge turns into O(1) updates of a difference array
//      (plus a diagonal-coefficient difference array for self-loops);
//   3. one prefix scan of the difference arrays scatters y.
// Total cost per multiply: O(n + |P| + |N|), independent of |E|.
//
// EdgeOverlay corrections enter as extra signed rank-1 terms on leaf
// pairs (O(1) each), so analytics run on the LIVE mutated graph of a
// DynamicGraph without compaction.
//
// Thread-safety: a SummaryOps is immutable after construction; concurrent
// callers need one Scratch each (the QueryScratch pattern). Passing a
// ThreadPool parallelizes the per-superedge loop with per-worker
// difference arrays merged by position range.
#ifndef SLUGGER_ALGS_SUMMARY_OPS_HPP_
#define SLUGGER_ALGS_SUMMARY_OPS_HPP_

#include <cstdint>
#include <span>
#include <vector>

#include "algs/bfs.hpp"
#include "summary/summary_graph.hpp"
#include "util/types.hpp"

namespace slugger {
class ThreadPool;
}

namespace slugger::algs {

/// One raw-edge correction layered over the summary: sign +1 adds edge
/// {u, v} to the represented graph, -1 removes it. Matches the
/// stream::EdgeOverlay invariant (+1 edges are absent from the base, -1
/// edges present), which is what keeps the corrected adjacency matrix
/// exactly 0/1. Endpoints must be leaves with u != v.
struct EdgeCorrection {
  NodeId u;
  NodeId v;
  EdgeSign sign;
};

class SummaryOps {
 public:
  /// Reusable per-caller buffers; allocation-free after warmup. One per
  /// concurrent caller, like summary::QueryScratch.
  struct Scratch {
    std::vector<double> permuted_d, prefix_d, diff_d, dcoef_d, worker_d;
    std::vector<int64_t> permuted_i, prefix_i, diff_i, dcoef_i, worker_i;
  };

  /// Snapshots the superedges of `s` into interval form. The summary must
  /// outlive this object and stay immutable while it is used.
  explicit SummaryOps(const summary::SummaryGraph& s);

  NodeId num_nodes() const { return n_; }
  size_t superedge_count() const { return edges_.size(); }

  /// y = A * x over the represented graph (plus `corrections`), exactly.
  /// x and y must both have num_nodes() entries and must not alias. With
  /// a pool of more than one worker the per-superedge loop is sharded
  /// (per-worker difference arrays, merged by position range); the result
  /// is deterministic for a fixed pool size. Must not be called from
  /// inside another job running on the same pool.
  void Multiply(std::span<const double> x, std::span<double> y,
                Scratch* scratch, ThreadPool* pool = nullptr,
                std::span<const EdgeCorrection> corrections = {}) const;
  void Multiply(std::span<const int64_t> x, std::span<int64_t> y,
                Scratch* scratch, ThreadPool* pool = nullptr,
                std::span<const EdgeCorrection> corrections = {}) const;

  /// Exact degree vector of the represented graph: one integer multiply
  /// with x = 1, so each supernode aggregate is just its leaf count — the
  /// QueryDegreeBatch-free bottom-up count.
  std::vector<int64_t> Degrees(
      Scratch* scratch, ThreadPool* pool = nullptr,
      std::span<const EdgeCorrection> corrections = {}) const;

  /// Hop distances from `start` (kUnreached marks other components) via
  /// level-synchronous frontier expansion: each level is one integer
  /// SpMV over the frontier indicator, skipping superedges with no
  /// frontier mass on either side and retiring superedges once both
  /// endpoint supernodes are fully visited (the visited-bitmask pruning:
  /// a fully covered supernode is never expanded again). `start` must be
  /// < num_nodes(); cost O(levels * (n + |P| + |N|)).
  std::vector<uint32_t> BfsDistances(
      NodeId start, Scratch* scratch,
      std::span<const EdgeCorrection> corrections = {}) const;

  /// Exact global triangle count at summary cost, from the trace
  /// identity 6T = tr(A^3) with A = sum of signed superedge blocks.
  /// Expanding the cube multilinearly by how many of a triangle's three
  /// sides are covered by "flat" terms (leaf-leaf superedges and overlay
  /// corrections, merged to net weights) versus "structural" terms
  /// (superedges with a non-leaf side, and self-loops) gives four parts:
  ///   flat^3        sorted-adjacency intersection over the flat graph;
  ///   flat^2 struct flat wedges closed by a structural block, found via
  ///                 per-leaf structural link lists + interval sums;
  ///   flat struct^2 per flat edge, link-pair interval intersections;
  ///   struct^3      an exact sparse trace over the k distinct endpoint
  ///                 supernodes: the structural matrix is
  ///                 C = R^T W R - D (R their leaf indicators, W the
  ///                 k x k signed superedge matrix, D the self-loop
  ///                 diagonal), so with G = R R^T and Q = R^T W R,
  ///                 tr(C^3) = tr((WG)^3) - 3 tr(Q^2 D) + 3 tr(Q D^2)
  ///                 - tr(D^3). G is nonzero only on nested pairs, WG is
  ///                 sparse, and the D terms are one pass over the
  ///                 leaves under a self-loop.
  /// All block intersections are interval clamps because the interval
  /// family of a forest preorder is laminar. A pool parallelizes the
  /// enumeration loops with per-worker accumulators. Each call adds the
  /// struct^3 multiply-adds to slugger_algs_triangle_products_total.
  uint64_t CountTriangles(
      ThreadPool* pool = nullptr,
      std::span<const EdgeCorrection> corrections = {}) const;

 private:
  /// One superedge in interval form; [alo, ahi) x [blo, bhi) in leaf
  /// preorder positions. self marks a == b (block minus its diagonal).
  struct Superedge {
    uint32_t alo, ahi, blo, bhi;
    int32_t sign;
    uint32_t self;
    SupernodeId a, b;  ///< original supernode ids (triangle counting)
  };

  template <typename T>
  void MultiplyImpl(std::span<const T> x, std::span<T> y, Scratch* scratch,
                    ThreadPool* pool,
                    std::span<const EdgeCorrection> corrections) const;

  NodeId n_ = 0;
  const summary::SummaryGraph* summary_;
  summary::HierarchyForest::LeafLayout layout_;
  std::vector<Superedge> edges_;
};

/// PageRank by power iteration evaluated on the summary: each round is
/// one summary SpMV, O(|P| + |N| + n) instead of O(|E|). Numerically the
/// same recurrence as algs::PageRank (same damping, teleport and
/// isolated-node handling), so results agree with the edge-cost kernels
/// to summation-order rounding (~1e-12 per round).
std::vector<double> PageRankOnHierarchy(
    const summary::SummaryGraph& s, double d, uint32_t iterations,
    ThreadPool* pool = nullptr,
    std::span<const EdgeCorrection> corrections = {});

/// BFS distances on the summary (start must be < num_leaves()).
std::vector<uint32_t> BfsOnHierarchy(
    const summary::SummaryGraph& s, NodeId start,
    std::span<const EdgeCorrection> corrections = {});

/// Exact triangle count on the summary.
uint64_t TrianglesOnHierarchy(
    const summary::SummaryGraph& s, ThreadPool* pool = nullptr,
    std::span<const EdgeCorrection> corrections = {});

}  // namespace slugger::algs

#endif  // SLUGGER_ALGS_SUMMARY_OPS_HPP_
