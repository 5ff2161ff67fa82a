// Partial decompression: neighbor retrieval directly on a summary
// (paper Algorithm 4) without reconstructing the whole graph.
//
// The query state is split so a service can serve concurrent readers:
// the SummaryGraph is the immutable shared index, and ALL mutable
// per-query state lives in a QueryScratch the caller owns. Any number of
// threads may call QueryNeighbors / QueryDegree on the same summary
// simultaneously as long as each brings its own scratch.
#ifndef SLUGGER_SUMMARY_NEIGHBOR_QUERY_HPP_
#define SLUGGER_SUMMARY_NEIGHBOR_QUERY_HPP_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "summary/canonical_batch.hpp"
#include "summary/summary_graph.hpp"
#include "util/types.hpp"

namespace slugger::summary {

/// Reusable per-caller (or per-thread) query buffers. Stays allocation-
/// free after warmup; automatically grows when reused across summaries of
/// different sizes (the coverage counters are all zero between queries,
/// so growth never observes stale state).
struct QueryScratch {
  std::vector<int32_t> count;        ///< per-subnode signed coverage
  std::vector<NodeId> touched;       ///< subnodes with nonzero entries
  std::vector<NodeId> result;        ///< last Neighbors() answer
  std::vector<SupernodeId> stack;    ///< leaf-traversal stack
};

/// One-hop neighbors of subnode v in the represented graph, in
/// unspecified order; the returned reference points into *scratch and is
/// valid until its next use. Implements Algorithm 4: walk v's ancestors,
/// apply signed coverage of their superedges, keep subnodes with positive
/// net. Thread-safe for concurrent callers with distinct scratches.
/// v must be < summary.num_leaves() (asserted); untrusted ids are
/// validated one layer up, at the slugger::CompressedGraph boundary.
const std::vector<NodeId>& QueryNeighbors(const SummaryGraph& summary,
                                          NodeId v, QueryScratch* scratch);

/// Degree of v (the size of QueryNeighbors(v)) without materializing the
/// neighbor list — counts positive-net subnodes straight off the coverage
/// pass. Thread-safe under the same contract as QueryNeighbors.
size_t QueryDegree(const SummaryGraph& summary, NodeId v,
                   QueryScratch* scratch);

/// One adjacency correction merged into the coverage walk: sign > 0
/// forces `neighbor` into the answer, sign < 0 forces it out, regardless
/// of the summary's own net coverage of the pair. This is the overlay
/// hook of the dynamic-update subsystem (stream::EdgeOverlay): a summary
/// stays immutable while a correction set layered on top mutates the
/// represented graph, and queries merge the two right in the walk.
struct NeighborOverride {
  NodeId neighbor;
  EdgeSign sign;
};

/// Sign of the override on `neighbor` in a list sorted by neighbor id
/// (0 when absent) — the one lookup every override consumer shares, so
/// membership probes can never diverge from the stored order.
inline EdgeSign FindOverrideSign(std::span<const NeighborOverride> sorted,
                                 NodeId neighbor) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), neighbor,
                             [](const NeighborOverride& o, NodeId key) {
                               return o.neighbor < key;
                             });
  return it != sorted.end() && it->neighbor == neighbor ? it->sign : 0;
}

/// QueryNeighbors with corrections: identical to the plain overload when
/// `overrides` is empty; otherwise each override's subnode is forced
/// present/absent in the answer. Every override neighbor must be a valid
/// subnode id and appear at most once; an override for v itself is
/// ignored (a simple graph has no self-loops). Same thread contract.
const std::vector<NodeId>& QueryNeighbors(
    const SummaryGraph& summary, NodeId v, QueryScratch* scratch,
    std::span<const NeighborOverride> overrides);

/// QueryDegree with corrections, under the QueryNeighbors contract.
size_t QueryDegree(const SummaryGraph& summary, NodeId v,
                   QueryScratch* scratch,
                   std::span<const NeighborOverride> overrides);

/// The raw coverage pass of Algorithm 4: walks the ancestor chain of v
/// and leaves the NET signed coverage of every covered pair {v, u} in
/// scratch->count[u], recording covered subnodes in scratch->touched
/// (entries may repeat when coverage cancels and returns; count is
/// authoritative). Exposed for consumers that need the magnitude, not
/// just the sign — the stream compactor folds corrections by solving for
/// the leaf-level superedge that flips a pair's net across zero. The
/// caller MUST restore the between-queries scratch invariant afterwards:
/// zero count over touched, then clear touched.
void AccumulateCoverage(const SummaryGraph& summary, NodeId v,
                        QueryScratch* scratch);

/// Per-caller buffers of the batched query path. Like QueryScratch it is
/// allocation-free after warmup and reusable across summaries; every
/// coverage counter and membership flag is zero between batches, so one
/// scratch may serve interleaved single and batched queries.
struct BatchScratch {
  QueryScratch query;                ///< coverage counters + traversal stack
  std::vector<uint8_t> in_touched;   ///< membership flags for query.touched
  std::vector<SupernodeId> chains;   ///< concatenated root-first chains
  std::vector<uint64_t> chain_begin; ///< chain offsets (batch size + 1)
  std::vector<uint32_t> order;       ///< batch positions, locality-sorted
  std::vector<SupernodeId> applied;  ///< currently applied ancestor chain
  std::vector<NodeId> staged;        ///< neighbors in processing order
  std::vector<uint64_t> staged_begin;
  std::vector<uint32_t> preorder;    ///< fallback leaf ranks (see below)
  CanonicalScratch canonical;        ///< paged batches' canonical stitch
};

/// Fills scratch->chains/chain_begin with each node's root-first ancestor
/// chain and scratch->order with the batch positions sorted by hierarchy
/// locality (leaf preorder): nodes sharing a long ancestor chain become
/// adjacent, which is what lets the batch pass below reuse one coverage
/// application per shared ancestor. Exposed so callers that shard a batch
/// across threads can sort once globally and keep each shard's slice
/// locality-contiguous. Every node must be < num_leaves().
///
/// `leaf_rank`, when provided, must be ComputeLeafPreorder() of the
/// summary's forest; since the forest is immutable while queries run,
/// long-lived holders (slugger::CompressedGraph) compute it once and pass
/// it to every batch. When null it is rebuilt into scratch->preorder, an
/// extra O(|summary|) per call.
///
/// `precomputed_order`, when non-empty, must be a permutation of
/// [0, nodes.size()) that already sorts the batch by leaf rank (ties by
/// position); it is copied into scratch->order and the O(b log b) sort is
/// skipped — the win for callers that sorted once globally and now batch a
/// presorted slice, who pass the identity. The ancestor chains are built
/// either way. An order that is not locality-sorted only costs speed,
/// never correctness.
void ComputeBatchOrder(const SummaryGraph& summary,
                       std::span<const NodeId> nodes, BatchScratch* scratch,
                       const std::vector<uint32_t>* leaf_rank = nullptr,
                       std::span<const uint32_t> precomputed_order = {});

/// Batched QueryNeighbors: answers every node of `nodes` (duplicates
/// allowed) into *result, in input order. Internally processes the batch
/// in hierarchy-locality order and keeps the signed coverage of the
/// shared ancestor-chain prefix applied across consecutive nodes, so the
/// dominant cost of Algorithm 4 — expanding each ancestor's superedges to
/// leaves — is paid once per distinct chain segment instead of once per
/// node. Thread-safe for concurrent callers with distinct scratches.
/// `leaf_rank` and `precomputed_order` as in ComputeBatchOrder.
void QueryNeighborsBatch(const SummaryGraph& summary,
                         std::span<const NodeId> nodes, BatchResult* result,
                         BatchScratch* scratch,
                         const std::vector<uint32_t>* leaf_rank = nullptr,
                         std::span<const uint32_t> precomputed_order = {});

/// Batched QueryDegree under the same amortization: degrees->at(i) is the
/// degree of nodes[i]; no neighbor list is materialized.
void QueryDegreeBatch(const SummaryGraph& summary,
                      std::span<const NodeId> nodes,
                      std::vector<uint64_t>* degrees, BatchScratch* scratch,
                      const std::vector<uint32_t>* leaf_rank = nullptr,
                      std::span<const uint32_t> precomputed_order = {});

/// Convenience wrapper bundling a summary reference with one scratch.
/// Not thread-safe (share the summary, not the NeighborQuery); concurrent
/// readers should call QueryNeighbors/QueryDegree with their own scratch,
/// or go through the slugger::CompressedGraph facade.
class NeighborQuery {
 public:
  explicit NeighborQuery(const SummaryGraph& summary) : summary_(summary) {}

  const std::vector<NodeId>& Neighbors(NodeId v) {
    return QueryNeighbors(summary_, v, &scratch_);
  }

  size_t Degree(NodeId v) { return QueryDegree(summary_, v, &scratch_); }

 private:
  const SummaryGraph& summary_;
  QueryScratch scratch_;
};

}  // namespace slugger::summary

#endif  // SLUGGER_SUMMARY_NEIGHBOR_QUERY_HPP_
