// The canonical form of a batched neighbor answer, and the one routine
// that writes it.
//
// Serving paths that assemble a batch from pieces — the scatter-gather
// coordinator (one piece per shard) and the paged batch (lists staged in
// file-preorder) — hand their pieces to WriteCanonicalBatch, which lays
// every list out in input order and sorted ascending. Canonical lists are
// produced there and nowhere else, so "byte-identical to a single box"
// holds by construction for every caller.
#ifndef SLUGGER_SUMMARY_CANONICAL_BATCH_HPP_
#define SLUGGER_SUMMARY_CANONICAL_BATCH_HPP_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hpp"

namespace slugger::summary {

/// Adjacency lists of one batched query, concatenated: the neighbors of
/// the i-th input node are neighbors[offsets[i] .. offsets[i+1]), in the
/// caller's input order (not the internal processing order).
struct BatchResult {
  std::vector<NodeId> neighbors;
  std::vector<uint64_t> offsets;  ///< batch size + 1 entries (0 when empty)

  size_t size() const { return offsets.empty() ? 0 : offsets.size() - 1; }
  std::span<const NodeId> operator[](size_t i) const {
    return std::span<const NodeId>(neighbors)
        .subspan(offsets[i], offsets[i + 1] - offsets[i]);
  }
};

/// One contributor's lists: neighbors[offsets[k] .. offsets[k+1]) belongs
/// to output position positions[k]. offsets has positions.size() + 1
/// entries (or none when positions is empty). Several lists, from one
/// source or from several, may name the same position; their ids are
/// concatenated and sorted together.
struct ListSource {
  std::span<const uint32_t> positions;
  std::span<const NodeId> neighbors;
  std::span<const uint64_t> offsets;
};

/// Buffers of WriteCanonicalBatch, reused across batches so a serving
/// loop stops allocating after warmup.
struct CanonicalScratch {
  std::vector<uint64_t> keys;      ///< (position << 32) | neighbor
  std::vector<uint64_t> keys_alt;  ///< second key buffer, multi-pass only
  std::vector<uint64_t> buckets;   ///< per-digit histograms, then cursors
  std::vector<uint64_t> cursor;    ///< per-position write cursor
};

/// Writes the canonical batch of `batch` positions into *out: offsets
/// from the summed list sizes, and each position's ids ascending. Every
/// position must be < batch (and batch <= 2^32), every id < num_nodes.
///
/// A stable LSD radix sort over packed (position, neighbor) keys: the
/// first pass histograms and scatters straight from the sources,
/// max(1, ceil(bit_width(num_nodes - 1) / 11)) passes order the keys by
/// neighbor id in 11-bit digits, and a final stable scatter by position
/// through the offsets writes out->neighbors. Linear in the number of
/// ids: one digit pass up to 2,048 nodes, at most three for any 32-bit id.
void WriteCanonicalBatch(std::span<const ListSource> sources, size_t batch,
                         uint64_t num_nodes, CanonicalScratch* scratch,
                         BatchResult* out);

}  // namespace slugger::summary

#endif  // SLUGGER_SUMMARY_CANONICAL_BATCH_HPP_
