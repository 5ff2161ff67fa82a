#include "summary/canonical_batch.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace slugger::summary {

namespace {

constexpr unsigned kDigitBits = 11;
constexpr uint32_t kDigitMask = (1u << kDigitBits) - 1;

uint32_t Digit(uint32_t id, unsigned d) {
  return (id >> (d * kDigitBits)) & kDigitMask;
}

}  // namespace

void WriteCanonicalBatch(std::span<const ListSource> sources, size_t batch,
                         uint64_t num_nodes, CanonicalScratch* scratch,
                         BatchResult* out) {
  const unsigned id_bits =
      num_nodes > 1 ? static_cast<unsigned>(std::bit_width(num_nodes - 1)) : 0;
  const unsigned passes =
      std::max(1u, (id_bits + kDigitBits - 1) / kDigitBits);

  // Count in one read of the sources: list sizes per position and the
  // histogram of every digit. Lists of a source are contiguous, so its
  // ids are neighbors[offsets.front() .. offsets.back()).
  std::vector<uint64_t>& offsets = out->offsets;
  offsets.assign(batch + 1, 0);
  std::vector<uint64_t>& buckets = scratch->buckets;
  buckets.assign(static_cast<size_t>(passes) << kDigitBits, 0);
  for (const ListSource& src : sources) {
    if (src.positions.empty()) continue;
    for (size_t k = 0; k < src.positions.size(); ++k) {
      offsets[src.positions[k] + 1] += src.offsets[k + 1] - src.offsets[k];
    }
    const std::span<const NodeId> ids = src.neighbors.subspan(
        src.offsets.front(), src.offsets.back() - src.offsets.front());
    for (unsigned d = 0; d < passes; ++d) {
      uint64_t* hist = buckets.data() + (static_cast<size_t>(d) << kDigitBits);
      for (const NodeId v : ids) ++hist[Digit(v, d)];
    }
  }
  for (size_t i = 0; i < batch; ++i) offsets[i + 1] += offsets[i];
  const uint64_t total = offsets[batch];
  out->neighbors.resize(total);
  scratch->cursor.assign(offsets.begin(), offsets.end() - 1);

  // Histograms become each bucket's first slot.
  for (unsigned d = 0; d < passes; ++d) {
    uint64_t* hist = buckets.data() + (static_cast<size_t>(d) << kDigitBits);
    uint64_t sum = 0;
    for (uint32_t b = 0; b <= kDigitMask; ++b) {
      sum += std::exchange(hist[b], sum);
    }
  }

  // Digit 0 scatters straight from the sources, packing each id with
  // its position; later digits ping-pong between the two key buffers.
  if (scratch->keys.size() < total) scratch->keys.resize(total);
  uint64_t* from = scratch->keys.data();
  {
    uint64_t* hist = buckets.data();
    for (const ListSource& src : sources) {
      for (size_t k = 0; k < src.positions.size(); ++k) {
        const uint64_t high = static_cast<uint64_t>(src.positions[k]) << 32;
        for (uint64_t j = src.offsets[k]; j < src.offsets[k + 1]; ++j) {
          const NodeId v = src.neighbors[j];
          from[hist[Digit(v, 0)]++] = high | v;
        }
      }
    }
  }
  if (passes > 1) {
    if (scratch->keys_alt.size() < total) scratch->keys_alt.resize(total);
    uint64_t* to = scratch->keys_alt.data();
    for (unsigned d = 1; d < passes; ++d) {
      uint64_t* hist = buckets.data() + (static_cast<size_t>(d) << kDigitBits);
      for (uint64_t i = 0; i < total; ++i) {
        const uint64_t key = from[i];
        to[hist[Digit(static_cast<NodeId>(key), d)]++] = key;
      }
      std::swap(from, to);
    }
  }

  // Stable scatter by position: each list receives its ids in the
  // ascending order the digit passes left them in.
  uint64_t* cursor = scratch->cursor.data();
  NodeId* dst = out->neighbors.data();
  for (uint64_t i = 0; i < total; ++i) {
    const uint64_t key = from[i];
    dst[cursor[key >> 32]++] = static_cast<NodeId>(key);
  }
}

}  // namespace slugger::summary
