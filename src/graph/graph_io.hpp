// Reading and writing graphs: whitespace-separated edge-list text files and
// a compact varint-delta binary format.
#ifndef SLUGGER_GRAPH_GRAPH_IO_HPP_
#define SLUGGER_GRAPH_GRAPH_IO_HPP_

#include <string>

#include "graph/graph.hpp"
#include "util/status.hpp"

namespace slugger::graph {

/// Parses "u v" pairs, one per line; '#' and '%' lines are comments.
/// Edge directions, duplicates and self-loops are dropped (paper §IV-A).
StatusOr<Graph> LoadEdgeListText(const std::string& path);

/// Writes the canonical edge list as text, preceded by a comment header.
/// Both writers replace `path` whole (WriteFileAtomically): a reader of
/// the old file keeps it, and a failed write leaves it as it was.
Status SaveEdgeListText(const Graph& g, const std::string& path);

/// Compact binary format: magic, node count, then delta-varint edges.
Status SaveBinary(const Graph& g, const std::string& path);

/// Loads the binary format written by SaveBinary; validates structure.
StatusOr<Graph> LoadBinary(const std::string& path);

}  // namespace slugger::graph

#endif  // SLUGGER_GRAPH_GRAPH_IO_HPP_
