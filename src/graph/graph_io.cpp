#include "graph/graph_io.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "graph/edge_list.hpp"
#include "util/atomic_file.hpp"
#include "util/varint.hpp"

namespace slugger::graph {

namespace {
constexpr uint64_t kBinaryMagic = 0x534C47477246ull;  // "SLGGrF"
}  // namespace

StatusOr<Graph> LoadEdgeListText(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  EdgeListBuilder builder;
  std::string line;
  uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ss(line);
    uint64_t u = 0, v = 0;
    if (!(ss >> u >> v)) {
      return Status::Corruption(path + ":" + std::to_string(line_no) +
                                ": expected 'u v'");
    }
    if (u > 0xFFFFFFFEull || v > 0xFFFFFFFEull) {
      return Status::OutOfRange(path + ":" + std::to_string(line_no) +
                                ": node id exceeds 32 bits");
    }
    builder.Add(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  NodeId n = builder.num_nodes();
  return Graph::FromCanonicalEdges(n, builder.Finalize());
}

Status SaveEdgeListText(const Graph& g, const std::string& path) {
  std::ostringstream out;
  out << "# nodes " << g.num_nodes() << " edges " << g.num_edges() << "\n";
  for (const Edge& e : g.Edges()) {
    out << e.first << ' ' << e.second << '\n';
  }
  return WriteFileAtomically(path, out.view());
}

Status SaveBinary(const Graph& g, const std::string& path) {
  std::string buf;
  buf.reserve(16 + g.num_edges() * 3);
  PutVarint64(&buf, kBinaryMagic);
  PutVarint64(&buf, g.num_nodes());
  PutVarint64(&buf, g.num_edges());
  // Edges are canonical-sorted; delta-encode the source, then the gap from
  // source to target (always positive since first < second).
  NodeId prev_u = 0;
  NodeId prev_v = 0;
  for (const Edge& e : g.Edges()) {
    if (e.first != prev_u) {
      PutVarint64(&buf, static_cast<uint64_t>(e.first - prev_u));
      prev_u = e.first;
      prev_v = e.first;  // restart the target chain
    } else {
      PutVarint64(&buf, 0);
    }
    PutVarint64(&buf, static_cast<uint64_t>(e.second - prev_v));
    prev_v = e.second;
  }
  return WriteFileAtomically(path, buf);
}

StatusOr<Graph> LoadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string buf = ss.str();

  VarintReader reader(buf);
  uint64_t magic = 0, n = 0, m = 0;
  Status s = reader.Get(&magic);
  if (!s.ok()) return s;
  if (magic != kBinaryMagic) return Status::Corruption("bad magic in " + path);
  if (!(s = reader.Get(&n)).ok()) return s;
  if (!(s = reader.Get(&m)).ok()) return s;
  if (n > 0xFFFFFFFFull) return Status::Corruption("node count overflow");
  // Bound the claimed edge count before sizing anything by it: every
  // edge costs at least two stream bytes (two varints), so a count the
  // remaining bytes cannot hold is corrupt — not a 16-exabyte reserve.
  if (m > reader.remaining() / 2) {
    return Status::Corruption("edge count exceeds file size in " + path);
  }

  std::vector<Edge> edges;
  edges.reserve(m);
  uint64_t prev_u = 0;
  uint64_t prev_v = 0;
  for (uint64_t i = 0; i < m; ++i) {
    uint64_t du = 0, dv = 0;
    if (!(s = reader.Get(&du)).ok()) return s;
    if (du != 0) {
      prev_u += du;
      prev_v = prev_u;
    }
    if (!(s = reader.Get(&dv)).ok()) return s;
    if (du == 0 && dv == 0 && i > 0) {
      return Status::Corruption("duplicate edge in " + path);
    }
    prev_v += dv;
    if (prev_u >= n || prev_v >= n || prev_u >= prev_v) {
      return Status::Corruption("edge out of range in " + path);
    }
    edges.emplace_back(static_cast<NodeId>(prev_u), static_cast<NodeId>(prev_v));
  }
  return Graph::FromCanonicalEdges(static_cast<NodeId>(n), std::move(edges));
}

}  // namespace slugger::graph
