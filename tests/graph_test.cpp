// Unit tests for the graph substrate: builder, CSR, IO.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "graph/edge_list.hpp"
#include "graph/graph.hpp"
#include "graph/graph_io.hpp"
#include "gen/generators.hpp"
#include "util/varint.hpp"

namespace slugger::graph {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(EdgeListBuilder, DedupesAndDropsSelfLoops) {
  EdgeListBuilder b;
  b.Add(1, 2);
  b.Add(2, 1);  // duplicate, reversed
  b.Add(3, 3);  // self-loop
  b.Add(0, 1);
  auto edges = b.Finalize();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], MakeEdge(0, 1));
  EXPECT_EQ(edges[1], MakeEdge(1, 2));
  EXPECT_EQ(b.num_nodes(), 4u);
}

TEST(EdgeListBuilder, EnsureNodesCoversIsolated) {
  EdgeListBuilder b;
  b.Add(0, 1);
  b.EnsureNodes(10);
  EXPECT_EQ(b.num_nodes(), 10u);
}

TEST(Graph, CsrNeighborsSorted) {
  Graph g = Graph::FromEdges(5, {{0, 3}, {0, 1}, {1, 3}, {2, 3}});
  auto n0 = g.Neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 3u);
  auto n3 = g.Neighbors(3);
  ASSERT_EQ(n3.size(), 3u);
  EXPECT_TRUE(std::is_sorted(n3.begin(), n3.end()));
  EXPECT_EQ(g.Degree(4), 0u);
}

TEST(Graph, HasEdge) {
  Graph g = Graph::FromEdges(4, {{0, 1}, {1, 2}});
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(3, 3));
}

TEST(Graph, EqualityIsStructural) {
  Graph a = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  Graph b = Graph::FromEdges(3, {{1, 2}, {0, 1}, {1, 0}});
  EXPECT_EQ(a, b);
  Graph c = Graph::FromEdges(3, {{0, 1}});
  EXPECT_FALSE(a == c);
}

TEST(Graph, EmptyGraph) {
  Graph g = Graph::FromEdges(0, {});
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphIo, TextRoundTrip) {
  Graph g = gen::ErdosRenyi(64, 200, 5);
  std::string path = TempPath("slugger_io_text.txt");
  ASSERT_TRUE(SaveEdgeListText(g, path).ok());
  auto loaded = LoadEdgeListText(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Text load infers node count from max endpoint; compare edges.
  EXPECT_EQ(loaded.value().Edges(), g.Edges());
  std::remove(path.c_str());
}

TEST(GraphIo, TextParsesCommentsAndDirections) {
  std::string path = TempPath("slugger_io_comments.txt");
  {
    std::ofstream out(path);
    out << "# a comment\n% another\n1 2\n2 1\n3 3\n0 1\n";
  }
  auto loaded = LoadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_edges(), 2u);  // dedup + self-loop removal
  std::remove(path.c_str());
}

TEST(GraphIo, TextRejectsGarbage) {
  std::string path = TempPath("slugger_io_garbage.txt");
  {
    std::ofstream out(path);
    out << "1 2\nnot numbers\n";
  }
  auto loaded = LoadEdgeListText(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption);
  std::remove(path.c_str());
}

TEST(GraphIo, MissingFileIsIOError) {
  auto loaded = LoadEdgeListText("/nonexistent/definitely/missing.txt");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kIOError);
}

TEST(GraphIo, BinaryRoundTrip) {
  Graph g = gen::BarabasiAlbert(300, 3, 0.2, 9);
  std::string path = TempPath("slugger_io_bin.sg");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  auto loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value(), g);
  std::remove(path.c_str());
}

TEST(GraphIo, BinaryRejectsBadMagic) {
  std::string path = TempPath("slugger_io_badmagic.sg");
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage bytes here";
  }
  auto loaded = LoadBinary(path);
  ASSERT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(GraphIo, BinaryRejectsEdgeCountLargerThanFile) {
  // Regression test: a hostile header claiming ~2^60 edges used to reach
  // edges.reserve(m) before any edge was parsed — a multi-exabyte
  // allocation request from a 20-byte file. The count must be rejected
  // against the remaining file size (two bytes minimum per edge) first.
  std::string buf;
  PutVarint64(&buf, 0x534C47477246ull);  // kBinaryMagic ("SLGGrF")
  PutVarint64(&buf, 100);                // n
  PutVarint64(&buf, 1ull << 60);         // m: absurd for a tiny file
  PutVarint64(&buf, 1);                  // a lone half-edge of payload
  std::string path = TempPath("slugger_io_hugecount.sg");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
  auto loaded = LoadBinary(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), Status::Code::kCorruption)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(GraphIo, BinaryRejectsTruncation) {
  Graph g = gen::ErdosRenyi(50, 120, 2);
  std::string path = TempPath("slugger_io_trunc.sg");
  ASSERT_TRUE(SaveBinary(g, path).ok());
  // Truncate the file in half.
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  auto loaded = LoadBinary(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

std::string ReadAll(std::istream& in) {
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Both writers replace the file whole: a reader that opened the old file
// keeps reading the old bytes, and a reload sees exactly the new graph.
TEST(GraphIo, SaveOverAnOpenFileKeepsTheOldBytes) {
  using Saver = Status (*)(const Graph&, const std::string&);
  using Loader = StatusOr<Graph> (*)(const std::string&);
  struct Format {
    const char* name;
    Saver save;
    Loader load;
  };
  const Graph big = gen::BarabasiAlbert(400, 4, 0.2, 11);
  const Graph small = gen::ErdosRenyi(40, 90, 12);
  for (const Format& f : {Format{"text", SaveEdgeListText, LoadEdgeListText},
                          Format{"binary", SaveBinary, LoadBinary}}) {
    const std::string path = TempPath(std::string("slugger_io_over_") + f.name);
    ASSERT_TRUE(f.save(big, path).ok()) << f.name;
    std::string old_bytes;
    {
      std::ifstream whole(path, std::ios::binary);
      old_bytes = ReadAll(whole);
    }
    std::ifstream held(path, std::ios::binary);
    ASSERT_TRUE(held.is_open());
    ASSERT_TRUE(f.save(small, path).ok()) << f.name;
    EXPECT_EQ(ReadAll(held), old_bytes) << f.name;

    auto loaded = f.load(path);
    ASSERT_TRUE(loaded.ok()) << f.name << ": " << loaded.status().ToString();
    EXPECT_EQ(loaded.value().Edges(), small.Edges()) << f.name;
    for (const auto& entry : std::filesystem::directory_iterator(
             std::filesystem::path(path).parent_path())) {
      EXPECT_EQ(entry.path().string().rfind(path + ".tmp.", 0),
                std::string::npos)
          << "leftover " << entry.path();
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace slugger::graph
