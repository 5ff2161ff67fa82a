// Hierarchy-native vs adjacency-materializing analytics (ISSUE 6): how
// much does running PageRank directly on the summary (algs/summary_ops,
// O(n + |P| + |N|) per round) buy over PageRankOnSummaryBatched, which
// materializes the full adjacency before iterating (O(|E|) per round)?
//
// Three graph families at different compression ratios:
//   high    caveman cliques, rewire 0.02 — summary cost << |E|
//   medium  planted hierarchical blocks  — moderate compression
//   low     RMAT                         — little block structure
// Per config we summarize once, time the batched baseline and the
// hierarchy-native path at each pool size, and verify agreement on the
// spot: PageRank within 1e-9 of the baseline, BFS distances and triangle
// counts exactly equal to decode-then-compute. Triangles are timed too:
// TrianglesOnHierarchy at each pool size against TrianglesOnGraph on the
// input graph. Disagreement fails the bench regardless of timings.
// Results go to stdout and to BENCH_analytics.json; CI gates on the
// high-compression 1-thread PageRank speedup staying >= 2x
// (bench/check_analytics.py), and prints the triangle timings ungated.
//
// Env knobs:
//   SLUGGER_BENCH_AN_CAVES       caveman cave count  (default 96)
//   SLUGGER_BENCH_AN_CAVE_SIZE   caveman cave size   (default 96)
//   SLUGGER_BENCH_AN_PH_BRANCH   planted-hierarchy branching (default 6)
//   SLUGGER_BENCH_AN_RMAT_SCALE  RMAT scale (default 11)
//   SLUGGER_BENCH_AN_ITERS       PageRank iterations (default 20)
//   SLUGGER_BENCH_AN_REPS        repetitions per timed mode (default 3)
//   SLUGGER_BENCH_THREAD_LIST    comma list of pool sizes (default 1,2,4,8)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "algs/bfs.hpp"
#include "algs/pagerank.hpp"
#include "algs/summary_ops.hpp"
#include "algs/triangles.hpp"
#include "api/engine.hpp"
#include "bench_env.hpp"
#include "gen/generators.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using slugger::bench::EnvU64;
using slugger::bench::ThreadList;

struct Run {
  std::string mode;  ///< "batched"/"graph" baseline or "hierarchy"
  uint32_t threads;
  double seconds;  ///< total over all reps
};

struct ConfigResult {
  std::string name;
  uint64_t nodes = 0;
  uint64_t edges = 0;
  uint64_t cost = 0;
  std::vector<Run> runs;            ///< PageRank, baseline first
  std::vector<Run> triangle_runs;   ///< triangles, baseline first
  double max_abs_diff = 0.0;  ///< hierarchy vs batched PageRank
  bool bfs_agree = false;
  bool triangles_agree = false;
};

}  // namespace

int main() {
  using namespace slugger;

  const uint64_t caves = EnvU64("SLUGGER_BENCH_AN_CAVES", 96);
  const uint64_t cave_size = EnvU64("SLUGGER_BENCH_AN_CAVE_SIZE", 96);
  const uint64_t ph_branch = EnvU64("SLUGGER_BENCH_AN_PH_BRANCH", 6);
  const uint64_t rmat_scale = EnvU64("SLUGGER_BENCH_AN_RMAT_SCALE", 11);
  const uint32_t iters =
      static_cast<uint32_t>(EnvU64("SLUGGER_BENCH_AN_ITERS", 20));
  const uint64_t reps = EnvU64("SLUGGER_BENCH_AN_REPS", 3);
  const std::vector<uint32_t> thread_list = ThreadList();

  std::printf("=== hierarchy-native vs adjacency-materializing analytics ===\n");
  std::printf("pagerank iters=%u reps=%llu\n\n", iters,
              static_cast<unsigned long long>(reps));

  struct Config {
    const char* name;
    graph::Graph g;
  };
  gen::PlantedHierarchyOptions ph;
  ph.branching = static_cast<uint32_t>(ph_branch);
  ph.depth = 3;
  ph.leaf_size = 10;
  std::vector<Config> configs;
  configs.push_back({"high", gen::Caveman(static_cast<uint32_t>(caves),
                                          static_cast<uint32_t>(cave_size),
                                          0.02, /*seed=*/7)});
  configs.push_back({"medium", gen::PlantedHierarchy(ph, /*seed=*/7)});
  configs.push_back(
      {"low", gen::RMat(static_cast<uint32_t>(rmat_scale),
                        4ull << rmat_scale, 0.57, 0.19, 0.19, /*seed=*/7)});

  std::vector<ConfigResult> results;
  bool all_agree = true;
  for (Config& config : configs) {
    const graph::Graph& g = config.g;
    EngineOptions options;
    options.config.iterations = 20;
    options.config.seed = 7;
    Engine engine(options);
    StatusOr<CompressedGraph> compressed = engine.Summarize(g);
    if (!compressed.ok()) {
      std::fprintf(stderr, "summarize(%s) failed: %s\n", config.name,
                   compressed.status().ToString().c_str());
      return 1;
    }
    const summary::SummaryGraph& s = compressed.value().summary();

    ConfigResult r;
    r.name = config.name;
    r.nodes = g.num_nodes();
    r.edges = g.num_edges();
    r.cost = compressed.value().stats().cost;
    std::printf("[%s] nodes=%llu edges=%llu cost=%llu (%.1f%% of |E|)\n",
                config.name, static_cast<unsigned long long>(r.nodes),
                static_cast<unsigned long long>(r.edges),
                static_cast<unsigned long long>(r.cost),
                100.0 * static_cast<double>(r.cost) /
                    static_cast<double>(r.edges));

    // Baseline: materialize adjacency once, then iterate at edge cost.
    std::vector<double> batched_pr;
    {
      WallTimer timer;
      for (uint64_t rep = 0; rep < reps; ++rep) {
        batched_pr = algs::PageRankOnSummaryBatched(s, 0.85, iters);
      }
      r.runs.push_back({"batched", 1, timer.Seconds()});
    }

    std::vector<double> native_pr;
    for (uint32_t t : thread_list) {
      ThreadPool pool(t);
      ThreadPool* pool_ptr = t > 1 ? &pool : nullptr;
      WallTimer timer;
      for (uint64_t rep = 0; rep < reps; ++rep) {
        native_pr = algs::PageRankOnHierarchy(s, 0.85, iters, pool_ptr);
      }
      r.runs.push_back({"hierarchy", t, timer.Seconds()});
      for (size_t i = 0; i < native_pr.size(); ++i) {
        r.max_abs_diff =
            std::max(r.max_abs_diff, std::fabs(native_pr[i] - batched_pr[i]));
      }
    }

    // Triangles: sorted-adjacency counting on the input graph, then the
    // hierarchy-native count at each pool size; every count must agree.
    uint64_t graph_triangles = 0;
    {
      WallTimer timer;
      for (uint64_t rep = 0; rep < reps; ++rep) {
        graph_triangles = algs::TrianglesOnGraph(g);
      }
      r.triangle_runs.push_back({"graph", 1, timer.Seconds()});
    }
    r.triangles_agree = true;
    for (uint32_t t : thread_list) {
      ThreadPool pool(t);
      ThreadPool* pool_ptr = t > 1 ? &pool : nullptr;
      uint64_t native_triangles = 0;
      WallTimer timer;
      for (uint64_t rep = 0; rep < reps; ++rep) {
        native_triangles = algs::TrianglesOnHierarchy(s, pool_ptr);
      }
      r.triangle_runs.push_back({"hierarchy", t, timer.Seconds()});
      r.triangles_agree =
          r.triangles_agree && native_triangles == graph_triangles;
    }

    // Exactness spot check against decode-then-compute.
    const NodeId start = g.num_nodes() / 2;
    r.bfs_agree = algs::BfsOnHierarchy(s, start) == algs::BfsOnGraph(g, start);

    auto print_runs = [](const char* what, const std::vector<Run>& runs) {
      std::printf("  %-10s %-10s %-8s %10s %10s\n", what, "mode", "threads",
                  "seconds", "speedup");
      for (const Run& run : runs) {
        std::printf("  %-10s %-10s %-8u %10.3f %9.2fx\n", "", run.mode.c_str(),
                    run.threads, run.seconds,
                    runs.front().seconds / run.seconds);
      }
    };
    print_runs("pagerank", r.runs);
    print_runs("triangles", r.triangle_runs);
    std::printf("  pagerank max|diff|=%.3g bfs=%s triangles=%s\n\n",
                r.max_abs_diff, r.bfs_agree ? "exact" : "MISMATCH",
                r.triangles_agree ? "exact" : "MISMATCH");
    all_agree = all_agree && r.bfs_agree && r.triangles_agree &&
                r.max_abs_diff < 1e-9;
    results.push_back(std::move(r));
  }

  // One JSON array of runs, each with its speedup over the list's first
  // (baseline) entry.
  auto runs_json = [](const std::vector<Run>& runs, const char* speedup_key) {
    std::string out = "[";
    for (size_t i = 0; i < runs.size(); ++i) {
      const Run& run = runs[i];
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"mode\":\"%s\",\"threads\":%u,\"seconds\":%.6f,"
                    "\"%s\":%.4f}",
                    i == 0 ? "" : ",", run.mode.c_str(), run.threads,
                    run.seconds, speedup_key,
                    runs.front().seconds / run.seconds);
      out += buf;
    }
    return out + "]";
  };
  std::string json = "{\"bench\":\"analytics\",\"iters\":" +
                     std::to_string(iters) +
                     ",\"reps\":" + std::to_string(reps) + ",\"configs\":[";
  for (size_t c = 0; c < results.size(); ++c) {
    const ConfigResult& r = results[c];
    json += (c == 0 ? "" : ",");
    json += "{\"name\":\"" + r.name + "\",\"nodes\":" +
            std::to_string(r.nodes) + ",\"edges\":" + std::to_string(r.edges) +
            ",\"cost\":" + std::to_string(r.cost) +
            ",\"runs\":" + runs_json(r.runs, "speedup_vs_batched") +
            ",\"triangle_runs\":" +
            runs_json(r.triangle_runs, "speedup_vs_graph");
    char tail[160];
    std::snprintf(tail, sizeof(tail),
                  ",\"pagerank_max_abs_diff\":%.3e,\"bfs_agree\":%s,"
                  "\"triangles_agree\":%s}",
                  r.max_abs_diff, r.bfs_agree ? "true" : "false",
                  r.triangles_agree ? "true" : "false");
    json += tail;
  }
  json += "]}";

  std::printf("%s\n", json.c_str());
  FILE* f = std::fopen("BENCH_analytics.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::printf("wrote BENCH_analytics.json\n");
  }
  if (!all_agree) {
    std::fprintf(stderr, "FAIL: hierarchy-native results diverged\n");
    return 1;
  }
  return 0;
}
