// slugbench — the measuring program of the repository benchmark.
//
//   slugbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --tmpdir <dir> [--trace-out <file.csv>]
//
// Every workload runs the same pipeline on its fixed input graph (RMAT-11
// or a planted hierarchy), with a different share of the measured time per
// kind of operation; the seed draws every operation:
//
//   setup      generate the input graph, summarize it (Engine, T = 20, the
//              round-based engine on one thread), save it in the v2
//              format, open it in memory and paged (pread, a frame budget
//              fixed in bytes below the file size), build a 4-shard
//              ShardedGraph and wrap the summary in a DynamicGraph. Done
//              once untimed as a warm-up, then kSetupReps times; the
//              median is setup_s. Verify and the oracles are untimed.
//   build      repeated Summarize + Save of the same input.
//   serve      a seeded mix of in-memory Neighbors, NeighborsBatch,
//              paged Neighbors and ShardedGraph::NeighborsBatch.
//   analytics  PageRank + Triangles on the in-memory handle.
//   update     closed-loop edit steps on the DynamicGraph: one 256-edit
//              ApplyEdits, point reads and one 1,024-node NeighborsBatch;
//              every kEditBlockSteps steps a synchronous Compact(); every
//              kPeriodSteps steps the graph is the input again.
//
// All loops are closed with one client thread, and every operation an
// end-to-end metric times runs on that thread alone, with no other thread
// of the program busy beside it. Every answer is checked against an
// oracle built from the input graph (and, for the update phase, an
// adjacency oracle that follows the edits); every mismatch is a failed
// operation and makes the program exit 1.
//
// The last line of stdout is one JSON object with the end-to-end and
// per-layer metrics (each with its sample count), the attempted/failed
// operation counts and the exact work counts of the build. perfbench/run.py
// turns it into the benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algs/pagerank.hpp"
#include "algs/triangles.hpp"
#include "api/dynamic_graph.hpp"
#include "api/engine.hpp"
#include "api/sharded_graph.hpp"
#include "core/slugger.hpp"
#include "gen/generators.hpp"
#include "measure.hpp"
#include "storage/paged_source.hpp"
#include "storage/storage.hpp"
#include "util/random.hpp"

namespace perfbench {
namespace {

using slugger::BatchResult;
using slugger::CompressedGraph;
using slugger::NodeId;

// ------------------------------------------------------------ workloads

enum class Input { kRmat11, kHierarchy };

struct WorkloadSpec {
  const char* name;
  Input input;
  /// Shares of --seconds spent on builds, serve rounds, analytics and
  /// edit steps (their compactions included).
  double build_share;
  double serve_share;
  double analytics_share;
  double update_share;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"summarize-rmat", Input::kRmat11, 0.35, 0.15, 0.15, 0.35},
    {"serve-hier", Input::kHierarchy, 0.3, 0.3, 0.1, 0.3},
};

// One untimed warm-up set-up runs first: the process's first set-up pays
// for first allocations, page-ins and the pool's first wake-ups, which no
// later one does.
constexpr int kWarmupSetups = 1;
constexpr int kSetupReps = 3;
// Timed work runs on one thread. On 4 threads, the build_s of RMAT-13
// spread 0.23-0.34 (IQR over median) over ten runs on a shared 4-vCPU VM,
// and pooled analytics and batches waited on thread wake-ups. Rebuild
// compactions, which are not timed, use 3 threads while the client waits.
constexpr unsigned kThreads = 1;
constexpr unsigned kRebuildThreads = 3;   // + the waiting client thread = 4
constexpr uint32_t kShards = 4;
constexpr size_t kBatchNodes = 1024;
// The paged handle must not fit in its caches. Both inputs give files of
// 6-7 default 64 KiB pages, so a query either found its pages resident or
// faulted whole 64 KiB pages, and a p50 that sat between the two modes
// read 11 us in one run and 147 us in the next. Small pages, a frame
// budget of a fifth to a third of the file and a record cache smaller
// than the summary make most queries fault a few small pages.
constexpr uint32_t kPageSize = 4096;
constexpr uint64_t kPagedBudgetBytes = 32 * 1024;
constexpr uint32_t kRecordCacheCapacity = 256;
constexpr int kServePointsPerRound = 32;
constexpr int kServePagedPerRound = 8;
constexpr size_t kEditsPerStep = 256;
constexpr int kStepPointReads = 16;
// Edit steps come in blocks, and each block ends in a synchronous
// Compact(): a fold after a block on the hot set, a rebuild after one with
// uniform endpoints. With background compaction the overlay each
// ApplyEdits copies, and so its time, grew or shrank with thread
// scheduling: edits_per_s spread 0.14-0.35 (IQR over median) over ten runs.
constexpr int kEditBlockSteps = 8;
// A period is a hot and a uniform block of fresh edits, then the same two
// blocks undone in reverse order, so the graph is the input again at the
// end of every period. With fresh edits only, uniform inserts spread the
// RMAT hubs' edges over the whole graph, every ApplyEdits (which looks up
// the base neighbours of each edit's endpoint) grew cheaper as the hubs
// shrank, and edits_per_s followed the number of steps a run made: it
// spread 0.24 over ten runs.
constexpr int kPeriodSteps = 4 * kEditBlockSteps;
constexpr double kHotFraction = 0.015;    // below the 2% fold threshold
constexpr double kPageRankTolerance = 1e-9;
constexpr size_t kTailWindows = 16;
// The input graphs stay fixed and the workload seed draws only the
// operations. A seed-drawn RMAT-13 moved the median PageRank + Triangles
// time by 0.19 (IQR over median) across five seeds, while the other
// metrics of those runs spread at most 0.12. The planted hierarchy's edge
// count swings several-fold with its generator seed (117k to 1.24M edges
// over seeds 1-12), and relabelling its nodes by the seed moved
// point_p50_us by up to 45% between seeds.
constexpr uint64_t kRmatStructureSeed = 1;
constexpr uint64_t kHierarchyStructureSeed = 7;

slugger::graph::Graph MakeInput(Input input) {
  if (input == Input::kRmat11) {
    return slugger::gen::RMat(11, 16384, 0.57, 0.19, 0.19, kRmatStructureSeed);
  }
  slugger::gen::PlantedHierarchyOptions opt;
  opt.branching = 4;
  opt.depth = 4;
  opt.leaf_size = 8;
  opt.pair_link_prob = 0.3;
  opt.noise_density = 0.001;
  return slugger::gen::PlantedHierarchy(opt, kHierarchyStructureSeed);
}

slugger::EngineOptions MakeEngineOptions(unsigned threads) {
  slugger::EngineOptions options;
  options.config.iterations = 20;
  options.config.num_threads = threads;
  options.config.engine = slugger::MergeEngine::kRoundBased;
  return options;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double PeakRssMiB() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // linux: KiB
}

// -------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  const char* unit;
  size_t samples;  ///< how many measurements the value summarizes
};

class MetricList {
 public:
  void Add(std::string name, double value, const char* unit, size_t samples) {
    if (!std::isfinite(value)) value = 0.0;
    metrics_.push_back(Metric{std::move(name), value, unit, samples});
  }
  std::string Json() const {
    std::string out = "{";
    char buf[512];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\", "
                    "\"samples\": %zu}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit, m.samples);
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------------- bench

/// Exact work counts of one build; identical for every build of a seed.
struct BuildCounts {
  uint64_t cost = 0;
  uint64_t merges = 0;
  uint64_t evaluations = 0;  ///< traced runs only (0 otherwise)
  uint64_t file_bytes = 0;
  uint64_t file_hash = 0;
  bool operator==(const BuildCounts&) const = default;
};

using Adjacency = std::vector<std::vector<NodeId>>;

/// The served state one setup produces.
struct Served {
  slugger::graph::Graph g;
  CompressedGraph mem;
  CompressedGraph paged;
  std::optional<slugger::ShardedGraph> sharded;
  std::unique_ptr<slugger::DynamicGraph> dynamic;
  std::string path;
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, uint64_t seed, double seconds, bool trace,
        std::string tmpdir)
      : spec_(spec),
        seed_(seed),
        seconds_(seconds),
        tmpdir_(std::move(tmpdir)),
        tracer_(trace),
        engine_(MakeEngineOptions(kThreads)),
        rng_(slugger::Mix64(seed ^ 0x5EEDB3C4ull)) {}

  int Run(const std::string& trace_out);

 private:
  bool Setup(Served* out);
  /// Drops every sample the warm-up set-up took.
  void DropSetupSamples();
  bool Build(const slugger::graph::Graph& g, CompressedGraph* out,
             std::string* path, double* seconds);
  void BuildOracle(const slugger::graph::Graph& g);
  void Measure(Served& s);
  void BuildOnce(const slugger::graph::Graph& g);
  void ServeRound(Served& s);
  void FinishUpdates(slugger::DynamicGraph& dyn);

  // Serve-phase operations.
  void ServePoint(const CompressedGraph& mem);
  void ServeBatch(const CompressedGraph& mem);
  void ServePaged(const CompressedGraph& paged);
  void ServeSharded(const slugger::ShardedGraph& sharded);
  void ServeAnalytics(const CompressedGraph& mem);

  // Update-phase helpers.
  void EditStep(slugger::DynamicGraph& dyn);
  void ApplyAndRead(slugger::DynamicGraph& dyn);
  void Compact(slugger::DynamicGraph& dyn);
  void PickEdits(bool hot, std::vector<slugger::EdgeEdit>* edits,
                 std::vector<NodeId>* touched);
  /// The inverse of `batch`, in reverse order, into `edits`.
  void UndoEdits(const std::vector<slugger::EdgeEdit>& batch,
                 std::vector<slugger::EdgeEdit>* edits,
                 std::vector<NodeId>* touched);
  bool OracleHas(NodeId u, NodeId v) const;
  void OracleInsert(NodeId u, NodeId v);
  void OracleErase(NodeId u, NodeId v);

  std::vector<NodeId> RandomNodes(size_t count);
  /// Compares answers with `oracle` (base_adj_ for the static handles,
  /// live_adj_ for the DynamicGraph); `sorted` says the answer already is.
  bool CheckList(std::span<const NodeId> got, NodeId v, bool sorted,
                 const Adjacency& oracle);
  bool CheckBatch(std::span<const NodeId> nodes, const BatchResult& out,
                  bool sorted, const Adjacency& oracle);
  void Fail(const std::string& what);
  /// Starts one top-level operation; half of each kind are traced in a
  /// traced run, and `kind` buckets its latency for the overhead ratio.
  void BeginOp(const char* kind);
  void EndOp(double seconds);
  double TracingOverhead() const;
  std::string NextPath();

  std::string Report() const;

  const WorkloadSpec& spec_;
  const uint64_t seed_;
  const double seconds_;
  const std::string tmpdir_;
  Tracer tracer_;
  slugger::Engine engine_;
  slugger::Rng rng_;
  uint64_t path_counter_ = 0;

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;

  const char* op_kind_ = "";
  bool op_traced_ = false;
  std::map<std::string, std::pair<Samples, Samples>> op_times_;  // traced, not

  // Oracles of the input graph.
  NodeId n_ = 0;
  uint64_t input_edges_ = 0;
  Adjacency base_adj_;  ///< the input graph, sorted
  Adjacency live_adj_;  ///< the input graph with every edit applied
  uint64_t oracle_triangles_ = 0;
  std::vector<double> oracle_pagerank_;
  std::vector<NodeId> check_buf_;

  // Per-operation buffers, reused so no operation times an allocation.
  slugger::QueryScratch point_scratch_, paged_scratch_, live_scratch_;
  slugger::BatchScratch batch_scratch_;
  slugger::OverlayBatchScratch overlay_scratch_;
  BatchResult batch_out_;
  std::vector<slugger::EdgeEdit> edits_buf_;
  std::vector<NodeId> touched_;

  // Update-phase oracle extras: the edge list for uniform deletes.
  std::vector<std::pair<NodeId, NodeId>> edges_;
  std::unordered_map<uint64_t, uint32_t> edge_index_;
  std::vector<NodeId> hot_;
  std::vector<uint8_t> is_hot_;
  std::vector<std::vector<slugger::EdgeEdit>> undo_log_;  ///< this period's

  // Build.
  std::optional<BuildCounts> first_counts_;
  Samples summarize_s_, save_s_, candidate_s_, merge_s_, prune_s_;
  Samples build_s_;  ///< builds of the measured section only
  // Setup.
  Samples setup_s_, gen_s_, open_s_, dist_build_s_;
  // Serve.
  Samples point_s_, batch_s_, paged_s_, sharded_s_, analytics_s_, pagerank_s_,
      triangles_s_;
  double stitch_seconds_ = 0.0;
  uint64_t subqueries_ = 0;
  double cost_skew_ = 0.0;
  double paged_fetches_ = 0, paged_faults_ = 0, paged_evictions_ = 0;
  double record_hits_ = 0, record_misses_ = 0, dispatch_s_ = 0;
  // Update.
  Samples apply_s_, live_point_s_, live_batch_s_, compact_s_;
  uint64_t edits_sent_ = 0;
  uint64_t steps_ = 0;
  uint64_t corrections_max_ = 0;
  slugger::DynamicGraphStats dyn_stats_;
  double publishes_ = 0.0;
  // Whole-run registry deltas of the batched query walk.
  double chain_reuse_ = 0, chain_reset_ = 0, dup_hits_ = 0;
};

void Bench::Fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < 10) failures_.push_back(what);
}

void Bench::BeginOp(const char* kind) {
  ++attempted_;
  op_kind_ = kind;
  // Alternate in pairs within each kind (traced, traced, untraced,
  // untraced, ...), so even a kind that runs a few times gets both halves,
  // and a kind whose operations alternate between two shapes (fold and
  // rebuild compactions; live reads of edited and of random nodes) has
  // both shapes in each half.
  const auto& bucket = op_times_[kind];
  op_traced_ = (bucket.first.size() + bucket.second.size()) / 2 % 2 == 0;
  tracer_.BeginOp(op_traced_);
}

void Bench::EndOp(double seconds) {
  auto& bucket = op_times_[op_kind_];
  (op_traced_ ? bucket.first : bucket.second).Add(seconds);
}

double Bench::TracingOverhead() const {
  // Per operation kind, median traced ÷ median untraced latency, weighted
  // by the kind's total time.
  double traced = 0.0, untraced = 0.0;
  for (const auto& [kind, bucket] : op_times_) {
    if (bucket.first.size() < 2 || bucket.second.size() < 2) continue;
    const double n =
        static_cast<double>(bucket.first.size() + bucket.second.size());
    traced += bucket.first.Median() * n;
    untraced += bucket.second.Median() * n;
  }
  return untraced > 0.0 ? traced / untraced : 1.0;
}

std::string Bench::NextPath() {
  return tmpdir_ + "/summary-" + std::to_string(path_counter_++) + ".slg";
}

std::vector<NodeId> Bench::RandomNodes(size_t count) {
  std::vector<NodeId> nodes(count);
  for (NodeId& v : nodes) v = static_cast<NodeId>(rng_.Below(n_));
  return nodes;
}

bool Bench::CheckList(std::span<const NodeId> got, NodeId v, bool sorted,
                      const Adjacency& oracle) {
  check_buf_.assign(got.begin(), got.end());
  if (!sorted) std::sort(check_buf_.begin(), check_buf_.end());
  if (check_buf_ == oracle[v]) return true;
  Fail(std::string(op_kind_) + ": wrong neighbors of node " +
       std::to_string(v) + " (" + std::to_string(got.size()) + " vs " +
       std::to_string(oracle[v].size()) + ")");
  return false;
}

bool Bench::CheckBatch(std::span<const NodeId> nodes, const BatchResult& out,
                       bool sorted, const Adjacency& oracle) {
  if (out.size() != nodes.size()) {
    Fail(std::string(op_kind_) + ": batch answered " +
         std::to_string(out.size()) + " of " + std::to_string(nodes.size()));
    return false;
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!CheckList(out[i], nodes[i], sorted, oracle)) return false;
  }
  return true;
}

// ---------------------------------------------------------------- setup

bool Bench::Build(const slugger::graph::Graph& g, CompressedGraph* out,
                  std::string* path, double* seconds) {
  BeginOp("build");
  auto root = tracer_.Open("bench.build");
  BuildCounts counts;
  const RegistryReading before = RegistryReading::Now();
  const auto start = Clock::now();
  if (tracer_.enabled()) {
    // The call Engine::Summarize makes internally, so the traced run can
    // read the work counts SluggerResult carries.
    slugger::core::SluggerResult r;
    {
      auto span = tracer_.Open("core.summarize");
      slugger::core::SummarizeHooks hooks;
      hooks.pool = engine_.pool();
      r = slugger::core::Summarize(g, engine_.options().config, hooks);
    }
    counts.merges = r.merges;
    counts.evaluations = r.evaluations;
    candidate_s_.Add(r.candidate_seconds);
    merge_s_.Add(r.merge_seconds);
    prune_s_.Add(r.prune_seconds);
    *out = CompressedGraph(std::move(r.summary), r.stats);
  } else {
    auto result = engine_.Summarize(g);
    if (!result.ok()) {
      Fail("build: " + result.status().ToString());
      return false;
    }
    *out = std::move(result).value();
  }
  const double summarize = SecondsSince(start);
  if (!tracer_.enabled()) {
    counts.merges = static_cast<uint64_t>(RegistryReading::Now().Since(
        before, "slugger_engine_merges_total"));
  }
  *path = NextPath();
  const auto save_start = Clock::now();
  slugger::Status saved = slugger::Status::OK();
  {
    auto span = tracer_.Open("storage.save");
    slugger::storage::SaveOptions options;
    options.page_size = kPageSize;
    saved = slugger::storage::Save(*out, *path, options);
  }
  const double save = SecondsSince(save_start);
  summarize_s_.Add(summarize);
  save_s_.Add(save);
  *seconds = summarize + save;
  EndOp(summarize + save);
  if (!saved.ok()) {
    Fail("save: " + saved.ToString());
    return false;
  }

  // Untimed: losslessness and byte-identity of the output.
  slugger::Status verified = out->Verify(g, engine_.pool());
  if (!verified.ok()) {
    Fail("verify: " + verified.ToString());
    return false;
  }
  std::ifstream in(*path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  counts.cost = out->stats().cost;
  counts.file_bytes = bytes.size();
  counts.file_hash = Fnv1a(bytes);
  if (!first_counts_) {
    first_counts_ = counts;
  } else if (!(counts == *first_counts_)) {
    Fail("build: output differs between builds of one input (cost " +
         std::to_string(counts.cost) + " vs " +
         std::to_string(first_counts_->cost) + ")");
    return false;
  }
  return true;
}

bool Bench::Setup(Served* out) {
  double timed = 0.0;
  {
    BeginOp("generate");
    auto root = tracer_.Open("bench.setup");
    auto span = tracer_.Open("gen.generate");
    const auto start = Clock::now();
    out->g = MakeInput(spec_.input);
    const double dt = SecondsSince(start);
    gen_s_.Add(dt);
    timed += dt;
    EndOp(dt);
  }
  CompressedGraph built;
  double build_seconds = 0.0;
  if (!Build(out->g, &built, &out->path, &build_seconds)) return false;
  timed += build_seconds;
  BeginOp("open");
  {
    auto root = tracer_.Open("bench.setup");
    const auto start = Clock::now();
    auto span = tracer_.Open("storage.open");
    slugger::storage::OpenOptions mem_options;
    mem_options.mode = slugger::storage::OpenOptions::Mode::kInMemory;
    auto mem = slugger::storage::Open(out->path, mem_options);
    slugger::storage::OpenOptions paged_options;
    paged_options.mode = slugger::storage::OpenOptions::Mode::kPaged;
    paged_options.buffer.io = slugger::storage::Io::kPread;
    paged_options.buffer.max_resident_pages = static_cast<uint32_t>(std::max<
        uint64_t>(1, kPagedBudgetBytes / kPageSize));
    paged_options.record_cache_capacity = kRecordCacheCapacity;
    auto paged = slugger::storage::Open(out->path, paged_options);
    const double dt = SecondsSince(start);
    open_s_.Add(dt);
    timed += dt;
    EndOp(dt);
    if (!mem.ok() || !paged.ok()) {
      Fail("open: " + (mem.ok() ? paged.status() : mem.status()).ToString());
      return false;
    }
    out->mem = std::move(mem).value();
    out->paged = std::move(paged).value();
    if (!out->paged.paged()) {
      Fail("open: the paged handle is not served from pages");
      return false;
    }
  }
  BeginOp("shard");
  {
    auto root = tracer_.Open("bench.setup");
    slugger::ShardedOptions options;
    options.partition.num_shards = kShards;
    options.engine = MakeEngineOptions(1);
    options.num_threads = kThreads;
    // Shards are queried one after another on the client thread. Pooled
    // fan-out of a 1,024-node batch measured 0.69-1.18 ms from run to run
    // on a 4-vCPU VM (thread wake-up latency), a spread wider than any
    // bound this benchmark could hold.
    options.parallel_dispatch = false;
    const auto start = Clock::now();
    auto span = tracer_.Open("dist.build");
    auto sharded = slugger::ShardedGraph::Build(out->g, options);
    const double dt = SecondsSince(start);
    dist_build_s_.Add(dt);
    timed += dt;
    EndOp(dt);
    if (!sharded.ok()) {
      Fail("shard build: " + sharded.status().ToString());
      return false;
    }
    out->sharded.emplace(std::move(sharded).value());
  }
  BeginOp("wrap");
  {
    auto root = tracer_.Open("bench.setup");
    slugger::DynamicGraphOptions options;
    options.rebuild = MakeEngineOptions(kRebuildThreads);
    options.auto_compact = false;  // EditStep compacts at block ends
    const auto start = Clock::now();
    auto span = tracer_.Open("stream.wrap");
    out->dynamic =
        std::make_unique<slugger::DynamicGraph>(std::move(built), options);
    const double dt = SecondsSince(start);
    timed += dt;
    EndOp(dt);
  }
  setup_s_.Add(timed);
  return true;
}

void Bench::DropSetupSamples() {
  setup_s_ = gen_s_ = open_s_ = dist_build_s_ = Samples();
  summarize_s_ = save_s_ = candidate_s_ = merge_s_ = prune_s_ = Samples();
}

void Bench::BuildOracle(const slugger::graph::Graph& g) {
  n_ = g.num_nodes();
  input_edges_ = g.num_edges();
  base_adj_.assign(n_, {});
  edges_.clear();
  edge_index_.clear();
  for (NodeId u = 0; u < n_; ++u) {
    auto nb = g.Neighbors(u);
    base_adj_[u].assign(nb.begin(), nb.end());
    std::sort(base_adj_[u].begin(), base_adj_[u].end());
  }
  live_adj_ = base_adj_;
  for (const auto& [u, v] : g.Edges()) {
    edge_index_[(uint64_t{u} << 32) | v] = static_cast<uint32_t>(edges_.size());
    edges_.emplace_back(u, v);
  }
  oracle_triangles_ = slugger::algs::TrianglesOnGraph(g);
  oracle_pagerank_ = slugger::algs::PageRankOnGraph(g, 0.85, 20);

  // The hot set of the update phase: the highest-degree nodes, few enough
  // that edits confined to it stay under the fold threshold.
  std::vector<NodeId> order(n_);
  for (NodeId v = 0; v < n_; ++v) order[v] = v;
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return base_adj_[a].size() > base_adj_[b].size();
  });
  const size_t hot = std::max<size_t>(
      8, static_cast<size_t>(kHotFraction * static_cast<double>(n_)));
  hot_.assign(order.begin(), order.begin() + std::min<size_t>(hot, n_));
  is_hot_.assign(n_, 0);
  for (NodeId v : hot_) is_hot_[v] = 1;
}

// ---------------------------------------------------------------- build

void Bench::BuildOnce(const slugger::graph::Graph& g) {
  CompressedGraph out;
  std::string path;
  double seconds = 0.0;
  if (Build(g, &out, &path, &seconds)) build_s_.Add(seconds);
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

// ---------------------------------------------------------------- serve

void Bench::ServePoint(const CompressedGraph& mem) {
  const NodeId v = static_cast<NodeId>(rng_.Below(n_));
  BeginOp("point");
  auto root = tracer_.Open("bench.point");
  const auto start = Clock::now();
  const std::vector<NodeId>* got;
  {
    auto span = tracer_.Open("summary.point");
    got = &mem.Neighbors(v, &point_scratch_);
  }
  const double dt = SecondsSince(start);
  point_s_.Add(dt);
  EndOp(dt);
  CheckList(*got, v, /*sorted=*/false, base_adj_);
}

void Bench::ServeBatch(const CompressedGraph& mem) {
  const std::vector<NodeId> nodes = RandomNodes(kBatchNodes);
  BeginOp("batch");
  auto root = tracer_.Open("bench.batch");
  const auto start = Clock::now();
  slugger::Status st = slugger::Status::OK();
  {
    auto span = tracer_.Open("api.batch");
    st = mem.NeighborsBatch(nodes, &batch_out_, &batch_scratch_);
  }
  const double dt = SecondsSince(start);
  batch_s_.Add(dt);
  EndOp(dt);
  if (!st.ok()) return Fail("batch: " + st.ToString());
  CheckBatch(nodes, batch_out_, /*sorted=*/false, base_adj_);
}

void Bench::ServePaged(const CompressedGraph& paged) {
  const NodeId v = static_cast<NodeId>(rng_.Below(n_));
  const uint64_t errors = paged.query_errors();
  BeginOp("paged");
  auto root = tracer_.Open("bench.paged");
  const auto start = Clock::now();
  const std::vector<NodeId>* got;
  {
    auto span = tracer_.Open("storage.paged_point");
    got = &paged.Neighbors(v, &paged_scratch_);
  }
  const double dt = SecondsSince(start);
  paged_s_.Add(dt);
  EndOp(dt);
  if (paged.query_errors() != errors) {
    return Fail("paged: " + paged.last_status().ToString());
  }
  CheckList(*got, v, /*sorted=*/true, base_adj_);
}

void Bench::ServeSharded(const slugger::ShardedGraph& sharded) {
  const std::vector<NodeId> nodes = RandomNodes(kBatchNodes);
  slugger::dist::GatherStats stats;
  BeginOp("sharded");
  auto root = tracer_.Open("bench.sharded");
  const auto start = Clock::now();
  slugger::Status st = slugger::Status::OK();
  {
    auto span = tracer_.Open("dist.sharded_batch");
    st = sharded.NeighborsBatch(nodes, &batch_out_, &stats);
  }
  const double dt = SecondsSince(start);
  sharded_s_.Add(dt);
  EndOp(dt);
  stitch_seconds_ += stats.stitch_seconds;
  subqueries_ += stats.subqueries;
  if (!st.ok()) return Fail("sharded: " + st.ToString());
  if (!stats.degraded.empty()) return Fail("sharded: degraded answer");
  CheckBatch(nodes, batch_out_, /*sorted=*/false, base_adj_);
}

void Bench::ServeAnalytics(const CompressedGraph& mem) {
  BeginOp("analytics");
  auto root = tracer_.Open("bench.analytics");
  auto start = Clock::now();
  std::vector<double> rank;
  {
    auto span = tracer_.Open("algs.pagerank");
    rank = mem.PageRank(0.85, 20, engine_.pool());
  }
  const double pr = SecondsSince(start);
  start = Clock::now();
  uint64_t triangles = 0;
  {
    auto span = tracer_.Open("algs.triangles");
    triangles = mem.Triangles(engine_.pool());
  }
  const double tri = SecondsSince(start);
  pagerank_s_.Add(pr);
  triangles_s_.Add(tri);
  analytics_s_.Add(pr + tri);
  EndOp(pr + tri);
  if (triangles != oracle_triangles_) {
    return Fail("analytics: " + std::to_string(triangles) + " triangles, " +
                std::to_string(oracle_triangles_) + " expected");
  }
  if (rank.size() != oracle_pagerank_.size()) {
    return Fail("analytics: PageRank vector of the wrong size");
  }
  for (size_t v = 0; v < rank.size(); ++v) {
    if (std::fabs(rank[v] - oracle_pagerank_[v]) > kPageRankTolerance) {
      return Fail("analytics: PageRank of node " + std::to_string(v) +
                  " off by more than the tolerance");
    }
  }
}

void Bench::ServeRound(Served& s) {
  enum class Op { kPoint, kBatch, kPaged, kSharded };
  std::vector<Op> round(kServePointsPerRound, Op::kPoint);
  round.insert(round.end(), kServePagedPerRound, Op::kPaged);
  round.push_back(Op::kBatch);
  round.push_back(Op::kSharded);
  rng_.Shuffle(round);
  for (Op op : round) {
    switch (op) {
      case Op::kPoint: ServePoint(s.mem); break;
      case Op::kBatch: ServeBatch(s.mem); break;
      case Op::kPaged: ServePaged(s.paged); break;
      case Op::kSharded: ServeSharded(*s.sharded); break;
    }
  }
}

// --------------------------------------------------------------- update

bool Bench::OracleHas(NodeId u, NodeId v) const {
  return std::binary_search(live_adj_[u].begin(), live_adj_[u].end(), v);
}

void Bench::OracleInsert(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  live_adj_[u].insert(std::lower_bound(live_adj_[u].begin(), live_adj_[u].end(), v), v);
  live_adj_[v].insert(std::lower_bound(live_adj_[v].begin(), live_adj_[v].end(), u), u);
  edge_index_[(uint64_t{u} << 32) | v] = static_cast<uint32_t>(edges_.size());
  edges_.emplace_back(u, v);
}

void Bench::OracleErase(NodeId u, NodeId v) {
  if (u > v) std::swap(u, v);
  live_adj_[u].erase(std::lower_bound(live_adj_[u].begin(), live_adj_[u].end(), v));
  live_adj_[v].erase(std::lower_bound(live_adj_[v].begin(), live_adj_[v].end(), u));
  auto it = edge_index_.find((uint64_t{u} << 32) | v);
  const uint32_t index = it->second;
  edge_index_.erase(it);
  if (index + 1 != edges_.size()) {
    edges_[index] = edges_.back();
    const auto& [a, b] = edges_[index];
    edge_index_[(uint64_t{a} << 32) | b] = index;
  }
  edges_.pop_back();
}

void Bench::PickEdits(bool hot, std::vector<slugger::EdgeEdit>* edits,
                      std::vector<NodeId>* touched) {
  edits->clear();
  touched->clear();
  const size_t h = hot_.size();
  for (size_t i = 0; i < kEditsPerStep; ++i) {
    const bool del = (i % 2) == 0;
    NodeId u = 0, v = 0;
    bool found = false;
    if (hot) {
      // Both endpoints in the hot set, so the step dirties few nodes.
      for (int tries = 0; tries < 256 && !found; ++tries) {
        u = hot_[rng_.Below(h)];
        if (del) {
          if (live_adj_[u].empty()) continue;
          v = live_adj_[u][rng_.Below(live_adj_[u].size())];
          found = is_hot_[v] != 0;
        } else {
          v = hot_[rng_.Below(h)];
          found = u != v && !OracleHas(u, v);
        }
      }
    }
    while (!found) {
      if (del) {
        std::tie(u, v) = edges_[rng_.Below(edges_.size())];
        found = true;
      } else {
        u = static_cast<NodeId>(rng_.Below(n_));
        v = static_cast<NodeId>(rng_.Below(n_));
        found = u != v && !OracleHas(u, v);
      }
    }
    if (del) {
      OracleErase(u, v);
    } else {
      OracleInsert(u, v);
    }
    edits->push_back({u, v, del ? slugger::EditKind::kDelete
                                : slugger::EditKind::kInsert});
    touched->push_back(u);
  }
}

void Bench::UndoEdits(const std::vector<slugger::EdgeEdit>& batch,
                      std::vector<slugger::EdgeEdit>* edits,
                      std::vector<NodeId>* touched) {
  edits->clear();
  touched->clear();
  for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
    const bool del = it->kind == slugger::EditKind::kInsert;
    if (del) {
      OracleErase(it->u, it->v);
    } else {
      OracleInsert(it->u, it->v);
    }
    edits->push_back({it->u, it->v, del ? slugger::EditKind::kDelete
                                        : slugger::EditKind::kInsert});
    touched->push_back(it->u);
  }
}

void Bench::EditStep(slugger::DynamicGraph& dyn) {
  // A period: a hot block (folds), a uniform block (rebuilds), then both
  // undone step by step in reverse order.
  const uint64_t step = steps_++ % kPeriodSteps;
  if (step < kPeriodSteps / 2) {
    PickEdits(/*hot=*/step < kEditBlockSteps, &edits_buf_, &touched_);
    undo_log_.push_back(edits_buf_);
  } else {
    UndoEdits(undo_log_.back(), &edits_buf_, &touched_);
    undo_log_.pop_back();
  }
  ApplyAndRead(dyn);
  // The block's last step ends in a compaction.
  if (failed_ == 0 && steps_ % kEditBlockSteps == 0) Compact(dyn);
}

void Bench::Compact(slugger::DynamicGraph& dyn) {
  BeginOp("compact");
  auto root = tracer_.Open("bench.compact");
  const auto start = Clock::now();
  slugger::Status st = slugger::Status::OK();
  {
    auto span = tracer_.Open("stream.compact");
    st = dyn.Compact();
  }
  const double dt = SecondsSince(start);
  compact_s_.Add(dt);
  EndOp(dt);
  if (!st.ok()) Fail("compact: " + st.ToString());
}

void Bench::ApplyAndRead(slugger::DynamicGraph& dyn) {
  BeginOp("apply");
  {
    auto root = tracer_.Open("bench.apply");
    const auto start = Clock::now();
    slugger::Status st = slugger::Status::OK();
    {
      auto span = tracer_.Open("stream.apply");
      st = dyn.ApplyEdits(edits_buf_);
    }
    const double dt = SecondsSince(start);
    apply_s_.Add(dt);
    EndOp(dt);
    edits_sent_ += edits_buf_.size();
    if (!st.ok()) return Fail("apply: " + st.ToString());
  }
  for (int i = 0; i < kStepPointReads; ++i) {
    // Half the reads land on nodes this step just edited.
    const NodeId v = (i % 2) == 0 ? touched_[rng_.Below(touched_.size())]
                                  : static_cast<NodeId>(rng_.Below(n_));
    BeginOp("live_point");
    auto root = tracer_.Open("bench.live_point");
    const auto start = Clock::now();
    const std::vector<NodeId>* got;
    {
      auto span = tracer_.Open("stream.point");
      got = &dyn.Neighbors(v, &live_scratch_);
    }
    const double dt = SecondsSince(start);
    live_point_s_.Add(dt);
    EndOp(dt);
    CheckList(*got, v, /*sorted=*/false, live_adj_);
  }
  const std::vector<NodeId> nodes = RandomNodes(kBatchNodes);
  BeginOp("live_batch");
  auto root = tracer_.Open("bench.live_batch");
  const auto start = Clock::now();
  slugger::Status st = slugger::Status::OK();
  {
    auto span = tracer_.Open("stream.batch");
    st = dyn.NeighborsBatch(nodes, &batch_out_, &overlay_scratch_);
  }
  const double dt = SecondsSince(start);
  live_batch_s_.Add(dt);
  EndOp(dt);
  corrections_max_ = std::max(corrections_max_, dyn.stats().corrections);
  if (!st.ok()) return Fail("live batch: " + st.ToString());
  CheckBatch(nodes, batch_out_, /*sorted=*/false, live_adj_);
}

void Bench::FinishUpdates(slugger::DynamicGraph& dyn) {
  // Untimed: the mutated graph as a whole, overlay included.
  dyn_stats_ = dyn.stats();
  ++attempted_;  // the final whole-graph comparison
  const slugger::Status last = dyn.last_compaction_error();
  if (!last.ok()) Fail("compaction: " + last.ToString());
  const slugger::graph::Graph decoded = dyn.Decode();
  std::vector<std::pair<NodeId, NodeId>> expected = edges_;
  std::sort(expected.begin(), expected.end());
  if (decoded.num_nodes() != n_ || decoded.Edges() != expected) {
    Fail("update: the decoded mutated graph differs from the oracle");
  }
}

// -------------------------------------------------------------- measure

void Bench::Measure(Served& s) {
  // Every kind of operation runs until it has used its share of the
  // measured time. The next operation is of the kind furthest below its
  // share so far, so the samples of every kind spread over the whole
  // section and each metric averages the host's speed over all of it.
  enum Kind { kBuild, kServe, kAnalytics, kUpdate, kKinds };
  const double share[kKinds] = {spec_.build_share, spec_.serve_share,
                                spec_.analytics_share, spec_.update_share};
  double used[kKinds] = {};
  double total = 0.0;
  while (failed_ == 0 && total < seconds_) {
    int next = -1;
    for (int k = 0; k < kKinds; ++k) {
      if (share[k] > 0.0 &&
          (next < 0 || used[k] * share[next] < used[next] * share[k])) {
        next = k;
      }
    }
    const auto start = Clock::now();
    switch (next) {
      case kBuild: BuildOnce(s.g); break;
      case kServe: ServeRound(s); break;
      case kAnalytics: ServeAnalytics(s.mem); break;
      case kUpdate:
        // A whole period, so every run has the same mix of steps and
        // compactions and ends on the input graph.
        for (int i = 0; i < kPeriodSteps && failed_ == 0; ++i) {
          EditStep(*s.dynamic);
        }
        break;
    }
    const double dt = SecondsSince(start);
    used[next] += dt;
    total += dt;
  }
  FinishUpdates(*s.dynamic);
}

// ------------------------------------------------------------------ run

int Bench::Run(const std::string& trace_out) {
  const auto run_start = Clock::now();
  Served served;
  std::optional<slugger::graph::Graph> first_input;
  for (int rep = 0; rep < kWarmupSetups + kSetupReps; ++rep) {
    // Tear the previous state down first: one served state at a time.
    served = Served();
    if (!Setup(&served)) break;
    if (rep + 1 == kWarmupSetups) DropSetupSamples();
    if (!first_input) {
      first_input = served.g;
    } else if (!(served.g == *first_input)) {
      Fail("setup: the generator is not deterministic");
    }
  }
  if (failed_ == 0) {
    BuildOracle(served.g);
    auto* paged = served.paged.paged_source().get();
    const slugger::storage::BufferStats buf_before = paged->buffer_stats();
    const RegistryReading before = RegistryReading::Now();
    Measure(served);
    const slugger::storage::BufferStats buf_after = paged->buffer_stats();
    const RegistryReading after = RegistryReading::Now();
    paged_fetches_ = static_cast<double>(buf_after.fetches - buf_before.fetches);
    paged_faults_ = static_cast<double>(buf_after.faults - buf_before.faults);
    paged_evictions_ =
        static_cast<double>(buf_after.evictions - buf_before.evictions);
    record_hits_ = after.Since(before, "slugger_paged_record_cache_hits_total");
    record_misses_ =
        after.Since(before, "slugger_paged_record_cache_misses_total");
    dispatch_s_ = after.Since(before, "slugger_coord_dispatch_seconds.sum");
    cost_skew_ = served.sharded->CostSkew();
    chain_reuse_ = after.Since(before, "slugger_query_chain_reuse_total");
    chain_reset_ = after.Since(before, "slugger_query_chain_reset_total");
    dup_hits_ = after.Since(before, "slugger_query_batch_dup_hits_total");
    publishes_ = after.Since(before, "slugger_snapshot_publish_total");
  }
  if (tracer_.enabled() && !trace_out.empty() && !tracer_.WriteCsv(trace_out)) {
    std::fprintf(stderr, "slugbench: cannot write %s\n", trace_out.c_str());
  }
  const std::string report = Report();
  std::fprintf(stderr, "slugbench: %s seed %" PRIu64 " ran %.1f s\n",
               spec_.name, seed_, SecondsSince(run_start));
  for (const std::string& f : failures_) {
    std::fprintf(stderr, "slugbench: FAILED %s\n", f.c_str());
  }
  std::printf("%s\n", report.c_str());
  return failed_ == 0 ? 0 : 1;
}

// The p95 of a latency: the median over kTailWindows consecutive windows
// (of at least 20 samples) of each window's p95, so a short slow stretch
// of the host moves only the windows it falls in.
double TailOf(const Samples& s) {
  const size_t window = std::max<size_t>(s.size() / kTailWindows,
                                         std::min<size_t>(s.size(), 20));
  return s.WindowedQuantile(0.95, window);
}

std::string Bench::Report() const {
  const double edges = static_cast<double>(std::max<uint64_t>(1, input_edges_));
  const BuildCounts counts = first_counts_.value_or(BuildCounts{});

  MetricList e2e;
  e2e.Add("setup_s", setup_s_.Median(), "s", setup_s_.size());
  e2e.Add("ok_ratio",
          attempted_ ? 1.0 - static_cast<double>(failed_) /
                                 static_cast<double>(attempted_)
                     : 0.0,
          "ratio", attempted_);
  e2e.Add("peak_rss_mb", PeakRssMiB(), "MiB", 1);
  e2e.Add("build_s", build_s_.Median(), "s", build_s_.size());
  e2e.Add("relative_size", static_cast<double>(counts.cost) / edges, "ratio",
          1);
  e2e.Add("file_bytes_per_edge", static_cast<double>(counts.file_bytes) / edges,
          "B", 1);
  e2e.Add("point_p50_us", point_s_.Quantile(0.5) * 1e6, "us", point_s_.size());
  e2e.Add("point_p95_us", TailOf(point_s_) * 1e6, "us", point_s_.size());
  e2e.Add("batch_p50_ms", batch_s_.Quantile(0.5) * 1e3, "ms", batch_s_.size());
  e2e.Add("batch_p95_ms", TailOf(batch_s_) * 1e3, "ms", batch_s_.size());
  e2e.Add("paged_point_p50_us", paged_s_.Quantile(0.5) * 1e6, "us",
          paged_s_.size());
  e2e.Add("paged_point_p95_us", TailOf(paged_s_) * 1e6, "us", paged_s_.size());
  e2e.Add("sharded_batch_p50_ms", sharded_s_.Quantile(0.5) * 1e3, "ms",
          sharded_s_.size());
  e2e.Add("analytics_s", analytics_s_.Median(), "s", analytics_s_.size());
  // Per half period, so each value covers the same mix of hot and uniform
  // steps: on serve-hier hot steps took about half as long as uniform
  // ones, and the median step fell in the gap between the two.
  const size_t half = kPeriodSteps / 2;
  e2e.Add("edits_per_s",
          static_cast<double>(kEditsPerStep) / apply_s_.WindowedMean(half),
          "1/s", apply_s_.size());
  e2e.Add("apply_p95_ms", apply_s_.WindowedQuantile(0.95, half) * 1e3, "ms",
          apply_s_.size());

  MetricList layer;
  const std::map<std::string, double> self = tracer_.SelfSecondsByLayer();
  auto self_of = [&](const char* l) {
    auto it = self.find(l);
    return it == self.end() ? 0.0 : it->second;
  };
  const auto traced_spans = tracer_.num_spans();
  const size_t builds = summarize_s_.size();
  layer.Add("gen.generate_s", gen_s_.Median(), "s", gen_s_.size());
  layer.Add("gen.self_s", self_of("gen"), "s", traced_spans);
  layer.Add("core.summarize_s", summarize_s_.Median(), "s", builds);
  layer.Add("core.candidate_s", candidate_s_.Median(), "s",
            candidate_s_.size());
  layer.Add("core.merge_s", merge_s_.Median(), "s", merge_s_.size());
  layer.Add("core.prune_s", prune_s_.Median(), "s", prune_s_.size());
  layer.Add("core.evaluations", static_cast<double>(counts.evaluations),
            "count", builds);
  layer.Add("core.evaluations_per_merge",
            counts.merges ? static_cast<double>(counts.evaluations) /
                                static_cast<double>(counts.merges)
                          : 0.0,
            "ratio", builds);
  layer.Add("core.merges", static_cast<double>(counts.merges), "count",
            builds);
  layer.Add("core.cost", static_cast<double>(counts.cost), "count", builds);
  layer.Add("core.builds", static_cast<double>(builds), "count", builds);
  layer.Add("core.self_s", self_of("core"), "s", traced_spans);
  layer.Add("storage.save_s", save_s_.Median(), "s", save_s_.size());
  layer.Add("storage.file_bytes", static_cast<double>(counts.file_bytes), "B",
            builds);
  layer.Add("storage.open_s", open_s_.Median(), "s", open_s_.size());
  const double paged_q = static_cast<double>(paged_s_.size());
  layer.Add("storage.paged_point_s", paged_s_.Sum(), "s", paged_s_.size());
  layer.Add("storage.paged_queries", paged_q, "count", paged_s_.size());
  layer.Add("storage.fetches_per_query",
            paged_q ? paged_fetches_ / paged_q : 0.0, "ratio",
            paged_s_.size());
  layer.Add("storage.faults_per_query", paged_q ? paged_faults_ / paged_q : 0.0,
            "ratio", paged_s_.size());
  layer.Add("storage.record_cache_hit_ratio",
            record_hits_ + record_misses_ > 0
                ? record_hits_ / (record_hits_ + record_misses_)
                : 0.0,
            "ratio", static_cast<size_t>(record_hits_ + record_misses_));
  layer.Add("storage.evictions", paged_evictions_, "count", paged_s_.size());
  layer.Add("storage.self_s", self_of("storage"), "s", traced_spans);
  layer.Add("summary.point_s", point_s_.Sum(), "s", point_s_.size());
  layer.Add("summary.point_queries", static_cast<double>(point_s_.size()),
            "count", point_s_.size());
  layer.Add("summary.chain_reuse_ratio",
            chain_reuse_ + chain_reset_ > 0
                ? chain_reuse_ / (chain_reuse_ + chain_reset_)
                : 0.0,
            "ratio", static_cast<size_t>(chain_reuse_ + chain_reset_));
  layer.Add("summary.batch_dup_hits", dup_hits_, "count",
            batch_s_.size() + live_batch_s_.size());
  layer.Add("summary.self_s", self_of("summary"), "s", traced_spans);
  layer.Add("api.batch_s", batch_s_.Sum(), "s", batch_s_.size());
  layer.Add("api.batches", static_cast<double>(batch_s_.size()), "count",
            batch_s_.size());
  layer.Add("api.snapshot_publishes", publishes_, "count", steps_);
  layer.Add("api.self_s", self_of("api"), "s", traced_spans);
  const double sharded_n = static_cast<double>(sharded_s_.size());
  layer.Add("dist.build_s", dist_build_s_.Median(), "s", dist_build_s_.size());
  layer.Add("dist.sharded_batch_s", sharded_s_.Sum(), "s", sharded_s_.size());
  layer.Add("dist.batches", sharded_n, "count", sharded_s_.size());
  layer.Add("dist.stitch_share",
            sharded_s_.Sum() > 0 ? stitch_seconds_ / sharded_s_.Sum() : 0.0,
            "ratio", sharded_s_.size());
  layer.Add("dist.dispatch_s", dispatch_s_, "s", sharded_s_.size());
  layer.Add("dist.subqueries_per_batch",
            sharded_n ? static_cast<double>(subqueries_) / sharded_n : 0.0,
            "ratio", sharded_s_.size());
  layer.Add("dist.cost_skew", cost_skew_, "ratio", 1);
  layer.Add("dist.self_s", self_of("dist"), "s", traced_spans);
  layer.Add("algs.pagerank_s", pagerank_s_.Median(), "s", pagerank_s_.size());
  layer.Add("algs.triangles_s", triangles_s_.Median(), "s",
            triangles_s_.size());
  layer.Add("algs.self_s", self_of("algs"), "s", traced_spans);
  const double edits_seen = static_cast<double>(dyn_stats_.edits_applied +
                                                dyn_stats_.edits_redundant);
  layer.Add("stream.apply_s", apply_s_.Sum(), "s", apply_s_.size());
  layer.Add("stream.steps", static_cast<double>(steps_), "count", steps_);
  layer.Add("stream.edits", static_cast<double>(edits_sent_), "count", steps_);
  layer.Add("stream.redundant_ratio",
            edits_seen > 0 ? static_cast<double>(dyn_stats_.edits_redundant) /
                                 edits_seen
                           : 0.0,
            "ratio", static_cast<size_t>(edits_seen));
  layer.Add("stream.compactions_fold",
            static_cast<double>(dyn_stats_.compactions_fold), "count", steps_);
  layer.Add("stream.compactions_rebuild",
            static_cast<double>(dyn_stats_.compactions_rebuild), "count",
            steps_);
  layer.Add("stream.compaction_s", compact_s_.Sum(), "s", compact_s_.size());
  layer.Add("stream.overlay_corrections_max",
            static_cast<double>(corrections_max_), "count", steps_);
  layer.Add("stream.point_s", live_point_s_.Sum(), "s", live_point_s_.size());
  layer.Add("stream.batch_s", live_batch_s_.Sum(), "s", live_batch_s_.size());
  layer.Add("stream.self_s", self_of("stream"), "s", traced_spans);
  layer.Add("bench.self_s", self_of("bench"), "s", traced_spans);
  layer.Add("trace.overhead_ratio", TracingOverhead(), "ratio", attempted_);
  layer.Add("trace.spans", static_cast<double>(traced_spans), "count",
            traced_spans);

  char exact[256];
  std::snprintf(exact, sizeof(exact),
                "{\"cost\": %" PRIu64 ", \"merges\": %" PRIu64
                ", \"evaluations\": %" PRIu64 ", \"file_bytes\": %" PRIu64
                ", \"file_hash\": \"%016" PRIx64 "\"}",
                counts.cost, counts.merges, counts.evaluations,
                counts.file_bytes, counts.file_hash);
  std::string failures = "[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    std::string f;
    for (char c : failures_[i]) {
      if (c == '"' || c == '\\') f += '\\';
      if (c >= 0x20) f += c;
    }
    failures += (i ? ", \"" : "\"") + f + "\"";
  }
  failures += "]";
  char head[256];
  std::snprintf(head, sizeof(head),
                "{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", ",
                spec_.name, seed_, attempted_, failed_);
  return std::string(head) + "\"failures\": " + failures +
         ", \"exact\": " + exact + ", \"end_to_end\": " + e2e.Json() +
         ", \"per_layer\": " + layer.Json() + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: slugbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --tmpdir <dir> [--trace-out <file.csv>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return Usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (!args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("tmpdir")) {
    return Usage();
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args["workload"] == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "slugbench: unknown workload %s\n",
                 args["workload"].c_str());
    return 2;
  }
  const uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["seconds"].c_str(), nullptr);
  const bool trace = args.count("trace") && args["trace"] == "1";
  if (!(seconds > 0.0)) return Usage();
  Bench bench(*spec, seed, seconds, trace, args["tmpdir"]);
  return bench.Run(args.count("trace-out") ? args["trace-out"] : "");
}
