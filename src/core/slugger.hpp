// SLUGGER: Scalable Lossless Summarization of Graphs with Hierarchy.
//
// The algorithmic entry point (paper Algorithm 1): greedily merges
// supernodes under the hierarchical graph summarization model, updating
// p/n-edges through memoized optimal local re-encodings, then prunes
// supernodes that do not pay for themselves. Services should prefer the
// stable facade in api/engine.hpp (slugger::Engine validates options,
// keeps a persistent pool, and returns a slugger::CompressedGraph);
// this header is the internal layer it sits on.
//
// Quickstart:
//   graph::Graph g = gen::ErdosRenyi(1000, 5000, /*seed=*/1);
//   core::SluggerResult r = core::Summarize(g, {});
//   summary::VerifyLossless(g, r.summary);          // always OK
//   double ratio = r.stats.RelativeSize(g.num_edges());
#ifndef SLUGGER_CORE_SLUGGER_HPP_
#define SLUGGER_CORE_SLUGGER_HPP_

#include "core/config.hpp"
#include "core/hooks.hpp"
#include "core/pruning.hpp"
#include "graph/graph.hpp"
#include "summary/stats.hpp"
#include "summary/summary_graph.hpp"

namespace slugger::core {

/// Output of one summarization run.
struct SluggerResult {
  summary::SummaryGraph summary;
  summary::SummaryStats stats;      ///< stats of the final summary
  PruneAblation prune_ablation;     ///< Table IV instrumentation
  uint64_t merges = 0;              ///< accepted merges
  uint64_t evaluations = 0;         ///< Saving() evaluations performed
  uint64_t bound_skips = 0;         ///< partners ruled out by the bound
  double merge_seconds = 0.0;       ///< candidate generation + merging
  double candidate_seconds = 0.0;   ///< candidate generation alone
  double prune_seconds = 0.0;
  uint32_t threads_used = 1;        ///< effective worker count
  bool aggregates_valid = true;     ///< set by SluggerConfig::check_aggregates
  uint32_t iterations_completed = 0;  ///< fully finished iterations
  bool cancelled = false;           ///< a SummarizeHooks::cancel token fired
};

/// Runs SLUGGER on g. Deterministic for a fixed config: num_threads <= 1
/// runs the sequential engine (reproducible run to run), and with
/// config.deterministic (the default) the result is additionally
/// identical across all num_threads >= 2; with deterministic = false the
/// async engine's result depends on scheduling. Pinning
/// config.engine = MergeEngine::kRoundBased extends the byte-identity
/// guarantee to every thread count including 1 (see SluggerConfig).
SluggerResult Summarize(const graph::Graph& g, const SluggerConfig& config);

/// Summarize with run-scoped hooks: per-iteration progress reporting,
/// cooperative cancellation (the returned summary is the lossless
/// best-so-far state when the token fires), and an externally owned
/// thread pool reused across runs. Default-constructed hooks make this
/// identical to the two-argument overload.
SluggerResult Summarize(const graph::Graph& g, const SluggerConfig& config,
                        const SummarizeHooks& hooks);

/// Merging threshold θ(t) (paper Eq. 9).
double MergingThreshold(uint32_t t, uint32_t total_iterations);

/// The concrete engine a config runs at `threads` workers: kAuto maps to
/// the historical dispatch (sequential at one thread, then
/// round-based/async per `deterministic`); an explicit engine wins. The
/// single source of truth for Summarize and for callers that must predict
/// whether a pool is needed (slugger::Engine's persistent pool).
MergeEngine ResolveEngine(const SluggerConfig& config, unsigned threads);

}  // namespace slugger::core

#endif  // SLUGGER_CORE_SLUGGER_HPP_
