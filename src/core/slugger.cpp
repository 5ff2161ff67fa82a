#include "core/slugger.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/candidate_generation.hpp"
#include "core/memo_table.hpp"
#include "core/merge_planner.hpp"
#include "core/slugger_state.hpp"
#include "util/random.hpp"
#include "util/sharded_lock.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace slugger::core {

double MergingThreshold(uint32_t t, uint32_t total_iterations) {
  if (t >= total_iterations) return 0.0;
  return 1.0 / (1.0 + static_cast<double>(t));
}

MergeEngine ResolveEngine(const SluggerConfig& config, unsigned threads) {
  if (config.engine != MergeEngine::kAuto) return config.engine;
  return threads <= 1          ? MergeEngine::kSequential
         : config.deterministic ? MergeEngine::kRoundBased
                                : MergeEngine::kAsync;
}

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// RNG seed of one candidate group: an independent deterministic stream per
/// (run seed, iteration, group index), so the outcome never depends on
/// which worker processes the group.
uint64_t GroupSeed(uint64_t seed, uint32_t t, uint64_t group) {
  return Mix64(seed ^ (t * 0x7C0FFEE5ull) ^ Mix64(group * 0x51D5EED7ull));
}

/// Per-worker evaluation context. Each worker brings its own memo table
/// (the process-wide MemoTable is not thread-safe; private tables re-warm
/// within a few evaluations and stay hot for the whole run) plus planner
/// scratch and reusable plan buffers.
struct WorkerContext {
  explicit WorkerContext(SluggerState* state) : planner(state, &memo) {}
  WorkerContext(const WorkerContext&) = delete;
  WorkerContext& operator=(const WorkerContext&) = delete;

  MemoTable memo;  // must outlive planner; declared first (init order)
  MergePlanner planner;
  MergePlan plan;
  MergePlan best;
};

/// Work counts of partner scans.
struct ScanWork {
  uint64_t evaluations = 0;  ///< EvaluateInto calls
  uint64_t bound_skips = 0;  ///< partners the saving bound ruled out
};

/// Algorithm 2 inner loop: scans q for the best merge partner of a.
/// Read-only on the state (safe under concurrent evaluation). Returns the
/// index of the winning partner in q (meaningful only if best->valid).
/// A partner whose saving bound is below θ or at most the best saving so
/// far cannot change the outcome (the first strict maximum wins, and only
/// a maximum >= θ commits), so it is skipped without evaluation.
size_t ScanPartners(const SluggerState& state, MergePlanner& planner,
                    const std::vector<SupernodeId>& q, SupernodeId a,
                    double theta, uint32_t height_bound, MergePlan* plan,
                    MergePlan* best, ScanWork* work) {
  planner.BeginScan(a);
  best->Reset(a, a);
  best->saving = kNegInf;
  size_t best_idx = q.size();
  for (size_t i = 0; i < q.size(); ++i) {
    SupernodeId z = q[i];
    if (height_bound != 0 &&
        std::max(state.Height(a), state.Height(z)) + 1 > height_bound) {
      continue;  // Table V height-bounded variant
    }
    if (!planner.MayOverlap(z)) continue;  // Lemma 1: cannot pay off
    double bound = planner.SavingUpperBound(z);
    if (bound < theta || bound <= best->saving) {
      ++work->bound_skips;
      continue;
    }
    planner.EvaluateInto(a, z, plan);
    ++work->evaluations;
    if (plan->valid && plan->saving > best->saving) {
      std::swap(*best, *plan);
      best_idx = i;
    }
  }
  return best_idx;
}

/// Pops a uniformly random element of q (the Algorithm 2 pick of A).
SupernodeId PopRandom(std::vector<SupernodeId>& q, Rng& rng) {
  size_t a_idx = rng.Below(q.size());
  SupernodeId a = q[a_idx];
  q[a_idx] = q.back();
  q.pop_back();
  return a;
}

/// The sequential merge phase (num_threads == 1): the pre-parallelism
/// control flow — one planner, one RNG stream shared across iterations.
/// (Outputs can still differ from pre-shingle-cache binaries on graphs
/// whose candidate groups overflow max_group_size, because re-division
/// levels >= 1 derive their hashes from the per-iteration cache.)
void RunGroupsSequential(const SluggerState& state, MergePlanner& planner,
                         Rng& rng,
                         std::vector<std::vector<SupernodeId>>& groups,
                         double theta, uint32_t height_bound,
                         const CancelToken* cancel, SluggerResult* result) {
  MergePlan plan;
  MergePlan best;
  ScanWork work;
  for (std::vector<SupernodeId>& q : groups) {
    // Every commit leaves a lossless state, so cancelling between scans is
    // safe; the remaining groups then stop at their first check.
    while (q.size() > 1 && !IsCancelled(cancel)) {
      SupernodeId a = PopRandom(q, rng);
      size_t best_idx = ScanPartners(state, planner, q, a, theta,
                                     height_bound, &plan, &best, &work);
      if (best.valid && best.saving >= theta) {
        SupernodeId m = planner.Commit(best);
        ++result->merges;
        q[best_idx] = m;
      }
    }
  }
  result->evaluations += work.evaluations;
  result->bound_skips += work.bound_skips;
}

/// Round-based deterministic engine: every active group picks its merge
/// candidate against the same frozen state in parallel (read-only), then
/// the chosen merges commit serially in group order, re-evaluated against
/// the live state (an earlier commit in the round may have re-encoded
/// edges incident to this family, so the stored plan could be stale).
/// Output is byte-identical for every thread count.
void RunGroupsDeterministic(
    const SluggerState& state,
    std::vector<std::unique_ptr<WorkerContext>>& workers, ThreadPool& pool,
    uint64_t seed, uint32_t t, std::vector<std::vector<SupernodeId>>& groups,
    double theta, uint32_t height_bound, const CancelToken* cancel,
    SluggerResult* result) {
  struct GroupTask {
    std::vector<SupernodeId> q;
    Rng rng;
    MergePlan plan;  ///< winning plan of this round's evaluate phase
    size_t best_idx = 0;
    bool want_commit = false;
  };
  std::vector<GroupTask> tasks(groups.size());
  std::vector<uint32_t> active;
  active.reserve(tasks.size());
  for (size_t i = 0; i < groups.size(); ++i) {
    tasks[i].q = std::move(groups[i]);
    tasks[i].rng.Reseed(GroupSeed(seed, t, i));
    if (tasks[i].q.size() > 1) active.push_back(static_cast<uint32_t>(i));
  }

  std::atomic<uint64_t> evaluations{0};
  std::atomic<uint64_t> bound_skips{0};
  MergePlan commit_plan;
  while (!active.empty()) {
    // Round boundary: all of this round's commits have applied, so the
    // state is a consistent lossless summary — safe to stop here.
    if (IsCancelled(cancel)) break;
    pool.Run(active.size(), [&](uint64_t task, unsigned worker) {
      GroupTask& gt = tasks[active[task]];
      WorkerContext& ctx = *workers[worker];
      SupernodeId a = PopRandom(gt.q, gt.rng);
      ScanWork work;
      size_t best_idx = ScanPartners(state, ctx.planner, gt.q, a, theta,
                                     height_bound, &ctx.plan, &ctx.best,
                                     &work);
      evaluations.fetch_add(work.evaluations, std::memory_order_relaxed);
      bound_skips.fetch_add(work.bound_skips, std::memory_order_relaxed);
      gt.want_commit = ctx.best.valid && ctx.best.saving >= theta;
      if (gt.want_commit) {
        std::swap(gt.plan, ctx.best);
        gt.best_idx = best_idx;
      }
    });

    // The first commit of a round still sees exactly the frozen state its
    // plan was evaluated against, so it applies directly; later commits
    // re-evaluate because an earlier one may have re-encoded edges
    // incident to this family. (The choice depends only on the commit
    // count, so thread-count invariance is preserved.)
    MergePlanner& committer = workers[0]->planner;
    uint64_t committed_this_round = 0;
    for (uint32_t idx : active) {
      GroupTask& gt = tasks[idx];
      if (!gt.want_commit) continue;
      const MergePlan* to_commit = &gt.plan;
      if (committed_this_round != 0) {
        committer.EvaluateInto(gt.plan.a, gt.plan.b, &commit_plan);
        ++result->evaluations;
        if (!(commit_plan.valid && commit_plan.saving >= theta)) continue;
        to_commit = &commit_plan;
      }
      SupernodeId m = committer.Commit(*to_commit);
      ++committed_this_round;
      ++result->merges;
      gt.q[gt.best_idx] = m;
    }

    active.erase(std::remove_if(active.begin(), active.end(),
                                [&](uint32_t idx) {
                                  return tasks[idx].q.size() <= 1;
                                }),
                 active.end());
  }
  result->evaluations += evaluations.load(std::memory_order_relaxed);
  result->bound_skips += bound_skips.load(std::memory_order_relaxed);
}

// Room indices of the async engine's group lock.
constexpr unsigned kEvalRoom = 0;
constexpr unsigned kCommitRoom = 1;

/// Shared synchronization of one async merge phase. Evaluations (read-only
/// scans) occupy the eval room; commits occupy the commit room, where each
/// one locks the hash shards of its write neighborhood — {a, b} and every
/// root adjacent to either — so commits on disjoint neighborhoods apply
/// concurrently. The growth mutex serializes only the O(1) structural part
/// of a merge (id allocation, array appends, union-find, root list).
struct AsyncShared {
  explicit AsyncShared(uint32_t shard_count) : locks(shard_count) {}
  TwoGroupLock rooms;
  ShardedLockTable locks;
  // No guarded members: the state it serializes (MergeRootsStructural's
  // appends) lives in SluggerState, whose concurrent ops carry their own
  // contract. The mutex expresses mutual exclusion, not data ownership.
  Mutex growth_mu;
  std::atomic<uint64_t> commit_version{0};
};

/// Acquires the shard locks covering {a, b} ∪ adj(a) ∪ adj(b) into `held`
/// (sorted unique, ascending — the acquisition order that rules out
/// deadlock). The neighborhood can change between computing the set and
/// locking it, so after acquisition the set is recomputed and, if it
/// escaped the held set, everything is released and retried with the
/// union. Monotone growth of `held` (bounded by the shard count)
/// guarantees termination. Must be called inside the commit room.
// ACQUIRE(locks) hands the whole-table capability to the caller; the body
// opts out of analysis because the retry loop's transient Lock/Unlock
// cycling is exactly the dynamic-lock-set pattern the static model
// abstracts away (see sharded_lock.hpp).
void LockCommitNeighborhood(const SluggerState& state, ShardedLockTable& locks,
                            SupernodeId a, SupernodeId b,
                            std::vector<uint32_t>* held,
                            std::vector<uint32_t>* want,
                            std::vector<uint32_t>* merged)
    SLUGGER_ACQUIRE(locks) SLUGGER_NO_THREAD_SAFETY_ANALYSIS {
  held->clear();
  held->push_back(locks.ShardOf(a));
  held->push_back(locks.ShardOf(b));
  ShardedLockTable::Normalize(held);
  while (true) {
    locks.Lock(*held);
    // Reading root_adj_ of a root requires its shard, which the first
    // iteration already holds for both a and b.
    want->clear();
    want->push_back(locks.ShardOf(a));
    want->push_back(locks.ShardOf(b));
    state.RootAdjacency(a).ForEach([&](SupernodeId c, uint32_t) {
      want->push_back(locks.ShardOf(c));
    });
    state.RootAdjacency(b).ForEach([&](SupernodeId c, uint32_t) {
      want->push_back(locks.ShardOf(c));
    });
    ShardedLockTable::Normalize(want);
    if (std::includes(held->begin(), held->end(), want->begin(),
                      want->end())) {
      return;  // held ⊇ current neighborhood; extra shards are harmless
    }
    locks.Unlock(*held);
    merged->clear();
    std::set_union(held->begin(), held->end(), want->begin(), want->end(),
                   std::back_inserter(*merged));
    held->swap(*merged);
  }
}

/// Applies a validated plan under the caller's shard locks: edge rewrites
/// go through the compression-free concurrent state ops, and only the
/// structural merge takes the growth mutex. Returns the merged supernode.
SupernodeId CommitSharded(SluggerState& state, AsyncShared& shared,
                          const MergePlan& plan) {
  if (!plan.keeps_bound_invariant) state.InvalidateSavingBound();
  for (const auto& [x, y] : plan.removes) {
    EdgeSign sign = state.RemoveEdgeConcurrent(x, y);
    assert(sign != 0 && "plan is stale: edge to remove is absent");
    (void)sign;
  }
  SupernodeId m;
  {
    MutexLock growth(&shared.growth_mu);
    m = state.MergeRootsStructural(plan.a, plan.b);
  }
  // The fold touches root_adj_ of {a, b, m} and of their neighbors only —
  // all inside the held shard set — so disjoint folds run concurrently.
  state.FoldRootAdjacency(plan.a, plan.b, m);
  for (const auto& e : plan.adds) {
    SupernodeId x = e.x == MergePlan::kMergedSentinel ? m : e.x;
    SupernodeId y = e.y == MergePlan::kMergedSentinel ? m : e.y;
    state.AddEdgeConcurrent(x, y, e.sign);
  }
  return m;
}

/// Async work-stealing engine: workers pull whole groups and run Algorithm
/// 2 to completion without barriers. Evaluations run concurrently in the
/// eval room; commits batch in the commit room, each locking the hash
/// shards of its write neighborhood so disjoint commits apply in parallel,
/// and re-evaluating its plan when any commit landed since the evaluation
/// snapshot (a neighboring family may have been re-encoded). Lossless for
/// every schedule, but the summary depends on commit interleaving.
void RunGroupsAsync(SluggerState& state,
                    std::vector<std::unique_ptr<WorkerContext>>& workers,
                    ThreadPool& pool, AsyncShared& shared, uint64_t seed,
                    uint32_t t, std::vector<std::vector<SupernodeId>>& groups,
                    double theta, uint32_t height_bound,
                    const CancelToken* cancel, SluggerResult* result) {
  std::atomic<uint64_t> evaluations{0};
  std::atomic<uint64_t> bound_skips{0};
  std::atomic<uint64_t> merges{0};

  pool.Run(groups.size(), [&](uint64_t task, unsigned worker) {
    WorkerContext& ctx = *workers[worker];
    std::vector<SupernodeId>& q = groups[task];
    Rng rng(GroupSeed(seed, t, task));
    ScanWork work;
    std::vector<uint32_t> held;
    std::vector<uint32_t> want;
    std::vector<uint32_t> merged;
    while (q.size() > 1) {
      // Outside the rooms every in-flight commit has fully applied, so
      // bailing here leaves the shared state lossless; remaining groups
      // drain the same way as their workers reach this check.
      if (IsCancelled(cancel)) break;
      shared.rooms.Enter(kEvalRoom);
      SupernodeId a = PopRandom(q, rng);
      uint64_t seen_version =
          shared.commit_version.load(std::memory_order_relaxed);
      size_t best_idx = ScanPartners(state, ctx.planner, q, a, theta,
                                     height_bound, &ctx.plan, &ctx.best,
                                     &work);
      shared.rooms.Exit(kEvalRoom);
      if (!(ctx.best.valid && ctx.best.saving >= theta)) continue;

      shared.rooms.Enter(kCommitRoom);
      LockCommitNeighborhood(state, shared.locks, ctx.best.a, ctx.best.b,
                             &held, &want, &merged);
      const MergePlan* to_commit = &ctx.best;
      bool commit = true;
      if (shared.commit_version.load(std::memory_order_relaxed) !=
          seen_version) {
        // A commit landed since the snapshot. If it overlapped this
        // neighborhood, the shard handover above made its writes visible;
        // re-evaluate against the now-stable neighborhood.
        ctx.planner.EvaluateInto(ctx.best.a, ctx.best.b, &ctx.plan);
        ++work.evaluations;
        commit = ctx.plan.valid && ctx.plan.saving >= theta;
        to_commit = &ctx.plan;
      }
      SupernodeId m = kInvalidId;
      if (commit) {
        m = CommitSharded(state, shared, *to_commit);
        shared.commit_version.fetch_add(1, std::memory_order_relaxed);
        merges.fetch_add(1, std::memory_order_relaxed);
      }
      shared.locks.Unlock(held);
      shared.rooms.Exit(kCommitRoom);
      if (m != kInvalidId) q[best_idx] = m;
    }
    evaluations.fetch_add(work.evaluations, std::memory_order_relaxed);
    bound_skips.fetch_add(work.bound_skips, std::memory_order_relaxed);
  });
  result->evaluations += evaluations.load(std::memory_order_relaxed);
  result->bound_skips += bound_skips.load(std::memory_order_relaxed);
  result->merges += merges.load(std::memory_order_relaxed);
}

}  // namespace

SluggerResult Summarize(const graph::Graph& g, const SluggerConfig& config) {
  return Summarize(g, config, SummarizeHooks{});
}

SluggerResult Summarize(const graph::Graph& g, const SluggerConfig& config,
                        const SummarizeHooks& hooks) {
  SluggerResult result;
  WallTimer total_timer;

  // An external pool's size wins: the caller (e.g. slugger::Engine) sized
  // it once for its whole lifetime.
  const unsigned threads = hooks.pool != nullptr
                               ? hooks.pool->size()
                               : config.num_threads == 0
                                     ? ThreadPool::DefaultThreads()
                                     : config.num_threads;
  result.threads_used = threads;

  // Resolve the engine: kAuto keeps the historical dispatch (an explicit
  // engine wins, which lets the round-based engine run even at one thread
  // — its output does not depend on the worker count at all).
  const MergeEngine engine = ResolveEngine(config, threads);

  SluggerState state(g);
  CandidateGenerator generator(g, config.seed, config.max_group_size,
                               config.shingle_levels);

  // A pool exists whenever anything can use it: a parallel engine (even of
  // size 1 — same algorithm, inline execution) or spare worker threads for
  // candidate generation and pruning under the sequential engine. A hook-
  // supplied pool is borrowed instead of building one (amortizing thread
  // startup across runs); either way the algorithms see the same pool
  // semantics, so outputs are unchanged. Worker contexts (planner scratch
  // is sized eagerly to the id bound) are built only for the engine that
  // runs them.
  std::optional<ThreadPool> owned_pool;
  ThreadPool* pool = nullptr;
  std::vector<std::unique_ptr<WorkerContext>> workers;
  std::optional<AsyncShared> async_shared;
  if (threads > 1 || engine != MergeEngine::kSequential) {
    pool = hooks.pool != nullptr ? hooks.pool : &owned_pool.emplace(threads);
  }
  if (engine != MergeEngine::kSequential) {
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
      workers.push_back(std::make_unique<WorkerContext>(&state));
    }
  }
  if (engine == MergeEngine::kAsync) {
    // Stable storage is what makes concurrent commits safe: committers on
    // disjoint shards index into these arrays while the (serialized)
    // structural phase appends. The shard count caps the mutexes one
    // commit can hold at once; 32 keeps worst-case holds (all shards plus
    // the growth mutex) under ThreadSanitizer's 64-held-locks limit while
    // still letting typical small neighborhoods commit in parallel.
    state.ReserveForMergePhase();
    async_shared.emplace(/*shard_count=*/32);
  }
  // Sequential path only: one planner on the process-wide memo table.
  std::optional<MergePlanner> seq_planner;
  if (engine == MergeEngine::kSequential) seq_planner.emplace(&state);
  Rng seq_rng(Mix64(config.seed ^ 0xC0FFEEull));

  const uint32_t hb = config.max_height;  // 0 = unbounded

  for (uint32_t t = 1; t <= config.iterations; ++t) {
    if (IsCancelled(hooks.cancel)) {
      result.cancelled = true;
      break;
    }
    const double theta = MergingThreshold(t, config.iterations);
    WallTimer candidate_timer;
    std::vector<std::vector<SupernodeId>> groups =
        generator.Generate(state, t, pool);
    result.candidate_seconds += candidate_timer.Seconds();

    switch (engine) {
      case MergeEngine::kSequential:
        RunGroupsSequential(state, *seq_planner, seq_rng, groups, theta, hb,
                            hooks.cancel, &result);
        break;
      case MergeEngine::kRoundBased:
        RunGroupsDeterministic(state, workers, *pool, config.seed, t, groups,
                               theta, hb, hooks.cancel, &result);
        break;
      case MergeEngine::kAsync:
        RunGroupsAsync(state, workers, *pool, *async_shared, config.seed, t,
                       groups, theta, hb, hooks.cancel, &result);
        break;
      case MergeEngine::kAuto:
        break;  // resolved above; unreachable
    }
    if (config.check_aggregates) {
      result.aggregates_valid =
          result.aggregates_valid && state.ValidateAggregates();
    }
    if (IsCancelled(hooks.cancel)) {
      // The engine bailed mid-iteration; the state is lossless but the
      // iteration is partial, so no progress event fires for it.
      result.cancelled = true;
      break;
    }
    result.iterations_completed = t;
    if (hooks.progress) {
      const summary::SummaryGraph& s = state.summary();
      ProgressEvent event;
      event.iteration = t;
      event.total_iterations = config.iterations;
      event.merges = result.merges;
      event.p_count = s.p_count();
      event.n_count = s.n_count();
      event.h_count = s.h_count();
      event.elapsed_seconds = total_timer.Seconds();
      hooks.progress(event);
    }
  }
  result.merge_seconds = total_timer.Seconds();

  // Pruning (paper §III-B4), on the pool when one exists (thread-count
  // invariant; see PruneOptions::pool).
  WallTimer prune_timer;
  PruneOptions popt;
  popt.rounds = config.pruning_rounds;
  popt.enable_step1 = config.prune_step1;
  popt.enable_step2 = config.prune_step2;
  popt.enable_step3 = config.prune_step3;
  popt.pool = config.parallel_pruning ? pool : nullptr;
  popt.cancel = hooks.cancel;
  if (config.pruning_rounds > 0) {
    result.prune_ablation = PruneSummary(&state.summary(), g, popt);
    result.cancelled = result.cancelled || IsCancelled(hooks.cancel);
  } else {
    result.prune_ablation.stage[0] = summary::ComputeStats(state.summary());
    for (int i = 1; i < 4; ++i) {
      result.prune_ablation.stage[i] = result.prune_ablation.stage[0];
    }
  }
  result.prune_seconds = prune_timer.Seconds();

  result.summary = std::move(state.summary());
  result.stats = summary::ComputeStats(result.summary);
  return result;
}

}  // namespace slugger::core
