// Tests for SLUGGER's driver machinery: state aggregates, merge planner,
// the partner-scan saving bound, candidate generation, pruning substeps,
// thresholds, height bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/compressed_graph.hpp"
#include "core/candidate_generation.hpp"
#include "core/encoding_solver.hpp"
#include "core/encoding_universe.hpp"
#include "core/merge_planner.hpp"
#include "core/pruning.hpp"
#include "core/slugger.hpp"
#include "core/slugger_state.hpp"
#include "gen/generators.hpp"
#include "storage/storage.hpp"
#include "summary/decode.hpp"
#include "summary/verify.hpp"

namespace slugger::core {
namespace {

graph::Graph TwinGraph() {
  // Nodes 0 and 1 are twins: identical neighborhoods {2,3,4} and adjacent
  // to each other — the canonical profitable merge.
  return graph::Graph::FromEdges(
      5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}});
}

// ----------------------------------------------------------------- state
TEST(SluggerState, InitialAggregates) {
  graph::Graph g = TwinGraph();
  SluggerState state(g);
  EXPECT_EQ(state.roots().size(), 5u);
  EXPECT_EQ(state.IncCost(0), 4u);  // deg(0)
  EXPECT_EQ(state.IncCost(2), 2u);
  EXPECT_EQ(state.Between(0, 1), 1u);
  EXPECT_EQ(state.HCost(0), 0u);
  EXPECT_EQ(state.TotalCostFromAggregates(), g.num_edges());
  EXPECT_TRUE(state.ValidateAggregates());
}

TEST(SluggerState, MergeFoldsAggregates) {
  graph::Graph g = TwinGraph();
  SluggerState state(g);
  SupernodeId m = state.MergeRoots(0, 1);
  EXPECT_EQ(state.FindRoot(0), m);
  EXPECT_EQ(state.FindRoot(1), m);
  EXPECT_EQ(state.HCost(m), 2u);
  EXPECT_EQ(state.IncCost(m), 7u);  // all 7 edges touch the tree
  EXPECT_EQ(state.Between(m, 2), 2u);
  EXPECT_EQ(state.Height(m), 1u);
  EXPECT_EQ(state.roots().size(), 4u);
  EXPECT_TRUE(state.ValidateAggregates());
}

TEST(SluggerState, EdgeOpsKeepAggregatesConsistent) {
  graph::Graph g = gen::ErdosRenyi(60, 240, 4);
  SluggerState state(g);
  MergePlanner planner(&state);
  // Perform a few merges through the planner, validating after each.
  Rng rng(5);
  for (int step = 0; step < 10; ++step) {
    SupernodeId a = state.roots()[rng.Below(state.roots().size())];
    SupernodeId b = state.roots()[rng.Below(state.roots().size())];
    if (a == b) continue;
    MergePlan plan = planner.Evaluate(a, b);
    ASSERT_TRUE(plan.valid);
    planner.Commit(plan);
    ASSERT_TRUE(state.ValidateAggregates()) << "step " << step;
    ASSERT_EQ(state.TotalCostFromAggregates(), state.summary().Cost());
  }
}

// --------------------------------------------------------------- planner
TEST(MergePlanner, TwinMergeSavesAndStaysLossless) {
  graph::Graph g = TwinGraph();
  SluggerState state(g);
  MergePlanner planner(&state);
  MergePlan plan = planner.Evaluate(0, 1);
  ASSERT_TRUE(plan.valid);
  // Before: cost 7 (edges of 0 and 1). After: {0,1} with self-loop + three
  // edges to 2,3,4 + 2 h-edges = 6.
  EXPECT_EQ(plan.cost_before, 7u);
  EXPECT_EQ(plan.cost_after, 6u);
  EXPECT_NEAR(plan.saving, 1.0 - 6.0 / 7.0, 1e-12);
  planner.Commit(plan);
  EXPECT_TRUE(summary::VerifyLossless(g, state.summary()).ok());
  EXPECT_EQ(state.summary().Cost(), 6u);
}

TEST(MergePlanner, CostAfterMatchesCommittedCost) {
  // The predicted numerator must equal the real cost delta on commit.
  graph::Graph g = gen::Caveman(4, 6, 0.15, 9);
  SluggerState state(g);
  MergePlanner planner(&state);
  Rng rng(3);
  for (int step = 0; step < 12; ++step) {
    SupernodeId a = state.roots()[rng.Below(state.roots().size())];
    SupernodeId b = state.roots()[rng.Below(state.roots().size())];
    if (a == b) continue;
    MergePlan plan = planner.Evaluate(a, b);
    uint64_t other_cost = state.summary().Cost() + plan.cost_before -
                          plan.cost_before;  // total before
    uint64_t before_total = state.summary().Cost();
    planner.Commit(plan);
    uint64_t after_total = state.summary().Cost();
    EXPECT_EQ(after_total - (before_total - plan.cost_before),
              plan.cost_after)
        << "step " << step;
    (void)other_cost;
    ASSERT_TRUE(summary::VerifyLossless(g, state.summary()).ok())
        << "step " << step;
  }
}

TEST(MergePlanner, DisjointMergeCostsTwoExtra) {
  // Lemma 1: merging two far-apart roots adds exactly the two h-edges.
  graph::Graph g = graph::Graph::FromEdges(6, {{0, 1}, {2, 3}, {4, 5}});
  SluggerState state(g);
  MergePlanner planner(&state);
  MergePlan plan = planner.Evaluate(0, 2);
  ASSERT_TRUE(plan.valid);
  EXPECT_EQ(plan.cost_after, plan.cost_before + 2);
  EXPECT_LT(plan.saving, 0.0);
}

TEST(MergePlanner, ScanPrefilterKeepsOverlappingPartners) {
  graph::Graph g = TwinGraph();
  SluggerState state(g);
  MergePlanner planner(&state);
  planner.BeginScan(0);
  EXPECT_TRUE(planner.MayOverlap(1));  // adjacent
  graph::Graph g2 = graph::Graph::FromEdges(6, {{0, 2}, {1, 2}, {4, 5}});
  SluggerState state2(g2);
  MergePlanner planner2(&state2);
  planner2.BeginScan(0);
  EXPECT_TRUE(planner2.MayOverlap(1));   // share neighbor 2
  EXPECT_FALSE(planner2.MayOverlap(4));  // distance >= 3
}

// ---------------------------------------------------------- saving bound
// Checks SavingUpperBound(z) >= Evaluate(a, z).saving, with no epsilon,
// for every ordered pair of current roots. Returns how many pairs the
// bound would skip at θ = 0 (bound < 0), so callers can see it is not
// vacuously +infinity.
uint64_t ExpectBoundAdmissible(const SluggerState& state,
                               MergePlanner& planner) {
  uint64_t below_zero = 0;
  const std::vector<SupernodeId> roots = state.roots();
  for (SupernodeId a : roots) {
    planner.BeginScan(a);
    for (SupernodeId z : roots) {
      if (z == a) continue;
      double bound = planner.SavingUpperBound(z);
      double saving = planner.Evaluate(a, z).saving;
      EXPECT_GE(bound, saving) << "a=" << a << " z=" << z;
      if (bound < 0.0) ++below_zero;
    }
  }
  return below_zero;
}

// The cross-bucket step of SavingUpperBound's proof (merge_planner.cpp):
// if t_A and t_Z are coverages with entries in {-1, 0, 1} whose minimum
// encodings over S_a x S_C and S_z x S_C take k_A and k_Z edges, then the
// optimum over the merged universe takes at least max(k_A, k_Z). Checked
// for every Case-2 shape and every such pair of coverages.
TEST(SavingBound, CrossBucketLemmaHoldsExhaustively) {
  using Coverage = std::array<int8_t, 8>;
  // Minimum encoding size of every coverage reachable over `slots`, by
  // enumerating all signed subsets (at most 3^9).
  auto min_sizes = [](const Universe& u, const std::vector<int>& slots) {
    std::map<Coverage, int> best;
    size_t total = 1;
    for (size_t i = 0; i < slots.size(); ++i) total *= 3;
    for (size_t code = 0; code < total; ++code) {
      Coverage cov{};
      int size = 0;
      size_t digits = code;
      for (int slot : slots) {
        int d = static_cast<int>(digits % 3);
        digits /= 3;
        if (d == 0) continue;
        ++size;
        for (int c = 0; c < u.num_classes; ++c) {
          if (u.slots[slot].cover >> c & 1) cov[c] += d == 1 ? 1 : -1;
        }
      }
      bool in_range = std::all_of(cov.begin(), cov.end(),
                                  [](int8_t v) { return v >= -1 && v <= 1; });
      if (!in_range) continue;
      auto it = best.find(cov);
      if (it == best.end() || it->second > size) best[cov] = size;
    }
    return best;
  };
  size_t checked = 0;
  for (int shape = 0; shape < 8; ++shape) {
    const Universe& u = GetCase2Universe(shape & 4, shape & 2, shape & 1);
    std::vector<int> a_slots;
    std::vector<int> z_slots;
    for (int i = 0; i < static_cast<int>(u.slots.size()); ++i) {
      uint8_t p = u.slots[i].p;
      if (p == kA || p == kA1 || p == kA2) a_slots.push_back(i);
      if (p == kB || p == kB1 || p == kB2) z_slots.push_back(i);
    }
    const std::map<Coverage, int> a_min = min_sizes(u, a_slots);
    const std::map<Coverage, int> z_min = min_sizes(u, z_slots);
    for (const auto& [t_a, k_a] : a_min) {
      for (const auto& [t_z, k_z] : z_min) {
        int8_t target[8];
        for (int c = 0; c < 8; ++c) {
          target[c] = static_cast<int8_t>(t_a[c] + t_z[c]);
        }
        SolvedEncoding merged = SolveMinimumEncoding(u, target);
        ASSERT_TRUE(merged.feasible) << "shape " << shape;
        ASSERT_GE(merged.cost(), std::max(k_a, k_z)) << "shape " << shape;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, 8244u);
}

// Reaches merge-phase states by random Evaluate + Commit sequences: half
// the steps merge a random pair whatever its saving (negative included),
// the other half commit the best of a few overlapping partners, as the
// greedy scan would, which builds deep trees with re-encoded edges. The
// bound is checked against every pair at several points on the way.
// Returns the number of pairs the bound would have skipped at θ = 0.
uint64_t CheckBoundAlongRandomMerges(const graph::Graph& g, uint64_t seed) {
  SluggerState state(g);
  MergePlanner planner(&state);
  Rng rng(seed);
  uint64_t below_zero = ExpectBoundAdmissible(state, planner);
  const size_t checkpoint = std::max<size_t>(state.roots().size() / 6, 1);
  size_t merges = 0;
  while (state.roots().size() > 2) {
    const std::vector<SupernodeId>& roots = state.roots();
    SupernodeId a = roots[rng.Below(roots.size())];
    MergePlan best;
    if (rng.Below(2) == 0) {
      SupernodeId z = roots[rng.Below(roots.size())];
      if (z == a) continue;
      best = planner.Evaluate(a, z);
    } else {
      planner.BeginScan(a);
      best.saving = -std::numeric_limits<double>::infinity();
      for (int tries = 0; tries < 8; ++tries) {
        SupernodeId z = roots[rng.Below(roots.size())];
        if (z == a || !planner.MayOverlap(z)) continue;
        MergePlan plan = planner.Evaluate(a, z);
        if (plan.saving > best.saving) best = std::move(plan);
      }
      if (!best.valid) continue;
    }
    planner.Commit(best);
    EXPECT_TRUE(state.saving_bound_valid());
    if (++merges % checkpoint == 0) {
      below_zero += ExpectBoundAdmissible(state, planner);
      if (::testing::Test::HasFailure()) return below_zero;
    }
  }
  EXPECT_TRUE(summary::VerifyLossless(g, state.summary()).ok());
  return below_zero;
}

TEST(SavingBound, AdmissibleOnRmat) {
  uint64_t skippable =
      CheckBoundAlongRandomMerges(gen::RMat(7, 600, 0.57, 0.19, 0.19, 11), 1) +
      CheckBoundAlongRandomMerges(gen::RMat(7, 900, 0.45, 0.15, 0.15, 12), 2);
  EXPECT_GT(skippable, 0u) << "the bound never ruled out a partner";
}

TEST(SavingBound, AdmissibleOnErdosRenyi) {
  // The dense second graph (45% of all pairs) shares so many neighbours
  // that no pair is skippable at θ = 0; the sparse first one has many.
  uint64_t skippable =
      CheckBoundAlongRandomMerges(gen::ErdosRenyi(96, 400, 13), 3) +
      CheckBoundAlongRandomMerges(gen::ErdosRenyi(64, 900, 14), 4);
  EXPECT_GT(skippable, 0u) << "the bound never ruled out a partner";
}

TEST(SavingBound, AdmissibleOnPlantedHierarchy) {
  gen::PlantedHierarchyOptions opt;
  opt.branching = 3;
  opt.depth = 2;
  opt.leaf_size = 10;
  opt.pair_link_prob = 0.4;
  opt.noise_density = 0.01;
  uint64_t skippable =
      CheckBoundAlongRandomMerges(gen::PlantedHierarchy(opt, 15), 5) +
      CheckBoundAlongRandomMerges(gen::PlantedHierarchy(opt, 16), 6);
  EXPECT_GT(skippable, 0u) << "the bound never ruled out a partner";
}

TEST(SavingBound, SolverGiveUpSwitchesTheBoundOff) {
  // A one-node search budget makes every nonzero target give up, so the
  // twin merge keeps its two-edge buckets {0,1} x {c} unsolved.
  graph::Graph g = TwinGraph();
  SluggerState state(g);
  MemoTable tiny(/*node_budget=*/1);
  MergePlanner planner(&state, &tiny);
  planner.BeginScan(0);
  EXPECT_LT(planner.SavingUpperBound(1),
            std::numeric_limits<double>::infinity());
  MergePlan plan = planner.Evaluate(0, 1);
  ASSERT_TRUE(plan.valid);
  EXPECT_FALSE(plan.keeps_bound_invariant);
  SupernodeId m = planner.Commit(plan);
  EXPECT_TRUE(summary::VerifyLossless(g, state.summary()).ok());
  EXPECT_FALSE(state.saving_bound_valid());
  planner.BeginScan(m);
  EXPECT_EQ(planner.SavingUpperBound(2),
            std::numeric_limits<double>::infinity());

  // With the default budget the same merge solves exactly.
  SluggerState exact_state(g);
  MergePlanner exact_planner(&exact_state);
  MergePlan exact = exact_planner.Evaluate(0, 1);
  EXPECT_TRUE(exact.keeps_bound_invariant);
  exact_planner.Commit(exact);
  EXPECT_TRUE(exact_state.saving_bound_valid());
}

// Outputs pinned from the build before the bound existed: the bound only
// skips evaluations that cannot change a decision, so cost, merges and
// the serialized bytes must stay exactly these, while the evaluation
// count must at least halve. A noise-free gate on the merge scan's work.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct PinnedRun {
  MergeEngine engine;
  uint32_t threads;
  uint64_t cost;
  uint64_t merges;
  uint64_t evaluations_without_bound;
  uint64_t file_hash;
};

void ExpectPinned(const graph::Graph& g, const PinnedRun& pin) {
  SluggerConfig config;
  config.engine = pin.engine;
  config.num_threads = pin.threads;
  config.seed = 3;
  SluggerResult r = Summarize(g, config);
  const std::string where = "engine " +
                            std::to_string(static_cast<int>(pin.engine)) +
                            " threads " + std::to_string(pin.threads);
  EXPECT_EQ(r.stats.cost, pin.cost) << where;
  EXPECT_EQ(r.merges, pin.merges) << where;
  EXPECT_LE(2 * r.evaluations, pin.evaluations_without_bound) << where;
  // A skipped partner is one evaluation fewer, nothing else.
  EXPECT_EQ(r.evaluations + r.bound_skips, pin.evaluations_without_bound)
      << where;
  CompressedGraph compressed(std::move(r.summary), r.stats);
  StatusOr<std::string> bytes = storage::Serialize(compressed);
  ASSERT_TRUE(bytes.ok()) << where;
  EXPECT_EQ(bytes.value().size(), 393216u) << where;
  EXPECT_EQ(Fnv1a(bytes.value()), pin.file_hash) << where;
}

TEST(SavingBound, PinnedOutputsOnRmat) {
  graph::Graph g = gen::RMat(9, 4096, 0.57, 0.19, 0.19, 1);
  ExpectPinned(g, {MergeEngine::kSequential, 1, 2912, 121, 116489,
                   0xd1e9a2eab78d82f7ull});
  for (uint32_t threads : {1u, 4u}) {
    ExpectPinned(g, {MergeEngine::kRoundBased, threads, 2891, 131, 117657,
                     0x7cc95bda69ad21e6ull});
  }
}

TEST(SavingBound, PinnedOutputsOnPlantedHierarchy) {
  gen::PlantedHierarchyOptions opt;
  opt.branching = 4;
  opt.depth = 3;
  opt.leaf_size = 8;
  opt.pair_link_prob = 0.3;
  opt.noise_density = 0.002;
  graph::Graph g = gen::PlantedHierarchy(opt, 7);
  ExpectPinned(g, {MergeEngine::kSequential, 1, 1188, 418, 21566,
                   0x1dc192ccdcb4a7deull});
  for (uint32_t threads : {1u, 4u}) {
    ExpectPinned(g, {MergeEngine::kRoundBased, threads, 1233, 422, 20832,
                     0x593ca0af39a5aae8ull});
  }
}

// ---------------------------------------------------------- candidates
TEST(CandidateGeneration, GroupsRespectSizeCap) {
  graph::Graph g = gen::Caveman(10, 30, 0.05, 2);
  SluggerState state(g);
  CandidateGenerator generator(g, 1, /*max_group_size=*/16,
                               /*shingle_levels=*/10);
  auto groups = generator.Generate(state, 1);
  ASSERT_FALSE(groups.empty());
  std::set<SupernodeId> seen;
  for (const auto& group : groups) {
    EXPECT_GE(group.size(), 2u);
    EXPECT_LE(group.size(), 16u);
    for (SupernodeId r : group) {
      EXPECT_TRUE(seen.insert(r).second) << "root in two groups";
    }
  }
}

TEST(CandidateGeneration, SimilarNeighborhoodsShareGroups) {
  // Twins share their shingle, so some group must contain both.
  graph::Graph g = TwinGraph();
  SluggerState state(g);
  CandidateGenerator generator(g, 3, 500, 10);
  auto groups = generator.Generate(state, 1);
  bool together = false;
  for (const auto& group : groups) {
    std::set<SupernodeId> s(group.begin(), group.end());
    if (s.count(0) && s.count(1)) together = true;
  }
  EXPECT_TRUE(together);
}

TEST(CandidateGeneration, ZeroShingleLevelsRandomlyGroupsAllRoots) {
  // shingle_levels = 0 means "random division only": every root lands in
  // a group (except at most one leftover), with no shingle filtering.
  graph::Graph g = gen::ErdosRenyi(300, 900, 8);
  SluggerState state(g);
  CandidateGenerator generator(g, 1, /*max_group_size=*/32,
                               /*shingle_levels=*/0);
  auto groups = generator.Generate(state, 1);
  std::set<SupernodeId> seen;
  for (const auto& group : groups) {
    EXPECT_GE(group.size(), 2u);
    EXPECT_LE(group.size(), 32u);
    for (SupernodeId r : group) {
      EXPECT_TRUE(seen.insert(r).second) << "root in two groups";
    }
  }
  EXPECT_GE(seen.size() + 1, state.roots().size());
}

TEST(CandidateGeneration, VariesAcrossIterations) {
  graph::Graph g = gen::ErdosRenyi(300, 900, 8);
  SluggerState state(g);
  CandidateGenerator generator(g, 1, 500, 10);
  auto g1 = generator.Generate(state, 1);
  auto g2 = generator.Generate(state, 2);
  // Different iteration hashes shuffle the groups (almost surely).
  EXPECT_NE(g1, g2);
}

// -------------------------------------------------------------- pruning
TEST(Pruning, Step1RemovesEdgeFreeSupernodes) {
  graph::Graph g = graph::Graph::FromEdges(4, {{0, 1}, {2, 3}});
  summary::SummaryGraph s(4);
  SupernodeId m = s.Merge(0, 1);
  s.AddEdge(m, m, +1);       // encodes edge (0,1)
  s.AddEdge(2, 3, +1);
  SupernodeId useless = s.Merge(2, 3);  // no incident edges
  (void)useless;
  uint64_t before = s.Cost();
  PruneOptions opt;
  opt.enable_step2 = opt.enable_step3 = false;
  PruneAblation ablation = PruneSummary(&s, g, opt);
  EXPECT_EQ(ablation.stage[0].cost, before);
  EXPECT_LT(s.Cost(), before);
  EXPECT_TRUE(summary::VerifyLossless(g, s).ok());
  EXPECT_TRUE(s.forest().IsRoot(2));
}

TEST(Pruning, Step2PushesSingleEdgeDown) {
  // Root {0,1} with a single edge to node 2 dissolves; the edge reattaches
  // to both children, saving |H| = 2 and paying one extra edge.
  graph::Graph g = graph::Graph::FromEdges(3, {{0, 2}, {1, 2}});
  summary::SummaryGraph s(3);
  SupernodeId m = s.Merge(0, 1);
  s.AddEdge(m, 2, +1);
  EXPECT_EQ(s.Cost(), 3u);
  PruneOptions opt;
  opt.enable_step1 = opt.enable_step3 = false;
  PruneSummary(&s, g, opt);
  EXPECT_EQ(s.Cost(), 2u);
  EXPECT_FALSE(s.forest().IsAlive(m));
  EXPECT_TRUE(summary::VerifyLossless(g, s).ok());
}

TEST(Pruning, Step2SignCancellation) {
  // p-edge ({0,1}, 2) with existing n-edge (1, 2): pushing down cancels.
  graph::Graph g = graph::Graph::FromEdges(3, {{0, 2}});
  summary::SummaryGraph s(3);
  SupernodeId m = s.Merge(0, 1);
  s.AddEdge(m, 2, +1);
  s.AddEdge(1, 2, -1);
  ASSERT_TRUE(summary::VerifyLossless(g, s).ok());
  PruneOptions opt;
  opt.enable_step1 = opt.enable_step3 = false;
  PruneSummary(&s, g, opt);
  EXPECT_TRUE(summary::VerifyLossless(g, s).ok());
  EXPECT_EQ(s.Cost(), 1u);  // single p-edge (0, 2)
}

TEST(Pruning, Step3FlattensWhenCheaper) {
  // A wasteful hierarchical encoding of a single edge collapses to flat.
  graph::Graph g = graph::Graph::FromEdges(4, {{0, 2}, {1, 2}, {0, 3}, {1, 3}});
  summary::SummaryGraph s(4);
  // Encode each edge separately but hang 0,1 under a pointless supernode
  // that carries a self-loop-free structure the flat model beats.
  s.InitFromEdges(g.Edges());
  summary::SummaryGraph flat_ref(4);
  flat_ref.InitFromEdges(g.Edges());
  SupernodeId m = s.Merge(0, 1);
  // Re-encode {0,1} x {2}: single edge (m, 2); same for {3}.
  s.RemoveEdge(0, 2);
  s.RemoveEdge(1, 2);
  s.AddEdge(m, 2, +1);
  s.RemoveEdge(0, 3);
  s.RemoveEdge(1, 3);
  s.AddEdge(m, 3, +1);
  EXPECT_EQ(s.Cost(), 4u);  // 2 p + 2 h
  ASSERT_TRUE(summary::VerifyLossless(g, s).ok());
  PruneOptions opt;
  PruneAblation ablation = PruneSummary(&s, g, opt);
  EXPECT_TRUE(summary::VerifyLossless(g, s).ok());
  EXPECT_LE(s.Cost(), 4u);
  EXPECT_LE(ablation.stage[3].cost, ablation.stage[0].cost);
}

TEST(Pruning, SubstepsMonotonicallyImprove) {
  gen::PlantedHierarchyOptions opt_gen;
  opt_gen.branching = 3;
  opt_gen.depth = 2;
  opt_gen.leaf_size = 7;
  opt_gen.leaf_density = 0.9;
  opt_gen.pair_link_prob = 0.5;
  opt_gen.pair_link_decay = 0.5;
  graph::Graph g = gen::PlantedHierarchy(opt_gen, 3);
  SluggerConfig config;
  config.iterations = 10;
  config.pruning_rounds = 1;
  SluggerResult r = Summarize(g, config);
  const PruneAblation& ab = r.prune_ablation;
  EXPECT_LE(ab.stage[1].cost, ab.stage[0].cost);
  EXPECT_LE(ab.stage[2].cost, ab.stage[1].cost);
  EXPECT_LE(ab.stage[3].cost, ab.stage[2].cost);
  EXPECT_LE(ab.stage[3].max_height, ab.stage[0].max_height);
  EXPECT_LE(ab.stage[3].avg_leaf_depth, ab.stage[0].avg_leaf_depth + 1e-9);
}

// ---------------------------------------------------------------- driver
TEST(Driver, ThresholdSchedule) {
  EXPECT_DOUBLE_EQ(MergingThreshold(1, 20), 0.5);
  EXPECT_DOUBLE_EQ(MergingThreshold(2, 20), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(MergingThreshold(19, 20), 0.05);
  EXPECT_DOUBLE_EQ(MergingThreshold(20, 20), 0.0);
  EXPECT_DOUBLE_EQ(MergingThreshold(1, 1), 0.0);
}

TEST(Driver, DeterministicForSeed) {
  graph::Graph g = gen::Caveman(6, 12, 0.1, 2);
  SluggerConfig config;
  config.iterations = 8;
  config.seed = 42;
  SluggerResult a = Summarize(g, config);
  SluggerResult b = Summarize(g, config);
  EXPECT_EQ(a.stats.cost, b.stats.cost);
  EXPECT_EQ(a.merges, b.merges);
  config.seed = 43;
  SluggerResult c = Summarize(g, config);
  // Different seeds usually explore different merges (not guaranteed, but
  // overwhelmingly likely on this graph).
  EXPECT_TRUE(c.stats.cost != a.stats.cost || c.merges != a.merges ||
              c.evaluations != a.evaluations);
}

TEST(Driver, MoreIterationsNeverHurtMuch) {
  graph::Graph g = gen::Caveman(8, 16, 0.08, 5);
  SluggerConfig c1;
  c1.iterations = 1;
  c1.seed = 7;
  SluggerConfig c20 = c1;
  c20.iterations = 20;
  uint64_t cost1 = Summarize(g, c1).stats.cost;
  uint64_t cost20 = Summarize(g, c20).stats.cost;
  EXPECT_LE(cost20, cost1 + cost1 / 10);  // Table III trend
}

TEST(Driver, HeightBoundRespected) {
  gen::PlantedHierarchyOptions opt_gen;
  opt_gen.branching = 4;
  opt_gen.depth = 3;
  opt_gen.leaf_size = 6;
  opt_gen.leaf_density = 0.95;
  opt_gen.pair_link_prob = 0.6;
  opt_gen.pair_link_decay = 0.4;
  graph::Graph g = gen::PlantedHierarchy(opt_gen, 5);
  for (uint32_t hb : {2u, 5u, 7u}) {
    SluggerConfig config;
    config.iterations = 10;
    config.max_height = hb;
    config.pruning_rounds = 0;  // pruning only lowers heights
    SluggerResult r = Summarize(g, config);
    EXPECT_LE(r.stats.max_height, hb) << "Hb = " << hb;
    EXPECT_TRUE(summary::VerifyLossless(g, r.summary).ok());
  }
}

TEST(Driver, HeightBoundTradeoff) {
  // Table V: looser height bounds compress at least as well (statistically;
  // we allow slack for heuristic noise).
  gen::PlantedHierarchyOptions opt_gen;
  opt_gen.branching = 4;
  opt_gen.depth = 3;
  opt_gen.leaf_size = 8;
  opt_gen.leaf_density = 0.9;
  opt_gen.pair_link_prob = 0.6;
  opt_gen.pair_link_decay = 0.35;
  graph::Graph g = gen::PlantedHierarchy(opt_gen, 11);
  SluggerConfig tight;
  tight.iterations = 12;
  tight.max_height = 2;
  SluggerConfig loose = tight;
  loose.max_height = 0;
  uint64_t cost_tight = Summarize(g, tight).stats.cost;
  uint64_t cost_loose = Summarize(g, loose).stats.cost;
  EXPECT_LE(cost_loose, cost_tight + cost_tight / 8);
}

TEST(Driver, PruningDisabledKeepsLosslessness) {
  graph::Graph g = gen::ErdosRenyi(100, 350, 2);
  SluggerConfig config;
  config.iterations = 6;
  config.pruning_rounds = 0;
  SluggerResult r = Summarize(g, config);
  EXPECT_TRUE(summary::VerifyLossless(g, r.summary).ok());
}

TEST(Driver, EmptyAndTinyGraphs) {
  graph::Graph empty = graph::Graph::FromEdges(0, {});
  SluggerResult r0 = Summarize(empty, {});
  EXPECT_EQ(r0.stats.cost, 0u);

  graph::Graph isolated = graph::Graph::FromEdges(5, {});
  SluggerResult r1 = Summarize(isolated, {});
  EXPECT_EQ(r1.stats.cost, 0u);
  EXPECT_TRUE(summary::VerifyLossless(isolated, r1.summary).ok());

  graph::Graph one_edge = graph::Graph::FromEdges(2, {{0, 1}});
  SluggerResult r2 = Summarize(one_edge, {});
  EXPECT_TRUE(summary::VerifyLossless(one_edge, r2.summary).ok());
  EXPECT_LE(r2.stats.cost, 1u);
}

}  // namespace
}  // namespace slugger::core
