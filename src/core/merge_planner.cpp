#include "core/merge_planner.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

namespace slugger::core {

namespace {

/// m-side unit bitmask (units 0..3) of a local family node.
uint8_t MSideUnitMask(int local, bool a_internal, bool b_internal) {
  switch (local) {
    case kA:
      return a_internal ? 0b0011 : 0b0001;
    case kA1:
      return 0b0001;
    case kA2:
      return 0b0010;
    case kB:
      return b_internal ? 0b1100 : 0b0100;
    case kB1:
      return 0b0100;
    case kB2:
      return 0b1000;
    default:
      assert(false && "kM has no old edges; C-side nodes are not m-side");
      return 0;
  }
}

/// c-side unit bitmask (units 0..1) of a local C-side slot position 0..2.
uint8_t CSideUnitMask(int c_pos, bool c_internal) {
  switch (c_pos) {
    case 0:
      return c_internal ? 0b11 : 0b01;
    case 1:
      return 0b01;
    default:
      return 0b10;
  }
}

/// Adds an edge's coverage to the merged root's top-band classes: units
/// {a, b} (bits of `m_units`) x c-side units (bits of `c_units`).
void AddTopCoverage(uint8_t m_units, uint8_t c_units, EdgeSign sign,
                    int8_t top[4]) {
  for (int mi = 0; mi < 2; ++mi) {
    if (!(m_units >> mi & 1)) continue;
    for (int cj = 0; cj < 2; ++cj) {
      if (!(c_units >> cj & 1)) continue;
      top[2 * mi + cj] = static_cast<int8_t>(top[2 * mi + cj] + sign);
    }
  }
}

bool CoverageAtMostOnce(const int8_t top[4]) {
  for (int i = 0; i < 4; ++i) {
    if (top[i] < -1 || top[i] > 1) return false;
  }
  return true;
}

}  // namespace

void MergePlanner::BeginScan(SupernodeId a) {
  assert(mark_epoch_.size() >= state_->summary().forest().capacity());
  ++epoch_;
  scan_root_ = a;
  scan_adj_.clear();
  mark_epoch_[a] = epoch_;
  scan_adj_.push_back(a);
  state_->RootAdjacency(a).ForEach([&](SupernodeId c, uint32_t count) {
    mark_epoch_[c] = epoch_;
    scan_cnt_[c] = count;
    scan_adj_.push_back(c);
  });
  scan_adj_count_ = static_cast<uint32_t>(scan_adj_.size());
}

bool MergePlanner::MayOverlap(SupernodeId z) const {
  assert(scan_root_ != kInvalidId);
  if (mark_epoch_[z] == epoch_) return true;  // z adjacent to a
  const FlatCountMap& z_adj = state_->RootAdjacency(z);
  if (z_adj.size() <= scan_adj_count_) {
    bool found = false;
    z_adj.ForEach([&](SupernodeId c, uint32_t) {
      if (mark_epoch_[c] == epoch_) found = true;
    });
    return found;
  }
  for (SupernodeId c : scan_adj_) {
    if (z_adj.Contains(c)) return true;
  }
  return false;
}

// Why SavingUpperBound is admissible. EvaluateInto yields
//   cost_after = cost_before + 2 - R,   R = R_within + sum_C R_C,
// where R_within (Case 1) and R_C (the cross bucket of adjacent root C)
// are each re-encoding's drop in edge count, 0 when the old edges are
// kept. Any U >= R therefore gives cost_after >= cost_before + 2 - U.
//  * R_within <= |old within-family edges| <= Between(a,z) + Within(a) +
//    Within(z): a family edge lies inside a, inside z or between them.
//  * Bucket C holds k_A old edges from S_a = {a} ∪ children(a) and k_Z
//    from S_z to S_C. By the invariant below they are minimum encodings of
//    coverages t_A and t_Z with entries in {-1, 0, 1}. Every encoding E of
//    t_A + t_Z over the merged universe then has |E| >= max(k_A, k_Z), so
//    R_C = k_A + k_Z - |E| <= min(k_A, k_Z): a one-sided bucket never
//    shrinks. (Map each edge (M, c) of E to (a, c), same coverage on a's
//    units, and drop z's edges: what is left encodes t_A, unless (M, c)
//    and (a, c) collide. The collisions cannot help for coverages in
//    {-1, 0, 1}; SavingBound.CrossBucketLemmaHoldsExhaustively checks that
//    over every Case-2 shape. With a coverage of 2 the claim is false:
//    (M, C) + (a, C) covers a twice and z once in two edges, while a alone
//    needs three.)
//  * k_X(C) <= RootAdjacency(X)[C], which counts every tree-to-tree edge.
// Invariant: the edges between the top bands of any two roots are a
// minimum encoding of their coverage, and that coverage is in {-1, 0, 1}
// on every class. It holds on the trivial summary (one edge per leaf
// pair). Commit keeps minimality: every bucket with >= 2 edges is
// re-solved exactly (kept old edges tie the optimum, so they are minimum
// too), a single edge is always minimum, and a subset of a minimum
// encoding is minimum over its own slots, so the part that lands in the
// new top band {M, a, z} x S_C stays minimum. EvaluateInto checks that
// part's coverage. A plan that gives up on a bucket or leaves a coverage
// outside {-1, 0, 1} clears MergePlan::keeps_bound_invariant, and its
// Commit switches the bound off for the rest of the run.
// With after_lb = max(0, before + 2 - U) <= cost_after, the bound below is
// the same double expression as EvaluateInto's saving, and correctly
// rounded division is monotone, so saving <= bound holds exactly.
double MergePlanner::SavingUpperBound(SupernodeId z) const {
  assert(scan_root_ != kInvalidId && z != scan_root_);
  if (!state_->saving_bound_valid()) {
    return std::numeric_limits<double>::infinity();
  }
  const SupernodeId a = scan_root_;
  const FlatCountMap& z_adj = state_->RootAdjacency(z);
  uint64_t between = 0;
  uint64_t shared = 0;  // sum over common C of min(cnt_a(C), cnt_z(C))
  if (z_adj.size() <= scan_adj_count_) {
    z_adj.ForEach([&](SupernodeId c, uint32_t cnt_z) {
      if (mark_epoch_[c] != epoch_) return;
      if (c == a) {
        between = cnt_z;
      } else {
        shared += std::min(scan_cnt_[c], cnt_z);
      }
    });
  } else {
    for (uint32_t i = 1; i < scan_adj_count_; ++i) {  // [0] is a itself
      SupernodeId c = scan_adj_[i];
      if (c == z) {
        between = scan_cnt_[c];
      } else if (const uint32_t* cnt_z = z_adj.Find(c)) {
        shared += std::min(scan_cnt_[c], *cnt_z);
      }
    }
  }
  const uint64_t before = state_->HCost(a) + state_->HCost(z) +
                          state_->IncCost(a) + state_->IncCost(z) - between;
  if (before == 0) return -std::numeric_limits<double>::infinity();
  const uint64_t reducible =
      between + state_->Within(a) + state_->Within(z) + shared;
  const uint64_t after_lb = before + 2 > reducible ? before + 2 - reducible : 0;
  return 1.0 - static_cast<double>(after_lb) / static_cast<double>(before);
}

void MergePlanner::EvaluateInto(SupernodeId a, SupernodeId b, MergePlan* plan) {
  const SummaryGraph& summary = state_->summary();
  const summary::HierarchyForest& forest = summary.forest();

  plan->Reset(a, b);

  // ---- Local family table: [M, A, A1, A2, B, B1, B2]. ----
  SupernodeId concrete[7];
  concrete[kM] = MergePlan::kMergedSentinel;
  concrete[kA] = a;
  concrete[kB] = b;
  concrete[kA1] = concrete[kA2] = kInvalidId;
  concrete[kB1] = concrete[kB2] = kInvalidId;

  const auto& a_kids = forest.Children(a);
  const auto& b_kids = forest.Children(b);
  assert(a_kids.size() <= 2 && b_kids.size() <= 2 &&
         "merge phase trees are binary");
  const bool a_internal = !a_kids.empty();
  const bool b_internal = !b_kids.empty();
  if (a_internal) {
    concrete[kA1] = a_kids[0];
    concrete[kA2] = a_kids[1];
  }
  if (b_internal) {
    concrete[kB1] = b_kids[0];
    concrete[kB2] = b_kids[1];
  }

  auto local_of = [&](SupernodeId id) -> int {
    for (int l = kA; l <= kB2; ++l) {
      if (concrete[l] == id) return l;
    }
    return -1;
  };

  SideShape a_shape =
      a_internal ? InternalShape(forest.Size(a_kids[0]) == 1,
                                 forest.Size(a_kids[1]) == 1)
                 : SideShape::kLeaf;
  SideShape b_shape =
      b_internal ? InternalShape(forest.Size(b_kids[0]) == 1,
                                 forest.Size(b_kids[1]) == 1)
                 : SideShape::kLeaf;
  const Universe& case1 = GetCase1Universe(a_shape, b_shape);

  // ---- Gather within-family edges and cross buckets. ----
  int8_t target1[16];
  std::memset(target1, 0, sizeof(target1));
  old_within_.clear();
  cross_edges_.clear();
  // Unregister the previous evaluation's buckets individually: sweeping the
  // whole map would cost its high-water capacity on every evaluation.
  for (size_t bi = 0; bi < buckets_used_; ++bi) {
    bucket_of_root_.Erase(buckets_[bi].c_root);
  }
  buckets_used_ = 0;

  // Pass 1: visit incident edges once, splitting into within-family edges
  // and cross edges tallied per adjacent root (epoch-stamped counters).
  // Scratch was sized to the id bound at construction, so no capacity
  // check (and no capacity read) happens on this concurrent-safe path.
  ++eval_epoch_;

  for (int f_local = kA; f_local <= kB2; ++f_local) {
    SupernodeId f = concrete[f_local];
    if (f == kInvalidId) continue;
    summary.ForEachEdgeOf(f, [&](SupernodeId other, EdgeSign sign) {
      int o_local = local_of(other);
      if (o_local >= 0) {
        if (o_local < f_local) return;  // dedup (each family pair once)
        int slot = case1.SlotIdFor(static_cast<uint8_t>(f_local),
                                   static_cast<uint8_t>(o_local));
        assert(slot >= 0 && "existing family edge must map to a legal slot");
        uint16_t cover = case1.slots[slot].cover;
        for (int c = 0; c < case1.num_classes; ++c) {
          if (cover >> c & 1) {
            target1[c] = static_cast<int8_t>(target1[c] + sign);
          }
        }
        old_within_.push_back({f, other, sign});
        return;
      }
      // Cross edge: classify against the other endpoint's tree. The
      // compression-free root lookup keeps evaluation read-only (shared
      // across concurrent evaluation threads).
      SupernodeId c_root = state_->FindRootConst(other);
      if (c_root == a || c_root == b) return;  // deep in merged tree: fixed
      if (!state_->InTopBand(other, c_root)) return;  // deep on C side: fixed
      if (root_stamp_[c_root] != eval_epoch_) {
        root_stamp_[c_root] = eval_epoch_;
        root_count_[c_root] = 1;
      } else {
        ++root_count_[c_root];
      }
      cross_edges_.push_back(
          {c_root, other, static_cast<uint8_t>(f_local), sign});
    });
  }

  // Pass 2: materialize buckets only for roots with >= 2 re-encodable
  // edges. A single-edge bucket can never improve (any nonzero target
  // costs at least one edge), so it is kept as-is at zero cost delta.
  for (const CrossEdge& ce : cross_edges_) {
    if (root_count_[ce.c_root] < 2) continue;
    uint32_t* idx = bucket_of_root_.Find(ce.c_root);
    Bucket* bucket;
    if (idx == nullptr) {
      bucket_of_root_.Put(ce.c_root, static_cast<uint32_t>(buckets_used_));
      if (buckets_used_ == buckets_.size()) buckets_.emplace_back();
      bucket = &buckets_[buckets_used_++];
      bucket->c_root = ce.c_root;
      const auto& c_kids = forest.Children(ce.c_root);
      assert(c_kids.size() <= 2);
      bucket->c_internal = !c_kids.empty();
      bucket->c_nodes[0] = ce.c_root;
      bucket->c_nodes[1] = bucket->c_internal ? c_kids[0] : kInvalidId;
      bucket->c_nodes[2] = bucket->c_internal ? c_kids[1] : kInvalidId;
      std::memset(bucket->target, 0, sizeof(bucket->target));
      std::memset(bucket->kept_top, 0, sizeof(bucket->kept_top));
      bucket->old_edges.clear();
    } else {
      bucket = &buckets_[*idx];
    }

    int c_pos = ce.other == bucket->c_nodes[0]   ? 0
                : ce.other == bucket->c_nodes[1] ? 1
                                                 : 2;
    assert(c_pos != 2 || ce.other == bucket->c_nodes[2]);
    uint8_t mmask = MSideUnitMask(ce.f_local, a_internal, b_internal);
    uint8_t cmask = CSideUnitMask(c_pos, bucket->c_internal);
    for (int mi = 0; mi < 4; ++mi) {
      if (!(mmask >> mi & 1)) continue;
      for (int cj = 0; cj < 2; ++cj) {
        if (!(cmask >> cj & 1)) continue;
        int cls = Case2ClassIndex(mi, cj);
        bucket->target[cls] = static_cast<int8_t>(bucket->target[cls] + ce.sign);
      }
    }
    if (ce.f_local == kA || ce.f_local == kB) {
      AddTopCoverage(ce.f_local == kA ? 0b01 : 0b10, cmask, ce.sign,
                     bucket->kept_top);
    }
    bucket->old_edges.push_back({concrete[ce.f_local], ce.other, ce.sign});
  }

  // ---- Solve within-family (Case 1). ----
  uint64_t removed_total = 0;
  uint64_t added_total = 0;

  const SolvedEncoding& solved1 = memo_->Solve(case1, target1);
  if (solved1.feasible && solved1.edges.size() < old_within_.size()) {
    removed_total += old_within_.size();
    added_total += solved1.edges.size();
    for (const auto& e : old_within_) plan->removes.emplace_back(e.x, e.y);
    for (auto [slot, sign] : solved1.edges) {
      const Slot& s = case1.slots[slot];
      plan->adds.push_back({concrete[s.p], concrete[s.q], sign});
    }
  }
  // else: keep the old within-family edges (equal cost, less churn).

  // ---- Solve each cross bucket (Case 2). ----
  for (size_t bi = 0; bi < buckets_used_; ++bi) {
    const Bucket& bucket = buckets_[bi];
    const Universe& case2 =
        GetCase2Universe(a_internal, b_internal, bucket.c_internal);
    const SolvedEncoding& solved2 = memo_->Solve(case2, bucket.target);
    if (!solved2.feasible) plan->keeps_bound_invariant = false;
    if (solved2.feasible && solved2.edges.size() < bucket.old_edges.size()) {
      removed_total += bucket.old_edges.size();
      added_total += solved2.edges.size();
      for (const auto& e : bucket.old_edges) {
        plan->removes.emplace_back(e.x, e.y);
      }
      int8_t top[4] = {0, 0, 0, 0};
      for (auto [slot, sign] : solved2.edges) {
        const Slot& s = case2.slots[slot];
        plan->adds.push_back(
            {concrete[s.p], bucket.c_nodes[s.q - kC], sign});
        if (s.p == kM || s.p == kA || s.p == kB) {
          AddTopCoverage(s.p == kM ? 0b11 : s.p == kA ? 0b01 : 0b10,
                         CSideUnitMask(s.q - kC, bucket.c_internal), sign,
                         top);
        }
      }
      if (!CoverageAtMostOnce(top)) plan->keeps_bound_invariant = false;
    } else if (!CoverageAtMostOnce(bucket.kept_top)) {
      plan->keeps_bound_invariant = false;
    }
  }

  // ---- Costs and saving (Eq. 8). ----
  uint64_t h_a = state_->HCost(a);
  uint64_t h_b = state_->HCost(b);
  uint64_t between_ab = state_->Between(a, b);
  uint64_t p_before = state_->IncCost(a) + state_->IncCost(b) - between_ab;

  plan->cost_before = h_a + h_b + p_before;
  plan->cost_after = h_a + h_b + 2 + p_before - removed_total + added_total;
  plan->valid = true;
  if (plan->cost_before == 0) {
    plan->saving = -std::numeric_limits<double>::infinity();
  } else {
    plan->saving = 1.0 - static_cast<double>(plan->cost_after) /
                             static_cast<double>(plan->cost_before);
  }
}

SupernodeId MergePlanner::Commit(const MergePlan& plan) {
  assert(plan.valid);
  if (!plan.keeps_bound_invariant) state_->InvalidateSavingBound();
  for (const auto& [x, y] : plan.removes) {
    EdgeSign sign = state_->RemoveEdge(x, y);
    assert(sign != 0 && "plan is stale: edge to remove is absent");
    (void)sign;
  }
  SupernodeId m = state_->MergeRoots(plan.a, plan.b);
  for (const auto& e : plan.adds) {
    SupernodeId x = e.x == MergePlan::kMergedSentinel ? m : e.x;
    SupernodeId y = e.y == MergePlan::kMergedSentinel ? m : e.y;
    state_->AddEdge(x, y, e.sign);
  }
  return m;
}

}  // namespace slugger::core
