// Exact solver for the minimum signed coverage-matching problem.
//
// Given a Universe and an integer target per active class, find the
// smallest set of signed slots whose summed coverage equals the target on
// every active class. This is the exhaustive search the paper performs once
// per input case and memoizes (§III-B3 "Memoization").
#ifndef SLUGGER_CORE_ENCODING_SOLVER_HPP_
#define SLUGGER_CORE_ENCODING_SOLVER_HPP_

#include <cstdint>
#include <vector>

#include "core/encoding_universe.hpp"

namespace slugger::core {

/// A solved minimum encoding: slot ids with signs, or infeasible.
struct SolvedEncoding {
  bool feasible = false;
  std::vector<std::pair<uint8_t, int8_t>> edges;  ///< (slot id, +1/-1)
  int cost() const { return static_cast<int>(edges.size()); }
};

/// Default search-expansion cap of one solve.
inline constexpr uint64_t kDefaultNodeBudget = 1u << 20;

/// Exactly solves the instance via iterative-deepening DFS with a
/// max-residual lower bound. `target` has one entry per universe class
/// (entries on inactive classes must be 0). `node_budget` caps search
/// expansions; on exhaustion the result is marked infeasible (the caller
/// falls back to keeping the old encoding, which is always valid).
SolvedEncoding SolveMinimumEncoding(const Universe& universe,
                                    const int8_t* target,
                                    uint64_t node_budget = kDefaultNodeBudget);

/// Brute-force reference solver (subset enumeration over signed slots),
/// exponential; only for small universes in tests.
SolvedEncoding SolveByBruteForce(const Universe& universe, const int8_t* target,
                                 int max_cost);

}  // namespace slugger::core

#endif  // SLUGGER_CORE_ENCODING_SOLVER_HPP_
