// ESPRESSO-style heuristic two-level minimization.
//
// The paper's central practical point (Section IV-A, step 5) is that the
// set/reset SOP networks of the N-SHOT architecture can be produced by *any*
// conventional multi-output two-level minimizer, with the don't-care set
// used freely and product terms shared between functions.  This module
// provides that minimizer: the classic EXPAND / IRREDUNDANT / REDUCE loop
// over the positional-cube representation, generalized to multiple outputs
// (the output part of a cube participates in expansion and reduction, which
// yields AND-gate sharing across set/reset functions of different signals).
//
// The on-set and off-set are explicit minterm lists (reachable states of
// the state graph); everything else is an implicit don't care.  EXPAND
// checks validity on bit planes over the off-codes (logic/bitslice), so
// one pass over a cube's literals decides every candidate raise at once.
#pragma once

#include "logic/cover.hpp"
#include "logic/spec.hpp"

namespace nshot::logic {

/// Tuning knobs for the heuristic minimizer.
struct EspressoOptions {
  /// Maximum number of EXPAND/IRREDUNDANT/REDUCE iterations.
  int max_iterations = 4;
  /// Allow raising output parts (product-term sharing across outputs).
  bool share_outputs = true;
};

/// Result cost, ordered lexicographically (cubes, then literals).
struct CoverCost {
  std::size_t cubes = 0;
  int literals = 0;

  friend bool operator<(const CoverCost& a, const CoverCost& b) {
    if (a.cubes != b.cubes) return a.cubes < b.cubes;
    return a.literals < b.literals;
  }
  friend bool operator==(const CoverCost& a, const CoverCost& b) = default;
};

CoverCost cost_of(const Cover& cover);

/// Minimize `spec` heuristically.  The returned cover satisfies
/// F ⊆ cover and cover ∩ R = ∅ for every output (see verify.hpp).  A
/// normalized spec is read in place; any other is minimized through a
/// normalized copy.
Cover espresso(const TwoLevelSpec& spec, const EspressoOptions& options = {});

// The steps below take a normalized spec (TwoLevelSpec::normalized());
// they throw nshot::Error on any other.

/// The starting cover: with sharing, one minterm cube per distinct
/// on-minterm feeding every output it is on for; without, one per
/// (minterm, output) pair.
Cover espresso_initial_cover(const TwoLevelSpec& spec, bool share_outputs);

/// EXPAND step: enlarge each cube to a prime-like maximal valid cube,
/// dropping cubes that become contained in an expanded one.
void espresso_expand(Cover& cover, const TwoLevelSpec& spec, bool share_outputs);

/// IRREDUNDANT step: remove cubes not needed to cover the on-set.
void espresso_irredundant(Cover& cover, const TwoLevelSpec& spec);

/// REDUCE step: shrink each cube to the supercube of the on-minterms only
/// it covers, enabling the next EXPAND to escape local minima.
void espresso_reduce(Cover& cover, const TwoLevelSpec& spec);

}  // namespace nshot::logic
