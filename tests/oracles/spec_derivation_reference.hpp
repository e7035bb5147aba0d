// Reference oracle for the set/reset spec derivation (test-only; no
// production binary links it).
//
// derive_spec as nshot/spec_derivation.cpp built it before code-order
// derivation: states are classified one at a time in state order, every
// code is pushed onto its lists, and the lists are then sorted,
// deduplicated and checked for F ∩ R by binary search.  derive_spec must
// produce the same lists and fail with the same message.
#pragma once

#include <cstdint>
#include <vector>

#include "sg/state_graph.hpp"

namespace nshot::core::reference {

/// The on- and off-lists of every output, indexed like DerivedSpec's
/// joint spec (set function of the k-th non-input signal at 2k, reset
/// function at 2k+1).
struct SpecLists {
  std::vector<std::vector<std::uint64_t>> on;
  std::vector<std::vector<std::uint64_t>> off;
};

/// Throws nshot::Error ("minterm <code> is in both F and R of output <o>")
/// when CSC is violated.
SpecLists derive_spec_lists(const sg::StateGraph& sg);

}  // namespace nshot::core::reference
