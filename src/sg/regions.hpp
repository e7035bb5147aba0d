// Excitation, quiescent and trigger regions (Definitions 5-7, Properties
// 1-2 of the paper).
//
// For a non-input signal a:
//  * an excitation region ER(*a_i) is a maximal connected set of states in
//    which a has the same value and is excited;
//  * the quiescent region QR(*a_i) is the maximal connected set of states
//    forward-reachable from ER(*a_i) in which a keeps its new value and is
//    stable;
//  * a trigger region TR(*a) is a minimal connected subset of ER(*a) that,
//    once entered, can only be left by firing *a.  In graph terms these are
//    exactly the bottom (terminal) strongly connected components of the
//    subgraph of ER(*a) induced by the arcs that do not fire *a.
#pragma once

#include <string>
#include <vector>

#include "sg/state_graph.hpp"

namespace nshot::sg {

/// One excitation region ER(*a_i) with its quiescent region and trigger
/// regions.
struct ExcitationRegion {
  SignalId signal = -1;
  bool rising = true;  // true: ER(+a) (a == 0 excited), false: ER(-a)
  std::vector<StateId> states;                      // the ER itself
  std::vector<StateId> quiescent;                   // QR(*a_i)
  std::vector<std::vector<StateId>> trigger_regions;  // bottom SCCs of the ER

  /// Single traversal (Definition 9) restricted to this region: every
  /// trigger region contains exactly one state.
  bool single_traversal() const;
};

/// All regions of one non-input signal.
struct SignalRegions {
  SignalId signal = -1;
  std::vector<ExcitationRegion> regions;  // up and down regions, all indices

  std::string to_string(const StateGraph& sg) const;
};

/// Compute the regions of non-input signal `a` over its word-packed value
/// and excitation planes.  The ordered std::set / std::map formulation it
/// replaced is the test-only oracle sg::reference::compute_regions
/// (tests/oracles/sg_reference.hpp), which must give the same to_string.
SignalRegions compute_regions(const StateGraph& sg, SignalId a);

/// Regions of every non-input signal, in signal order.  The value and
/// excitation bit planes of every signal are built once in a shared
/// sweep, then each signal's word-parallel flood runs over its own planes
/// in a serial loop.
std::vector<SignalRegions> compute_all_regions(const StateGraph& sg);

/// Definition 9: the SG is single traversal iff every trigger region of
/// every non-input signal contains exactly one state.
bool is_single_traversal(const StateGraph& sg);

/// Property 1 checker: from inside an ER(*a), the only arcs leaving the ER
/// fire *a.  Holds for semi-modular SGs with input choices; verified
/// explicitly by the test-suite.
bool verify_output_trapping(const StateGraph& sg, const ExcitationRegion& er);

/// Property 2 checker: from every state of the ER some trigger region is
/// reachable without firing *a.
bool verify_trigger_reachability(const StateGraph& sg, const ExcitationRegion& er);

}  // namespace nshot::sg
