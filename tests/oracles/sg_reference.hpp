// Reference oracles for the state-graph analysis kernels (test-only; no
// production binary links them).
//
// Each is the formulation sg/properties.cpp or sg/regions.cpp ran before
// the word-parallel / sorted-vector rewrite, kept as it ran then:
//  * check_semi_modular: per state it collects the enabled labels, then
//    resolves all four corners of every (t1, t2) diamond through
//    StateGraph::successor;
//  * check_csc / count_csc_conflicts / check_usc: codes grouped through
//    std::map;
//  * detonant_states: per-state out-edge scans with a std::set of
//    exciting successors;
//  * compute_regions: per-state member scan, std::map grouping of the
//    union-find components, a std::set QR flood, and a frozen copy of the
//    union-find and Tarjan bottom-SCC step.
// The production kernels must return the same reports, element for
// element (compute_regions: the same SignalRegions::to_string).
#pragma once

#include <vector>

#include "sg/properties.hpp"
#include "sg/regions.hpp"
#include "sg/state_graph.hpp"

namespace nshot::sg::reference {

/// Definition 2 by label lookups; same violation strings and order as
/// sg::check_semi_modular.
PropertyReport check_semi_modular(const StateGraph& sg);

/// Definition 1 over a std::map from code to states; same violations and
/// order as sg::check_csc.
PropertyReport check_csc(const StateGraph& sg);

/// check_csc's grouping, counting only; equals sg::count_csc_conflicts
/// (and so csc::csc_conflict_count, the CSC solver's conflict counter).
std::size_t count_csc_conflicts(const StateGraph& sg);

/// First-occurrence scan over a std::map from code to state; same
/// violations and order as sg::check_usc.
PropertyReport check_usc(const StateGraph& sg);

/// Definition 3 by per-state out-edge scans; equals
/// sg::detonant_states(sg, a).
std::vector<StateId> detonant_states(const StateGraph& sg, SignalId a);

/// Definitions 5-7 over ordered containers; equals
/// sg::compute_regions(sg, a) (and entry k of sg::compute_all_regions for
/// the k-th non-input signal) by to_string.
SignalRegions compute_regions(const StateGraph& sg, SignalId a);

}  // namespace nshot::sg::reference
