// Structural and semantic properties of state graphs (Section III-B).
//
// Every checker returns a PropertyReport listing the violations it found
// (empty = property holds), so callers can both gate synthesis and produce
// useful diagnostics.
#pragma once

#include <string>
#include <vector>

#include "sg/state_graph.hpp"

namespace nshot::sg {

struct PropertyReport {
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
  explicit operator bool() const { return ok(); }
  std::string summary() const;
};

/// Consistent state assignment: for every arc s --*x--> s', the codes of s
/// and s' differ exactly in bit x, with the polarity given by the label.
PropertyReport check_consistency(const StateGraph& sg);

/// Every state is reachable from the initial state.
PropertyReport check_reachability(const StateGraph& sg);

/// Definition 2: semi-modularity with input choices — an enabled non-input
/// transition can never be disabled: if t1 in T_O and t2 are both enabled in
/// s, both interleavings are defined and commute to the same state.
PropertyReport check_semi_modular(const StateGraph& sg);

/// Definition 1: Complete State Coding — states with equal binary codes
/// have identical sets of excited non-input signals.  Sorts the (code,
/// state) pairs once and compares excited non-input masks within each
/// duplicate-code group; serial, like every checker here.
PropertyReport check_csc(const StateGraph& sg);

/// Unique State Coding: all state codes are distinct (stronger than CSC;
/// reported for information only).
PropertyReport check_usc(const StateGraph& sg);

/// Number of CSC conflict pairs (== check_csc(sg).violations.size())
/// without materializing the diagnostic strings — the CSC solver calls
/// this in its candidate-evaluation inner loop.
std::size_t count_csc_conflicts(const StateGraph& sg);

/// Definition 3: states detonant with respect to non-input signal `a`
/// (a stable in w, excited in two or more distinct direct successors).
std::vector<StateId> detonant_states(const StateGraph& sg, SignalId a);

/// Batched Definition-3 scan over every non-input signal, indexed as
/// sg.noninput_signals(): entry i equals detonant_states(sg, signal_i)
/// exactly, but all excitation planes come from one shared graph sweep
/// instead of one whole-graph edge pass per signal.
std::vector<std::vector<StateId>> all_detonant_states(const StateGraph& sg);

/// Definition 4: the SG is distributive w.r.t. `a` iff no detonant states.
bool is_distributive(const StateGraph& sg, SignalId a);

/// Distributive with respect to every non-input signal.
bool is_distributive(const StateGraph& sg);

/// Convenience: run consistency + reachability + semi-modularity + CSC.
PropertyReport check_implementability(const StateGraph& sg);

}  // namespace nshot::sg
