// Complete State Coding enforcement by internal state-signal insertion.
//
// The N-SHOT flow requires CSC — the minimal property needed to derive
// unambiguously consistent logic (Sections I, V).  The paper's benchmarks
// were "already transformed to satisfy the CSC property" by the state-graph
// transformation framework of the same group [6, 18]; this module provides
// that preprocessing step for STG inputs: when two reachable states share a
// binary code but disagree on their excited non-input signals, an internal
// toggle signal is spliced into the net to tell the phases apart.
//
// The insertion primitive serializes a fresh internal signal z behind two
// chosen transitions: z+ fires immediately after t_plus, z- immediately
// after t_minus.  In a live 1-safe net where t_plus and t_minus alternate,
// the result is again live, 1-safe and consistent, and z+ (a non-input
// transition with a private preset place) can never be disabled, so
// semi-modularity is preserved.  The solver searches transition pairs,
// keeps any insertion that strictly reduces the number of CSC conflicts
// while preserving all other implementability properties, and repeats
// until the graph is CSC-clean or the signal budget is exhausted.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sg/state_graph.hpp"
#include "stg/stg.hpp"

namespace nshot::csc {

struct CscSolveOptions {
  int max_signals = 4;            // insertion budget
  std::size_t max_states = 1u << 18;
};

struct CscSolveResult {
  stg::Stg transformed;              // the STG with inserted signals
  sg::StateGraph graph;              // its CSC-clean state graph
  int signals_added = 0;
  std::vector<std::string> insertions;  // e.g. "csc0: + after a+, - after b-"
};

/// Splice internal toggle `name` into the net: z+ immediately after
/// `after_plus`, z- immediately after `after_minus` (both transition ids
/// of `source`).  Purely structural; the caller re-checks semantics.
stg::Stg insert_toggle(const stg::Stg& source, stg::TransitionId after_plus,
                       stg::TransitionId after_minus, const std::string& name);

/// Count the CSC conflicts of a state graph (0 = CSC holds).
int csc_conflict_count(const sg::StateGraph& graph);

/// Resolve CSC violations of `source` by repeated toggle insertion.
/// Returns std::nullopt if no sequence of at most max_signals insertions
/// found by the greedy search removes every conflict.
std::optional<CscSolveResult> solve_csc(const stg::Stg& source,
                                        const CscSolveOptions& options = {});

}  // namespace nshot::csc
