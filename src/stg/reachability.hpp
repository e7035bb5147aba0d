// Token-flow reachability: build the state graph of a 1-safe STG.
//
// The binary code of each SG state is derived from the firing history: the
// initial value of a signal is either declared (.init) or inferred from the
// polarity of its first reachable firing (a consistent STG fires +x first
// iff x starts at 0).  Inconsistent encodings, non-1-safe nets and
// non-deterministic labellings are rejected with diagnostics.
//
// Dummy transitions are eliminated by EAGER SATURATION: whenever a dummy
// is enabled it fires immediately, and the closure over all dummy firing
// orders must converge on one dummy-quiescent marking.  This is the
// standard instantaneous-dummy abstraction; it assumes dummies are
// confusion-free (they do not compete with labelled transitions for
// tokens), and rejects non-confluent or cyclic dummy structures.
//
// Both entry points run one breadth-first sweep over a flat arena of
// packed markings: a state's id is its discovery index, so the queue is
// the id range itself, and only transitions whose first preset place is
// marked are tested.  The ordered-map traversal it replaced is the
// test-only oracle in tests/oracles/reachability_reference.hpp, which
// must build the same graphs and throw the same diagnostics.
#pragma once

#include "sg/state_graph.hpp"
#include "stg/stg.hpp"

namespace nshot::stg {

struct ReachabilityOptions {
  /// Abort if the marking graph exceeds this many states.
  std::size_t max_states = 1u << 20;
};

/// Infer the initial signal values (declared values win; otherwise first
/// firing polarity).  Throws if a signal never fires and has no declared
/// value.
std::vector<bool> infer_initial_values(const Stg& stg, const ReachabilityOptions& options = {});

/// Build the reachable state graph.  Input signals of the STG become SG
/// input signals; output and internal signals become SG non-input signals.
/// States are numbered in breadth-first discovery order from the initial
/// marking, and each state's edges follow transition id order.
sg::StateGraph build_state_graph(const Stg& stg, const ReachabilityOptions& options = {});

}  // namespace nshot::stg
