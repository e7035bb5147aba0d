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
#pragma once

#include "sg/state_graph.hpp"
#include "stg/stg.hpp"

namespace nshot::stg {

struct ReachabilityOptions {
  /// Abort if the marking graph exceeds this many states.
  std::size_t max_states = 1u << 20;
  /// Track visited markings in ordered std::map and fire transitions by
  /// place-at-a-time loops instead of the hashed-map + mask-compiled word
  /// firing hot path — for kernel equivalence tests and benchmarking only.
  /// State numbering follows BFS discovery order (queue-driven, never map
  /// iteration order) and the mask kernel falls back to the loop firing on
  /// 1-safety violations for identical diagnostics, so both paths build
  /// identical graphs and throw identical errors.
  bool reference_maps = false;
};

/// Infer the initial signal values (declared values win; otherwise first
/// firing polarity).  Throws if a signal never fires and has no declared
/// value.
std::vector<bool> infer_initial_values(const Stg& stg, const ReachabilityOptions& options = {});

/// Build the reachable state graph.  Input signals of the STG become SG
/// input signals; output and internal signals become SG non-input signals.
sg::StateGraph build_state_graph(const Stg& stg, const ReachabilityOptions& options = {});

/// Liveness diagnostic: transitions that never fire in the reachability
/// graph (empty = every transition is fireable at least once).
std::vector<TransitionId> dead_transitions(const Stg& stg,
                                           const ReachabilityOptions& options = {});

}  // namespace nshot::stg
