// Reference oracle for STG reachability (test-only; no production binary
// links it).
//
// The traversal as stg/reachability.cpp ran it before the flat-arena
// sweep: markings are heap word vectors kept in an ordered std::map,
// transitions fire place by place, and a std::deque drives the
// breadth-first order.  stg::build_state_graph and
// stg::infer_initial_values must return the same graphs and values, and
// throw the same ErrorCode and message, on every input.
#pragma once

#include <vector>

#include "sg/state_graph.hpp"
#include "stg/reachability.hpp"
#include "stg/stg.hpp"

namespace nshot::stg::reference {

std::vector<bool> infer_initial_values(const Stg& stg, const ReachabilityOptions& options = {});

sg::StateGraph build_state_graph(const Stg& stg, const ReachabilityOptions& options = {});

/// Liveness diagnostic: transitions that never fire in the reachability
/// graph (empty = every transition is fireable at least once).
std::vector<TransitionId> dead_transitions(const Stg& stg,
                                           const ReachabilityOptions& options = {});

}  // namespace nshot::stg::reference
