// Reference oracle for the state-graph property checkers (test-only; no
// production binary links it).
//
// The semi-modularity check as sg/properties.cpp ran it before the
// edge-driven diamond scan: per state it collects the enabled labels,
// then resolves all four corners of every (t1, t2) diamond through
// StateGraph::successor.  check_semi_modular must return the same
// violations, element for element.
#pragma once

#include "sg/properties.hpp"
#include "sg/state_graph.hpp"

namespace nshot::sg::reference {

/// Definition 2 by label lookups; same violation strings and order as
/// sg::check_semi_modular.
PropertyReport check_semi_modular(const StateGraph& sg);

}  // namespace nshot::sg::reference
