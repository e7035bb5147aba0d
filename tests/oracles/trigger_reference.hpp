// Reference oracle for the trigger-requirement check (test-only; no
// production binary links it).
//
// nshot/trigger.cpp decides trigger-cube membership with one
// supercube-containment test per cube.  The oracle is the formulation it
// replaced: a cube is a trigger cube iff it feeds the output and covers
// every state code of the trigger region, checked one code at a time.
// core::enforce_trigger_requirement must make the same repair decisions
// and leave the same cover.
#pragma once

#include <cstdint>
#include <vector>

#include "logic/cover.hpp"
#include "nshot/trigger.hpp"

namespace nshot::core::reference {

/// True if some single cube of `cover` feeding output `output` covers every
/// code in `codes`.
bool has_trigger_cube(const logic::Cover& cover, int output,
                      const std::vector<std::uint64_t>& codes);

/// core::enforce_trigger_requirement with has_trigger_cube as the
/// membership test.
TriggerReport enforce_trigger_requirement(const sg::StateGraph& sg,
                                          const std::vector<sg::SignalRegions>& regions,
                                          const DerivedSpec& derived, logic::Cover& cover);

}  // namespace nshot::core::reference
