// Trigger requirement (Requirement 1, Theorem 1) checking and repair.
//
// The MHS flip-flop only fires on a pulse wider than its threshold ω.  If a
// trigger region (Definition 7) is split across several SOP cubes, the
// excitation may be a train of arbitrarily short pulses and the flip-flop
// may never fire (Theorem 1, "only if" direction).  A cover satisfies the
// trigger requirement iff every trigger region of every non-input signal is
// entirely covered by a single cube ("trigger cube", Definition 8).
//
// Single-traversal SGs (Definition 9, Corollary 1) satisfy the requirement
// for free: a one-state trigger region is always inside some cube of any
// correct cover.  For non-single-traversal SGs the repair adds, for each
// violated trigger region, the supercube of its state codes — which is the
// unique minimal candidate trigger cube; if that supercube intersects the
// off-set, no trigger cube exists and the SG provably violates the trigger
// requirement (synthesis fails with a diagnostic).
#pragma once

#include <string>
#include <vector>

#include "logic/cover.hpp"
#include "logic/spec.hpp"
#include "nshot/spec_derivation.hpp"
#include "sg/regions.hpp"
#include "sg/state_graph.hpp"

namespace nshot::core {

struct TriggerIssue {
  sg::SignalId signal = -1;
  bool rising = true;
  std::vector<sg::StateId> trigger_region;
  bool repaired = false;  // supercube added; false => unrepairable
  std::string describe(const sg::StateGraph& sg) const;
};

struct TriggerReport {
  std::vector<TriggerIssue> issues;  // only regions that needed action
  int cubes_added = 0;

  /// True when every trigger region now has a trigger cube.
  bool satisfied() const {
    for (const TriggerIssue& issue : issues)
      if (!issue.repaired) return false;
    return true;
  }
};

/// Check all trigger regions of all non-input signals against `cover` and
/// repair violations by adding supercubes where possible.  `regions` must
/// be compute_all_regions(sg).  Membership is one supercube-containment
/// test per cube; the code-at-a-time scan it replaced is the test-only
/// oracle in tests/oracles/trigger_reference.hpp.
TriggerReport enforce_trigger_requirement(const sg::StateGraph& sg,
                                          const std::vector<sg::SignalRegions>& regions,
                                          const DerivedSpec& derived, logic::Cover& cover);

}  // namespace nshot::core
