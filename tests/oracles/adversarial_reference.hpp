// Reference oracle for the adversarial delay search (test-only; no
// production binary links it).
//
// The hill climb as faults/adversarial.cpp ran it before the exact
// proposal memo: every proposal, including a no-op corner snap or a
// vector the restart already scored, runs a full closed-loop trial.
// Restarts run serially in restart order and stop after the first
// violating one — the rule the production merge reproduces for every jobs
// value — so adversarial_delay_search must return a byte-identical
// AdversarialResult for every options.jobs.
#pragma once

#include "faults/adversarial.hpp"

namespace nshot::faults::reference {

/// The un-memoized climb, on the TrialRunner.
AdversarialResult adversarial_delay_search(const sg::StateGraph& spec,
                                           const netlist::Netlist& circuit,
                                           const AdversarialOptions& options);

}  // namespace nshot::faults::reference
