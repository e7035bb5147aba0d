// Reference oracle for the closed-loop trial (test-only; no production
// binary links it).
//
// sim::TrialRunner (sim/trial_runner.hpp) is the one production trial
// engine: a reused adaptive-queue Simulator over a compiled netlist, a
// settle cache and a burst driver loop.  The oracle is the per-trial
// driver it replaced: a fresh heap-queue Simulator built from the netlist
// for every trial, stepped one event at a time, with the spec walk in a
// per-commit observer.  TrialRunner::run must produce the same
// ConformanceReport — violation strings, simulated-time doubles, RNG draw
// sequence — and the same VCD witness bytes for every config.
#pragma once

#include "faults/fault_model.hpp"
#include "faults/margins.hpp"
#include "sim/conformance.hpp"

namespace nshot::sim::reference {

/// One closed-loop trial of `circuit` against `spec` (runs == 1).  When
/// `recorder` is non-null every net change is also captured for VCD
/// export.  Simulates with the standard gate library.
ConformanceReport run_closed_loop(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                                  const ClosedLoopConfig& config,
                                  VcdRecorder* recorder = nullptr);

/// check_conformance's seed sweep on the reference trial: trial r runs
/// under run_seed(options.seed, r), serially, merged in trial order.
ConformanceReport check_conformance(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                                    const ConformanceOptions& options);

}  // namespace nshot::sim::reference

namespace nshot::faults::reference {

/// faults::run_scenario on the reference trial.
sim::ConformanceReport run_scenario(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                                    const FaultScenario& scenario,
                                    const ScenarioOptions& options,
                                    sim::VcdRecorder* recorder = nullptr);

/// faults::run_probed on the reference trial: a fresh MarginProbe, the
/// materialized delays as the explicit assignment, Eq. 1 margins from them.
ProbedRun run_probed(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                     const FaultScenario& scenario, const ScenarioOptions& options);

}  // namespace nshot::faults::reference
