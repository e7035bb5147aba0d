// Explicit fault models for stress-testing synthesized netlists (the
// regimes the paper's robustness claim quantifies over, pushed past their
// margins on purpose):
//
//  * stuck-at-0/1 on a chosen net — a broken wire or dead transistor; on
//    an acknowledgement (enable) rail this starves or floods the MHS
//    flip-flop's effective excitations;
//  * glitch pulses injected on SOP nets with widths swept around the MHS
//    threshold ω — sub-threshold pulses must be absorbed (Figure 5),
//    super-threshold pulses fire the flip-flop and, when the specification
//    does not enable the transition, surface as an external hazard;
//  * per-gate delay outliers pushed beyond the library [min, max] interval
//    — a marginal cell slower or faster than its characterization;
//  * delay-line shaving — t_del under-compensation that removes the Eq. 1
//    slack the acknowledgement scheme relies on (Section IV-C).
//
// A FaultScenario bundles one delay assignment with a set of faults; it is
// the unit the adversarial search perturbs and the counterexample
// minimizer shrinks.
#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sg/state_graph.hpp"
#include "sim/conformance.hpp"

namespace nshot::sim {
class VcdRecorder;
class TrialRunner;  // sim/trial_runner.hpp
}

namespace nshot::faults {

enum class FaultKind {
  kStuckAt,       // pin `net` to `value` for the whole run
  kGlitch,        // force `net` to `value` at `time`, release after `width`
  kDelayOutlier,  // set gate `gate`'s delay to `delay` (outside the library interval)
  kDelayShave,    // set delay line `gate`'s delay to `delay` (< the Eq. 1 requirement)
};

const char* fault_kind_name(FaultKind kind);

struct Fault {
  FaultKind kind = FaultKind::kStuckAt;
  netlist::NetId net = -1;    // kStuckAt / kGlitch target
  netlist::GateId gate = -1;  // kDelayOutlier / kDelayShave target
  bool value = false;         // forced value (stuck-at level, glitch polarity)
  double time = 0.0;          // glitch start time
  double width = 0.0;         // glitch width
  double delay = 0.0;         // overridden delay
};

std::string describe_fault(const Fault& fault, const netlist::Netlist& circuit);

/// One fully specified perturbed run.  An empty `delays` vector means the
/// per-gate delays are sampled from `seed` exactly like a conformance
/// sweep run; a non-empty vector pins them (one entry per gate).  `seed`
/// always drives the environment stream.
struct FaultScenario {
  std::uint64_t seed = 1;
  std::vector<double> delays;
  std::vector<Fault> faults;
};

/// Closed-loop run parameters shared by every fault-harness evaluation.
struct ScenarioOptions {
  int max_transitions = 200;
  double input_delay_min = 0.1;
  double input_delay_max = 12.0;
  double time_limit = 1e6;
  /// Faulty circuits can oscillate; the budget converts unbounded event
  /// queues into a structured kEventBudget violation.
  std::uint64_t max_events = 2'000'000;
};

/// Lower a scenario onto a closed-loop run configuration (forces, timed
/// injections, delay overrides, event budget).  Callers may still attach
/// observers/probes to the returned config before running it.
sim::ClosedLoopConfig to_config(const FaultScenario& scenario, const ScenarioOptions& options);
/// to_config with `delays` moved in as the explicit delay assignment in
/// place of a copy of scenario.delays (callers that pin a materialized
/// vector skip one copy of it).
sim::ClosedLoopConfig to_config(const FaultScenario& scenario, const ScenarioOptions& options,
                                std::vector<double> delays);

/// Run one scenario of `circuit` against `spec` on the reference trial
/// (sim::run_closed_loop) — the thin wrapper one-off runs (tests, benches)
/// use.
sim::ConformanceReport run_scenario(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                                    const FaultScenario& scenario,
                                    const ScenarioOptions& options,
                                    sim::VcdRecorder* recorder = nullptr);

/// The same scenario on `runner` (sim/trial_runner.hpp) against
/// runner.compiled().
sim::ConformanceReport run_scenario(const sg::StateGraph& spec, const sim::SpecBinding& binding,
                                    const FaultScenario& scenario,
                                    const ScenarioOptions& options, sim::TrialRunner& runner,
                                    sim::VcdRecorder* recorder = nullptr);

/// The per-gate delay assignment `scenario` denotes, materialized: the
/// explicit vector if given (else the one sampled from the seed through
/// the compiled netlist's DelaySpace), with the delay faults applied on
/// top.  Matches what the simulator will use gate by gate.
std::vector<double> materialize_delays(const sim::CompiledNetlist& compiled,
                                       const FaultScenario& scenario);

/// Under-compensation variant: every delay line's instance delay zeroed
/// (t_del = 0 even where Eq. 1 computed a positive requirement).
netlist::Netlist strip_delay_compensation(const netlist::Netlist& circuit);

/// Under-compensation variant for circuits that never needed a delay line:
/// deepen the set SOP of `signal` with a buffer chain of `levels` gates.
/// Eq. 1 for the deepened netlist requires t_del > 0, but no compensation
/// is inserted — trespassing set pulses become reachable once gate delays
/// drift past the library interval.
netlist::Netlist deepen_set_path(const netlist::Netlist& circuit, const std::string& signal,
                                 int levels);

}  // namespace nshot::faults
