// Closed-loop conformance and external hazard-freeness checking.
//
// The environment automaton walks the state graph: it drives the circuit's
// input nets with transitions the SG currently enables (after arbitrary
// reaction delays — the paper's environment assumption), and observes every
// change of a non-input net.  A non-input change that the specification
// does not enable in the current state — including any glitch pulse — is a
// conformance violation; absence of progress while non-input transitions
// are enabled is a deadlock (e.g. an unsatisfied trigger requirement
// starving the MHS flip-flop).
//
// Internal SOP nets are expected to glitch (that is the whole point of the
// architecture); their toggle activity is reported as `internal_toggles`
// so benches can show hazardous-inside / clean-outside behaviour.
#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sg/state_graph.hpp"
#include "sim/event_sim.hpp"
#include "util/run_config.hpp"

namespace nshot::sim {

class VcdRecorder;

/// The shared seed / jobs / deadline knobs live in nshot::RunConfig; the
/// old spellings (`options.seed`, `options.jobs`, ...) are inherited
/// members and keep compiling unchanged.
struct ConformanceOptions : RunConfig {
  int runs = 20;                 // independent delay samples
  int max_transitions = 200;     // observable transitions per run
  double input_delay_min = 0.1;  // environment reaction interval
  double input_delay_max = 12.0;
  double time_limit = 1e6;
  /// Per-run event budget (0 = unbounded).  A faulty circuit can
  /// oscillate; exceeding the budget is reported as a kEventBudget
  /// violation instead of hanging the sweep.
  std::uint64_t max_events = 5'000'000;
  /// Fundamental-mode style environment: wait for the circuit to become
  /// quiescent before committing the next input (the paper's methods do
  /// NOT need this — the default environment "can react immediately" —
  /// but it is useful for comparing against fundamental-mode assumptions
  /// [20, 8]).
  bool fundamental_mode = false;
};

enum class ViolationKind {
  kHazard,       // non-input transition the spec does not enable
  kEnvironment,  // input transition the spec does not enable
  kDeadlock,     // quiescent while the spec enables a non-input transition
  kEventBudget,  // run aborted after max_events (likely oscillation)
};

const char* violation_kind_name(ViolationKind kind);

struct ConformanceViolation {
  std::uint64_t seed = 0;
  double time = 0.0;
  ViolationKind kind = ViolationKind::kHazard;
  std::string description;
};

struct ConformanceReport {
  int runs = 0;
  long external_transitions = 0;  // spec-conformant observable transitions
  long internal_toggles = 0;      // toggles on non-observable nets
  long absorbed_pulses = 0;       // sub-threshold pulses the MHS filtered
  double simulated_time = 0.0;    // total simulated time over all runs
  int deadlocks = 0;
  int budget_exhausted = 0;       // runs that hit the event budget
  std::vector<ConformanceViolation> violations;

  /// Average simulated time per observable transition (dynamic cycle-time
  /// proxy); 0 when nothing fired.
  double time_per_transition() const {
    return external_transitions > 0 ? simulated_time / external_transitions : 0.0;
  }

  bool clean() const { return violations.empty() && deadlocks == 0; }
  std::string summary() const;
};

/// Run `options.runs` randomized-delay closed-loop simulations of `circuit`
/// against `spec`.  The circuit's primary input nets must be named after
/// the SG input signals and the observable non-input nets after the SG
/// non-input signals (all synthesizers in this repository follow that
/// convention).  Trials run on sim::TrialRunner over the circuit compiled
/// with the standard gate library.
ConformanceReport check_conformance(const sg::StateGraph& spec,
                                    const netlist::Netlist& circuit,
                                    const ConformanceOptions& options = {});

/// Sweep against a pre-compiled netlist: the spec binding is resolved once
/// and trials run chunked, one TrialRunner per chunk.
ConformanceReport check_conformance(const sg::StateGraph& spec,
                                    const CompiledNetlist& compiled,
                                    const ConformanceOptions& options = {});

/// Net initial values for simulating `circuit` from the SG initial state:
/// signal rails (q and qb), const0/const1, and feedback-cut state nets.
std::vector<std::pair<netlist::NetId, bool>> initial_net_values(
    const sg::StateGraph& spec, const netlist::Netlist& circuit);

/// Name-resolved binding of a spec to a circuit.  find_net is a linear
/// scan, so resolving the signal<->net maps, initial values and observable
/// rails used to dominate short trials; a binding is computed once per
/// sweep and shared by every run against the same (spec, circuit) pair.
struct SpecBinding {
  SpecBinding(const sg::StateGraph& spec, const netlist::Netlist& circuit);

  std::vector<netlist::NetId> signal_net;  // per SG signal
  std::vector<int> net_signal;             // per net; -1 = internal
  std::vector<std::pair<netlist::NetId, bool>> initial_values;
  std::vector<netlist::NetId> observable;  // q and qb rails (toggle exclusion)

  /// Dense successor table over the spec: state x signal x polarity -> next
  /// state, -1 when the label is not enabled.  add_edge rejects duplicate
  /// labels, so the table is exactly StateGraph::successor without the
  /// per-lookup edge scan (one lookup per committed observable net event).
  int num_signals = 0;
  std::vector<sg::StateId> successor;
  sg::StateId next_state(sg::StateId s, int signal, bool rising) const {
    const std::size_t i =
        (static_cast<std::size_t>(s) * static_cast<std::size_t>(num_signals) +
         static_cast<std::size_t>(signal)) * 2 + (rising ? 1 : 0);
    return successor[i];
  }
};

/// A runtime fault action during a closed-loop run: at `time`, either pin
/// `net` to `value` (force) or un-pin it (release).  A glitch pulse is a
/// force/release pair `width` apart.
struct TimedInjection {
  double time = 0.0;
  netlist::NetId net = -1;
  bool release = false;
  bool value = false;
};

/// Full configuration of a single closed-loop run — the unit the fault
/// harness perturbs.  `check_conformance` is a seed sweep over these.
struct ClosedLoopConfig {
  /// Delay assignment (seed / explicit vector / overrides) and event
  /// budget for the run.
  SimulatorOptions sim;
  /// Environment RNG stream; 0 derives it from sim.seed (the default
  /// coupling used by the seed sweep).
  std::uint64_t env_seed = 0;
  int max_transitions = 200;
  double input_delay_min = 0.1;
  double input_delay_max = 12.0;
  double time_limit = 1e6;
  bool fundamental_mode = false;
  /// Nets pinned for the whole run immediately after initialization
  /// (stuck-at faults).
  std::vector<std::pair<netlist::NetId, bool>> forces;
  /// Timed force/release actions, interleaved with circuit events in time
  /// order (glitch injection).  Must be sorted by time.
  std::vector<TimedInjection> injections;
  /// Extra observer, invoked on every committed net change before the
  /// conformance check (margin probes and other instrumentation).
  NetObserver observer;
  /// Called once right after Simulator::initialize, before any force or
  /// event — probes capture the settled initial net values here (the
  /// observer only sees changes committed while stepping).
  std::function<void(const Simulator&)> on_initialized;
};

/// Run one closed-loop simulation (seed `seed`, randomized delays) on
/// sim::TrialRunner and return its full waveform as VCD text (see
/// sim/vcd.hpp) together with the conformance outcome.
struct TracedRun {
  std::string vcd;
  ConformanceReport report;
};
TracedRun record_vcd_trace(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                           std::uint64_t seed = 1, int max_transitions = 100);

}  // namespace nshot::sim
