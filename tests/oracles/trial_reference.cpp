#include "oracles/trial_reference.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "gatelib/gate_library.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/vcd.hpp"
#include "util/rng.hpp"

namespace nshot::sim::reference {

using netlist::NetId;

namespace {

/// One closed-loop run; appends to the report.  `sim` must be freshly
/// constructed under config.sim.  When `recorder` is given, every net
/// change (and the initial values) are captured for VCD export.
void run_once(const sg::StateGraph& spec, const SpecBinding& binding, Simulator& sim,
              const ClosedLoopConfig& config, ConformanceReport& report,
              VcdRecorder* recorder) {
  const std::uint64_t seed = config.sim.seed;
  Rng rng(env_stream(config.env_seed != 0 ? config.env_seed : seed));
  const std::vector<NetId>& signal_net = binding.signal_net;
  const std::vector<int>& net_signal = binding.net_signal;

  sg::StateId state = spec.initial();
  long run_transitions = 0;
  bool failed = false;

  NetObserver vcd_observer = recorder ? recorder->observer() : NetObserver{};
  sim.set_observer([&, vcd_observer](NetId net, bool value, double time) {
    if (vcd_observer) vcd_observer(net, value, time);
    if (config.observer) config.observer(net, value, time);
    const int x = net_signal[static_cast<std::size_t>(net)];
    if (x < 0 || failed) return;  // internal net, or already failing
    const sg::StateId next = binding.next_state(state, x, value);
    if (next >= 0) {
      state = next;
      ++run_transitions;
      return;
    }
    failed = true;
    const sg::TransitionLabel label{x, value};
    report.violations.push_back(ConformanceViolation{
        seed, time, spec.is_input(x) ? ViolationKind::kEnvironment : ViolationKind::kHazard,
        "unexpected transition " + spec.label_name(label) + " in state " +
            spec.state_name(state) + (spec.is_input(x) ? " (environment bug)" : " (hazard)")});
  });

  sim.initialize(binding.initial_values);
  if (recorder) recorder->capture_initial(sim);
  if (config.on_initialized) config.on_initialized(sim);
  for (const auto& [net, value] : config.forces) sim.force_net(net, value);

  struct InputDecision {
    sg::TransitionLabel label;
    double time;
  };
  std::optional<InputDecision> decision;
  std::size_t next_injection = 0;
  constexpr double kNever = std::numeric_limits<double>::infinity();
  std::vector<sg::TransitionLabel> choices;  // reused across decisions

  while (!failed && run_transitions < config.max_transitions &&
         sim.now() < config.time_limit && !sim.budget_exhausted()) {
    // (Re)validate or make the environment's next input decision.  A
    // stuck-at input net cannot be toggled by the environment, so labels
    // on forced nets are not offered.
    if (decision &&
        binding.next_state(state, decision->label.signal, decision->label.rising) < 0)
      decision.reset();
    if (!decision) {
      choices.clear();
      for (const sg::Edge& e : spec.out_edges(state))
        if (spec.is_input(e.label.signal) &&
            !sim.is_forced(signal_net[static_cast<std::size_t>(e.label.signal)]))
          choices.push_back(e.label);
      if (!choices.empty()) {
        const sg::TransitionLabel pick = choices[rng.next_below(choices.size())];
        decision = InputDecision{
            pick, sim.now() + rng.next_double(config.input_delay_min, config.input_delay_max)};
      }
    }

    const double event_time = sim.has_pending_events() ? sim.next_event_time() : kNever;
    double decision_time = decision ? decision->time : kNever;
    const double injection_time = next_injection < config.injections.size()
                                      ? std::max(config.injections[next_injection].time, sim.now())
                                      : kNever;

    // A due injection preempts both circuit events and the environment:
    // the fault is already present at that instant.
    if (next_injection < config.injections.size() && injection_time <= event_time &&
        injection_time <= decision_time) {
      const TimedInjection& inj = config.injections[next_injection++];
      sim.advance_time(injection_time);
      if (inj.release)
        sim.release_net(inj.net);
      else
        sim.force_net(inj.net, inj.value);
      continue;
    }

    // Fundamental mode: drain all circuit activity before the input fires.
    if (sim.has_pending_events() &&
        (!decision || config.fundamental_mode || event_time <= decision->time)) {
      sim.step();
      continue;
    }
    if (decision) {
      if (config.fundamental_mode && decision_time < sim.now())
        decision_time = sim.now();  // the circuit outlasted the planned instant
      sim.set_input(signal_net[static_cast<std::size_t>(decision->label.signal)],
                    decision->label.rising, decision_time);
      // Commit the input immediately (it is the earliest pending event) so
      // the spec state advances before the next decision is made.
      sim.step();
      decision.reset();
      continue;
    }

    // No circuit events, no injection, and no possible input: quiescent or
    // deadlocked.  Reaching here with no decision means every enabled input
    // label sits on a forced net, so an enabled input is a starved
    // environment, not a clean endpoint.
    bool output_pending = false;
    bool input_starved = false;
    for (const sg::Edge& e : spec.out_edges(state)) {
      if (!spec.is_input(e.label.signal))
        output_pending = true;
      else if (sim.is_forced(signal_net[static_cast<std::size_t>(e.label.signal)]))
        input_starved = true;
    }
    if (output_pending || input_starved) {
      ++report.deadlocks;
      report.violations.push_back(ConformanceViolation{
          seed, sim.now(), ViolationKind::kDeadlock,
          output_pending
              ? "circuit quiescent but spec state " + spec.state_name(state) +
                    " still enables a non-input transition"
              : "circuit quiescent and every transition spec state " + spec.state_name(state) +
                    " enables is an input pinned by a fault"});
    }
    break;
  }

  if (sim.budget_exhausted()) {
    ++report.budget_exhausted;
    report.violations.push_back(ConformanceViolation{
        seed, sim.now(), ViolationKind::kEventBudget,
        "event budget exhausted after " + std::to_string(sim.events_processed()) +
            " events (runaway oscillation under the current delays/faults?)"});
  }

  report.external_transitions += run_transitions;
  report.internal_toggles += sim.total_toggles_excluding(binding.observable);
  report.absorbed_pulses += sim.mhs_absorbed_pulses();
  report.simulated_time += sim.now();
}

}  // namespace

ConformanceReport run_closed_loop(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                                  const ClosedLoopConfig& config, VcdRecorder* recorder) {
  const SpecBinding binding(spec, circuit);
  const CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  Simulator sim(compiled, config.sim);
  ConformanceReport report;
  report.runs = 1;
  run_once(spec, binding, sim, config, report, recorder);
  return report;
}

ConformanceReport check_conformance(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                                    const ConformanceOptions& options) {
  ConformanceReport merged;
  merged.runs = options.runs;
  for (int r = 0; r < options.runs; ++r) {
    ClosedLoopConfig config;
    config.sim.seed = run_seed(options.seed, r);
    config.sim.randomize_delays = true;
    config.sim.max_events = options.max_events;
    config.max_transitions = options.max_transitions;
    config.input_delay_min = options.input_delay_min;
    config.input_delay_max = options.input_delay_max;
    config.time_limit = options.time_limit;
    config.fundamental_mode = options.fundamental_mode;
    const ConformanceReport one = run_closed_loop(spec, circuit, config);
    merged.external_transitions += one.external_transitions;
    merged.internal_toggles += one.internal_toggles;
    merged.absorbed_pulses += one.absorbed_pulses;
    merged.simulated_time += one.simulated_time;
    merged.deadlocks += one.deadlocks;
    merged.budget_exhausted += one.budget_exhausted;
    merged.violations.insert(merged.violations.end(), one.violations.begin(),
                             one.violations.end());
  }
  return merged;
}

}  // namespace nshot::sim::reference

namespace nshot::faults::reference {

sim::ConformanceReport run_scenario(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                                    const FaultScenario& scenario,
                                    const ScenarioOptions& options,
                                    sim::VcdRecorder* recorder) {
  return sim::reference::run_closed_loop(spec, circuit, to_config(scenario, options), recorder);
}

ProbedRun run_probed(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                     const FaultScenario& scenario, const ScenarioOptions& options) {
  const gatelib::GateLibrary& lib = gatelib::GateLibrary::standard();
  const sim::CompiledNetlist compiled(circuit, lib);
  MarginProbe probe(circuit, lib);
  sim::ClosedLoopConfig config =
      to_config(scenario, options, materialize_delays(compiled, scenario));
  config.observer = probe.observer();
  config.on_initialized = [&probe](const sim::Simulator& sim) { probe.capture_initial(sim); };
  ProbedRun run;
  run.report = sim::reference::run_closed_loop(spec, circuit, config);
  run.eq1 = eq1_margins(compiled, config.sim.explicit_delays);
  for (int k = 0; k < probe.num_cells(); ++k) {
    run.omega.push_back(probe.stats(k));
    run.min_slack = std::min(run.min_slack, probe.stats(k).min_slack());
  }
  for (const Eq1Margin& m : run.eq1) run.min_slack = std::min(run.min_slack, m.slack());
  return run;
}

}  // namespace nshot::faults::reference
