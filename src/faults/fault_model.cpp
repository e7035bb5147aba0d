#include "faults/fault_model.hpp"

#include <algorithm>

#include "netlist/transform.hpp"
#include "sim/delay_space.hpp"
#include "sim/trial_runner.hpp"
#include "sim/vcd.hpp"
#include "util/error.hpp"

namespace nshot::faults {

using gatelib::GateType;
using netlist::Gate;
using netlist::GateId;
using netlist::NetId;

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kStuckAt: return "stuck-at";
    case FaultKind::kGlitch: return "glitch";
    case FaultKind::kDelayOutlier: return "delay-outlier";
    case FaultKind::kDelayShave: return "delay-shave";
  }
  return "unknown";
}

std::string describe_fault(const Fault& fault, const netlist::Netlist& circuit) {
  switch (fault.kind) {
    case FaultKind::kStuckAt:
      return "stuck-at-" + std::string(fault.value ? "1" : "0") + " on net " +
             circuit.net_name(fault.net);
    case FaultKind::kGlitch:
      return "glitch to " + std::string(fault.value ? "1" : "0") + " on net " +
             circuit.net_name(fault.net) + " at t=" + std::to_string(fault.time) +
             " width=" + std::to_string(fault.width);
    case FaultKind::kDelayOutlier:
      return "delay outlier on gate " + circuit.gate(fault.gate).name + " (delay " +
             std::to_string(fault.delay) + ")";
    case FaultKind::kDelayShave:
      return "delay line " + circuit.gate(fault.gate).name + " shaved to " +
             std::to_string(fault.delay);
  }
  return "unknown fault";
}

sim::ClosedLoopConfig to_config(const FaultScenario& scenario, const ScenarioOptions& options) {
  return to_config(scenario, options, scenario.delays);
}

sim::ClosedLoopConfig to_config(const FaultScenario& scenario, const ScenarioOptions& options,
                                std::vector<double> delays) {
  sim::ClosedLoopConfig config;
  config.sim.seed = scenario.seed;
  config.sim.randomize_delays = true;
  config.sim.explicit_delays = std::move(delays);
  config.sim.max_events = options.max_events;
  config.max_transitions = options.max_transitions;
  config.input_delay_min = options.input_delay_min;
  config.input_delay_max = options.input_delay_max;
  config.time_limit = options.time_limit;

  for (const Fault& fault : scenario.faults) {
    switch (fault.kind) {
      case FaultKind::kStuckAt:
        config.forces.emplace_back(fault.net, fault.value);
        break;
      case FaultKind::kGlitch:
        config.injections.push_back(
            sim::TimedInjection{fault.time, fault.net, /*release=*/false, fault.value});
        config.injections.push_back(
            sim::TimedInjection{fault.time + fault.width, fault.net, /*release=*/true, false});
        break;
      case FaultKind::kDelayOutlier:
      case FaultKind::kDelayShave:
        config.sim.delay_overrides.emplace_back(fault.gate, fault.delay);
        break;
    }
  }
  std::stable_sort(config.injections.begin(), config.injections.end(),
                   [](const sim::TimedInjection& a, const sim::TimedInjection& b) {
                     return a.time < b.time;
                   });
  return config;
}

sim::ConformanceReport run_scenario(const sg::StateGraph& spec, const sim::SpecBinding& binding,
                                    const FaultScenario& scenario,
                                    const ScenarioOptions& options, sim::TrialRunner& runner,
                                    sim::VcdRecorder* recorder) {
  return runner.run(spec, binding, to_config(scenario, options), recorder);
}

std::vector<double> materialize_delays(const sim::CompiledNetlist& compiled,
                                       const FaultScenario& scenario) {
  std::vector<double> delays = scenario.delays;
  if (delays.empty()) {
    Rng rng(scenario.seed);
    delays = compiled.delay_space().sample(rng);
  }
  NSHOT_REQUIRE(delays.size() == static_cast<std::size_t>(compiled.num_gates()),
                "delay vector does not match the circuit");
  for (const Fault& fault : scenario.faults)
    if (fault.kind == FaultKind::kDelayOutlier || fault.kind == FaultKind::kDelayShave)
      delays[static_cast<std::size_t>(fault.gate)] = fault.delay;
  return delays;
}

netlist::Netlist strip_delay_compensation(const netlist::Netlist& circuit) {
  return netlist::transform_netlist(
      circuit, [](const Gate& gate, netlist::Netlist&) -> std::optional<Gate> {
        if (gate.type != GateType::kDelayLine) return gate;
        Gate zeroed = gate;
        zeroed.explicit_delay = 0.0;
        return zeroed;
      });
}

netlist::Netlist deepen_set_path(const netlist::Netlist& circuit, const std::string& signal,
                                 int levels) {
  NSHOT_REQUIRE(levels >= 1, "deepen_set_path needs at least one buffer level");
  bool found = false;
  netlist::Netlist result = netlist::transform_netlist(
      circuit,
      [&](const Gate& gate, netlist::Netlist& nl) -> std::optional<Gate> {
        if (gate.type != GateType::kMhsFlipFlop || gate.name != signal + "_mhs") return gate;
        found = true;
        NetId prev = gate.inputs[0];
        for (int i = 0; i < levels; ++i) {
          const NetId out = nl.add_net(signal + "_setdeep" + std::to_string(i));
          nl.add_gate(Gate{.type = GateType::kBuf,
                           .name = signal + "_deep" + std::to_string(i),
                           .inputs = {prev},
                           .outputs = {out}});
          prev = out;
        }
        Gate rewired = gate;
        rewired.inputs[0] = prev;
        return rewired;
      });
  NSHOT_REQUIRE(found, "deepen_set_path: no MHS flip-flop for signal " + signal);
  result.check_well_formed();
  return result;
}

}  // namespace nshot::faults
