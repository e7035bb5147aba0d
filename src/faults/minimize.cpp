#include "faults/minimize.hpp"

#include <utility>

#include "sim/delay_space.hpp"
#include "sim/trial_runner.hpp"
#include "sim/vcd.hpp"

namespace nshot::faults {

namespace {

/// Delta debugging is a long serial chain of scenario replays against one
/// circuit — compile once, replay every scenario through one TrialRunner.
struct Replayer {
  const sg::StateGraph& spec;
  const sim::SpecBinding binding;
  const sim::CompiledNetlist compiled;
  sim::TrialRunner runner;

  Replayer(const sg::StateGraph& spec_in, const netlist::Netlist& circuit)
      : spec(spec_in),
        binding(spec_in, circuit),
        compiled(circuit, gatelib::GateLibrary::standard()),
        runner(compiled) {}

  bool fails(const FaultScenario& scenario, const MinimizeOptions& options, long& evaluations) {
    ++evaluations;
    return !run_scenario(spec, binding, scenario, options.run, runner).clean();
  }
};

}  // namespace

MinimizedWitness minimize_counterexample(const sg::StateGraph& spec,
                                         const netlist::Netlist& circuit,
                                         const FaultScenario& scenario,
                                         const MinimizeOptions& options) {
  MinimizedWitness witness;
  Replayer replay(spec, circuit);

  // Pin the delay assignment the scenario denotes and fold delay faults
  // into it: from here on the vector is the single representation of the
  // delay perturbation, and the reset pass can shrink it gate by gate.
  FaultScenario current = scenario;
  current.delays = materialize_delays(replay.compiled, scenario);
  current.faults.clear();
  for (const Fault& fault : scenario.faults)
    if (fault.kind == FaultKind::kStuckAt || fault.kind == FaultKind::kGlitch)
      current.faults.push_back(fault);

  witness.reproduced = replay.fails(current, options, witness.evaluations);
  if (witness.reproduced) {
    // Greedy 1-minimal fault removal: drop any fault whose absence still
    // fails, repeating until a full sweep removes nothing.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i < current.faults.size();) {
        FaultScenario candidate = current;
        candidate.faults.erase(candidate.faults.begin() + static_cast<std::ptrdiff_t>(i));
        if (replay.fails(candidate, options, witness.evaluations)) {
          current = std::move(candidate);
          ++witness.faults_removed;
          changed = true;
        } else {
          ++i;
        }
      }
    }

    // Per-gate delay reset toward nominal.
    const std::vector<double> nominal = replay.compiled.delay_space().nominal_vector();
    for (int pass = 0; pass < options.delay_passes; ++pass) {
      bool reset_any = false;
      for (std::size_t g = 0; g < nominal.size(); ++g) {
        if (current.delays[g] == nominal[g]) continue;
        FaultScenario candidate = current;
        candidate.delays[g] = nominal[g];
        if (replay.fails(candidate, options, witness.evaluations)) {
          current = std::move(candidate);
          ++witness.delays_reset;
          reset_any = true;
        }
      }
      if (!reset_any) break;
    }
  }

  const std::vector<double> nominal = replay.compiled.delay_space().nominal_vector();
  for (std::size_t g = 0; g < current.delays.size(); ++g)
    if (current.delays[g] != nominal[g]) ++witness.off_nominal_gates;

  // Final replay with the waveform attached.
  sim::VcdRecorder recorder(circuit);
  witness.report =
      run_scenario(spec, replay.binding, current, options.run, replay.runner, &recorder);
  witness.vcd = recorder.write();
  witness.scenario = std::move(current);
  return witness;
}

}  // namespace nshot::faults
