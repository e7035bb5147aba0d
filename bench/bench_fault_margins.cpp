// Robustness margins and fault tolerance of the synthesized benchmarks:
// how much slack does each circuit keep against the two cliffs that carry
// the hazard-freedom argument?
//
//  * ω margin (Theorem 1): the closest any effective-excitation pulse of
//    an MHS flip-flop came to the filtering threshold — from either side —
//    over a sweep of randomized-delay closed-loop runs.
//  * Eq. 1 margin (Section IV-C): the acknowledgement-scheme slack
//    t_del + t_res1f + t_mhs − t_set0w evaluated with concrete per-gate
//    delays along actual netlist paths.
//  * Fault battery: stuck-at faults on every MHS input rail, glitch pulses
//    around ω on the SOP nets, slow-outlier SOP drivers — with the share
//    the closed-loop conformance check detects.
//
// The second table demonstrates the point of the adversarial harness: on a
// deliberately under-compensated netlist (set SOP deepened so Eq. 1
// requires t_del > 0, none installed) uniform Monte Carlo over stressed
// delay bounds misses the trespass that hill-climbing the delay vector
// finds quickly.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "exec/thread_pool.hpp"
#include "faults/stress.hpp"
#include "nshot/synthesis.hpp"
#include "sim/trial_runner.hpp"

namespace {

using namespace nshot;

void print_margin_sweep() {
  std::printf("Robustness margins and fault battery (per benchmark)\n\n");
  std::printf("%-15s %8s %8s %8s %9s %9s %9s\n", "circuit", "fire", "absorb", "eq1",
              "faults", "detected", "survived");
  // One stress campaign per benchmark, run in parallel and printed in
  // suite order — each campaign is internally deterministic (fixed seed),
  // so the table is identical at every jobs value.
  std::vector<bench_suite::BenchmarkInfo> selected;
  for (const auto& info : bench_suite::all_benchmarks())
    if (info.paper_states <= 2500) selected.push_back(info);
  const std::vector<std::string> rows =
      exec::parallel_map<std::string>(static_cast<int>(selected.size()), [&](int i) {
        const auto& info = selected[static_cast<std::size_t>(i)];
        const sg::StateGraph g = info.build();
        const core::SynthesisResult result = core::synthesize(g);
        faults::StressOptions options;
        options.seed = 2026;
        options.margin_runs = 3;
        options.run.max_transitions = 80;
        options.adversarial.restarts = 0;  // margin + battery only
        const faults::StressReport report =
            faults::run_stress(g, result.circuit, info.name, options);

        double min_fire = faults::kNoMargin, min_absorb = faults::kNoMargin;
        int survived = 0, failed = 0;
        for (const faults::SignalMargins& s : report.signals) {
          min_fire = std::min(min_fire, s.omega.min_fire_slack);
          min_absorb = std::min(min_absorb, s.omega.min_absorb_slack);
          survived += s.faults_survived;
          failed += s.faults_failed;
        }
        char line[160];
        std::snprintf(line, sizeof line, "%-15s %8.2f %8.2f %8.2f %9zu %9d %9d\n",
                      info.name.c_str(), min_fire, min_absorb, report.min_eq1_slack,
                      report.outcomes.size(), failed, survived);
        return std::string(line);
      });
  for (const std::string& row : rows) std::fputs(row.c_str(), stdout);
  std::printf("\n(fire/absorb: min distance of any excitation pulse to the threshold\n");
  std::printf(" omega from above/below; eq1: min acknowledgement slack; detected:\n");
  std::printf(" injected faults the closed-loop conformance check catches.)\n");
}

void print_adversarial_demo() {
  std::printf("\nAdversarial delay search vs uniform Monte Carlo (under-compensated %s)\n\n",
              "converta");
  const sg::StateGraph g = bench_suite::build_benchmark("converta");
  const core::SynthesisResult result = core::synthesize(g);
  const std::string target = g.signal(g.noninput_signals().front()).name;
  const netlist::Netlist uncomp = faults::strip_delay_compensation(
      faults::deepen_set_path(result.circuit, target, /*levels=*/1));

  for (const faults::Eq1Requirement& req :
       faults::eq1_requirements(uncomp, gatelib::GateLibrary::standard()))
    if (req.signal == target)
      std::printf("Eq. 1 on %s now requires t_del_set >= %.2f; installed: %.2f\n",
                  target.c_str(), req.required_set, req.installed_set);

  // Search the plain library interval: the Eq. 1 shortfall means a thin
  // corner of the ordinary delay box is hazardous.
  faults::AdversarialOptions options;
  options.run.max_transitions = 120;
  const faults::MonteCarloResult mc = faults::stressed_monte_carlo(g, uncomp, 50, options);
  std::printf("uniform Monte Carlo:  %d/%d runs violate (min slack %.3f)\n",
              mc.violating_runs, mc.runs, mc.min_slack);
  const faults::AdversarialResult adv = faults::adversarial_delay_search(g, uncomp, options);
  std::printf("adversarial search:   %s after %ld evaluations (best slack %.3f)\n",
              adv.violation_found ? "VIOLATION" : "no violation", adv.evaluations,
              adv.best_slack);
}

// The two micro-benchmarks time one trial on the production engine as the
// stress campaign runs it: the compiled netlist, spec binding, TrialRunner
// (and margin probe) are built once, outside the timed loop.
void bm_probed_run(benchmark::State& state) {
  const sg::StateGraph g = bench_suite::build_benchmark("pmcm1");
  const core::SynthesisResult result = core::synthesize(g);
  const gatelib::GateLibrary& lib = gatelib::GateLibrary::standard();
  const sim::CompiledNetlist compiled(result.circuit, lib);
  const sim::SpecBinding binding(g, result.circuit);
  sim::TrialRunner runner(compiled);
  faults::MarginProbe probe(result.circuit, lib);
  faults::ScenarioOptions options;
  options.max_transitions = 100;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    faults::FaultScenario scenario;
    scenario.seed = seed++;
    const faults::ProbedRun run =
        faults::run_probed(g, binding, scenario, options, runner, &probe);
    benchmark::DoNotOptimize(run.min_slack);
  }
}
BENCHMARK(bm_probed_run);

void bm_fault_scenario(benchmark::State& state) {
  const sg::StateGraph g = bench_suite::build_benchmark("pmcm1");
  const core::SynthesisResult result = core::synthesize(g);
  faults::ScenarioOptions options;
  options.max_transitions = 100;
  const netlist::Netlist& circuit = result.circuit;
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(g, circuit);
  sim::TrialRunner runner(compiled);
  // Glitch one set SOP net just under the threshold each iteration.
  netlist::NetId sop = -1;
  for (netlist::GateId gate = 0; gate < circuit.num_gates(); ++gate)
    if (circuit.gate(gate).type == gatelib::GateType::kMhsFlipFlop) {
      sop = circuit.gate(gate).inputs[0];
      break;
    }
  std::uint64_t seed = 1;
  for (auto _ : state) {
    faults::FaultScenario scenario;
    scenario.seed = seed++;
    scenario.faults.push_back(faults::Fault{.kind = faults::FaultKind::kGlitch,
                                            .net = sop,
                                            .value = true,
                                            .time = 5.0,
                                            .width = 0.25});
    const sim::ConformanceReport report =
        faults::run_scenario(g, binding, scenario, options, runner);
    benchmark::DoNotOptimize(report.absorbed_pulses);
  }
}
BENCHMARK(bm_fault_scenario);

}  // namespace

int main(int argc, char** argv) {
  nshot::exec::set_default_jobs(nshot::exec::hardware_jobs());
  print_margin_sweep();
  print_adversarial_demo();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
