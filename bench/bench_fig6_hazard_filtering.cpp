// Regenerates Figure 6: the response of the (structural, three-stage) MHS
// flip-flop to hazardous inputs.  A hazardous pulse stream excites the set
// rail and, later, the reset rail; the figure shows the intermediate
// slave-set / slave-reset signals and the clean q/qb outputs.  The ASCII
// waveforms below play the same roles as the paper's analog plots: the
// master stage sees the raw stream, the filter stage removes sub-threshold
// activity (hazard-free up-transitions), and the slave stage removes the
// residual hazardous down-transitions.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "gatelib/gate_library.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/event_sim.hpp"
#include "sim/mhs_structural.hpp"

namespace {

using namespace nshot;
using netlist::NetId;

struct Trace {
  std::map<NetId, std::vector<std::pair<double, bool>>> changes;

  void record(NetId n, bool v, double t) { changes[n].push_back({t, v}); }

  bool value_at(NetId n, bool initial, double t) const {
    bool v = initial;
    const auto it = changes.find(n);
    if (it == changes.end()) return v;
    for (const auto& [time, value] : it->second) {
      if (time > t) break;
      v = value;
    }
    return v;
  }
};

void print_waveform(const char* label, const Trace& trace, NetId net, bool initial, double t_end,
                    double step) {
  std::printf("%-13s ", label);
  for (double t = 0.0; t <= t_end; t += step)
    std::putchar(trace.value_at(net, initial, t) ? '#' : '_');
  std::putchar('\n');
}

void run_figure() {
  const gatelib::GateLibrary& lib = gatelib::GateLibrary::standard();
  sim::StructuralMhs model = sim::build_structural_mhs(lib.mhs_threshold());
  sim::SimulatorOptions options;
  options.randomize_delays = false;
  const sim::CompiledNetlist compiled(model.circuit, lib);
  sim::Simulator sim(compiled, options);
  Trace trace;
  sim.set_observer([&](NetId n, bool v, double t) { trace.record(n, v, t); });
  sim.initialize({{model.nets.set_in, false},
                  {model.nets.reset_in, false},
                  {model.nets.master_set, false},
                  {model.nets.master_reset, false},
                  {model.nets.q, false},
                  {model.nets.qb, true}});

  // Hazardous set stream: sub-threshold spikes, then a real excitation
  // (as produced by a glitching SOP while traversing ER(+a)).
  double t = 2.0;
  for (const double width : {0.08, 0.12, 0.1}) {
    sim.set_input(model.nets.set_in, true, t);
    sim.set_input(model.nets.set_in, false, t + width);
    t += 1.0;
  }
  sim.set_input(model.nets.set_in, true, 6.0);
  sim.set_input(model.nets.set_in, false, 8.5);

  // Later, a hazardous reset stream.
  for (const double width : {0.1, 0.09}) {
    sim.set_input(model.nets.reset_in, true, 14.0 + (width == 0.1 ? 0.0 : 1.0));
    sim.set_input(model.nets.reset_in, false, 14.0 + (width == 0.1 ? 0.0 : 1.0) + width);
  }
  sim.set_input(model.nets.reset_in, true, 17.0);
  sim.set_input(model.nets.reset_in, false, 19.5);
  sim.run_until(1000.0);

  const double t_end = 26.0, step = 0.25;
  std::printf("Figure 6: response of the MHS flip-flop to hazardous inputs\n");
  std::printf("(time ->, one column per %.2f units; '#' = 1, '_' = 0)\n\n", step);
  print_waveform("set_in", trace, model.nets.set_in, false, t_end, step);
  print_waveform("reset_in", trace, model.nets.reset_in, false, t_end, step);
  print_waveform("master_set", trace, model.nets.master_set, false, t_end, step);
  print_waveform("master_reset", trace, model.nets.master_reset, false, t_end, step);
  print_waveform("slave_set", trace, model.nets.slave_set, false, t_end, step);
  print_waveform("slave_reset", trace, model.nets.slave_reset, false, t_end, step);
  print_waveform("q", trace, model.nets.q, false, t_end, step);
  print_waveform("qb", trace, model.nets.qb, true, t_end, step);

  auto count = [&](NetId n) {
    const auto it = trace.changes.find(n);
    return it == trace.changes.end() ? 0 : static_cast<int>(it->second.size());
  };
  std::printf(
      "\ntransition counts: set_in %d, slave_set %d, q %d —\n"
      "the two filtering stages reduce a hazardous stream to one clean\n"
      "up-transition and one clean down-transition at the output.\n",
      count(model.nets.set_in), count(model.nets.slave_set), count(model.nets.q));
}

void bm_structural_mhs(benchmark::State& state) {
  const gatelib::GateLibrary& lib = gatelib::GateLibrary::standard();
  for (auto _ : state) {
    sim::StructuralMhs model = sim::build_structural_mhs(lib.mhs_threshold());
    benchmark::DoNotOptimize(model.circuit.num_gates());
  }
}
BENCHMARK(bm_structural_mhs);

}  // namespace

int main(int argc, char** argv) {
  run_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
