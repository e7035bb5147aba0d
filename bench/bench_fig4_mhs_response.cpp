// Regenerates Figure 4: the response of the MHS flip-flop to excitation
// pulses of varying width.  Pulses shorter than the threshold ω are not
// transmitted; pulses of width >= ω produce an output transition simply
// translated forward in time by τ.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>

#include "gatelib/gate_library.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/event_sim.hpp"

namespace {

using namespace nshot;
using gatelib::GateType;
using netlist::Gate;
using netlist::NetId;
using netlist::Netlist;

struct MhsHarness {
  Netlist nl{"mhs"};
  NetId set, reset, en_set, en_reset, q, qb;

  MhsHarness() {
    set = nl.add_net("set");
    reset = nl.add_net("reset");
    en_set = nl.add_net("en_set");
    en_reset = nl.add_net("en_reset");
    q = nl.add_net("q");
    qb = nl.add_net("qb");
    for (const NetId n : {set, reset, en_set, en_reset}) nl.add_primary_input(n);
    nl.add_gate(Gate{.type = GateType::kMhsFlipFlop,
                     .name = "ff",
                     .inputs = {set, reset, en_set, en_reset},
                     .outputs = {q, qb}});
  }
};

/// Fire one set pulse of the given width; return the q-rise time if any.
std::optional<double> response_to_pulse(double width) {
  const gatelib::GateLibrary& lib = gatelib::GateLibrary::standard();
  MhsHarness h;
  sim::SimulatorOptions options;
  options.randomize_delays = false;
  const sim::CompiledNetlist compiled(h.nl, lib);
  sim::Simulator sim(compiled, options);
  std::optional<double> rise;
  sim.set_observer([&](NetId n, bool v, double t) {
    if (n == h.q && v) rise = t;
  });
  sim.initialize({{h.set, false}, {h.reset, false}, {h.en_set, true}, {h.en_reset, true},
                  {h.q, false}, {h.qb, true}});
  sim.set_input(h.set, true, 10.0);
  sim.set_input(h.set, false, 10.0 + width);
  sim.run_until(1000.0);
  return rise;
}

void print_figure() {
  const gatelib::GateLibrary& lib = gatelib::GateLibrary::standard();
  std::printf("Figure 4: MHS flip-flop response (omega = %.2f, tau = %.2f)\n\n",
              lib.mhs_threshold(), lib.mhs_response());
  std::printf("%-12s %-12s %-14s %s\n", "pulse width", "fires?", "output latency",
              "(latency measured from the pulse's rising edge)");
  for (const double width : {0.05, 0.10, 0.15, 0.20, 0.25, 0.29, 0.30, 0.35, 0.50, 0.80,
                             1.20, 2.00, 4.00}) {
    const auto rise = response_to_pulse(width);
    if (rise)
      std::printf("%-12.2f %-12s %-14.2f\n", width, "yes", *rise - 10.0);
    else
      std::printf("%-12.2f %-12s %-14s\n", width, "no (absorbed)", "-");
  }
  std::printf(
      "\nSeries shape as in the paper: a hard threshold at omega; every\n"
      "super-threshold pulse appears at the output delayed by exactly tau.\n");
}

void bm_mhs_pulse(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(response_to_pulse(1.0));
}
BENCHMARK(bm_mhs_pulse);

}  // namespace

int main(int argc, char** argv) {
  print_figure();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
