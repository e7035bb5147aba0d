// Queue-scaling ladder: where the calendar queue's O(1) pop overtakes the
// binary heap's O(log n).
//
// The Table-2 controllers keep only a handful of pending events, so
// bench_kernels cannot show the calendar queue doing what it was built
// for.  This harness manufactures the missing regime: a synthesized
// random_semimodular_g circuit is replicated R times into one netlist of
// disjoint copies, every copy's primary inputs are toggled on a staggered
// schedule, and randomized per-gate delays desynchronize the copies — so
// the pending-event population scales with R (tens at R=1, thousands at
// R=256) while the workload stays a pure function of the seed.
//
// For each population tier the SAME preloaded schedule runs on the binary
// heap, the calendar queue, and the adaptive engine (sorted array below
// the migration threshold, calendar above it).  The (time, seq) total-order
// pop contract makes all three runs byte-identical — asserted via a
// fingerprint over events processed, final simulated time, per-net values
// and toggle counts — so the recorded events/sec compare engines and
// nothing else.  The smallest tier where the calendar beats the heap is
// the crossover; BENCH_queue_scaling.json records it alongside per-tier
// events/sec and the sampled pending-population statistics, and
// tools/bench_gate.py gates the calendar_over_heap / adaptive_over_heap
// ratios per tier.
//
// `--smoke` shrinks the ladder and budgets for CI; the JSON records the
// flag so smoke numbers are never mistaken for measurements.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_timer.hpp"
#include "bench_suite/generators.hpp"
#include "netlist/netlist.hpp"
#include "nshot/synthesis.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/conformance.hpp"
#include "sim/event_sim.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace nshot;
using bench::MinTimer;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The seed workload: one implementable random semimodular circuit plus
/// the initial net values of its SG initial state.
struct BaseCircuit {
  netlist::Netlist circuit;
  std::vector<std::pair<netlist::NetId, bool>> initial_values;
  std::uint64_t seed = 0;
};

/// First seed >= 1 whose random STG synthesizes into a circuit with at
/// least `min_gates` gates.  Not every draw is implementable (CSC can
/// fail); rejections are part of the generator's contract, so they are
/// skipped, not reported.
BaseCircuit find_base_circuit(int min_gates) {
  for (std::uint64_t seed = 1; seed < 500; ++seed) {
    bench_suite::RandomStgOptions gen;
    gen.seed = seed;
    try {
      const sg::StateGraph g = bench_suite::build_g(bench_suite::random_semimodular_g(gen));
      core::SynthesisResult result = core::synthesize(g);
      if (result.circuit.num_gates() < min_gates) continue;
      BaseCircuit base;
      base.initial_values = sim::initial_net_values(g, result.circuit);
      base.circuit = std::move(result.circuit);
      base.seed = seed;
      return base;
    } catch (const std::exception&) {
      continue;  // unimplementable draw — try the next seed
    }
  }
  throw Error(ErrorCode::kUnimplementable,
              "bench_queue_scaling: no implementable random circuit in 500 seeds");
}

/// One scheduled primary-input change, shared verbatim by every engine of
/// a tier.
struct InputToggle {
  netlist::NetId net = -1;
  bool value = false;
  double time = 0.0;
};

/// `copies` disjoint renamed instances of the base circuit in one
/// netlist, plus the concatenated initial values and the staggered
/// open-loop toggle schedule that drives them.
struct Ladder {
  netlist::Netlist circuit;
  std::vector<std::pair<netlist::NetId, bool>> initial_values;
  std::vector<InputToggle> schedule;
};

Ladder replicate(const BaseCircuit& base, int copies) {
  Ladder ladder;
  ladder.circuit = netlist::Netlist("ladder-x" + std::to_string(copies));
  // Initial value per base net, for toggling inputs away from rest.
  std::vector<std::uint8_t> base_init(static_cast<std::size_t>(base.circuit.num_nets()), 0);
  for (const auto& [net, value] : base.initial_values)
    base_init[static_cast<std::size_t>(net)] = value ? 1 : 0;

  // The stagger keeps copies out of lockstep even before the randomized
  // delays separate them; twelve toggle rounds (out and back, six times)
  // keep every copy active long enough for the populations to overlap and
  // give every tier a timed region well clear of timer noise.
  Rng jitter(0xC0FFEEULL);
  constexpr int kRounds = 12;
  constexpr double kRoundGap = 40.0;

  for (int k = 0; k < copies; ++k) {
    const std::string prefix = "c" + std::to_string(k) + "__";
    std::vector<netlist::NetId> net_map(static_cast<std::size_t>(base.circuit.num_nets()));
    for (netlist::NetId n = 0; n < base.circuit.num_nets(); ++n)
      net_map[static_cast<std::size_t>(n)] =
          ladder.circuit.add_net(prefix + base.circuit.net_name(n));
    for (const netlist::Gate& gate : base.circuit.gates()) {
      netlist::Gate copy = gate;
      copy.name = prefix + gate.name;
      for (netlist::NetId& in : copy.inputs) in = net_map[static_cast<std::size_t>(in)];
      for (netlist::NetId& out : copy.outputs) out = net_map[static_cast<std::size_t>(out)];
      ladder.circuit.add_gate(std::move(copy));
    }
    for (const netlist::NetId pi : base.circuit.primary_inputs())
      ladder.circuit.add_primary_input(net_map[static_cast<std::size_t>(pi)]);
    for (const netlist::NetId po : base.circuit.primary_outputs())
      ladder.circuit.add_primary_output(net_map[static_cast<std::size_t>(po)]);
    for (const auto& [net, value] : base.initial_values)
      ladder.initial_values.emplace_back(net_map[static_cast<std::size_t>(net)], value);

    int input_index = 0;
    for (const netlist::NetId pi : base.circuit.primary_inputs()) {
      const bool rest = base_init[static_cast<std::size_t>(pi)] != 0;
      for (int round = 0; round < kRounds; ++round) {
        InputToggle toggle;
        toggle.net = net_map[static_cast<std::size_t>(pi)];
        toggle.value = (round % 2 == 0) ? !rest : rest;
        toggle.time = 1.0 + static_cast<double>(round) * kRoundGap +
                      static_cast<double>(input_index) * 3.0 + jitter.next_double(0.0, 2.0);
        ladder.schedule.push_back(toggle);
        ++input_index;
      }
    }
  }
  ladder.circuit.check_well_formed();
  return ladder;
}

/// reset + initialize + preload the tier's schedule (untimed setup).
void arm(sim::Simulator& simulator, const Ladder& ladder, std::uint64_t max_events) {
  sim::SimulatorOptions options;
  options.seed = 71;
  options.randomize_delays = true;
  options.max_events = max_events;
  simulator.reset(options);
  simulator.initialize(ladder.initial_values);
  for (const InputToggle& toggle : ladder.schedule)
    simulator.set_input(toggle.net, toggle.value, toggle.time);
}

/// The timed region: the fused event walk, no observable nets, run to
/// quiescence or the event budget.
void drain(sim::Simulator& simulator, const std::vector<int>& no_observables) {
  while (true) {
    const sim::Simulator::BurstResult r =
        simulator.run_burst(no_observables.data(), kInf, kInf, nullptr);
    if (r.stop != sim::Simulator::BurstStop::kObservable) return;
  }
}

/// Everything the (time, seq) pop contract promises is engine-invariant.
std::string fingerprint(const sim::Simulator& simulator) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a over values + toggles
  auto mix = [&hash](std::uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ULL;
  };
  const netlist::Netlist& circuit = simulator.circuit();
  for (netlist::NetId n = 0; n < circuit.num_nets(); ++n) {
    mix(simulator.value(n) ? 2 : 1);
    mix(static_cast<std::uint64_t>(simulator.toggle_count(n)));
  }
  std::ostringstream out;
  out << simulator.events_processed() << '/' << simulator.now() << '/'
      << simulator.budget_exhausted() << '/' << hash;
  return out.str();
}

struct EngineResult {
  double ms = 0.0;
  std::uint64_t events = 0;
  std::string fp;
  double events_per_sec() const { return ms > 0 ? static_cast<double>(events) / (ms / 1e3) : 0; }
};

struct TierResult {
  std::string name;
  int copies = 0;
  int gates = 0, nets = 0;
  std::size_t peak_pending = 0;
  double mean_pending = 0.0;
  EngineResult heap, calendar, adaptive;
  bool identical = false;
  double calendar_over_heap() const {
    return heap.ms > 0 ? heap.ms / std::max(calendar.ms, 1e-9) : 0;
  }
  double adaptive_over_heap() const {
    return heap.ms > 0 ? heap.ms / std::max(adaptive.ms, 1e-9) : 0;
  }
};

TierResult measure_tier(const BaseCircuit& base, int copies, std::uint64_t max_events,
                        int reps) {
  const Ladder ladder = replicate(base, copies);
  const sim::CompiledNetlist compiled(ladder.circuit, gatelib::GateLibrary::standard());
  const std::vector<int> no_observables(static_cast<std::size_t>(ladder.circuit.num_nets()), -1);

  TierResult tier;
  tier.name = "x" + std::to_string(copies);
  tier.copies = copies;
  tier.gates = ladder.circuit.num_gates();
  tier.nets = ladder.circuit.num_nets();

  sim::Simulator heap_sim(compiled, sim::SimulatorOptions{}, sim::QueueKind::kBinaryHeap);
  sim::Simulator cal_sim(compiled, sim::SimulatorOptions{}, sim::QueueKind::kCalendar);
  sim::Simulator ada_sim(compiled, sim::SimulatorOptions{}, sim::QueueKind::kAdaptive);

  // Untimed population pre-pass: slice the identical run by simulated
  // time and sample the pending set between slices.  The population
  // trajectory is engine-invariant, so one engine measures it for all.
  {
    arm(heap_sim, ladder, max_events);
    double total = 0.0;
    std::size_t samples = 0;
    for (int slice = 0; slice < 100000; ++slice) {
      const sim::Simulator::BurstResult r = heap_sim.run_burst(
          no_observables.data(), kInf, heap_sim.now() + 2.0, nullptr);
      const std::size_t pending = heap_sim.pending_events();
      tier.peak_pending = std::max(tier.peak_pending, pending);
      total += static_cast<double>(pending);
      ++samples;
      if (r.stop == sim::Simulator::BurstStop::kQuiesced ||
          r.stop == sim::Simulator::BurstStop::kBudget)
        break;
    }
    tier.mean_pending = samples > 0 ? total / static_cast<double>(samples) : 0.0;
  }

  MinTimer heap_t, cal_t, ada_t;
  for (int i = 0; i < reps; ++i) {
    arm(heap_sim, ladder, max_events);
    heap_t.sample([&] { drain(heap_sim, no_observables); });
    arm(cal_sim, ladder, max_events);
    cal_t.sample([&] { drain(cal_sim, no_observables); });
    arm(ada_sim, ladder, max_events);
    ada_t.sample([&] { drain(ada_sim, no_observables); });
  }
  tier.heap = {heap_t.best, heap_sim.events_processed(), fingerprint(heap_sim)};
  tier.calendar = {cal_t.best, cal_sim.events_processed(), fingerprint(cal_sim)};
  tier.adaptive = {ada_t.best, ada_sim.events_processed(), fingerprint(ada_sim)};
  tier.identical = tier.heap.fp == tier.calendar.fp && tier.heap.fp == tier.adaptive.fp;
  return tier;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_queue_scaling.json";
  const char* usage = "usage: bench_queue_scaling [--smoke] [OUT.json]\n";
  bool have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", usage);
      return 0;
    }
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.empty() || arg[0] == '-' || have_out) {
      std::fprintf(stderr, "error: unexpected argument '%s'\n%s", argv[i], usage);
      return 2;
    } else {
      out_path = argv[i];
      have_out = true;
    }
  }

  const BaseCircuit base = find_base_circuit(/*min_gates=*/10);
  std::printf("Queue scaling: base circuit seed %llu (%d gates, %d nets)%s\n\n",
              static_cast<unsigned long long>(base.seed), base.circuit.num_gates(),
              base.circuit.num_nets(), smoke ? " (smoke)" : "");

  // Smoke tiers are a subset of the full ladder so bench_gate.py can
  // match them by name against the committed full run.
  const std::vector<int> tiers_wanted = smoke ? std::vector<int>{1, 16}
                                              : std::vector<int>{1, 4, 16, 64, 256};
  const int reps = smoke ? 1 : 5;

  std::printf("%-6s %8s %8s %9s %9s %11s %11s %11s %8s %8s %5s\n", "tier", "gates",
              "peak", "mean", "events", "heap ev/s", "cal ev/s", "adapt ev/s", "cal x",
              "adapt x", "same");

  bool all_identical = true;
  int crossover_copies = -1;
  std::vector<TierResult> tiers;
  for (const int copies : tiers_wanted) {
    // Budget scales with the tier so big tiers cannot run away, while
    // small tiers still quiesce naturally.
    const std::uint64_t budget =
        smoke ? 30000 : std::min<std::uint64_t>(3000000, 60000ULL * static_cast<unsigned>(copies));
    const TierResult tier = measure_tier(base, copies, budget, reps);
    NSHOT_REQUIRE(tier.identical, "queue engines diverged on tier " + tier.name);
    all_identical &= tier.identical;
    if (crossover_copies < 0 && tier.calendar_over_heap() > 1.0) crossover_copies = copies;
    std::printf("%-6s %8d %8zu %9.1f %9llu %11.0f %11.0f %11.0f %7.2fx %7.2fx %5s\n",
                tier.name.c_str(), tier.gates, tier.peak_pending, tier.mean_pending,
                static_cast<unsigned long long>(tier.heap.events), tier.heap.events_per_sec(),
                tier.calendar.events_per_sec(), tier.adaptive.events_per_sec(),
                tier.calendar_over_heap(), tier.adaptive_over_heap(),
                tier.identical ? "yes" : "NO");
    tiers.push_back(tier);
  }

  if (crossover_copies > 0)
    std::printf("\ncalendar overtakes heap at %d copies\n", crossover_copies);
  else
    std::printf("\ncalendar never overtook heap on this ladder\n");

  std::ostringstream json;
  json << "{\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"byte_identical\": " << (all_identical ? "true" : "false")
       << ",\n  \"base_seed\": " << base.seed
       << ",\n  \"crossover_copies\": " << crossover_copies << ",\n  \"tiers\": [\n";
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    const TierResult& t = tiers[i];
    json << "    {\"name\": \"" << t.name << "\", \"copies\": " << t.copies
         << ", \"gates\": " << t.gates << ", \"nets\": " << t.nets
         << ", \"peak_pending\": " << t.peak_pending << ", \"mean_pending\": " << t.mean_pending
         << ", \"events\": " << t.heap.events << ", \"heap_ms\": " << t.heap.ms
         << ", \"heap_events_per_sec\": " << t.heap.events_per_sec()
         << ", \"calendar_ms\": " << t.calendar.ms
         << ", \"calendar_events_per_sec\": " << t.calendar.events_per_sec()
         << ", \"adaptive_ms\": " << t.adaptive.ms
         << ", \"adaptive_events_per_sec\": " << t.adaptive.events_per_sec()
         << ", \"calendar_over_heap\": " << t.calendar_over_heap()
         << ", \"adaptive_over_heap\": " << t.adaptive_over_heap() << "}"
         << (i + 1 < tiers.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::ofstream(out_path) << json.str();
  std::printf("wrote %s\n", out_path);
  return 0;
}
