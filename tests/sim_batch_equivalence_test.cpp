// Differential fuzz battery for the production trial engine
// (sim/trial_runner.hpp): over 64 seeded random semi-modular circuits,
// TrialRunner must produce byte-identical results to the reference
// per-trial simulator — same verdicts, same report fingerprints (every
// counter and every simulated-time double), same violation strings, and
// the same VCD witness bytes and observer stream per trial, including
// across runner reuse and settle-cache hits and misses.  This is the test the engine's whole
// contract hangs on; the CI matrix runs it under ASan and TSan.
#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "bench_suite/generators.hpp"
#include "faults/margins.hpp"
#include "netlist/transform.hpp"
#include "nshot/synthesis.hpp"
#include "sim/conformance.hpp"
#include "sim/trial_runner.hpp"
#include "sim/vcd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nshot {
namespace {

struct Generated {
  sg::StateGraph graph;
  core::SynthesisResult result;
};

constexpr int kCircuits = 64;

/// One seeded random semi-modular controller, synthesized; nullopt when
/// the draw is not implementable.
std::optional<Generated> draw(std::uint64_t seed) {
  bench_suite::RandomStgOptions options;
  options.seed = seed;
  sg::StateGraph graph = bench_suite::build_g(bench_suite::random_semimodular_g(options));
  if (graph.noninput_signals().empty()) return std::nullopt;
  try {
    core::SynthesisResult result = core::synthesize(graph);
    return Generated{std::move(graph), std::move(result)};
  } catch (const Error&) {
    return std::nullopt;
  }
}

/// The circuit of parameter `param`: the first implementable draw over
/// seeds param, param + 64, param + 128, ... — disjoint across parameters,
/// so every parameter runs a distinct circuit instead of skipping.
Generated generate(int param) {
  for (int attempt = 0; attempt < 64; ++attempt)
    if (std::optional<Generated> gen =
            draw(static_cast<std::uint64_t>(param + attempt * kCircuits)))
      return std::move(*gen);
  throw std::runtime_error("no implementable draw for parameter " + std::to_string(param));
}

/// Per-trial closed-loop config, shaped like check_conformance's sweep.
sim::ClosedLoopConfig trial_config(std::uint64_t base_seed, int r) {
  sim::ClosedLoopConfig config;
  config.sim.seed = run_seed(base_seed, r);
  config.sim.randomize_delays = true;
  config.sim.max_events = 200000;
  config.max_transitions = 60;
  // Vary the environment shape across trials: decoupled env stream,
  // fundamental mode, tighter reaction windows.
  if (r % 3 == 1) config.env_seed = run_seed(base_seed ^ 0x5eedULL, r);
  if (r % 3 == 2) config.fundamental_mode = true;
  if (r % 2 == 1) {
    config.input_delay_min = 0.5;
    config.input_delay_max = 4.0;
  }
  return config;
}

/// Field-by-field fingerprint comparison; doubles compare EXACTLY — the
/// contract is byte identity, not tolerance.
void expect_same_report(const sim::ConformanceReport& got, const sim::ConformanceReport& want,
                        const std::string& label) {
  EXPECT_EQ(got.runs, want.runs) << label;
  EXPECT_EQ(got.external_transitions, want.external_transitions) << label;
  EXPECT_EQ(got.internal_toggles, want.internal_toggles) << label;
  EXPECT_EQ(got.absorbed_pulses, want.absorbed_pulses) << label;
  EXPECT_EQ(got.simulated_time, want.simulated_time) << label;
  EXPECT_EQ(got.deadlocks, want.deadlocks) << label;
  EXPECT_EQ(got.budget_exhausted, want.budget_exhausted) << label;
  ASSERT_EQ(got.violations.size(), want.violations.size()) << label;
  for (std::size_t i = 0; i < want.violations.size(); ++i) {
    EXPECT_EQ(got.violations[i].seed, want.violations[i].seed) << label;
    EXPECT_EQ(got.violations[i].time, want.violations[i].time) << label;
    EXPECT_EQ(got.violations[i].kind, want.violations[i].kind) << label;
    EXPECT_EQ(got.violations[i].description, want.violations[i].description) << label;
  }
}

/// Both engines on `config` — run_closed_loop as the oracle, `runner` as
/// the engine under test — compared field by field and VCD byte by byte.
void expect_runner_matches_reference(const sg::StateGraph& spec, sim::TrialRunner& runner,
                                     const sim::SpecBinding& binding,
                                     const sim::ClosedLoopConfig& config,
                                     const std::string& label) {
  const netlist::Netlist& circuit = runner.compiled().netlist();
  sim::VcdRecorder want_vcd(circuit);
  const sim::ConformanceReport want = sim::run_closed_loop(spec, circuit, config, &want_vcd);
  sim::VcdRecorder got_vcd(circuit);
  const sim::ConformanceReport got = runner.run(spec, binding, config, &got_vcd);
  expect_same_report(got, want, label);
  EXPECT_EQ(got_vcd.write(), want_vcd.write()) << "VCD witness diverged: " << label;
}

class SimBatchEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(SimBatchEquivalenceTest, TrialRunnerMatchesReferencePerTrial) {
  const Generated gen = generate(GetParam());
  const netlist::Netlist& circuit = gen.result.circuit;
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(gen.graph, circuit);
  sim::TrialRunner runner(compiled);

  const std::uint64_t base_seed = 0xbeefULL + static_cast<std::uint64_t>(GetParam());
  for (int r = 0; r < 6; ++r) {
    const sim::ClosedLoopConfig config = trial_config(base_seed, r);
    const std::string label =
        "circuit " + std::to_string(GetParam()) + " trial " + std::to_string(r);

    expect_runner_matches_reference(gen.graph, runner, binding, config, label);
  }
}

/// What an observed trial shows its instrumentation: every committed net
/// change handed to config.observer, and the ω statistics a MarginProbe
/// chained behind it collects per MHS cell.
struct Observed {
  sim::ConformanceReport report;
  std::vector<std::tuple<netlist::NetId, bool, double>> commits;
  std::vector<faults::OmegaStats> omega;
};

template <typename RunTrial>
Observed observe(const netlist::Netlist& circuit, sim::ClosedLoopConfig config,
                 RunTrial&& run_trial) {
  Observed observed;
  faults::MarginProbe probe(circuit, gatelib::GateLibrary::standard());
  const sim::NetObserver probe_observer = probe.observer();
  config.observer = [&](netlist::NetId net, bool value, double time) {
    observed.commits.emplace_back(net, value, time);
    probe_observer(net, value, time);
  };
  config.on_initialized = [&probe](const sim::Simulator& sim) { probe.capture_initial(sim); };
  observed.report = run_trial(config);
  for (int k = 0; k < probe.num_cells(); ++k) observed.omega.push_back(probe.stats(k));
  return observed;
}

TEST_P(SimBatchEquivalenceTest, ObservedTrialsMatchReference) {
  // The margin measurements, the adversarial search and the minimizer all
  // watch TrialRunner trials through config.observer: the engine must
  // hand an observer the same (net, value, time) sequence as the
  // reference trial, so a MarginProbe reads the same margins off either.
  const Generated gen = generate(GetParam());
  const netlist::Netlist& circuit = gen.result.circuit;
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(gen.graph, circuit);
  sim::TrialRunner runner(compiled);

  const std::uint64_t base_seed = 0x0b5eULL + static_cast<std::uint64_t>(GetParam());
  std::size_t commits = 0;
  for (int r = 0; r < 6; ++r) {
    const std::string label =
        "circuit " + std::to_string(GetParam()) + " observed trial " + std::to_string(r);
    const sim::ClosedLoopConfig config = trial_config(base_seed, r);
    const Observed want = observe(circuit, config, [&](const sim::ClosedLoopConfig& c) {
      return sim::run_closed_loop(gen.graph, circuit, c);
    });
    const Observed got = observe(circuit, config, [&](const sim::ClosedLoopConfig& c) {
      return runner.run(gen.graph, binding, c);
    });
    expect_same_report(got.report, want.report, label);
    EXPECT_TRUE(got.commits == want.commits) << label << ": " << got.commits.size() << " vs "
                                             << want.commits.size() << " commits";
    ASSERT_EQ(got.omega.size(), want.omega.size()) << label;
    for (std::size_t k = 0; k < want.omega.size(); ++k) {
      EXPECT_EQ(got.omega[k].fired, want.omega[k].fired) << label << " cell " << k;
      EXPECT_EQ(got.omega[k].absorbed, want.omega[k].absorbed) << label << " cell " << k;
      EXPECT_EQ(got.omega[k].min_fire_slack, want.omega[k].min_fire_slack)
          << label << " cell " << k;
      EXPECT_EQ(got.omega[k].min_absorb_slack, want.omega[k].min_absorb_slack)
          << label << " cell " << k;
    }
    commits += want.commits.size();
  }
  EXPECT_GT(commits, 0u);
}

TEST_P(SimBatchEquivalenceTest, SettleCacheMatchesFreshRuns) {
  const Generated gen = generate(GetParam());
  const netlist::Netlist& circuit = gen.result.circuit;
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());

  // A second spec over the same circuit, started from another state: its
  // binding carries different initial net values, so switching between
  // the two bindings invalidates the runner's settle cache.
  sg::StateGraph shifted = gen.graph;
  for (sg::StateId s = 0; s < shifted.num_states(); ++s)
    if (shifted.code(s) != gen.graph.code(gen.graph.initial())) {
      shifted.set_initial(s);
      break;
    }
  if (shifted.initial() == gen.graph.initial()) GTEST_SKIP() << "single-code graph";
  const sim::SpecBinding binding(gen.graph, circuit);
  const sim::SpecBinding shifted_binding(shifted, circuit);
  ASSERT_NE(binding.initial_values, shifted_binding.initial_values);

  // One runner over misses (key changes) and hits (same key repeated).
  sim::TrialRunner runner(compiled);
  const std::uint64_t base_seed = 0xfeedULL + static_cast<std::uint64_t>(GetParam());
  const bool use_shifted[] = {false, false, true, false, true, true, false};
  for (int r = 0; r < static_cast<int>(std::size(use_shifted)); ++r) {
    const sg::StateGraph& spec = use_shifted[r] ? shifted : gen.graph;
    const sim::ClosedLoopConfig config = trial_config(base_seed, r);
    const std::string label = "circuit " + std::to_string(GetParam()) + " trial " +
                              std::to_string(r) + (use_shifted[r] ? " (shifted)" : "");
    expect_runner_matches_reference(spec, runner, use_shifted[r] ? shifted_binding : binding,
                                    config, label);
  }
}

TEST_P(SimBatchEquivalenceTest, FaultedConfigsMatchReference) {
  const Generated gen = generate(GetParam());
  const netlist::Netlist& circuit = gen.result.circuit;
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(gen.graph, circuit);
  sim::TrialRunner runner(compiled);

  // Stuck-at + glitch configs: the runner's bursts stop short of each
  // injection and the force/release commits are checked outside the
  // burst; both engines must still agree byte for byte (violations
  // included — faulted runs are EXPECTED to misbehave).
  // release_net only snaps back simple-gate outputs, so pick nets with a
  // combinational driver (the same restriction faults::to_config obeys).
  std::vector<netlist::NetId> driven;
  for (netlist::NetId n = 0; n < circuit.num_nets() && driven.size() < 2; ++n) {
    const netlist::GateId g = compiled.driver(n);
    if (g < 0) continue;
    const gatelib::GateType type = circuit.gate(g).type;
    if (type == gatelib::GateType::kAnd || type == gatelib::GateType::kOr ||
        type == gatelib::GateType::kInv || type == gatelib::GateType::kBuf)
      driven.push_back(n);
  }
  if (driven.size() < 2) GTEST_SKIP() << "not enough driven nets";

  const std::uint64_t base_seed = 0xfaceULL + static_cast<std::uint64_t>(GetParam());
  for (int r = 0; r < 3; ++r) {
    sim::ClosedLoopConfig config = trial_config(base_seed, r);
    config.forces.emplace_back(driven[0], (r % 2) != 0);
    sim::TimedInjection hit;
    hit.time = 5.0;
    hit.net = driven[1];
    hit.value = true;
    sim::TimedInjection drop = hit;
    drop.time = 5.0 + 0.05 * (r + 1);
    drop.release = true;
    config.injections = {hit, drop};

    const std::string label =
        "circuit " + std::to_string(GetParam()) + " faulted trial " + std::to_string(r);
    expect_runner_matches_reference(gen.graph, runner, binding, config, label);
  }
}

TEST_P(SimBatchEquivalenceTest, InjectionTiesMatchReference) {
  const Generated gen = generate(GetParam());
  const netlist::Netlist& circuit = gen.result.circuit;
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(gen.graph, circuit);
  sim::TrialRunner runner(compiled);

  // A combinational net to glitch (release_net needs a simple-gate
  // driver) and a primary input to pin.
  netlist::NetId glitched = -1;
  for (netlist::NetId n = 0; n < circuit.num_nets() && glitched < 0; ++n) {
    const netlist::GateId g = compiled.driver(n);
    if (g < 0) continue;
    const gatelib::GateType type = circuit.gate(g).type;
    if (type == gatelib::GateType::kAnd || type == gatelib::GateType::kOr ||
        type == gatelib::GateType::kInv || type == gatelib::GateType::kBuf)
      glitched = n;
  }
  ASSERT_GE(glitched, 0) << "no combinational net";
  const sg::SignalId input = gen.graph.input_signals().front();
  const netlist::NetId input_net = binding.signal_net[static_cast<std::size_t>(input)];
  const bool input_initial = gen.graph.value(gen.graph.initial(), input);

  auto force = [](double time, netlist::NetId net, bool value) {
    return sim::TimedInjection{time, net, /*release=*/false, value};
  };
  auto release = [](double time, netlist::NetId net) {
    return sim::TimedInjection{time, net, /*release=*/true, false};
  };

  const std::uint64_t base_seed = 0x71e5ULL + static_cast<std::uint64_t>(GetParam());
  for (int r = 0; r < 3; ++r) {  // one trial per trial_config shape
    const sim::ClosedLoopConfig clean = trial_config(base_seed, r);
    const std::string label =
        "circuit " + std::to_string(GetParam()) + " tie trial " + std::to_string(r);

    // The distinct commit instants of the unfaulted run.  Until the first
    // injection perturbs it, the faulted run follows the same trajectory,
    // so an injection at one of these instants ties with a pending event
    // (an input commit's instant is also the decision's).
    std::vector<double> times;
    sim::ClosedLoopConfig traced = clean;
    traced.observer = [&times](netlist::NetId, bool, double time) {
      if (times.empty() || times.back() != time) times.push_back(time);
    };
    sim::run_closed_loop(gen.graph, circuit, traced);
    ASSERT_GE(times.size(), std::size_t{2}) << label;

    // A glitch whose force and release land exactly on consecutive commit
    // instants, early, mid-run and late.
    const std::size_t n = times.size();
    for (const std::size_t k : {std::size_t{0}, n / 3, 2 * n / 3, n - 2}) {
      sim::ClosedLoopConfig config = clean;
      config.injections = {force(times[k], glitched, k % 2 == 0), release(times[k + 1], glitched)};
      expect_runner_matches_reference(gen.graph, runner, binding, config,
                                      label + " glitch at commit " + std::to_string(k));
    }

    // An input pinned to its present value before the first event (a
    // force that commits nothing) starves the environment; released only
    // after that run would quiesce, the trial resumes from quiescence.
    sim::ClosedLoopConfig pinned = clean;
    pinned.injections = {force(times[0] / 2, input_net, input_initial)};
    const sim::ConformanceReport stalled = sim::run_closed_loop(gen.graph, circuit, pinned);
    expect_runner_matches_reference(gen.graph, runner, binding, pinned, label + " pinned");
    pinned.injections.push_back(release(stalled.simulated_time + 1.0, input_net));
    expect_runner_matches_reference(gen.graph, runner, binding, pinned,
                                    label + " pinned, released after quiescence");
  }
}

/// Re-route every combinational gate output through a `length`-stage
/// BUF or INV ladder (alternating per gate; INV ladders keep even parity
/// so values are preserved).  Every ladder net has exactly one reader, so
/// the compiled netlist fuses the whole ladder into one chain — this is
/// the circuit family that maximally exercises run_burst's hold register.
/// The original output net keeps its name, so bindings and observables
/// are untouched.
netlist::Netlist with_ladders(const netlist::Netlist& source, int length) {
  int counter = 0;
  return netlist::transform_netlist(
      source, [&](const netlist::Gate& gate, netlist::Netlist& out) -> std::optional<netlist::Gate> {
        const bool simple = gate.type == gatelib::GateType::kAnd ||
                            gate.type == gatelib::GateType::kOr ||
                            gate.type == gatelib::GateType::kInv ||
                            gate.type == gatelib::GateType::kBuf;
        if (!simple || gate.feedback_cut || gate.outputs.size() != 1) return gate;
        const std::string prefix = "lad" + std::to_string(counter) + "_";
        const bool invert = (counter++ % 2) != 0;  // INV ladders need even length
        const int stages = invert ? (length + 1) / 2 * 2 : length;
        netlist::Gate head = gate;
        netlist::NetId prev = out.add_net(prefix + "0");
        head.outputs = {prev};
        out.add_gate(std::move(head));
        for (int i = 0; i < stages; ++i) {
          const bool last = i + 1 == stages;
          const netlist::NetId next =
              last ? gate.outputs[0] : out.add_net(prefix + std::to_string(i + 1));
          netlist::Gate link;
          link.type = invert ? gatelib::GateType::kInv : gatelib::GateType::kBuf;
          link.name = prefix + "g" + std::to_string(i);
          link.inputs = {prev};
          link.outputs = {next};
          out.add_gate(std::move(link));
          prev = next;
        }
        return std::nullopt;
      });
}

TEST_P(SimBatchEquivalenceTest, ChainHeavyCircuitsMatchReference) {
  const Generated gen = generate(GetParam());
  // Long ladders on every combinational output: the fused-chain walk now
  // carries most of the event traffic instead of the queue.
  const netlist::Netlist circuit = with_ladders(gen.result.circuit, 6);
  circuit.check_well_formed();
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  ASSERT_GE(compiled.longest_fused_chain(), std::size_t{6});
  const sim::SpecBinding binding(gen.graph, circuit);
  sim::TrialRunner runner(compiled);

  const std::uint64_t base_seed = 0xcadeULL + static_cast<std::uint64_t>(GetParam());
  for (int r = 0; r < 4; ++r) {
    const sim::ClosedLoopConfig config = trial_config(base_seed, r);
    const std::string label =
        "laddered circuit " + std::to_string(GetParam()) + " trial " + std::to_string(r);
    expect_runner_matches_reference(gen.graph, runner, binding, config, label);
  }
}

TEST_P(SimBatchEquivalenceTest, FaultedChainHeavyCircuitsMatchReference) {
  const Generated gen = generate(GetParam());
  const netlist::Netlist circuit = with_ladders(gen.result.circuit, 6);
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(gen.graph, circuit);
  sim::TrialRunner runner(compiled);

  // Force/inject ON the ladder nets themselves: a forced mid-chain net
  // pins a fused link, so the inline walk must agree with the reference
  // about commits that never happen and about the release snap-back.
  std::vector<netlist::NetId> ladder_nets;
  for (netlist::NetId n = 0; n < circuit.num_nets() && ladder_nets.size() < 2; ++n)
    if (circuit.net_name(n).compare(0, 3, "lad") == 0 && compiled.driver(n) >= 0)
      ladder_nets.push_back(n);
  if (ladder_nets.size() < 2) GTEST_SKIP() << "no ladder nets";

  const std::uint64_t base_seed = 0xdeafULL + static_cast<std::uint64_t>(GetParam());
  for (int r = 0; r < 3; ++r) {
    sim::ClosedLoopConfig config = trial_config(base_seed, r);
    config.forces.emplace_back(ladder_nets[0], (r % 2) != 0);
    sim::TimedInjection hit;
    hit.time = 4.0 + 0.5 * r;
    hit.net = ladder_nets[1];
    hit.value = (r % 2) == 0;
    sim::TimedInjection drop = hit;
    drop.time = hit.time + 0.25;
    drop.release = true;
    config.injections = {hit, drop};

    const std::string label =
        "laddered circuit " + std::to_string(GetParam()) + " faulted trial " + std::to_string(r);
    expect_runner_matches_reference(gen.graph, runner, binding, config, label);
  }
}

// 64 seeded circuits: the battery the acceptance criteria name.
INSTANTIATE_TEST_SUITE_P(Seeds, SimBatchEquivalenceTest, ::testing::Range(1, kCircuits + 1));

}  // namespace
}  // namespace nshot
