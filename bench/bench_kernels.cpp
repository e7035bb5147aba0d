// Compiled-kernel layer: single-thread speedup and equivalence measurement.
//
// Every hot path of the kernel layer has one production implementation and
// one reference, a test-only oracle linked from tests/oracles: the
// reference closed-loop trial (sim::reference::run_closed_loop — per-trial
// compile, fresh Simulator, one step() per event) for the trial engine, stg::reference
// reachability and sg::reference::compute_regions.  For each benchmark
// circuit this harness runs the same trial configs once through the
// reference trial and once through the production sim::TrialRunner,
// serially:
//   * conformance: the Monte Carlo sweep's trials, as check_conformance
//     builds them;
//   * stress: the stress campaign's margin-run and fault-battery
//     scenarios (faults::reference::run_scenario vs faults::run_scenario
//     on the runner);
// and
//   * asserts the two legs' reports are byte-identical (and the
//     conformance leg equal to check_conformance's report);
//   * records wall-clock times and speedups in BENCH_kernels.json.
// The reachability and region kernels are timed the same way on their own
// inputs.
//
// `--smoke` shrinks every workload for CI sanity runs; the JSON records the
// flag so smoke numbers are never mistaken for measurements.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_timer.hpp"
#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generators.hpp"
#include "exec/thread_pool.hpp"
#include "faults/stress.hpp"
#include "nshot/synthesis.hpp"
#include "obs/obs.hpp"
#include "oracles/reachability_reference.hpp"
#include "oracles/sg_reference.hpp"
#include "oracles/trial_reference.hpp"
#include "sg/regions.hpp"
#include "sim/conformance.hpp"
#include "sim/trial_runner.hpp"
#include "stg/g_format.hpp"
#include "stg/reachability.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace nshot;
using bench::MinTimer;

std::string conformance_fingerprint(const sim::ConformanceReport& r) {
  std::ostringstream out;
  out << r.runs << '/' << r.external_transitions << '/' << r.internal_toggles << '/'
      << r.absorbed_pulses << '/' << r.simulated_time << '/' << r.deadlocks << '/'
      << r.budget_exhausted << '/' << r.violations.size();
  for (const sim::ConformanceViolation& v : r.violations)
    out << '|' << v.seed << '@' << v.time << ':' << v.description;
  return out.str();
}

struct CaseTiming {
  std::string name;
  int states = 0, signals = 0;
  double conf_reference_ms = 0, conf_compiled_ms = 0;
  double conf_reference_sd = 0, conf_compiled_sd = 0;
  double stress_reference_ms = 0, stress_compiled_ms = 0;
  double stress_reference_sd = 0, stress_compiled_sd = 0;
  /// Committed transitions of the conformance sweep (external + internal)
  /// — identical across legs by the byte-identity contract, so per-leg
  /// events/sec ratios are exactly the inverse time ratios.  This is
  /// committed-event throughput, not raw queue traffic (absorbed and
  /// stale events are excluded).
  long conf_events = 0;
  double conf_events_per_sec(double ms) const {
    return ms > 0 ? static_cast<double>(conf_events) / (ms / 1e3) : 0;
  }
  bool identical = false;
};

/// Fold one trial into a sweep total, in trial order (check_conformance's
/// merge).
void merge_trial(sim::ConformanceReport& total, const sim::ConformanceReport& trial) {
  total.runs += trial.runs;
  total.external_transitions += trial.external_transitions;
  total.internal_toggles += trial.internal_toggles;
  total.absorbed_pulses += trial.absorbed_pulses;
  total.simulated_time += trial.simulated_time;
  total.deadlocks += trial.deadlocks;
  total.budget_exhausted += trial.budget_exhausted;
  total.violations.insert(total.violations.end(), trial.violations.begin(),
                          trial.violations.end());
}

CaseTiming measure(const std::string& name, bool smoke) {
  const sg::StateGraph g = bench_suite::build_benchmark(name);
  const core::SynthesisResult result = core::synthesize(g);
  const netlist::Netlist& circuit = result.circuit;
  const sim::CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(g, circuit);

  // The conformance sweep's trials, configured as check_conformance does.
  sim::ConformanceOptions conf;
  conf.seed = 7;
  conf.runs = smoke ? 8 : 96;
  conf.max_transitions = 150;
  conf.jobs = 1;
  std::vector<sim::ClosedLoopConfig> trials;
  for (int r = 0; r < conf.runs; ++r) {
    sim::ClosedLoopConfig config;
    config.sim.seed = run_seed(conf.seed, r);
    config.sim.randomize_delays = true;
    config.sim.max_events = conf.max_events;
    config.max_transitions = conf.max_transitions;
    config.input_delay_min = conf.input_delay_min;
    config.input_delay_max = conf.input_delay_max;
    config.time_limit = conf.time_limit;
    trials.push_back(config);
  }

  // The stress campaign's margin-run and fault-battery scenarios; the
  // battery is read off one campaign's outcomes, outside the timers.
  faults::StressOptions stress;
  stress.seed = 2026;
  stress.margin_runs = smoke ? 2 : 8;
  stress.run.max_transitions = 100;
  stress.adversarial.restarts = 0;
  stress.jobs = 1;
  std::vector<faults::FaultScenario> scenarios;
  for (int r = 0; r < stress.margin_runs; ++r) {
    faults::FaultScenario scenario;
    scenario.seed = run_seed(stress.seed, r);
    scenarios.push_back(scenario);
  }
  for (const faults::FaultOutcome& outcome :
       faults::run_stress(g, circuit, name, stress).outcomes) {
    faults::FaultScenario scenario;
    scenario.seed = stress.seed;
    scenario.faults.push_back(outcome.fault);
    scenarios.push_back(scenario);
  }

  CaseTiming timing;
  timing.name = name;
  timing.states = g.num_states();
  timing.signals = g.num_signals();
  // Virtualized hosts show steal-time spikes invisible to the guest; only
  // a deep min-of-N converges on the true floor.
  const int reps = smoke ? 1 : 15;

  // Two legs, interleaved, over the same configs: the reference trial and
  // one reused TrialRunner (what a jobs=1 sweep runs).  The recorded
  // speedups are reference/compiled; the reports must be byte-identical.
  sim::ConformanceReport conf_reference, conf_compiled, stress_reference, stress_compiled;
  MinTimer conf_ref_t, conf_fast_t, stress_ref_t, stress_fast_t;
  for (int i = 0; i < reps; ++i) {
    conf_ref_t.sample([&] {
      conf_reference = {};
      for (const sim::ClosedLoopConfig& config : trials)
        merge_trial(conf_reference, sim::reference::run_closed_loop(g, circuit, config));
    });
    conf_fast_t.sample([&] {
      conf_compiled = {};
      sim::TrialRunner runner(compiled);
      for (const sim::ClosedLoopConfig& config : trials)
        merge_trial(conf_compiled, runner.run(g, binding, config));
    });
    stress_ref_t.sample([&] {
      stress_reference = {};
      for (const faults::FaultScenario& scenario : scenarios)
        merge_trial(stress_reference,
                    faults::reference::run_scenario(g, circuit, scenario, stress.run));
    });
    stress_fast_t.sample([&] {
      stress_compiled = {};
      sim::TrialRunner runner(compiled);
      for (const faults::FaultScenario& scenario : scenarios)
        merge_trial(stress_compiled,
                    faults::run_scenario(g, binding, scenario, stress.run, runner));
    });
  }
  timing.conf_reference_ms = conf_ref_t.best;
  timing.conf_compiled_ms = conf_fast_t.best;
  timing.conf_reference_sd = conf_ref_t.sd();
  timing.conf_compiled_sd = conf_fast_t.sd();
  timing.stress_reference_ms = stress_ref_t.best;
  timing.stress_compiled_ms = stress_fast_t.best;
  timing.stress_reference_sd = stress_ref_t.sd();
  timing.stress_compiled_sd = stress_fast_t.sd();

  timing.conf_events = conf_reference.external_transitions + conf_reference.internal_toggles;
  timing.identical =
      conformance_fingerprint(conf_reference) == conformance_fingerprint(conf_compiled) &&
      conformance_fingerprint(conf_compiled) ==
          conformance_fingerprint(sim::check_conformance(g, circuit, conf)) &&
      conformance_fingerprint(stress_reference) == conformance_fingerprint(stress_compiled);
  return timing;
}

struct KernelTiming {
  std::string name;
  int states = 0, signals = 0;  // workload size, 0 = not state-graph based
  double reference_ms = 0, fast_ms = 0;
  double reference_sd = 0, fast_sd = 0;
  bool identical = false;
};

/// Token-flow reachability: the flat-arena sweep vs the ordered-map oracle,
/// over generated controller STGs.
KernelTiming measure_reachability(bool smoke) {
  // Four three-stage chains give a marking graph in the thousands of
  // states — large enough that map lookups, not parsing, dominate.
  std::vector<stg::Stg> nets;
  nets.push_back(stg::parse_g(bench_suite::parallel_chains_g(
      "k-chains", "m", /*master_is_input=*/true,
      {{"a0", "a1", "a2"}, {"b0", "b1", "b2"}, {"c0", "c1", "c2"}, {"d0", "d1", "d2"}},
      /*inputs=*/{"a0", "b0", "c0", "d0"},
      /*outputs=*/{"a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2"})));
  nets.push_back(stg::parse_g(bench_suite::staged_cycle_g(
      "k-stages", {"r0", "r1"}, {"g0", "g1", "d0", "d1"},
      {{"r0+", "r1+"}, {"g0+", "g1+"}, {"d0+", "d1+"}, {"r0-", "r1-"},
       {"g0-", "g1-"}, {"d0-", "d1-"}})));
  const int repeats = smoke ? 2 : 40;
  const int reps = smoke ? 1 : 9;

  KernelTiming timing;
  timing.name = "reachability";
  stg::ReachabilityOptions options;
  for (const stg::Stg& net : nets) {
    const sg::StateGraph g = stg::build_state_graph(net, options);
    timing.states += g.num_states();
    timing.signals = std::max(timing.signals, g.num_signals());
  }

  std::string reference_out, fast_out;
  auto build = [&](std::string& out, auto&& build_graph) {
    out.clear();
    for (int i = 0; i < repeats; ++i)
      for (const stg::Stg& net : nets)
        out = std::to_string(build_graph(net, options).num_states());
  };
  MinTimer ref_t, fast_t;
  for (int i = 0; i < reps; ++i) {
    ref_t.sample([&] { build(reference_out, stg::reference::build_state_graph); });
    fast_t.sample([&] { build(fast_out, stg::build_state_graph); });
  }
  timing.reference_ms = ref_t.best;
  timing.fast_ms = fast_t.best;
  timing.reference_sd = ref_t.sd();
  timing.fast_sd = fast_t.sd();

  timing.identical = reference_out == fast_out;
  return timing;
}

/// Region computation: word-packed planes and bit floods vs the ordered
/// std::set / std::map oracle, over the benchmark suite.
KernelTiming measure_regions(bool smoke) {
  std::vector<sg::StateGraph> graphs;
  for (const char* name : {"chu133", "converta", "vbe5b", "read-write"})
    graphs.push_back(bench_suite::build_benchmark(name));
  const int repeats = smoke ? 2 : 200;
  const int reps = smoke ? 1 : 5;

  KernelTiming timing;
  timing.name = "regions";
  for (const sg::StateGraph& g : graphs) {
    timing.states += g.num_states();
    timing.signals = std::max(timing.signals, g.num_signals());
  }

  // Time the region computation alone; rendering to_string is shared
  // serialization work that would dilute the kernel ratio, so the
  // byte-equality comparison runs once outside the timers.
  std::size_t reference_regions = 0, fast_regions = 0;
  MinTimer ref_t, fast_t;
  for (int r = 0; r < reps; ++r) {
    ref_t.sample([&] {
      reference_regions = 0;
      for (int i = 0; i < repeats; ++i)
        for (const sg::StateGraph& g : graphs)
          for (const sg::SignalId a : g.noninput_signals())
            reference_regions += sg::reference::compute_regions(g, a).regions.size();
    });
    fast_t.sample([&] {
      fast_regions = 0;
      for (int i = 0; i < repeats; ++i)
        for (const sg::StateGraph& g : graphs)
          for (const sg::SignalId a : g.noninput_signals())
            fast_regions += sg::compute_regions(g, a).regions.size();
    });
  }
  timing.reference_ms = ref_t.best;
  timing.fast_ms = fast_t.best;
  timing.reference_sd = ref_t.sd();
  timing.fast_sd = fast_t.sd();

  timing.identical = reference_regions == fast_regions;
  for (const sg::StateGraph& g : graphs)
    for (const sg::SignalId a : g.noninput_signals())
      timing.identical = timing.identical && sg::reference::compute_regions(g, a).to_string(g) ==
                                                 sg::compute_regions(g, a).to_string(g);
  return timing;
}

/// Cost of the observability layer on the hottest instrumented loop.
/// The pipeline is instrumented unconditionally (no recompile to turn it
/// on), so the number that matters is the price of the dormant
/// check-a-flag-and-return calls: `disabled_ms` times the conformance
/// sweep with no Session alive, `enabled_ms` with one collecting.  The
/// two legs interleave samples like every other comparison here.
struct ObsTiming {
  double disabled_ms = 0, enabled_ms = 0;
  std::string passes_fragment;  // per-pass breakdown from the enabled leg
  double overhead_pct() const {
    return disabled_ms > 0 ? (enabled_ms / disabled_ms - 1.0) * 100.0 : 0.0;
  }
};

ObsTiming measure_obs(bool smoke) {
  const sg::StateGraph g = bench_suite::build_benchmark("chu133");
  const core::SynthesisResult result = core::synthesize(g);

  sim::ConformanceOptions conf;
  conf.seed = 7;
  conf.runs = smoke ? 8 : 96;
  conf.max_transitions = 150;
  conf.jobs = 1;

  ObsTiming timing;
  const int reps = smoke ? 1 : 15;
  MinTimer disabled_t, enabled_t;
  for (int i = 0; i < reps; ++i) {
    disabled_t.sample([&] { sim::check_conformance(g, result.circuit, conf); });
    {
      obs::Session session("bench_kernels", "obs-overhead");
      enabled_t.sample([&] { sim::check_conformance(g, result.circuit, conf); });
      if (timing.passes_fragment.empty())
        timing.passes_fragment = obs::passes_json_fragment(session.report());
    }
  }
  timing.disabled_ms = disabled_t.best;
  timing.enabled_ms = enabled_t.best;
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_kernels.json";
  const char* usage = "usage: bench_kernels [--smoke] [OUT.json]\n";
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

  const int hardware = exec::hardware_jobs();
  std::printf("Kernel bench: reference vs compiled paths, serial%s\n\n",
              smoke ? " (smoke)" : "");
  std::printf("%-12s %10s %10s %7s %10s %10s %7s %5s\n", "circuit", "conf ref", "conf fast",
              "x", "stress ref", "stress fast", "x", "same");

  bool all_identical = true;
  std::vector<CaseTiming> timings;
  for (const char* name : {"chu133", "converta", "vbe5b", "read-write"}) {
    const CaseTiming t = measure(name, smoke);
    NSHOT_REQUIRE(t.identical, "compiled report diverged from reference on " + t.name);
    all_identical &= t.identical;
    std::printf("%-12s %8.1fms %8.1fms %6.2fx %8.1fms %8.1fms %6.2fx %5s\n", t.name.c_str(),
                t.conf_reference_ms, t.conf_compiled_ms, t.conf_reference_ms / t.conf_compiled_ms,
                t.stress_reference_ms, t.stress_compiled_ms,
                t.stress_reference_ms / t.stress_compiled_ms, t.identical ? "yes" : "NO");
    timings.push_back(t);
  }

  std::printf("\n%-16s %12s %12s %8s %6s\n", "kernel", "ref", "fast", "x", "same");
  std::vector<KernelTiming> kernels;
  for (KernelTiming (*bench)(bool) : {&measure_reachability, &measure_regions}) {
    const KernelTiming k = bench(smoke);
    NSHOT_REQUIRE(k.identical, "kernel " + k.name + " diverged from its reference");
    all_identical &= k.identical;
    std::printf("%-16s %10.1fms %10.1fms %7.2fx %6s\n", k.name.c_str(), k.reference_ms, k.fast_ms,
                k.reference_ms / k.fast_ms, k.identical ? "yes" : "NO");
    kernels.push_back(k);
  }

  const ObsTiming obs_timing = measure_obs(smoke);
  std::printf(
      "\nobservability: dormant %.1fms, collecting %.1fms (%+.2f%% while collecting)\n",
      obs_timing.disabled_ms, obs_timing.enabled_ms, obs_timing.overhead_pct());

  double conf_reference = 0, conf_compiled = 0;
  double stress_reference = 0, stress_compiled = 0;
  for (const CaseTiming& t : timings) {
    conf_reference += t.conf_reference_ms;
    conf_compiled += t.conf_compiled_ms;
    stress_reference += t.stress_reference_ms;
    stress_compiled += t.stress_compiled_ms;
  }
  const double conf_speedup = conf_compiled > 0 ? conf_reference / conf_compiled : 0;
  const double stress_speedup = stress_compiled > 0 ? stress_reference / stress_compiled : 0;
  const double total_speedup = (conf_compiled + stress_compiled) > 0
                                   ? (conf_reference + stress_reference) /
                                         (conf_compiled + stress_compiled)
                                   : 0;
  std::printf(
      "\ntotal: production vs reference: conformance %.2fx, stress %.2fx, combined %.2fx "
      "(single thread, %d hardware threads)\n",
      conf_speedup, stress_speedup, total_speedup, hardware);

  std::ostringstream json;
  json << "{\n  \"hardware_jobs\": " << hardware << ",\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"byte_identical\": " << (all_identical ? "true" : "false")
       << ",\n  \"conformance_speedup\": " << conf_speedup
       << ",\n  \"stress_speedup\": " << stress_speedup
       << ",\n  \"total_speedup\": " << total_speedup << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const CaseTiming& t = timings[i];
    json << "    {\"name\": \"" << t.name << "\", \"states\": " << t.states
         << ", \"signals\": " << t.signals << ", \"hardware_concurrency\": " << hardware
         << ", \"conformance_reference_ms\": " << t.conf_reference_ms
         << ", \"conformance_reference_sd\": " << t.conf_reference_sd
         << ", \"conformance_compiled_ms\": " << t.conf_compiled_ms
         << ", \"conformance_compiled_sd\": " << t.conf_compiled_sd
         << ", \"conformance_events\": " << t.conf_events
         << ", \"conformance_events_per_sec_reference\": "
         << t.conf_events_per_sec(t.conf_reference_ms)
         << ", \"conformance_events_per_sec_compiled\": "
         << t.conf_events_per_sec(t.conf_compiled_ms)
         << ", \"stress_reference_ms\": " << t.stress_reference_ms
         << ", \"stress_reference_sd\": " << t.stress_reference_sd
         << ", \"stress_compiled_ms\": " << t.stress_compiled_ms
         << ", \"stress_compiled_sd\": " << t.stress_compiled_sd << "}"
         << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelTiming& k = kernels[i];
    json << "    {\"name\": \"" << k.name << "\", \"states\": " << k.states
         << ", \"signals\": " << k.signals << ", \"hardware_concurrency\": " << hardware
         << ", \"reference_ms\": " << k.reference_ms
         << ", \"reference_sd\": " << k.reference_sd << ", \"fast_ms\": " << k.fast_ms
         << ", \"fast_sd\": " << k.fast_sd << "}"
         << (i + 1 < kernels.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"observability\": {\"disabled_ms\": " << obs_timing.disabled_ms
       << ", \"enabled_ms\": " << obs_timing.enabled_ms
       << ", \"overhead_pct\": " << obs_timing.overhead_pct() << ", "
       << obs_timing.passes_fragment << "}\n}\n";
  std::ofstream(out_path) << json.str();
  std::printf("wrote %s\n", out_path);
  return 0;
}
