#include "sim/conformance.hpp"

#include <algorithm>
#include <sstream>

#include "exec/thread_pool.hpp"
#include "obs/obs.hpp"
#include "sim/trial_runner.hpp"
#include "sim/vcd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nshot::sim {

using netlist::NetId;

const char* violation_kind_name(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kHazard: return "hazard";
    case ViolationKind::kEnvironment: return "environment";
    case ViolationKind::kDeadlock: return "deadlock";
    case ViolationKind::kEventBudget: return "event-budget";
  }
  return "unknown";
}

std::string ConformanceReport::summary() const {
  std::ostringstream out;
  out << runs << " run(s): " << external_transitions << " conformant external transitions, "
      << internal_toggles << " internal toggles, " << deadlocks << " deadlock(s), "
      << violations.size() << " violation(s)";
  if (budget_exhausted > 0) out << ", " << budget_exhausted << " budget-exhausted run(s)";
  for (std::size_t i = 0; i < std::min<std::size_t>(violations.size(), 5); ++i)
    out << "\n  [seed " << violations[i].seed << " t=" << violations[i].time << "] "
        << violation_kind_name(violations[i].kind) << ": " << violations[i].description;
  return out.str();
}

std::vector<std::pair<NetId, bool>> initial_net_values(const sg::StateGraph& spec,
                                                       const netlist::Netlist& circuit) {
  std::vector<std::pair<NetId, bool>> values;
  for (int x = 0; x < spec.num_signals(); ++x) {
    const bool v = spec.value(spec.initial(), x);
    if (const auto q = circuit.find_net(spec.signal(x).name)) values.emplace_back(*q, v);
    if (const auto qb = circuit.find_net(spec.signal(x).name + "_b"))
      values.emplace_back(*qb, !v);
  }
  if (const auto c0 = circuit.find_net("const0")) values.emplace_back(*c0, false);
  if (const auto c1 = circuit.find_net("const1")) values.emplace_back(*c1, true);
  return values;
}

SpecBinding::SpecBinding(const sg::StateGraph& spec, const netlist::Netlist& circuit) {
  signal_net.assign(static_cast<std::size_t>(spec.num_signals()), -1);
  net_signal.assign(static_cast<std::size_t>(circuit.num_nets()), -1);
  for (int x = 0; x < spec.num_signals(); ++x) {
    const auto net = circuit.find_net(spec.signal(x).name);
    NSHOT_REQUIRE(net.has_value(), "circuit has no net for signal " + spec.signal(x).name);
    signal_net[static_cast<std::size_t>(x)] = *net;
    net_signal[static_cast<std::size_t>(*net)] = x;
    observable.push_back(*net);
    if (const auto qb = circuit.find_net(spec.signal(x).name + "_b")) observable.push_back(*qb);
  }
  initial_values = initial_net_values(spec, circuit);

  num_signals = spec.num_signals();
  successor.assign(static_cast<std::size_t>(spec.num_states()) *
                       static_cast<std::size_t>(num_signals) * 2,
                   sg::StateId{-1});
  for (sg::StateId s = 0; s < spec.num_states(); ++s)
    for (const sg::Edge& e : spec.out_edges(s))
      successor[(static_cast<std::size_t>(s) * static_cast<std::size_t>(num_signals) +
                 static_cast<std::size_t>(e.label.signal)) * 2 + (e.label.rising ? 1 : 0)] =
          e.target;
}

/// Fold one trial's report into the sweep total.  Trials are merged in run
/// order, so a parallel sweep reproduces the serial report byte for byte.
static void merge_run(ConformanceReport& total, const ConformanceReport& run) {
  total.external_transitions += run.external_transitions;
  total.internal_toggles += run.internal_toggles;
  total.absorbed_pulses += run.absorbed_pulses;
  total.simulated_time += run.simulated_time;
  total.deadlocks += run.deadlocks;
  total.budget_exhausted += run.budget_exhausted;
  total.violations.insert(total.violations.end(), run.violations.begin(),
                          run.violations.end());
}

ConformanceReport check_conformance(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                                    const ConformanceOptions& options) {
  const CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  return check_conformance(spec, compiled, options);
}

ConformanceReport check_conformance(const sg::StateGraph& spec, const CompiledNetlist& compiled,
                                    const ConformanceOptions& options) {
  // Every trial is a pure function of run_seed(options.seed, r), so the
  // sweep is an order-independent bag of work; only the merge is ordered.
  // Chunking lets each scheduled task run many sub-millisecond trials
  // through one TrialRunner.
  const obs::Span conf_span("conformance");
  const SpecBinding binding(spec, compiled.netlist());
  auto trial_config = [&](int r) {
    ClosedLoopConfig config;
    config.sim.seed = run_seed(options.seed, r);
    config.sim.randomize_delays = true;
    config.sim.max_events = options.max_events;
    config.max_transitions = options.max_transitions;
    config.input_delay_min = options.input_delay_min;
    config.input_delay_max = options.input_delay_max;
    config.time_limit = options.time_limit;
    config.fundamental_mode = options.fundamental_mode;
    return config;
  };
  const std::size_t runs = static_cast<std::size_t>(std::max(options.runs, 0));
  std::vector<ConformanceReport> trials(runs);
  exec::parallel_for_chunks(
      options.runs, exec::batch_grain(options.runs, options.jobs),
      [&](int begin, int end) {
        // Chunk boundaries are a scheduling detail (they move with jobs),
        // so the span is task-scoped: dropped from deterministic exports,
        // kept in wall-clock traces.
        const obs::Span chunk_span = obs::Span::task("trials", begin);
        obs::count(obs::Counter::kTrialsRun, end - begin);
        TrialRunner runner(compiled);  // one per chunk
        for (int r = begin; r < end; ++r)
          trials[static_cast<std::size_t>(r)] = runner.run(spec, binding, trial_config(r));
      },
      options.jobs);
  ConformanceReport report;
  report.runs = options.runs;
  for (const ConformanceReport& trial : trials) merge_run(report, trial);
  return report;
}

TracedRun record_vcd_trace(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                           std::uint64_t seed, int max_transitions) {
  const CompiledNetlist compiled(circuit, gatelib::GateLibrary::standard());
  const SpecBinding binding(spec, circuit);
  TrialRunner runner(compiled);
  VcdRecorder recorder(circuit);
  ClosedLoopConfig config;
  config.sim.seed = seed;
  config.sim.randomize_delays = true;
  config.max_transitions = max_transitions;
  TracedRun traced = {};
  traced.report = runner.run(spec, binding, config, &recorder);
  traced.vcd = recorder.write();
  return traced;
}

}  // namespace nshot::sim
