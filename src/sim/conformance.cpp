#include "sim/conformance.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <optional>
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

namespace {

/// One closed-loop run; appends to the report.  `sim` must be freshly
/// reset (or constructed) under config.sim.  When `recorder` is given,
/// every net change (and the initial values) are captured for VCD export.
void run_once(const sg::StateGraph& spec, const SpecBinding& binding, Simulator& sim,
              const ClosedLoopConfig& config, ConformanceReport& report,
              VcdRecorder* recorder = nullptr) {
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
    const double decision_time = decision ? decision->time : kNever;
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
      if (config.fundamental_mode && decision->time < sim.now())
        decision->time = sim.now();  // the circuit outlasted the planned instant
      sim.set_input(signal_net[static_cast<std::size_t>(decision->label.signal)],
                    decision->label.rising, decision->time);
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

/// The reference trial: compile + construct a heap-queue Simulator for
/// this one run (the per-trial cost model TrialRunner is measured against).
ConformanceReport reference_trial(const sg::StateGraph& spec, const SpecBinding& binding,
                                  const netlist::Netlist& circuit,
                                  const gatelib::GateLibrary& lib, const ClosedLoopConfig& config,
                                  VcdRecorder* recorder = nullptr) {
  Simulator sim(circuit, lib, config.sim);
  ConformanceReport report;
  report.runs = 1;
  run_once(spec, binding, sim, config, report, recorder);
  return report;
}

/// First differing fingerprint field between two single-trial reports, or
/// nullptr when they agree.  Everything a trial computes funnels into
/// these fields, so agreement here is agreement on the trial.
const char* trial_mismatch_field(const ConformanceReport& got, const ConformanceReport& want) {
  if (got.external_transitions != want.external_transitions) return "external_transitions";
  if (got.internal_toggles != want.internal_toggles) return "internal_toggles";
  if (got.absorbed_pulses != want.absorbed_pulses) return "absorbed_pulses";
  if (got.simulated_time != want.simulated_time) return "simulated_time";
  if (got.deadlocks != want.deadlocks) return "deadlocks";
  if (got.budget_exhausted != want.budget_exhausted) return "budget_exhausted";
  if (got.violations.size() != want.violations.size()) return "violations";
  return nullptr;
}

std::atomic<int> g_inject_kernel_fault{-1};  // -1 = env not read yet

}  // namespace

namespace testing {

void set_kernel_fault_injection(bool enabled) {
  g_inject_kernel_fault.store(enabled ? 1 : 0, std::memory_order_relaxed);
}

bool kernel_fault_injection() {
  int v = g_inject_kernel_fault.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* env = std::getenv("NSHOT_INJECT_KERNEL_FAULT");
    v = (env && *env && *env != '0') ? 1 : 0;
    g_inject_kernel_fault.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

}  // namespace testing

ConformanceReport run_closed_loop(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                                  const ClosedLoopConfig& config, VcdRecorder* recorder) {
  const SpecBinding binding(spec, circuit);
  return reference_trial(spec, binding, circuit, gatelib::GateLibrary::standard(), config,
                         recorder);
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
  std::vector<ConformanceReport> trials(static_cast<std::size_t>(std::max(options.runs, 0)));
  exec::parallel_for_chunks(
      options.runs,
      options.grain > 0 ? options.grain : exec::batch_grain(options.runs, options.jobs),
      [&](int begin, int end) {
        // Chunk boundaries are a scheduling detail (they move with jobs /
        // grain), so the span is task-scoped: dropped from deterministic
        // exports, kept in wall-clock traces.
        const obs::Span chunk_span = obs::Span::task("trials", begin);
        obs::count(obs::Counter::kTrialsRun, end - begin);
        std::optional<TrialRunner> runner;  // one per chunk, reused per trial
        if (!options.reference_kernels) runner.emplace(compiled);
        for (int r = begin; r < end; ++r) {
          const ClosedLoopConfig config = trial_config(r);
          if (!runner) {
            trials[static_cast<std::size_t>(r)] =
                reference_trial(spec, binding, compiled.netlist(), compiled.lib(), config);
            continue;
          }
          ConformanceReport trial = runner->run(spec, binding, config);
          if (options.verify_kernels) {
            if (testing::kernel_fault_injection()) ++trial.internal_toggles;
            const ConformanceReport oracle =
                reference_trial(spec, binding, compiled.netlist(), compiled.lib(), config);
            if (const char* field = trial_mismatch_field(trial, oracle)) {
              obs::count(obs::Counter::kKernelMismatches);
              throw Error(ErrorCode::kKernelMismatch,
                          "compiled simulator diverged from reference on trial " +
                              std::to_string(r) + " (seed " + std::to_string(config.sim.seed) +
                              "): field " + field);
            }
          }
          trials[static_cast<std::size_t>(r)] = std::move(trial);
        }
      },
      options.jobs);
  ConformanceReport report;
  report.runs = options.runs;
  for (const ConformanceReport& trial : trials) merge_run(report, trial);
  return report;
}

TracedRun record_vcd_trace(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                           std::uint64_t seed, int max_transitions) {
  VcdRecorder recorder(circuit);
  ClosedLoopConfig config;
  config.sim.seed = seed;
  config.sim.randomize_delays = true;
  config.max_transitions = max_transitions;
  TracedRun traced = {};
  traced.report = run_closed_loop(spec, circuit, config, &recorder);
  traced.vcd = recorder.write();
  return traced;
}

}  // namespace nshot::sim
