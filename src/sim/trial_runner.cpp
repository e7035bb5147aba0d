#include "sim/trial_runner.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "sim/vcd.hpp"
#include "util/rng.hpp"

namespace nshot::sim {

using netlist::NetId;

TrialRunner::TrialRunner(const CompiledNetlist& compiled)
    : compiled_(&compiled), sim_(compiled, SimulatorOptions{}, QueueKind::kAdaptive) {}

// The combinational settle depends only on the initial values, so it is
// computed once by the Simulator's own dependency-order relaxation and
// replayed while the key stays the same.  Both initialize paths run the
// same storage-arming pass, so the event sequence is identical.
void TrialRunner::initialize(const std::vector<std::pair<NetId, bool>>& fixed) {
  if (have_settle_ && settle_key_ == fixed) {
    sim_.initialize_from_settled(settled_);
    return;
  }
  sim_.initialize(fixed);
  settled_ = sim_.net_values();
  settle_key_ = fixed;
  have_settle_ = true;
}

ConformanceReport TrialRunner::run(const sg::StateGraph& spec, const SpecBinding& binding,
                                   const ClosedLoopConfig& config, VcdRecorder* recorder) {
  ConformanceReport report;
  report.runs = 1;
  sim_.reset(config.sim);
  run_fast(spec, binding, config, report, recorder);
  return report;
}

// The fast driver.  Control flow, RNG draw sequence, violation strings and
// report arithmetic replicate the reference trial's run_once
// (tests/oracles/trial_reference.cpp) exactly — the differences are
// mechanical: the pop-commit-evaluate cycle runs inside Simulator::run_burst
// and only observable commits surface here; a force or release commits at
// most the pinned net itself, which the driver checks when force_net /
// release_net report a commit; and the environment's choice list is rebuilt
// only when the spec state or forced-net set could have changed (run_once
// rebuilds each iteration, but a rebuild's outcome — including whether the
// RNG is drawn — only depends on that state).
void TrialRunner::run_fast(const sg::StateGraph& spec, const SpecBinding& binding,
                           const ClosedLoopConfig& config, ConformanceReport& report,
                           VcdRecorder* recorder) {
  const std::uint64_t seed = config.sim.seed;
  Rng rng(env_stream(config.env_seed != 0 ? config.env_seed : seed));
  const std::vector<NetId>& signal_net = binding.signal_net;
  const int* net_sig = binding.net_signal.data();

  sg::StateId state = spec.initial();
  long run_transitions = 0;
  bool failed = false;
  bool env_dirty = true;  // choices stale: rebuild before the first decision

  // The per-commit pre-checks (VCD capture, then the extra observer — the
  // order run_once's observer runs them).  Without a recorder the extra
  // observer (the margin probe, say) is handed over as is rather than
  // through a wrapper — one std::function hop per commit instead of two.
  NetObserver vcd_observer = recorder ? recorder->observer() : NetObserver{};
  NetObserver pre_observers;
  const NetObserver* pre = config.observer ? &config.observer : nullptr;
  if (vcd_observer) {
    pre_observers = [&](NetId net, bool value, double time) {
      vcd_observer(net, value, time);
      if (config.observer) config.observer(net, value, time);
    };
    pre = &pre_observers;
  }

  // The spec walk for one committed observable change.
  auto walk = [&](NetId net, bool value, double time) {
    const int x = net_sig[static_cast<std::size_t>(net)];
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
  };
  // The one commit a force or release may make: the pinned net, now.
  auto check_pinned = [&](bool committed, NetId net) {
    if (!committed) return;
    const bool value = sim_.value(net);
    if (pre != nullptr) (*pre)(net, value, sim_.now());
    walk(net, value, sim_.now());
  };

  initialize(binding.initial_values);
  if (recorder) recorder->capture_initial(sim_);
  if (config.on_initialized) config.on_initialized(sim_);
  for (const auto& [net, value] : config.forces) check_pinned(sim_.force_net(net, value), net);

  struct InputDecision {
    sg::TransitionLabel label;
    double time;
  };
  std::optional<InputDecision> decision;
  std::size_t next_injection = 0;
  constexpr double kNever = std::numeric_limits<double>::infinity();

  while (!failed && run_transitions < config.max_transitions &&
         sim_.now() < config.time_limit && !sim_.budget_exhausted()) {
    // (Re)validate or make the environment's next input decision.
    if (decision &&
        binding.next_state(state, decision->label.signal, decision->label.rising) < 0)
      decision.reset();
    if (!decision && env_dirty) {
      choices_.clear();
      for (const sg::Edge& e : spec.out_edges(state))
        if (spec.is_input(e.label.signal) &&
            !sim_.is_forced(signal_net[static_cast<std::size_t>(e.label.signal)]))
          choices_.push_back(e.label);
      if (!choices_.empty()) {
        const sg::TransitionLabel pick = choices_[rng.next_below(choices_.size())];
        decision = InputDecision{
            pick, sim_.now() + rng.next_double(config.input_delay_min, config.input_delay_max)};
      }
      env_dirty = false;
    }

    // Circuit events run in bursts up to `bound`: the decision instant
    // (none in fundamental mode), or strictly before the next injection
    // when it is not later than the decision.  An injection that is due —
    // no later than the next event and the decision, ties included — fires
    // first: the fault is already present at that instant.
    double bound = (decision && !config.fundamental_mode) ? decision->time : kNever;
    if (next_injection < config.injections.size()) {
      const TimedInjection& inj = config.injections[next_injection];
      const double injection_time = std::max(inj.time, sim_.now());
      if (injection_time <= (decision ? decision->time : kNever)) {
        if (!sim_.has_pending_events() || injection_time <= sim_.next_event_time()) {
          ++next_injection;
          sim_.advance_time(injection_time);
          check_pinned(inj.release ? sim_.release_net(inj.net) : sim_.force_net(inj.net, inj.value),
                       inj.net);
          env_dirty = true;  // the forced-net set changed
          continue;
        }
        bound = std::nextafter(injection_time, -kNever);
      }
    }

    if (sim_.has_pending_events() &&
        (!decision || config.fundamental_mode || sim_.next_event_time() <= decision->time)) {
      while (true) {
        const Simulator::BurstResult r = sim_.run_burst(net_sig, config.time_limit, bound, pre);
        if (r.stop != Simulator::BurstStop::kObservable) break;
        const sg::StateId before = state;
        walk(r.net, r.value, sim_.now());
        if (state != before) env_dirty = true;
        if (failed || state != before) break;
        if (sim_.now() >= config.time_limit) break;
        if (!sim_.has_pending_events() || sim_.next_event_time() > bound) break;
      }
      continue;
    }
    if (decision) {
      if (config.fundamental_mode && decision->time < sim_.now())
        decision->time = sim_.now();  // the circuit outlasted the planned instant
      sim_.set_input(signal_net[static_cast<std::size_t>(decision->label.signal)],
                     decision->label.rising, decision->time);
      // Commit the just-scheduled input: exactly one event, as run_once's
      // set_input + step.
      const Simulator::BurstResult r =
          sim_.run_burst(net_sig, config.time_limit, kNever, pre, /*single=*/true);
      if (r.stop == Simulator::BurstStop::kObservable) walk(r.net, r.value, sim_.now());
      env_dirty = true;  // redraw even if the input commit was deduped away
      decision.reset();
      continue;
    }

    // Quiescent with no injection due and no possible input: clean
    // endpoint or deadlock.
    bool output_pending = false;
    bool input_starved = false;
    for (const sg::Edge& e : spec.out_edges(state)) {
      if (!spec.is_input(e.label.signal))
        output_pending = true;
      else if (sim_.is_forced(signal_net[static_cast<std::size_t>(e.label.signal)]))
        input_starved = true;
    }
    if (output_pending || input_starved) {
      ++report.deadlocks;
      report.violations.push_back(ConformanceViolation{
          seed, sim_.now(), ViolationKind::kDeadlock,
          output_pending
              ? "circuit quiescent but spec state " + spec.state_name(state) +
                    " still enables a non-input transition"
              : "circuit quiescent and every transition spec state " + spec.state_name(state) +
                    " enables is an input pinned by a fault"});
    }
    break;
  }

  if (sim_.budget_exhausted()) {
    ++report.budget_exhausted;
    report.violations.push_back(ConformanceViolation{
        seed, sim_.now(), ViolationKind::kEventBudget,
        "event budget exhausted after " + std::to_string(sim_.events_processed()) +
            " events (runaway oscillation under the current delays/faults?)"});
  }

  report.external_transitions += run_transitions;
  report.internal_toggles += sim_.total_toggles_excluding(binding.observable);
  report.absorbed_pulses += sim_.mhs_absorbed_pulses();
  report.simulated_time += sim_.now();
}

}  // namespace nshot::sim
