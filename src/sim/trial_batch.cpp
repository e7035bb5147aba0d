#include "sim/trial_batch.hpp"

#include <limits>
#include <optional>

#include "obs/obs.hpp"
#include "sim/vcd.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nshot::sim {

using gatelib::GateType;
using netlist::GateId;
using netlist::NetId;

// ---------------------------------------------------------------------------
// BatchPlanes
// ---------------------------------------------------------------------------

std::uint64_t BatchPlanes::input_plane(const CompiledGate& gate, std::size_t i) const {
  // Packed code: every plane is confined to lane_mask_, so the inversion
  // bubble is an XOR with the mask (branchless), not a ~v & mask.
  const std::uint32_t code = compiled_->input_code(gate, i);
  const std::uint64_t v = value_[code >> 1];
  return v ^ (lane_mask_ & (0 - static_cast<std::uint64_t>(code & 1u)));
}

namespace {
std::uint64_t eval_plane(const BatchPlanes& planes, const CompiledNetlist& cn,
                         const CompiledGate& gate, std::uint64_t lane_mask) {
  auto in = [&](std::size_t i) {
    const std::uint32_t code = cn.input_code(gate, i);
    const std::uint64_t v = planes.plane(static_cast<netlist::NetId>(code >> 1));
    return v ^ (lane_mask & (0 - static_cast<std::uint64_t>(code & 1u)));
  };
  switch (gate.type) {
    case GateType::kAnd: {
      std::uint64_t acc = lane_mask;
      for (std::size_t i = 0; i < gate.num_inputs; ++i) acc &= in(i);
      return acc;
    }
    case GateType::kOr: {
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < gate.num_inputs; ++i) acc |= in(i);
      return acc;
    }
    case GateType::kInv:
      return ~in(0) & lane_mask;
    case GateType::kBuf:
    case GateType::kDelayLine:
    case GateType::kInertialDelay:
      return in(0);
    default:
      NSHOT_ASSERT(false, "eval_plane on a storage gate");
  }
  return 0;
}
}  // namespace

void BatchPlanes::settle(const CompiledNetlist& compiled,
                         const std::vector<std::pair<NetId, bool>>& fixed,
                         const LaneOverrides* overrides, int lanes) {
  NSHOT_REQUIRE(lanes >= 1 && lanes <= 64, "BatchPlanes::settle lane count out of range");
  compiled_ = &compiled;
  lane_mask_ = lanes == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << lanes) - 1);
  const std::size_t num_nets = static_cast<std::size_t>(compiled.num_nets());
  value_.assign(num_nets, 0);
  is_source_.assign(num_nets, 0);
  for (const auto& [net, v] : fixed) {
    value_[static_cast<std::size_t>(net)] = v ? lane_mask_ : 0;
    is_source_[static_cast<std::size_t>(net)] = 1;
  }
  if (overrides != nullptr) {
    NSHOT_REQUIRE(overrides->size() == static_cast<std::size_t>(lanes),
                  "BatchPlanes::settle needs one override list per lane");
    for (int lane = 0; lane < lanes; ++lane) {
      const std::uint64_t bit = std::uint64_t{1} << lane;
      for (const auto& [net, v] : (*overrides)[static_cast<std::size_t>(lane)]) {
        const std::size_t idx = static_cast<std::size_t>(net);
        value_[idx] = v ? (value_[idx] | bit) : (value_[idx] & ~bit);
        is_source_[idx] = 1;
      }
    }
  }

  // The dependency-order relaxation of Simulator::initialize, evaluated
  // once per gate for all lanes (same REQUIRE diagnostics).
  const netlist::Netlist& netlist = compiled.netlist();
  pending_.clear();
  for (GateId g = 0; g < compiled.num_gates(); ++g) {
    const CompiledGate& gate = compiled.gate(g);
    if (gatelib::is_storage(gate.type) || gate.feedback_cut) {
      NSHOT_REQUIRE(is_source_[static_cast<std::size_t>(gate.out0)],
                    "initialize: storage output " + netlist.net_name(gate.out0) +
                        " needs an initial value");
      if (gate.out1 >= 0)
        NSHOT_REQUIRE(is_source_[static_cast<std::size_t>(gate.out1)],
                      "initialize: storage output " + netlist.net_name(gate.out1) +
                          " needs an initial value");
    } else {
      pending_.push_back(g);
    }
  }
  net_known_ = is_source_;
  for (const NetId pi : netlist.primary_inputs()) net_known_[static_cast<std::size_t>(pi)] = 1;
  bool progress = true;
  while (progress && !pending_.empty()) {
    progress = false;
    still_.clear();
    for (const GateId g : pending_) {
      const CompiledGate& gate = compiled.gate(g);
      bool ready = true;
      for (std::size_t i = 0; i < gate.num_inputs; ++i)
        if (!net_known_[static_cast<std::size_t>(compiled.input(gate, i))]) {
          ready = false;
          break;
        }
      if (!ready) {
        still_.push_back(g);
        continue;
      }
      value_[static_cast<std::size_t>(gate.out0)] = eval_plane(*this, compiled, gate, lane_mask_);
      net_known_[static_cast<std::size_t>(gate.out0)] = 1;
      progress = true;
    }
    std::swap(pending_, still_);
  }
  NSHOT_ASSERT(pending_.empty(), "initialize: combinational cycle or undriven input");
}

void BatchPlanes::extract(int lane, std::vector<std::uint8_t>& out) const {
  out.assign(value_.size(), 0);
  for (std::size_t i = 0; i < value_.size(); ++i)
    out[i] = static_cast<std::uint8_t>((value_[i] >> lane) & 1);
}

std::uint64_t BatchPlanes::storage_target(GateId g) const {
  const CompiledGate& gate = compiled_->gate(g);
  if (gate.feedback_cut) return value_[static_cast<std::size_t>(compiled_->input(gate, 0))];
  switch (gate.type) {
    case GateType::kRsLatch: {
      const std::uint64_t s = input_plane(gate, 0);
      const std::uint64_t r = input_plane(gate, 1);
      const std::uint64_t q = value_[static_cast<std::size_t>(gate.out0)];
      return (s | (~r & q)) & lane_mask_;  // set dominant
    }
    case GateType::kCElement: {
      std::uint64_t all_one = lane_mask_;
      std::uint64_t any_one = 0;
      for (std::size_t i = 0; i < gate.num_inputs; ++i) {
        const std::uint64_t p = input_plane(gate, i);
        all_one &= p;
        any_one |= p;
      }
      const std::uint64_t q = value_[static_cast<std::size_t>(gate.out0)];
      return all_one | (any_one & q);
    }
    default:
      NSHOT_ASSERT(false, "storage_target on a non-storage gate");
  }
  return 0;
}

std::uint64_t BatchPlanes::mhs_excitation(GateId g, bool set) const {
  const CompiledGate& gate = compiled_->gate(g);
  NSHOT_ASSERT(gate.type == GateType::kMhsFlipFlop && gate.num_inputs == 4,
               "mhs_excitation expects an MHS cell");
  const std::size_t a = static_cast<std::size_t>(compiled_->input(gate, set ? 0 : 1));
  const std::size_t b = static_cast<std::size_t>(compiled_->input(gate, set ? 2 : 3));
  return value_[a] & value_[b];
}

// ---------------------------------------------------------------------------
// TrialRunner
// ---------------------------------------------------------------------------

TrialRunner::TrialRunner(const CompiledNetlist& compiled)
    : compiled_(&compiled), sim_(compiled, SimulatorOptions{}, QueueKind::kAdaptive) {}

const std::vector<std::uint8_t>& TrialRunner::settled(
    const std::vector<std::pair<NetId, bool>>& fixed, int lanes) {
  if (have_settle_ && settle_key_ == fixed) return settled_;
  planes_.settle(*compiled_, fixed, nullptr, lanes);
  planes_.extract(0, settled_);
  settle_key_ = fixed;
  have_settle_ = true;
  return settled_;
}

void TrialRunner::prime_settle(const std::vector<std::pair<NetId, bool>>& fixed, int lanes) {
  have_settle_ = false;  // force the wide pass even on a same-key reuse
  settled(fixed, lanes);
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
// report arithmetic replicate run_once in conformance.cpp exactly — the
// differences are mechanical: commits arrive through the commit log (at
// most one commit happens per step, and forces drain immediately, so
// sim_.now() is every logged commit's time), and the environment's choice
// list is rebuilt only when the spec state or forced-net set could have
// changed (run_once rebuilds each iteration, but a rebuild's outcome —
// including whether the RNG is drawn — only depends on that state).
void TrialRunner::run_fast(const sg::StateGraph& spec, const SpecBinding& binding,
                           const ClosedLoopConfig& config, ConformanceReport& report,
                           VcdRecorder* recorder) {
  const std::uint64_t seed = config.sim.seed;
  Rng rng(env_stream(config.env_seed != 0 ? config.env_seed : seed));
  const std::vector<NetId>& signal_net = binding.signal_net;
  const std::vector<int>& net_signal = binding.net_signal;

  sg::StateId state = spec.initial();
  long run_transitions = 0;
  bool failed = false;
  bool env_dirty = true;  // choices stale: rebuild before the first decision

  NetObserver vcd_observer = recorder ? recorder->observer() : NetObserver{};
  log_.clear();
  sim_.set_commit_log(&log_);

  // The spec walk for one committed observable change.
  auto walk = [&](NetId net, bool value, double time) {
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
  };
  // One committed change: VCD capture, extra observer, spec check — the
  // order run_once's observer runs them.
  auto check = [&](NetId net, bool value, double time) {
    if (vcd_observer) vcd_observer(net, value, time);
    if (config.observer) config.observer(net, value, time);
    walk(net, value, time);
  };
  auto drain = [&]() {
    if (log_.empty()) return;
    const double t = sim_.now();
    const sg::StateId before = state;
    for (const Simulator::Commit& c : log_) check(c.net, c.value, t);
    log_.clear();
    if (state != before) env_dirty = true;
  };

  sim_.initialize_from_settled(settled(binding.initial_values, 1));
  if (recorder) recorder->capture_initial(sim_);
  if (config.on_initialized) config.on_initialized(sim_);
  for (const auto& [net, value] : config.forces) {
    sim_.force_net(net, value);
    drain();
  }

  struct InputDecision {
    sg::TransitionLabel label;
    double time;
  };
  std::optional<InputDecision> decision;
  std::size_t next_injection = 0;
  constexpr double kNever = std::numeric_limits<double>::infinity();

  // (Re)validate or make the environment's next input decision; shared by
  // both driver loops below.
  auto refresh_decision = [&]() {
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
  };
  // Quiescent with no possible input: clean endpoint or deadlock.
  auto note_quiescence = [&]() {
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
  };

  if (config.injections.empty()) {
    // Fused driver: no timed injections means the schedule can only change
    // at the decision deadline or a spec state change, so the whole
    // pop-commit-evaluate cycle runs inside Simulator::run_burst and only
    // observable commits surface here.  Commits bypass the log entirely.
    sim_.set_commit_log(nullptr);
    // Without a recorder the extra observer (the margin probe, say) is the
    // only pre-check: hand it over as is rather than through a wrapper —
    // one std::function hop per commit instead of two.
    NetObserver pre_observers;
    const NetObserver* pre = config.observer ? &config.observer : nullptr;
    if (vcd_observer) {
      pre_observers = [&](NetId net, bool value, double time) {
        vcd_observer(net, value, time);
        if (config.observer) config.observer(net, value, time);
      };
      pre = &pre_observers;
    }
    const int* net_sig = net_signal.data();

    while (!failed && run_transitions < config.max_transitions &&
           sim_.now() < config.time_limit && !sim_.budget_exhausted()) {
      refresh_decision();

      if (sim_.has_pending_events() &&
          (!decision || config.fundamental_mode || sim_.next_event_time() <= decision->time)) {
        const double bound = (decision && !config.fundamental_mode) ? decision->time : kNever;
        while (true) {
          const Simulator::BurstResult r = sim_.run_burst(net_sig, config.time_limit, bound, pre);
          if (r.stop != Simulator::BurstStop::kObservable) break;
          const sg::StateId before = state;
          walk(r.net, r.value, sim_.now());
          if (state != before) env_dirty = true;
          if (failed || state != before) break;
          if (sim_.now() >= config.time_limit) break;
          if (!sim_.has_pending_events()) break;
          if (decision && !config.fundamental_mode &&
              sim_.next_event_time() > decision->time)
            break;
        }
        continue;
      }
      if (decision) {
        if (config.fundamental_mode && decision->time < sim_.now())
          decision->time = sim_.now();  // the circuit outlasted the planned instant
        sim_.set_input(signal_net[static_cast<std::size_t>(decision->label.signal)],
                       decision->label.rising, decision->time);
        // Commit the just-scheduled input (one event, exactly as the
        // commit-log driver's set_input + step + drain).
        const Simulator::BurstResult r =
            sim_.run_burst(net_sig, config.time_limit, kNever, pre, /*single=*/true);
        if (r.stop == Simulator::BurstStop::kObservable) walk(r.net, r.value, sim_.now());
        env_dirty = true;  // redraw even if the input commit was deduped away
        decision.reset();
        continue;
      }
      note_quiescence();
      break;
    }
  } else {
    while (!failed && run_transitions < config.max_transitions &&
           sim_.now() < config.time_limit && !sim_.budget_exhausted()) {
      refresh_decision();

      const double event_time = sim_.has_pending_events() ? sim_.next_event_time() : kNever;
      const double decision_time = decision ? decision->time : kNever;
      const double injection_time =
          next_injection < config.injections.size()
              ? std::max(config.injections[next_injection].time, sim_.now())
              : kNever;

      if (next_injection < config.injections.size() && injection_time <= event_time &&
          injection_time <= decision_time) {
        const TimedInjection& inj = config.injections[next_injection++];
        sim_.advance_time(injection_time);
        if (inj.release)
          sim_.release_net(inj.net);
        else
          sim_.force_net(inj.net, inj.value);
        drain();
        env_dirty = true;  // the forced-net set changed
        continue;
      }

      if (sim_.has_pending_events() &&
          (!decision || config.fundamental_mode || event_time <= decision->time)) {
        sim_.step();
        drain();
        continue;
      }
      if (decision) {
        if (config.fundamental_mode && decision->time < sim_.now())
          decision->time = sim_.now();  // the circuit outlasted the planned instant
        sim_.set_input(signal_net[static_cast<std::size_t>(decision->label.signal)],
                       decision->label.rising, decision->time);
        sim_.step();
        drain();
        env_dirty = true;  // redraw even if the input commit was deduped away
        decision.reset();
        continue;
      }
      note_quiescence();
      break;
    }
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
  sim_.set_commit_log(nullptr);
}

// ---------------------------------------------------------------------------
// TrialBatch
// ---------------------------------------------------------------------------

namespace {

bool shareable(const ClosedLoopConfig& config) {
  return !config.observer && !config.on_initialized;
}

bool injections_equal(const TimedInjection& a, const TimedInjection& b) {
  return a.time == b.time && a.net == b.net && a.release == b.release && a.value == b.value;
}

// Two configs describe the same trial iff every behaviour-bearing field
// matches (callbacks excluded: shareable() already requires them empty).
bool configs_equal(const ClosedLoopConfig& a, const ClosedLoopConfig& b) {
  if (a.sim.seed != b.sim.seed || a.sim.randomize_delays != b.sim.randomize_delays ||
      a.sim.max_events != b.sim.max_events || a.sim.explicit_delays != b.sim.explicit_delays ||
      a.sim.delay_overrides != b.sim.delay_overrides)
    return false;
  if (a.env_seed != b.env_seed || a.max_transitions != b.max_transitions ||
      a.input_delay_min != b.input_delay_min || a.input_delay_max != b.input_delay_max ||
      a.time_limit != b.time_limit || a.fundamental_mode != b.fundamental_mode)
    return false;
  if (a.forces != b.forces) return false;
  if (a.injections.size() != b.injections.size()) return false;
  for (std::size_t i = 0; i < a.injections.size(); ++i)
    if (!injections_equal(a.injections[i], b.injections[i])) return false;
  return true;
}

}  // namespace

void TrialBatch::run(const sg::StateGraph& spec, const SpecBinding& binding,
                     const ClosedLoopConfig* configs, int n, ConformanceReport* out) {
  NSHOT_REQUIRE(n >= 1 && n <= kLanes, "TrialBatch::run lane count out of range");
  obs::count(obs::Counter::kBatchTrials, n);
  // The lockstep segment: one word-parallel settle covers every lane (the
  // per-lane walk re-reads it from the runner's cache).
  runner_.prime_settle(binding.initial_values, n);
  long peels = 0;
  long lockstep_shared = 0;
  for (int i = 0; i < n; ++i) {
    int leader = -1;
    if (shareable(configs[i])) {
      for (int j = 0; j < i; ++j) {
        if (shareable(configs[j]) && configs_equal(configs[i], configs[j])) {
          leader = j;
          break;
        }
      }
    }
    if (leader >= 0) {
      // This lane never desynchronizes from its leader: identical delay
      // draws, env stream and fault schedule mean identical event order,
      // so the leader's scalar execution is this lane's execution.
      out[i] = out[leader];
      ++lockstep_shared;
    } else {
      out[i] = runner_.run(spec, binding, configs[i]);
      ++peels;
    }
  }
  obs::count(obs::Counter::kBatchPeels, peels);
  obs::count(obs::Counter::kBatchLockstepShared, lockstep_shared);
}

}  // namespace nshot::sim
