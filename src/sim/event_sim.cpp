#include "sim/event_sim.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace nshot::sim {

using gatelib::GateType;
using netlist::GateId;
using netlist::NetId;

namespace {
constexpr double kTimeEps = 1e-9;
}

Simulator::Simulator(const CompiledNetlist& compiled, const SimulatorOptions& options)
    : compiled_(&compiled), rng_(options.seed) {
  build_hot_gates();
  reset(options);
}

// Copy the static fields of every gate into the hot records; reset()
// refreshes only the per-trial delay.
void Simulator::build_hot_gates() {
  const std::size_t num_gates = static_cast<std::size_t>(compiled_->num_gates());
  hot_.resize(num_gates);
  for (std::size_t g = 0; g < num_gates; ++g) {
    const CompiledGate& gate = compiled_->gate(static_cast<GateId>(g));
    hot_[g].first_input = gate.first_input;
    hot_[g].out0 = gate.out0;
    hot_[g].type = gate.type;
    hot_[g].num_inputs = static_cast<std::uint8_t>(gate.num_inputs);
  }
}

void Simulator::reset(const SimulatorOptions& options) {
  const std::size_t num_nets = static_cast<std::size_t>(compiled_->num_nets());
  const std::size_t num_gates = static_cast<std::size_t>(compiled_->num_gates());
  rng_ = Rng(options.seed);
  omega_ = compiled_->lib().mhs_threshold();
  tau_ = compiled_->lib().mhs_response();
  max_events_ = options.max_events;
  values_.assign(num_nets, 0);
  projected_.assign(num_nets, 0);
  forced_.assign(num_nets, 0);
  toggles_.assign(num_nets, 0);
  mhs_.assign(num_gates, MhsState{});
  inertial_.assign(num_gates, InertialState{});
  events_.clear();
  hold_valid_ = false;
  hold_open_ = false;
  next_seq_ = 0;
  events_processed_ = 0;
  budget_exhausted_ = false;
  mhs_absorbed_ = 0;
  now_ = 0.0;
  initialized_ = false;
  observer_ = {};

  // Delay assignment: exactly the draw sequence a fresh construction makes
  // (the seed identifies the same delay vector everywhere).
  if (!options.explicit_delays.empty()) {
    NSHOT_REQUIRE(options.explicit_delays.size() == num_gates,
                  "explicit_delays must hold one delay per gate");
    gate_delay_ = options.explicit_delays;
  } else if (options.randomize_delays) {
    compiled_->delay_space().sample_into(rng_, gate_delay_);
  } else {
    gate_delay_ = compiled_->delay_space().nominal_vector();
  }
  for (const auto& [g, delay] : options.delay_overrides) {
    NSHOT_REQUIRE(g >= 0 && g < compiled_->num_gates(), "delay override on unknown gate");
    NSHOT_REQUIRE(delay >= 0.0, "delay override must be non-negative");
    gate_delay_[static_cast<std::size_t>(g)] = delay;
  }
  for (std::size_t g = 0; g < num_gates; ++g) hot_[g].delay = gate_delay_[g];
}

template <typename GateRec>
bool Simulator::eval_combinational(const GateRec& gate) const {
  // Packed input codes: net in the high bits, inversion in bit 0 — the
  // inversion is an XOR on the 0/1 value byte, no second lookup, no branch.
  const std::uint32_t* codes = compiled_->input_codes() + gate.first_input;
  auto in = [&](std::size_t i) {
    const std::uint32_t code = codes[i];
    return (values_[code >> 1] ^ (code & 1u)) != 0;
  };
  switch (gate.type) {
    case GateType::kAnd: {
      for (std::size_t i = 0; i < gate.num_inputs; ++i)
        if (!in(i)) return false;
      return true;
    }
    case GateType::kOr: {
      for (std::size_t i = 0; i < gate.num_inputs; ++i)
        if (in(i)) return true;
      return false;
    }
    case GateType::kInv:
      return !in(0);
    case GateType::kBuf:
    case GateType::kDelayLine:
    case GateType::kInertialDelay:
      return in(0);
    case GateType::kRsLatch: {
      const bool s = in(0), r = in(1);
      if (s) return true;  // set dominant
      if (r) return false;
      return values_[static_cast<std::size_t>(gate.out0)] != 0;
    }
    case GateType::kCElement: {
      bool all_one = true, all_zero = true;
      for (std::size_t i = 0; i < gate.num_inputs; ++i) {
        if (in(i)) all_zero = false;
        else all_one = false;
      }
      if (all_one) return true;
      if (all_zero) return false;
      return values_[static_cast<std::size_t>(gate.out0)] != 0;
    }
    case GateType::kMhsFlipFlop:
      NSHOT_ASSERT(false, "MHS flip-flop is not a combinational gate");
  }
  return false;
}

template bool Simulator::eval_combinational<CompiledGate>(const CompiledGate&) const;
template bool Simulator::eval_combinational<HotGate>(const HotGate&) const;

void Simulator::initialize(const std::vector<std::pair<NetId, bool>>& fixed_values) {
  NSHOT_REQUIRE(!initialized_, "initialize must be called exactly once");
  initialized_ = true;
  const netlist::Netlist& netlist = compiled_->netlist();

  std::vector<std::uint8_t> is_source(static_cast<std::size_t>(compiled_->num_nets()), 0);
  for (const auto& [net, value] : fixed_values) {
    values_[static_cast<std::size_t>(net)] = value ? 1 : 0;
    is_source[static_cast<std::size_t>(net)] = 1;
  }

  // Combinational settle: evaluate non-storage gates in dependency order.
  std::vector<GateId> pending;
  for (GateId g = 0; g < compiled_->num_gates(); ++g) {
    const CompiledGate& gate = compiled_->gate(g);
    if (gatelib::is_storage(gate.type) || gate.feedback_cut) {
      NSHOT_REQUIRE(is_source[static_cast<std::size_t>(gate.out0)],
                    "initialize: storage output " + netlist.net_name(gate.out0) +
                        " needs an initial value");
      if (gate.out1 >= 0)
        NSHOT_REQUIRE(is_source[static_cast<std::size_t>(gate.out1)],
                      "initialize: storage output " + netlist.net_name(gate.out1) +
                          " needs an initial value");
    } else {
      pending.push_back(g);
    }
  }
  std::vector<std::uint8_t> net_known = is_source;
  for (const NetId pi : netlist.primary_inputs()) net_known[static_cast<std::size_t>(pi)] = 1;
  bool progress = true;
  while (progress && !pending.empty()) {
    progress = false;
    std::vector<GateId> still;
    for (const GateId g : pending) {
      const CompiledGate& gate = compiled_->gate(g);
      bool ready = true;
      for (std::size_t i = 0; i < gate.num_inputs; ++i)
        if (!net_known[static_cast<std::size_t>(compiled_->input(gate, i))]) {
          ready = false;
          break;
        }
      if (!ready) {
        still.push_back(g);
        continue;
      }
      values_[static_cast<std::size_t>(gate.out0)] = eval_combinational(gate) ? 1 : 0;
      net_known[static_cast<std::size_t>(gate.out0)] = 1;
      progress = true;
    }
    pending = std::move(still);
  }
  NSHOT_ASSERT(pending.empty(), "initialize: combinational cycle or undriven input");
  projected_ = values_;
  arm_initial_storage();
}

void Simulator::initialize_from_settled(const std::vector<std::uint8_t>& settled) {
  NSHOT_REQUIRE(!initialized_, "initialize must be called exactly once");
  NSHOT_REQUIRE(settled.size() == static_cast<std::size_t>(compiled_->num_nets()),
                "initialize_from_settled needs one value per net");
  initialized_ = true;
  values_ = settled;
  projected_ = values_;
  arm_initial_storage();
}

// Arm storage elements that are excited in the initial state.  Gate order
// fixes the seq numbers of the initial events, so both initialize paths
// share this pass verbatim.
void Simulator::arm_initial_storage() {
  for (GateId g = 0; g < compiled_->num_gates(); ++g) {
    const CompiledGate& gate = compiled_->gate(g);
    if (gate.type == GateType::kMhsFlipFlop) {
      handle_mhs_input(g);
    } else if (gatelib::is_storage(gate.type) || gate.feedback_cut) {
      const bool target =
          gate.feedback_cut ? values_[static_cast<std::size_t>(compiled_->input(gate, 0))] != 0
                            : eval_combinational(gate);
      if (target != (projected_[static_cast<std::size_t>(gate.out0)] != 0))
        schedule_net(gate.out0, target, gate_delay_[static_cast<std::size_t>(g)]);
    }
  }
}

void Simulator::set_input(NetId net, bool value, double at_time) {
  NSHOT_REQUIRE(at_time + kTimeEps >= now_, "cannot schedule input change in the past");
  schedule_net(net, value, at_time);
}

void Simulator::schedule_net(NetId net, bool value, double time, std::uint32_t generation) {
  // Driver activity on a pinned net is swallowed by the fault, not merely
  // dropped at commit time: scheduling it would corrupt the projected view
  // (release_net re-derives the driver value from scratch).
  if (forced_[static_cast<std::size_t>(net)]) return;
  if (generation == 0 && (projected_[static_cast<std::size_t>(net)] != 0) == value) return;
  projected_[static_cast<std::size_t>(net)] = value ? 1 : 0;
  const Event event{time, next_seq_++, net, generation, EventKind::kNetChange, value};
  if (hold_open_) {
    // A fused chain link inside run_burst: park the event in the hold
    // register instead of the queue.  Seq was assigned exactly as a push
    // would have, so pop order is untouched whichever way it goes.
    hold_ = event;
    hold_valid_ = true;
    hold_open_ = false;
    return;
  }
  events_.push(event);
}

bool Simulator::commit_net(NetId net, bool value, bool forced_commit) {
  if (forced_[static_cast<std::size_t>(net)] && !forced_commit) return false;
  if ((values_[static_cast<std::size_t>(net)] != 0) == value) return false;
  values_[static_cast<std::size_t>(net)] = value ? 1 : 0;
  ++toggles_[static_cast<std::size_t>(net)];
  if (observer_) observer_(net, value, now_);
  for (const GateId g : compiled_->fanout(net)) evaluate_gate(g);
  return true;
}

bool Simulator::force_net(NetId net, bool value) {
  NSHOT_REQUIRE(initialized_, "initialize the simulator before forcing nets");
  forced_[static_cast<std::size_t>(net)] = 1;
  // Pin both the committed and projected views: pending driver events for
  // this net still pop but commit_net drops them while the force holds.
  projected_[static_cast<std::size_t>(net)] = value ? 1 : 0;
  return commit_net(net, value, /*forced_commit=*/true);
}

bool Simulator::release_net(NetId net) {
  NSHOT_REQUIRE(initialized_, "initialize the simulator before releasing nets");
  NSHOT_REQUIRE(forced_[static_cast<std::size_t>(net)] != 0,
                "release_net on a net that is not forced");
  forced_[static_cast<std::size_t>(net)] = 0;
  // Restore the driver's present output immediately (zero-delay snap-back —
  // the fault, not the gate, owned the transition).  Storage drivers cannot
  // be re-evaluated combinationally, so forcing is restricted to simple
  // gates and driverless nets.
  const GateId driver = compiled_->driver(net);
  bool restored = values_[static_cast<std::size_t>(net)] != 0;
  if (driver >= 0) {
    const CompiledGate& gate = compiled_->gate(driver);
    NSHOT_REQUIRE(gate.type == GateType::kAnd || gate.type == GateType::kOr ||
                      gate.type == GateType::kInv || gate.type == GateType::kBuf,
                  "release_net: net " + compiled_->netlist().net_name(net) +
                      " is driven by a non-combinational gate");
    restored = eval_combinational(gate);
  }
  projected_[static_cast<std::size_t>(net)] = restored ? 1 : 0;
  return commit_net(net, restored, /*forced_commit=*/true);
}

void Simulator::advance_time(double t) {
  NSHOT_REQUIRE(initialized_, "initialize the simulator before advancing time");
  NSHOT_REQUIRE(t + kTimeEps >= now_, "cannot advance the clock into the past");
  NSHOT_REQUIRE(events_.empty() || t <= events_.top().time + kTimeEps,
                "cannot advance the clock past a pending event");
  now_ = std::max(now_, t);
}

void Simulator::evaluate_gate(GateId g) {
  const HotGate& gate = hot_[static_cast<std::size_t>(g)];
  switch (gate.type) {
    case GateType::kMhsFlipFlop:
      handle_mhs_input(g);
      return;
    case GateType::kInertialDelay: {
      InertialState& st = inertial_[static_cast<std::size_t>(g)];
      const NetId out = gate.out0;
      const bool v = values_[compiled_->input_codes()[gate.first_input] >> 1] != 0;
      if (st.has_pending) {  // cancel the scheduled (conflicting) change
        ++st.generation;
        st.has_pending = false;
        projected_[static_cast<std::size_t>(out)] = values_[static_cast<std::size_t>(out)];
      }
      if ((values_[static_cast<std::size_t>(out)] != 0) != v) {
        st.has_pending = true;
        st.pending_value = v;
        projected_[static_cast<std::size_t>(out)] = v ? 1 : 0;
        events_.push(Event{now_ + gate.delay, next_seq_++, out,
                           st.generation + 1, EventKind::kNetChange, v});
      }
      return;
    }
    default: {
      const bool v = eval_combinational(gate);
      schedule_net(gate.out0, v, now_ + gate.delay);
      return;
    }
  }
}

void Simulator::handle_mhs_input(GateId g) {
  const CompiledGate& gate = compiled_->gate(g);
  MhsState& st = mhs_[static_cast<std::size_t>(g)];
  NSHOT_ASSERT(gate.num_inputs == 4,
               "MHS cell expects inputs {set, reset, enable_set, enable_reset}");
  // The acknowledgement AND gates are part of the cell (Figure 5): the
  // effective excitations gate the SOP outputs with the enable rails.
  const bool set = values_[static_cast<std::size_t>(compiled_->input(gate, 0))] &&
                   values_[static_cast<std::size_t>(compiled_->input(gate, 2))];
  const bool reset = values_[static_cast<std::size_t>(compiled_->input(gate, 1))] &&
                     values_[static_cast<std::size_t>(compiled_->input(gate, 3))];
  const bool q_projected = projected_[static_cast<std::size_t>(gate.out0)] != 0;

  const double omega = omega_;
  if (set && st.set_rise < 0.0) {
    st.set_rise = now_;
    if (!q_projected)
      events_.push(Event{now_ + omega, next_seq_++, g, 0, EventKind::kMhsProbe,
                         /*value=set side*/ true});
  } else if (!set && st.set_rise >= 0.0) {
    // Falling edge: a pulse of width >= ω fires even if the probe has not
    // been processed yet (exact-width boundary); shorter pulses are
    // absorbed.
    if (now_ + kTimeEps >= st.set_rise + omega && !q_projected) {
      const double fire = st.set_rise + tau_;
      schedule_net(gate.out0, true, fire);
      schedule_net(gate.out1, false, fire);
    } else if (!q_projected) {
      ++mhs_absorbed_;  // sub-threshold pulse filtered by the master stage
    }
    st.set_rise = -1.0;
  }

  if (reset && st.reset_rise < 0.0) {
    st.reset_rise = now_;
    if (q_projected)
      events_.push(Event{now_ + omega, next_seq_++, g, 0, EventKind::kMhsProbe,
                         /*value=reset side*/ false});
  } else if (!reset && st.reset_rise >= 0.0) {
    if (now_ + kTimeEps >= st.reset_rise + omega && q_projected) {
      const double fire = st.reset_rise + tau_;
      schedule_net(gate.out0, false, fire);
      schedule_net(gate.out1, true, fire);
    } else if (q_projected) {
      ++mhs_absorbed_;
    }
    st.reset_rise = -1.0;
  }
}

void Simulator::handle_mhs_probe(GateId g, bool probing_set) {
  const CompiledGate& gate = compiled_->gate(g);
  MhsState& st = mhs_[static_cast<std::size_t>(g)];
  const NetId q = gate.out0;
  const NetId qb = gate.out1;
  // Re-read on pop: the excitation must have been continuously high for ω
  // (any intermediate fall resets *_rise, so the window check suffices).
  if (probing_set) {
    const bool set = values_[static_cast<std::size_t>(compiled_->input(gate, 0))] &&
                     values_[static_cast<std::size_t>(compiled_->input(gate, 2))];
    if (set && st.set_rise >= 0.0 && now_ + kTimeEps >= st.set_rise + omega_ &&
        !projected_[static_cast<std::size_t>(q)]) {
      const double fire = st.set_rise + tau_;
      schedule_net(q, true, fire);
      schedule_net(qb, false, fire);
    }
  } else {
    const bool reset = values_[static_cast<std::size_t>(compiled_->input(gate, 1))] &&
                       values_[static_cast<std::size_t>(compiled_->input(gate, 3))];
    if (reset && st.reset_rise >= 0.0 && now_ + kTimeEps >= st.reset_rise + omega_ &&
        projected_[static_cast<std::size_t>(q)]) {
      const double fire = st.reset_rise + tau_;
      schedule_net(q, false, fire);
      schedule_net(qb, true, fire);
    }
  }
}

bool Simulator::step() {
  NSHOT_REQUIRE(initialized_, "initialize the simulator before stepping");
  if (events_.empty()) return false;
  if (max_events_ != 0 && events_processed_ >= max_events_) {
    budget_exhausted_ = true;
    return false;
  }
  ++events_processed_;
  const Event event = events_.top();
  events_.pop();
  now_ = event.time;

  if (event.kind == EventKind::kMhsProbe) {
    handle_mhs_probe(event.target, event.value);
    return true;
  }

  // Cancelled inertial events carry a stale generation.
  if (event.generation != 0) {
    const GateId driver = compiled_->driver(event.target);
    NSHOT_ASSERT(driver >= 0, "generation event on undriven net");
    const InertialState& st = inertial_[static_cast<std::size_t>(driver)];
    if (!st.has_pending || event.generation != st.generation + 1) return true;  // stale
    inertial_[static_cast<std::size_t>(driver)].has_pending = false;
  }
  commit_net(event.target, event.value);
  return true;
}

Simulator::BurstResult Simulator::run_burst(const int* net_signal, double time_limit,
                                            double bound, const NetObserver* pre_check,
                                            bool single) {
  NSHOT_REQUIRE(initialized_, "initialize the simulator before stepping");
  // The hold register keeps fused chain links out of the queue: it is
  // consumed inline only when it is the global (time, seq) minimum — the
  // reference driver would push and immediately pop that exact event, so
  // order, seq numbering and events_processed stay byte-identical.  Every
  // exit path flushes it, so has_pending_events()/next_event_time() and
  // the step() driver see the true pending set.
  const auto flush_hold = [&] {
    if (hold_valid_) {
      events_.push(hold_);
      hold_valid_ = false;
    }
  };
  while (true) {
    if (events_.empty() && !hold_valid_) return {BurstStop::kQuiesced};
    if (max_events_ != 0 && events_processed_ >= max_events_) {
      budget_exhausted_ = true;
      flush_hold();
      return {BurstStop::kBudget};
    }
    ++events_processed_;
    Event event;
    if (hold_valid_ && (events_.empty() || !(hold_ > events_.top()))) {
      event = hold_;  // the held chain link is next anyway: skip the queue
      hold_valid_ = false;
    } else {
      flush_hold();  // an earlier queued event outranks the held link
      event = events_.top();
      events_.pop();
    }
    now_ = event.time;

    if (event.kind == EventKind::kMhsProbe) {
      handle_mhs_probe(event.target, event.value);
    } else {
      bool live = true;
      if (event.generation != 0) {  // cancelled inertial events carry a stale generation
        const GateId driver = compiled_->driver(event.target);
        NSHOT_ASSERT(driver >= 0, "generation event on undriven net");
        InertialState& st = inertial_[static_cast<std::size_t>(driver)];
        if (!st.has_pending || event.generation != st.generation + 1)
          live = false;  // stale
        else
          st.has_pending = false;
      }
      // commit_net, inlined: drop while forced or unchanged, else flip,
      // notify in commit order, evaluate the fanout.
      const std::size_t n = static_cast<std::size_t>(event.target);
      if (live && forced_[n] == 0 && (values_[n] != 0) != event.value) {
        values_[n] = event.value ? 1 : 0;
        ++toggles_[n];
        if (pre_check != nullptr) (*pre_check)(event.target, event.value, now_);
        const GateId fused = single ? -1 : compiled_->fused_reader(event.target);
        if (fused >= 0) {
          // Fanout-of-1 combinational link: divert its one scheduled
          // event into the hold register.
          hold_open_ = true;
          evaluate_gate(fused);
          hold_open_ = false;
        } else {
          for (const GateId g : compiled_->fanout(event.target)) evaluate_gate(g);
        }
        if (net_signal[n] >= 0) {
          flush_hold();
          return {BurstStop::kObservable, event.target, event.value};
        }
      }
    }
    if (single) {
      flush_hold();
      return {BurstStop::kBound};
    }
    if (now_ >= time_limit) {
      flush_hold();
      return {BurstStop::kTimeLimit};
    }
    if (events_.empty() && !hold_valid_) return {BurstStop::kQuiesced};
    const double next_time =
        hold_valid_ && (events_.empty() || !(hold_ > events_.top())) ? hold_.time
                                                                     : events_.top().time;
    if (next_time > bound) {
      flush_hold();
      return {BurstStop::kBound};
    }
  }
}

void Simulator::run_until(double time_limit) {
  while (!events_.empty() && events_.top().time <= time_limit)
    if (!step()) break;  // budget exhausted
}

double Simulator::next_event_time() const {
  NSHOT_REQUIRE(!events_.empty(), "no pending events");
  return events_.top().time;
}

long Simulator::total_toggles_excluding(const std::vector<NetId>& excluded) const {
  long total = 0;
  for (std::size_t n = 0; n < toggles_.size(); ++n) total += toggles_[n];
  for (const NetId n : excluded) total -= toggles_[static_cast<std::size_t>(n)];
  return total;
}

}  // namespace nshot::sim
