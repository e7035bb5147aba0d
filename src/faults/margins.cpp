#include "faults/margins.hpp"

#include <algorithm>
#include <functional>
#include <optional>

#include "sim/delay_space.hpp"
#include "sim/event_sim.hpp"
#include "sim/trial_runner.hpp"
#include "util/error.hpp"

namespace nshot::faults {

using gatelib::GateType;
using netlist::Gate;
using netlist::GateId;
using netlist::NetId;

void OmegaStats::merge(const OmegaStats& other) {
  fired += other.fired;
  absorbed += other.absorbed;
  min_fire_slack = std::min(min_fire_slack, other.min_fire_slack);
  min_absorb_slack = std::min(min_absorb_slack, other.min_absorb_slack);
}

MarginProbe::MarginProbe(const netlist::Netlist& circuit, const gatelib::GateLibrary& lib)
    : omega_(lib.mhs_threshold()) {
  watch_.resize(static_cast<std::size_t>(circuit.num_nets()));
  for (GateId g = 0; g < circuit.num_gates(); ++g) {
    const Gate& gate = circuit.gate(g);
    if (gate.type != GateType::kMhsFlipFlop) continue;
    NSHOT_REQUIRE(gate.inputs.size() == 4 && gate.outputs.size() == 2,
                  "MHS cell shape expected by the margin probe");
    Cell cell;
    cell.gate = g;
    cell.signal = circuit.net_name(gate.outputs[0]);
    for (int i = 0; i < 4; ++i) cell.in[static_cast<std::size_t>(i)] = gate.inputs[static_cast<std::size_t>(i)];
    cell.q = gate.outputs[0];
    const int index = static_cast<int>(cells_.size());
    for (int i = 0; i < 4; ++i) watch_[gate.inputs[static_cast<std::size_t>(i)]].emplace_back(index, i);
    watch_[cell.q].emplace_back(index, 4);
    cells_.push_back(std::move(cell));
  }
}

void MarginProbe::reset() {
  for (Cell& cell : cells_) {
    cell.values = {};
    cell.q_value = false;
    cell.set_rise = -1.0;
    cell.set_rise_q = false;
    cell.reset_rise = -1.0;
    cell.reset_rise_q = false;
    cell.stats = OmegaStats{};
  }
}

void MarginProbe::capture_initial(const sim::Simulator& sim) {
  for (Cell& cell : cells_) {
    for (std::size_t i = 0; i < 4; ++i) cell.values[i] = sim.value(cell.in[i]);
    cell.q_value = sim.value(cell.q);
    // An excitation already high at t=0 starts its pulse clock at 0.
    if (cell.values[0] && cell.values[2]) {
      cell.set_rise = 0.0;
      cell.set_rise_q = cell.q_value;
    }
    if (cell.values[1] && cell.values[3]) {
      cell.reset_rise = 0.0;
      cell.reset_rise_q = cell.q_value;
    }
  }
}

sim::NetObserver MarginProbe::observer() {
  return [this](NetId net, bool value, double time) { on_change(net, value, time); };
}

void MarginProbe::edge(Cell& cell, bool set_side, bool level, double time) {
  double& rise = set_side ? cell.set_rise : cell.reset_rise;
  bool& rise_q = set_side ? cell.set_rise_q : cell.reset_rise_q;
  if (level) {
    if (rise < 0.0) {
      rise = time;
      rise_q = cell.q_value;
    }
    return;
  }
  if (rise < 0.0) return;
  // A pulse only matters when the cell could act on it: set pulses while
  // q was low, reset pulses while q was high (the flip-flop ignores the
  // rest — see Simulator::handle_mhs_input).
  const bool relevant = set_side ? !rise_q : rise_q;
  if (relevant) {
    const double width = time - rise;
    if (width >= omega_) {
      ++cell.stats.fired;
      cell.stats.min_fire_slack = std::min(cell.stats.min_fire_slack, width - omega_);
    } else {
      ++cell.stats.absorbed;
      cell.stats.min_absorb_slack = std::min(cell.stats.min_absorb_slack, omega_ - width);
    }
  }
  rise = -1.0;
}

void MarginProbe::on_change(NetId net, bool value, double time) {
  const std::vector<std::pair<int, int>>& entries = watch_[static_cast<std::size_t>(net)];
  if (entries.empty()) return;
  for (const auto& [index, slot] : entries) {
    Cell& cell = cells_[static_cast<std::size_t>(index)];
    const bool old_set = cell.values[0] && cell.values[2];
    const bool old_reset = cell.values[1] && cell.values[3];
    if (slot == 4)
      cell.q_value = value;
    else
      cell.values[static_cast<std::size_t>(slot)] = value;
    const bool new_set = cell.values[0] && cell.values[2];
    const bool new_reset = cell.values[1] && cell.values[3];
    if (new_set != old_set) edge(cell, /*set_side=*/true, new_set, time);
    if (new_reset != old_reset) edge(cell, /*set_side=*/false, new_reset, time);
  }
}

namespace {

/// Longest and shortest settle paths from any level source (driverless
/// nets, storage outputs, feedback cuts) to each net, with the given
/// per-gate delays.  Delay lines and inertial pads contribute their
/// (possibly overridden) vector delay like any other gate.
struct PathDelays {
  std::vector<double> longest, shortest;
};

/// Netlist::driver is a linear scan; settle_paths runs it per net, so the
/// compiled driver table (when available) turns an O(nets*gates) setup
/// into O(nets).
GateId driver_of(const netlist::Netlist& circuit, const sim::CompiledNetlist* compiled,
                 NetId net) {
  if (compiled) return compiled->driver(net);
  const auto driver = circuit.driver(net);
  return driver ? *driver : -1;
}

/// Recursive DFS state for settle_paths; a plain member call per net
/// (this runs once per adversarial evaluation, so the indirection of a
/// recursive std::function showed up in profiles).
struct SettleVisitor {
  const netlist::Netlist& circuit;
  const std::vector<double>& delays;
  const sim::CompiledNetlist* compiled;
  PathDelays& paths;

  void visit(NetId net) {
    const std::size_t i = static_cast<std::size_t>(net);
    if (paths.longest[i] >= 0.0) return;
    const GateId driver = driver_of(circuit, compiled, net);
    if (driver < 0) {
      paths.longest[i] = paths.shortest[i] = 0.0;
      return;
    }
    const Gate& gate = circuit.gate(driver);
    if (gatelib::is_storage(gate.type) || gate.feedback_cut) {
      paths.longest[i] = paths.shortest[i] = 0.0;
      return;
    }
    // Mark before recursing: combinational logic is acyclic (checked at
    // construction), but be defensive about malformed inputs.
    paths.longest[i] = paths.shortest[i] = 0.0;
    double lo = kNoMargin, hi = 0.0;
    for (const NetId in : gate.inputs) {
      visit(in);
      hi = std::max(hi, paths.longest[static_cast<std::size_t>(in)]);
      lo = std::min(lo, paths.shortest[static_cast<std::size_t>(in)]);
    }
    if (gate.inputs.empty()) lo = 0.0;
    const double d = delays[static_cast<std::size_t>(driver)];
    paths.longest[i] = hi + d;
    paths.shortest[i] = lo + d;
  }
};

PathDelays settle_paths(const netlist::Netlist& circuit, const std::vector<double>& delays,
                        const sim::CompiledNetlist* compiled = nullptr) {
  const std::size_t n = static_cast<std::size_t>(circuit.num_nets());
  PathDelays paths;
  paths.longest.assign(n, -1.0);
  paths.shortest.assign(n, -1.0);
  SettleVisitor visitor{circuit, delays, compiled, paths};
  for (NetId net = 0; net < circuit.num_nets(); ++net) visitor.visit(net);
  return paths;
}

/// Instance delay of a delay line directly feeding `net`, else 0.
double enable_line_delay(const netlist::Netlist& circuit, const std::vector<double>& delays,
                         NetId net, const sim::CompiledNetlist* compiled = nullptr) {
  const GateId driver = driver_of(circuit, compiled, net);
  if (driver < 0) return 0.0;
  if (circuit.gate(driver).type != GateType::kDelayLine) return 0.0;
  return delays[static_cast<std::size_t>(driver)];
}

}  // namespace

std::vector<Eq1Margin> eq1_margins(const sim::CompiledNetlist& compiled,
                                   const std::vector<double>& delays) {
  const netlist::Netlist& circuit = compiled.netlist();
  NSHOT_REQUIRE(delays.size() == static_cast<std::size_t>(circuit.num_gates()),
                "eq1_margins: one delay per gate expected");
  std::vector<Eq1Margin> margins;
  const PathDelays paths = settle_paths(circuit, delays, &compiled);
  const double t_mhs = compiled.lib().mhs_response();
  for (GateId g = 0; g < circuit.num_gates(); ++g) {
    const Gate& gate = circuit.gate(g);
    if (gate.type != GateType::kMhsFlipFlop) continue;
    Eq1Margin m;
    m.mhs = g;
    m.signal = circuit.net_name(gate.outputs[0]);
    const std::size_t set = static_cast<std::size_t>(gate.inputs[0]);
    const std::size_t reset = static_cast<std::size_t>(gate.inputs[1]);
    m.t_set0_worst = paths.longest[set];
    m.t_set1_fast = paths.shortest[set];
    m.t_res0_worst = paths.longest[reset];
    m.t_res1_fast = paths.shortest[reset];
    m.t_del_set = enable_line_delay(circuit, delays, gate.inputs[2], &compiled);
    m.t_del_reset = enable_line_delay(circuit, delays, gate.inputs[3], &compiled);
    m.slack_set = m.t_del_set + m.t_res1_fast + t_mhs - m.t_set0_worst;
    m.slack_reset = m.t_del_reset + m.t_set1_fast + t_mhs - m.t_res0_worst;
    margins.push_back(std::move(m));
  }
  return margins;
}

std::vector<Eq1Requirement> eq1_requirements(const netlist::Netlist& circuit,
                                             const gatelib::GateLibrary& lib) {
  const sim::DelaySpace space(circuit, lib);
  std::vector<double> all_slow(static_cast<std::size_t>(circuit.num_gates()));
  std::vector<double> all_fast(static_cast<std::size_t>(circuit.num_gates()));
  for (GateId g = 0; g < circuit.num_gates(); ++g) {
    all_slow[static_cast<std::size_t>(g)] = space.hi(g);
    all_fast[static_cast<std::size_t>(g)] = space.lo(g);
  }
  const PathDelays slow = settle_paths(circuit, all_slow);
  const PathDelays fast = settle_paths(circuit, all_fast);
  const double t_mhs = lib.mhs_response();

  std::vector<Eq1Requirement> reqs;
  for (GateId g = 0; g < circuit.num_gates(); ++g) {
    const Gate& gate = circuit.gate(g);
    if (gate.type != GateType::kMhsFlipFlop) continue;
    Eq1Requirement req;
    req.mhs = g;
    req.signal = circuit.net_name(gate.outputs[0]);
    const std::size_t set = static_cast<std::size_t>(gate.inputs[0]);
    const std::size_t reset = static_cast<std::size_t>(gate.inputs[1]);
    req.required_set = slow.longest[set] - fast.shortest[reset] - t_mhs;
    req.required_reset = slow.longest[reset] - fast.shortest[set] - t_mhs;
    req.installed_set = enable_line_delay(circuit, all_slow, gate.inputs[2]);
    req.installed_reset = enable_line_delay(circuit, all_slow, gate.inputs[3]);
    reqs.push_back(std::move(req));
  }
  return reqs;
}

namespace {

/// Fold the probe's ω statistics and the Eq. 1 margins into the run.
void collect_margins(const MarginProbe& probe, std::vector<Eq1Margin> eq1, ProbedRun& run) {
  run.eq1 = std::move(eq1);
  for (int k = 0; k < probe.num_cells(); ++k) {
    run.omega.push_back(probe.stats(k));
    run.min_slack = std::min(run.min_slack, probe.stats(k).min_slack());
  }
  for (const Eq1Margin& m : run.eq1) run.min_slack = std::min(run.min_slack, m.slack());
}

}  // namespace

namespace {

/// The closed-loop config of one probed run, with `probe` reset and
/// attached.  The materialized delay vector moves in as the explicit
/// assignment — the one copy of it a probed run makes; the Eq. 1
/// evaluation reads it back from config.sim.explicit_delays.
sim::ClosedLoopConfig probed_config(const sim::CompiledNetlist& compiled,
                                    const FaultScenario& scenario, const ScenarioOptions& options,
                                    MarginProbe& probe) {
  probe.reset();
  sim::ClosedLoopConfig config =
      to_config(scenario, options, materialize_delays(compiled, scenario));
  config.observer = probe.observer();
  config.on_initialized = [&probe](const sim::Simulator& sim) { probe.capture_initial(sim); };
  return config;
}

}  // namespace

ProbedRun run_probed(const sg::StateGraph& spec, const sim::SpecBinding& binding,
                     const FaultScenario& scenario, const ScenarioOptions& options,
                     sim::TrialRunner& runner, MarginProbe* probe_reuse) {
  const sim::CompiledNetlist& compiled = runner.compiled();
  std::optional<MarginProbe> local;
  MarginProbe& probe =
      probe_reuse != nullptr ? *probe_reuse : local.emplace(compiled.netlist(), compiled.lib());
  const sim::ClosedLoopConfig config = probed_config(compiled, scenario, options, probe);
  ProbedRun run;
  run.report = runner.run(spec, binding, config);
  collect_margins(probe, eq1_margins(compiled, config.sim.explicit_delays), run);
  return run;
}

ProbedRun run_probed(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                     const FaultScenario& scenario, const ScenarioOptions& options) {
  const gatelib::GateLibrary& lib = gatelib::GateLibrary::standard();
  const sim::CompiledNetlist compiled(circuit, lib);
  MarginProbe probe(circuit, lib);
  const sim::ClosedLoopConfig config = probed_config(compiled, scenario, options, probe);
  ProbedRun run;
  run.report = sim::run_closed_loop(spec, circuit, config);
  collect_margins(probe, eq1_margins(compiled, config.sim.explicit_delays), run);
  return run;
}

}  // namespace nshot::faults
