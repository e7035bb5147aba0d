// Robustness-margin instrumentation: how close does a run come to the two
// cliffs the paper's hazard-freedom argument stands on?
//
//  * ω margin (Theorem 1 / Figure 5): every effective excitation pulse of
//    an MHS flip-flop — set & enable_set, reset & enable_reset — is either
//    a genuine excitation (width ≥ ω, fires) or a filtered glitch
//    (width < ω, absorbed).  The MarginProbe mirrors the cell inputs from
//    the simulator's observer stream and records, per cell, the smallest
//    firing excess (width − ω) and the smallest absorption gap (ω − width)
//    seen.  Either hitting zero means a delay assignment one nudge away
//    flips a pulse across the threshold.
//
//  * Eq. 1 margin (Section IV-C): for a concrete per-gate delay vector,
//    the slack of  t_del ≥ t_set0w − t_res1f − t_mhs  (and the symmetric
//    reset term) evaluated with actual longest/shortest settle paths
//    through the SOP cones instead of the level-quantized report model.
//    Negative slack means a trespassing pulse can reach the flip-flop
//    after the opposite transition completes.
#pragma once

#include <array>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "faults/fault_model.hpp"
#include "gatelib/gate_library.hpp"
#include "netlist/netlist.hpp"
#include "sim/conformance.hpp"

namespace nshot::sim {
class TrialRunner;  // sim/trial_runner.hpp
}

namespace nshot::faults {

inline constexpr double kNoMargin = std::numeric_limits<double>::infinity();

/// ω-margin statistics of one MHS flip-flop over one (or more) runs.
struct OmegaStats {
  long fired = 0;
  long absorbed = 0;
  double min_fire_slack = kNoMargin;    // min (width − ω) over firing pulses
  double min_absorb_slack = kNoMargin;  // min (ω − width) over absorbed pulses

  void merge(const OmegaStats& other);
  double min_slack() const { return std::min(min_fire_slack, min_absorb_slack); }
};

/// Watches the input rails of every MHS flip-flop of a circuit through the
/// simulator's observer stream and classifies effective-excitation pulses
/// against the threshold ω.  Install with `observer()` (chainable through
/// ClosedLoopConfig::observer) and seed the mirrors with
/// `capture_initial` from ClosedLoopConfig::on_initialized.
class MarginProbe {
 public:
  MarginProbe(const netlist::Netlist& circuit, const gatelib::GateLibrary& lib);

  /// Re-zero the per-run dynamic state (input mirrors, pulse clocks,
  /// statistics) while keeping the structural cell/watch tables, so one
  /// probe can serve a whole chunk of runs without reallocating.
  void reset();

  void capture_initial(const sim::Simulator& sim);
  sim::NetObserver observer();

  int num_cells() const { return static_cast<int>(cells_.size()); }
  netlist::GateId cell_gate(int k) const { return cells_[static_cast<std::size_t>(k)].gate; }
  /// Name of the cell's q net (the observable signal it implements).
  const std::string& cell_signal(int k) const {
    return cells_[static_cast<std::size_t>(k)].signal;
  }
  const OmegaStats& stats(int k) const { return cells_[static_cast<std::size_t>(k)].stats; }

 private:
  struct Cell {
    netlist::GateId gate = -1;
    std::string signal;
    std::array<netlist::NetId, 4> in{};  // set, reset, enable_set, enable_reset
    netlist::NetId q = -1;
    std::array<bool, 4> values{};
    bool q_value = false;
    // Rise time of the current effective excitation pulse (< 0: low), and
    // the q value when it rose (pulses that the cell ignores because the
    // output already holds the target value are not margin-relevant).
    double set_rise = -1.0;
    bool set_rise_q = false;
    double reset_rise = -1.0;
    bool reset_rise_q = false;
    OmegaStats stats;
  };

  void on_change(netlist::NetId net, bool value, double time);
  void edge(Cell& cell, bool set_side, bool level, double time);

  double omega_;
  std::vector<Cell> cells_;
  // Indexed by net: (cell index, slot) pairs; slots 0..3 are cell inputs,
  // 4 is q.  A flat table — on_change runs once per committed net event.
  std::vector<std::vector<std::pair<int, int>>> watch_;
};

/// Eq. 1 slack of one MHS flip-flop under a concrete delay vector.
struct Eq1Margin {
  netlist::GateId mhs = -1;
  std::string signal;
  double t_del_set = 0.0;    // delay line on the enable_set path (0 if none)
  double t_del_reset = 0.0;
  double t_set0_worst = 0.0;  // longest settle path through the set SOP cone
  double t_set1_fast = 0.0;   // shortest propagate path
  double t_res0_worst = 0.0;
  double t_res1_fast = 0.0;
  double slack_set = kNoMargin;    // t_del_set + t_res1f + t_mhs − t_set0w
  double slack_reset = kNoMargin;  // t_del_reset + t_set1f + t_mhs − t_res0w

  double slack() const { return std::min(slack_set, slack_reset); }
};

/// Evaluate the Eq. 1 slack of every MHS flip-flop of the compiled
/// netlist for the given per-gate delay assignment (one entry per gate, as
/// produced by `materialize_delays`).
std::vector<Eq1Margin> eq1_margins(const sim::CompiledNetlist& compiled,
                                   const std::vector<double>& delays);

/// Corner-case Eq. 1 requirement of one MHS flip-flop: the compensation
/// t_del must cover the library WORST corner (excited cone all-slow,
/// opposing cone all-fast), matching the synthesis-time model of
/// nshot/delay_requirement.hpp but evaluated on the concrete netlist.
/// `required > installed` means the circuit is under-compensated: a delay
/// assignment inside the search bounds can trespass.
struct Eq1Requirement {
  netlist::GateId mhs = -1;
  std::string signal;
  double required_set = 0.0;  // t_set0w(hi) − t_res1f(lo) − t_mhs
  double required_reset = 0.0;
  double installed_set = 0.0;  // delay line actually on the enable path
  double installed_reset = 0.0;

  bool under_compensated() const {
    return required_set > installed_set || required_reset > installed_reset;
  }
};

std::vector<Eq1Requirement> eq1_requirements(const netlist::Netlist& circuit,
                                             const gatelib::GateLibrary& lib);

/// One scenario run with full margin instrumentation attached.
struct ProbedRun {
  sim::ConformanceReport report;
  std::vector<OmegaStats> omega;  // per MHS cell, MarginProbe order
  std::vector<Eq1Margin> eq1;     // per MHS cell, netlist order
  /// The smallest margin observed anywhere in the run (ω slacks and Eq. 1
  /// slacks); kNoMargin when the circuit has no MHS cells or nothing
  /// pulsed.  The adversarial search minimizes this.
  double min_slack = kNoMargin;
};

/// One probed run on `runner` (sim/trial_runner.hpp) against
/// runner.compiled().  `probe` (optional) is reset and reused instead of
/// constructing a MarginProbe per run.
ProbedRun run_probed(const sg::StateGraph& spec, const sim::SpecBinding& binding,
                     const FaultScenario& scenario, const ScenarioOptions& options,
                     sim::TrialRunner& runner, MarginProbe* probe = nullptr);

/// The same probed run on the reference trial (sim::run_closed_loop) —
/// the thin wrapper one-off runs (tests, benches) use.
ProbedRun run_probed(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                     const FaultScenario& scenario, const ScenarioOptions& options);

}  // namespace nshot::faults
