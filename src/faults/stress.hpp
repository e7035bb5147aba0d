// Robustness stress orchestrator: one call that (1) measures per-signal
// ω and Eq. 1 margins over a handful of probed runs, (2) sweeps a
// deterministic fault battery over every MHS flip-flop — stuck-at faults
// on all four input rails, glitch pulses around the ω threshold on the
// SOP nets, an optional delay outlier on the SOP driver — recording which
// faults the closed-loop check detects, and (3) optionally runs the
// adversarial delay search with a Monte Carlo baseline.  The report
// serializes to JSON for dashboards and CI.
#pragma once

#include <string>
#include <vector>

#include "faults/adversarial.hpp"
#include "faults/margins.hpp"
#include "faults/minimize.hpp"
#include "netlist/netlist.hpp"
#include "sg/state_graph.hpp"
#include "util/run_config.hpp"

namespace nshot::faults {

/// seed / jobs are the inherited nshot::RunConfig knobs; runs and battery
/// entries merge in their deterministic enumeration order, so the report
/// (and its JSON) is byte-identical for every jobs value.  The nested adversarial search
/// parallelizes through its own `adversarial.jobs`.
struct StressOptions : RunConfig {
  /// Probed runs feeding the margin report (distinct delay samples).
  int margin_runs = 5;
  /// Glitch widths to inject, as multiples of the threshold ω.
  std::vector<double> glitch_widths = {0.5, 0.83, 1.17, 1.5};
  /// Injection time of each glitch pulse (mid-handshake for the default
  /// environment pacing).
  double glitch_time = 5.0;
  /// Also stress each cell's SOP driver with a slow outlier delay
  /// (library max × outlier_factor).
  bool delay_outliers = true;
  double outlier_factor = 3.0;
  /// Run the adversarial delay search after the fault sweep (restarts = 0
  /// in `adversarial` skips it).
  AdversarialOptions adversarial;
  ScenarioOptions run;
};

/// One fault battery entry and what the closed-loop check saw.
struct FaultOutcome {
  Fault fault;
  std::string signal;       // MHS cell the fault targets
  std::string description;  // human-readable fault description
  bool survived = false;    // run stayed conformant and live
  std::string violation;    // first violation when not survived
};

/// Margin summary of one non-input signal (one MHS flip-flop).
struct SignalMargins {
  std::string signal;
  OmegaStats omega;               // merged over the margin runs
  double min_eq1_slack = kNoMargin;
  int faults_survived = 0;
  int faults_failed = 0;
};

struct StressReport {
  std::string benchmark;
  int margin_runs = 0;
  std::vector<SignalMargins> signals;
  std::vector<FaultOutcome> outcomes;
  double min_omega_slack = kNoMargin;
  double min_eq1_slack = kNoMargin;
  bool baseline_clean = true;  // margin runs themselves stayed conformant
  AdversarialResult adversarial;  // default-constructed when skipped
  bool adversarial_ran = false;
};

StressReport run_stress(const sg::StateGraph& spec, const netlist::Netlist& circuit,
                        const std::string& benchmark, const StressOptions& options = {});

/// JSON renderings for CLI / CI consumption.
std::string stress_report_json(const StressReport& report);
std::string witness_json(const MinimizedWitness& witness, const netlist::Netlist& circuit);

}  // namespace nshot::faults
