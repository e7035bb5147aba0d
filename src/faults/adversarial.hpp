// Adversarial delay-stress search (the instrument the uniform Monte Carlo
// sweep is not): instead of sampling the delay hypercube uniformly — which
// almost never lands near the ω / Eq. 1 cliffs — hill-climb a per-gate
// delay vector to MINIMIZE the observed robustness margin, escalating to a
// conformance violation once a margin goes negative.
//
// The search space is the library [min, max] interval per simple gate,
// optionally stretched by `stress_factor` (the delay-outlier fault model)
// and optionally extended to shaving delay lines toward 0 (the Eq. 1
// under-compensation fault model).  Within a restart the environment
// stream is fixed, so the objective is deterministic and hill steps are
// meaningful.
#pragma once

#include <vector>

#include "faults/margins.hpp"
#include "netlist/netlist.hpp"
#include "sg/state_graph.hpp"
#include "sim/conformance.hpp"
#include "util/run_config.hpp"

namespace nshot::faults {

/// seed / jobs are the inherited nshot::RunConfig knobs.  Restarts run on
/// independent (seed, restart) streams and merge in restart order —
/// including the serial early-exit rule (restarts after the first
/// violating one are discarded) — so the result is identical for every
/// jobs value.  Monte Carlo baseline runs parallelize the same way.
struct AdversarialOptions : RunConfig {
  int restarts = 2;
  int iterations = 250;        // accepted-or-rejected proposals per restart
  double stress_factor = 1.0;  // ≥ 1; stretches the library interval
  bool shave_delay_lines = false;
  ScenarioOptions run;
};

struct AdversarialResult {
  bool violation_found = false;
  double best_slack = kNoMargin;  // smallest margin reached
  std::vector<double> delays;     // the delay vector achieving it
  std::uint64_t env_seed = 0;     // environment stream that exposed it
  sim::ConformanceReport report;  // the best vector's run
  long evaluations = 0;
};

/// Hill-climb the delay space of `circuit` against `spec`.  Stops early
/// (within the current restart) once a conformance violation is found.
AdversarialResult adversarial_delay_search(const sg::StateGraph& spec,
                                           const netlist::Netlist& circuit,
                                           const AdversarialOptions& options);

/// Uniform Monte Carlo over the SAME stressed search space — the baseline
/// the adversarial search is measured against.  Each run samples every
/// searchable gate uniformly from its stressed interval.
struct MonteCarloResult {
  int runs = 0;
  int violating_runs = 0;
  double min_slack = kNoMargin;  // smallest margin any run observed
};

MonteCarloResult stressed_monte_carlo(const sg::StateGraph& spec,
                                      const netlist::Netlist& circuit, int runs,
                                      const AdversarialOptions& options);

}  // namespace nshot::faults
