// Top-level N-SHOT synthesis flow (Section IV-E):
//   1. check implementability: consistency, reachability, semi-modularity
//      with input choices, CSC (Theorem 2 preconditions);
//   2. derive the joint set/reset (F, D, R) specification (Table 1);
//   3. minimize with a conventional two-level minimizer (heuristic
//      multi-output ESPRESSO loop, or exact per-output minimization);
//   4. verify the cover against the spec (independent oracle);
//   5. enforce the trigger requirement (Theorem 1), repairing with trigger
//      cubes where needed;
//   6. evaluate the delay requirement (Eq. 1) per signal;
//   7. map onto the N-SHOT architecture (Figure 3) and analyze flip-flop
//      initialization (Section IV-F).
#pragma once

#include <string>
#include <vector>

#include "logic/cover.hpp"
#include "logic/espresso.hpp"
#include "netlist/netlist.hpp"
#include "nshot/architecture.hpp"
#include "nshot/delay_requirement.hpp"
#include "nshot/spec_derivation.hpp"
#include "nshot/trigger.hpp"
#include "sg/regions.hpp"
#include "util/error.hpp"
#include "util/run_config.hpp"

namespace nshot::core {

/// Raised when the SG fails the preconditions of Theorem 2 (consistency,
/// semi-modularity, CSC, or an unrepairable trigger-requirement violation).
class SynthesisError : public Error {
 public:
  explicit SynthesisError(const std::string& what)
      : Error(ErrorCode::kUnimplementable, what) {}
};

/// The inherited nshot::RunConfig `jobs` drives per-output exact
/// minimization (exact mode only); results merge in output order, so the
/// synthesized netlist is identical for every jobs value.  The SG checks,
/// cover verification and the per-signal Eq. 1 / initialization analyses
/// are serial.
struct SynthesisOptions : RunConfig {
  /// Use exact (Quine-McCluskey + branch-and-bound) minimization per
  /// output instead of the heuristic multi-output loop.
  bool exact = false;
  /// Allow AND-gate sharing across outputs (heuristic mode only).
  bool share_products = true;
  /// Insert delay compensation lines when Eq. 1 requires them.
  bool insert_delay_lines = true;
  /// Reuse minimization results across synthesize() calls through a
  /// process-wide cross-thread cache keyed on the serialized (F, D, R)
  /// spec and minimizer knobs.  Identical subproblems (ablation benches,
  /// repeated benchmark sweeps) are then solved once.  The cached cover is
  /// the deterministic minimizer output, so this never changes results.
  bool memoize_minimization = true;
  logic::EspressoOptions espresso;
};

/// Per-signal implementation summary.
struct SignalImplementation {
  sg::SignalId signal = -1;
  int set_cubes = 0;
  int reset_cubes = 0;
  DelayRequirement delay;
  InitInfo init;
};

struct SynthesisResult {
  netlist::Netlist circuit;
  logic::Cover cover;            // joint minimized set/reset cover
  DerivedSpec derived;           // the (F, D, R) spec and output mapping
  std::vector<SignalImplementation> signals;
  TriggerReport trigger;
  netlist::NetlistStats stats;   // area/delay in the report model
  bool single_traversal = true;  // Definition 9 (Corollary 1 applies)
  bool delay_compensation_used = false;
};

/// Snapshot of the process-wide (F, D, R) minimization memo — the cache
/// every Pipeline in the process shares, so a serve worker can report
/// warm-vs-cold hit rates without owning the cache.
struct MinimizationCacheStats {
  long hits = 0;
  long misses = 0;
  std::size_t entries = 0;
};
MinimizationCacheStats minimization_cache_stats();

/// Run the full flow.  Throws SynthesisError when the SG is outside the
/// implementable class characterized by Theorem 2.
SynthesisResult synthesize(const sg::StateGraph& sg, const SynthesisOptions& options = {});

/// Human-readable synthesis report (regions, covers, Eq. 1 values, stats).
std::string describe(const sg::StateGraph& sg, const SynthesisResult& result);

}  // namespace nshot::core
