// Exact two-level minimization (Quine-McCluskey style) for single-output
// functions: generate all prime implicants (maximal valid cubes) and solve
// the unate covering problem by branch and bound.
//
// The paper notes (footnote 6) that ESPRESSO-EXACT can replace the heuristic
// minimizer for better results; this module reproduces that option.  It is
// intended for the moderate-size functions arising from the benchmark state
// graphs; prime generation is capped and falls back to the heuristic result
// when the cap is exceeded.
#pragma once

#include <optional>

#include "logic/cover.hpp"
#include "logic/spec.hpp"
#include "util/run_config.hpp"

namespace nshot::logic {

/// The inherited nshot::RunConfig `jobs` drives exact_minimize's
/// per-output loop.  Outputs are independent covering problems; results
/// concatenate in output order, so the cover is identical for every jobs
/// value.
struct ExactOptions : RunConfig {
  /// Abort exact minimization when more primes than this are generated.
  std::size_t max_primes = 20000;
  /// Abort the covering search after this many branch-and-bound nodes.
  std::size_t max_nodes = 200000;
};

/// All prime implicants of output `o` of `spec` (maximal cubes disjoint
/// from the off-set that cover at least one on-minterm), in ascending
/// (lo, hi) key order.  Returns std::nullopt if the prime cap is exceeded.
std::optional<std::vector<Cube>> generate_primes(const TwoLevelSpec& spec, int o,
                                                 const ExactOptions& options = {});

/// Exact minimum-cube cover of output `o`; std::nullopt if a cap was hit.
/// The returned cover uses output mask (1 << o).
std::optional<Cover> exact_minimize_output(const TwoLevelSpec& spec, int o,
                                           const ExactOptions& options = {});

/// Per-output exact minimization of every output; any output that exceeds
/// the caps falls back to the heuristic minimizer for that output alone.
Cover exact_minimize(const TwoLevelSpec& spec, const ExactOptions& options = {});

}  // namespace nshot::logic
