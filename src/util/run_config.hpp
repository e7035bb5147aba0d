// Shared run configuration: the seed / worker / verification / deadline
// knobs that every sweep-shaped Options struct in this codebase used to
// duplicate (SynthesisOptions, ConformanceOptions, StressOptions,
// AdversarialOptions, ExactOptions).  Those structs inherit RunConfig, so
// the old field spellings (`options.jobs`, `options.seed`, ...) keep
// compiling unchanged while generic drivers (nshot::Pipeline, the CLI)
// can set the common knobs once and slice them into every stage.  Every
// kernel has one production path; the reference oracles it is checked
// against live in tests/oracles, apart from the reference closed-loop
// trial (sim::run_closed_loop) that verify_kernels runs beside it.
#pragma once

#include <cstdint>

namespace nshot {

struct RunConfig {
  /// Base RNG seed of the sweep.  Every trial r derives its own stream
  /// from run_seed(seed, r) (util/rng.hpp), so a sweep is a bag of
  /// index-reproducible work items.
  std::uint64_t seed = 1;

  /// Worker threads (0 = exec::default_jobs()).  Results are always
  /// merged by item index, so every jobs value produces byte-identical
  /// output.
  int jobs = 0;

  /// Cross-check every conformance trial against the reference trial
  /// (sim::run_closed_loop).  A divergent trial keeps the reference
  /// report, is counted in kKernelMismatches and recorded on the returned
  /// report; Pipeline turns that record into a kernel_fallbacks entry.
  /// Roughly doubles the cost of the conformance stage; off by default.
  bool verify_kernels = false;

  /// Whole-run wall-clock budget in milliseconds (0 = unbounded).  The
  /// driver (Pipeline::run_checked, BatchRunner) installs a CancelToken +
  /// Watchdog; overruns surface as clean Error(kDeadlineExceeded) results,
  /// never as aborts.
  double deadline_ms = 0;

  /// Per-stage budget in milliseconds (0 = unbounded); each stage gets
  /// min(stage_deadline_ms, remaining run budget).
  double stage_deadline_ms = 0;

  /// Copy the shared knobs from another config (used by drivers that fan
  /// one RunConfig out into per-stage Options structs).
  void apply_run_config(const RunConfig& shared) { *this = shared; }
};

}  // namespace nshot
