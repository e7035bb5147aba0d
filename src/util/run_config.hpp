// Shared run configuration: the seed / worker / batching / reference-path
// knobs that every sweep-shaped Options struct in this codebase used to
// duplicate (SynthesisOptions, TriggerOptions, ConformanceOptions,
// StressOptions, AdversarialOptions, ExactOptions).  Those structs now
// inherit RunConfig, so the old field spellings (`options.jobs`,
// `options.seed`, ...) keep compiling unchanged while generic drivers
// (nshot::Pipeline, the CLI) can set the common knobs once and slice them
// into every stage.
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

  /// Work items batched per scheduled task so per-thread scratch (e.g. a
  /// resettable Simulator) is reused across a chunk; <= 0 picks a batch
  /// size automatically.  Chunk boundaries are never part of the
  /// determinism contract.
  int grain = 0;

  /// Route hot paths through their uncompiled/ordered reference
  /// implementations — for kernel-equivalence tests and benchmarking
  /// only.
  bool reference_kernels = false;

  /// Cross-check the optimized kernels against their reference oracles
  /// where a runtime comparison exists (currently the conformance sweep):
  /// both paths run and any divergence raises Error(kKernelMismatch),
  /// which Pipeline::run_checked degrades into a reference-kernel retry.
  /// Roughly doubles the cost of the checked stages; off by default.
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
