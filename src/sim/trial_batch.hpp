// Batched Monte-Carlo trial execution over the compiled netlist.
//
// A conformance/stress campaign runs hundreds of closed-loop trials that
// differ only in their RNG streams.  This engine splits each trial into
// the part that is delay-independent — the combinational settle from the
// initial values — and the part that is not (the event-driven walk), and
// batches the former across up to 64 trials by packing each net's value
// into one bit per trial of a uint64_t plane (the sg::StateSet trick
// applied to the simulator):
//
//  * BatchPlanes evaluates the whole combinational netlist word-parallel,
//    64 trials per gate evaluation, including the storage-excitation
//    planes (set/reset rails, latch/C-element targets) that decide which
//    storage elements arm at t=0.
//  * TrialBatch groups up to 64 trial configs, settles them through one
//    BatchPlanes pass, and then peels lanes off to the scalar path: under
//    randomized per-trial delays the very first delay draw desynchronizes
//    event order, so a lane stays in lockstep only while its entire
//    config matches its group leader's (then it shares the leader's
//    execution outright — one scalar run serves every such lane).
//  * TrialRunner is that scalar path, rebuilt for throughput: an adaptive-
//    queue simulator (sim/event_queue.hpp — sorted array at small
//    populations, calendar past the measured crossover) reused across
//    trials, the cached plane settle instead of a per-trial relaxation,
//    and a commit log drained after each step instead of a std::function
//    observer per commit.
//
// The contract is byte-identity: for every config, TrialRunner::run
// produces the same ConformanceReport — violation strings, simulated-time
// doubles, RNG draw sequence — and the same VCD witness bytes as
// run_closed_loop on the reference per-trial simulator.  The differential
// battery in tests/sim_batch_equivalence_test.cpp enforces this over
// fuzzed circuits; check_conformance enforces it per-trial under
// --verify-kernels.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/conformance.hpp"
#include "sim/event_sim.hpp"

namespace nshot::sim {

/// Word-parallel net-value planes: bit L of plane[net] is net's value in
/// trial lane L.  Mirrors Simulator::initialize's dependency-order settle
/// (same REQUIRE diagnostics) across all lanes at once.
class BatchPlanes {
 public:
  /// Per-lane overrides of the shared fixed values: lane L additionally
  /// applies overrides[L].  Pass nullptr when every lane starts alike.
  using LaneOverrides = std::vector<std::vector<std::pair<netlist::NetId, bool>>>;

  /// Settle `lanes` trials (1..64) from `fixed` (+ per-lane overrides)
  /// through the combinational gates of `compiled`.
  void settle(const CompiledNetlist& compiled,
              const std::vector<std::pair<netlist::NetId, bool>>& fixed,
              const LaneOverrides* overrides, int lanes);

  /// Lane L's settled value of every net, one byte per net — the exact
  /// vector Simulator::initialize would have computed for that lane.
  void extract(int lane, std::vector<std::uint8_t>& out) const;

  std::uint64_t plane(netlist::NetId net) const {
    return value_[static_cast<std::size_t>(net)];
  }

  /// Word-parallel storage-element target in the settled state (one bit
  /// per lane): what eval_combinational reports for a latch/C-element, or
  /// the cut-input value for a feedback cut.  The storage element arms at
  /// t=0 in every lane whose target bit differs from its output bit.
  std::uint64_t storage_target(netlist::GateId g) const;

  /// Word-parallel MHS effective excitation (set side when `set` is true:
  /// in0 & in2, else in1 & in3) in the settled state.
  std::uint64_t mhs_excitation(netlist::GateId g, bool set) const;

 private:
  std::uint64_t input_plane(const CompiledGate& gate, std::size_t i) const;

  const CompiledNetlist* compiled_ = nullptr;
  std::uint64_t lane_mask_ = 0;
  std::vector<std::uint64_t> value_;       // per net
  std::vector<std::uint8_t> is_source_;    // per net
  std::vector<std::uint8_t> net_known_;    // settle scratch
  std::vector<netlist::GateId> pending_;   // settle scratch
  std::vector<netlist::GateId> still_;     // settle scratch
};

/// The batched engine's scalar lane: one closed-loop trial, byte-identical
/// to run_closed_loop(spec, binding, compiled, config) on the reference
/// driver, but executed on the adaptive-queue simulator with the cached
/// plane settle and the commit-log driver.  Reusable across trials — all
/// arenas (queue buckets, planes, commit log, choice scratch) keep their
/// capacity.
class TrialRunner {
 public:
  explicit TrialRunner(const CompiledNetlist& compiled);

  ConformanceReport run(const sg::StateGraph& spec, const SpecBinding& binding,
                        const ClosedLoopConfig& config, VcdRecorder* recorder = nullptr);

  /// Settle the cache for `fixed` with a `lanes`-wide plane pass (run()
  /// itself settles 1 lane on a cache miss; TrialBatch primes the full
  /// group width so the word-parallel path carries the production load).
  void prime_settle(const std::vector<std::pair<netlist::NetId, bool>>& fixed, int lanes);

  const CompiledNetlist& compiled() const { return *compiled_; }

 private:
  const std::vector<std::uint8_t>& settled(
      const std::vector<std::pair<netlist::NetId, bool>>& fixed, int lanes);
  void run_fast(const sg::StateGraph& spec, const SpecBinding& binding,
                const ClosedLoopConfig& config, ConformanceReport& report,
                VcdRecorder* recorder);

  const CompiledNetlist* compiled_;
  Simulator sim_;
  BatchPlanes planes_;
  std::vector<std::pair<netlist::NetId, bool>> settle_key_;
  std::vector<std::uint8_t> settled_;
  bool have_settle_ = false;
  std::vector<Simulator::Commit> log_;
  std::vector<sg::TransitionLabel> choices_;
};

/// Up to 64 trials through one shared plane settle + one TrialRunner.
class TrialBatch {
 public:
  static constexpr int kLanes = 64;

  explicit TrialBatch(const CompiledNetlist& compiled) : runner_(compiled) {}

  /// Run configs[0..n) (n <= 64) and write one single-trial report each to
  /// out[0..n).  Lanes whose config is identical to an earlier lane's
  /// share that lane's execution (lockstep); the rest peel off to the
  /// scalar runner.  Configs carrying callbacks (observer/on_initialized)
  /// never share.
  void run(const sg::StateGraph& spec, const SpecBinding& binding,
           const ClosedLoopConfig* configs, int n, ConformanceReport* out);

  TrialRunner& runner() { return runner_; }

 private:
  TrialRunner runner_;
};

}  // namespace nshot::sim
