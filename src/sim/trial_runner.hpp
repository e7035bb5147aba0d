// The production closed-loop trial engine.
//
// A conformance/stress campaign runs hundreds of closed-loop trials that
// differ only in their delay draws, environment streams and faults.
// TrialRunner executes them one at a time against a compiled netlist,
// rebuilt for throughput over the per-trial reference driver (run_once in
// conformance.cpp):
//
//  * one adaptive-queue Simulator (sim/event_queue.hpp — sorted array at
//    small populations, calendar past the measured crossover) reset and
//    reused across trials;
//  * a settle cache: the delay-independent combinational settle from the
//    binding's initial values is computed once by Simulator::initialize
//    and replayed through initialize_from_settled while the initial
//    values stay the same;
//  * a commit log drained after each step (and, without timed injections,
//    the fused Simulator::run_burst loop) instead of a std::function
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

/// One closed-loop trial at a time, byte-identical to
/// run_closed_loop(spec, circuit, config) on the reference driver.
/// Reusable across trials and bindings of the same compiled netlist — all
/// arenas (queue buckets, settle cache, commit log, choice scratch) keep
/// their capacity.
class TrialRunner {
 public:
  explicit TrialRunner(const CompiledNetlist& compiled);

  ConformanceReport run(const sg::StateGraph& spec, const SpecBinding& binding,
                        const ClosedLoopConfig& config, VcdRecorder* recorder = nullptr);

  const CompiledNetlist& compiled() const { return *compiled_; }

 private:
  void initialize(const std::vector<std::pair<netlist::NetId, bool>>& fixed);
  void run_fast(const sg::StateGraph& spec, const SpecBinding& binding,
                const ClosedLoopConfig& config, ConformanceReport& report,
                VcdRecorder* recorder);

  const CompiledNetlist* compiled_;
  Simulator sim_;
  std::vector<std::pair<netlist::NetId, bool>> settle_key_;
  std::vector<std::uint8_t> settled_;
  bool have_settle_ = false;
  std::vector<Simulator::Commit> log_;
  std::vector<sg::TransitionLabel> choices_;
};

}  // namespace nshot::sim
