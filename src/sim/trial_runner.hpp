// The closed-loop trial engine: the one entry point every sweep (the
// conformance check, the stress margins and battery, the adversarial
// search, the minimizer) runs its trials through.
//
// A conformance/stress campaign runs hundreds of closed-loop trials that
// differ only in their delay draws, environment streams and faults.
// TrialRunner executes them one at a time against a compiled netlist:
//
//  * one adaptive-queue Simulator (sim/event_queue.hpp — sorted array at
//    small populations, calendar past the measured crossover) reset and
//    reused across trials;
//  * a settle cache: the delay-independent combinational settle from the
//    binding's initial values is computed once by Simulator::initialize
//    and replayed through initialize_from_settled while the initial
//    values stay the same;
//  * one driver loop around the fused Simulator::run_burst: events run in
//    bursts bounded by the environment's decision instant and by the next
//    timed injection (glitch force/release), and only observable commits
//    surface to the spec walk — no std::function observer per commit.
//
// The contract is byte-identity with the reference trial, the per-trial
// heap-queue driver in tests/oracles/trial_reference.hpp: for every
// config, TrialRunner::run produces the same ConformanceReport — violation
// strings, simulated-time doubles, RNG draw sequence — and the same VCD
// witness bytes.  The differential battery in
// tests/sim_batch_equivalence_test.cpp enforces this over fuzzed circuits.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/conformance.hpp"
#include "sim/event_sim.hpp"

namespace nshot::sim {

/// One closed-loop trial at a time, byte-identical to the reference trial
/// on the same config.  Reusable across trials and bindings of the same
/// compiled netlist — all arenas (queue buckets, settle cache, choice
/// scratch) keep their capacity.
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
  std::vector<sg::TransitionLabel> choices_;
};

}  // namespace nshot::sim
