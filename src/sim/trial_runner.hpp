// The closed-loop trial engine: the one entry point every sweep (the
// conformance check, the stress margins and battery, the adversarial
// search, the minimizer) runs its trials through.
//
// A conformance/stress campaign runs hundreds of closed-loop trials that
// differ only in their delay draws, environment streams and faults.
// TrialRunner executes them one at a time against a compiled netlist,
// rebuilt for throughput over the per-trial reference driver (run_once in
// trial_runner.cpp, exposed as run_closed_loop):
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
// The contract is byte-identity: for every config, TrialRunner::run
// produces the same ConformanceReport — violation strings, simulated-time
// doubles, RNG draw sequence — and the same VCD witness bytes as
// run_closed_loop.  The differential battery in
// tests/sim_batch_equivalence_test.cpp enforces this over fuzzed circuits;
// check_conformance enforces it per trial under verify_kernels, keeping the
// reference report where the two differ.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/conformance.hpp"
#include "sim/event_sim.hpp"

namespace nshot::sim {

/// One closed-loop trial at a time, byte-identical to
/// run_closed_loop(spec, circuit, config).  Reusable across trials and
/// bindings of the same compiled netlist — all arenas (queue buckets,
/// settle cache, choice scratch) keep their capacity.
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
