// Compiled form of a netlist for the simulation hot path: everything a
// Simulator trial needs that depends only on the netlist (not on the seed)
// is flattened once here and shared — read-only — by every trial.
//
//  * fanout in CSR form (one offsets array + one flat gate array) instead
//    of a vector-of-vectors rebuilt per Simulator;
//  * packed gate descriptors over one flat input-code array: each input is
//    a single uint32 `(net << 1) | inverted`, so eval walks one contiguous
//    word stream and applies the inversion with an XOR instead of a second
//    (parallel byte array) lookup and a branch;
//  * a per-net driver table (Netlist::driver is a linear scan over gates);
//  * a per-net fused-reader table marking fanout-of-1 combinational chain
//    links (BUF/INV/single-reader AND-OR): when a committed net's only
//    reader is a plain combinational gate, the event it schedules can be
//    walked inline by Simulator::run_burst without re-entering the event
//    queue (events enter the queue only at fanout>1 or stateful
//    boundaries);
//  * the DelaySpace, so per-trial delay sampling does not re-derive the
//    per-gate bounds.
//
// A CompiledNetlist is immutable after construction and safe to share
// across threads; the sweeps in sim/conformance.cpp and src/faults compile
// one per campaign and run thousands of trials against it.
#pragma once

#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/delay_space.hpp"

namespace nshot::sim {

/// Flattened gate descriptor.  Inputs live in the shared flat code array
/// [first_input, first_input + num_inputs); out1 is -1 except for the MHS
/// flip-flop (q, qb).
struct CompiledGate {
  gatelib::GateType type = gatelib::GateType::kBuf;
  bool feedback_cut = false;
  std::uint32_t first_input = 0;
  std::uint32_t num_inputs = 0;
  netlist::NetId out0 = -1;
  netlist::NetId out1 = -1;
};

class CompiledNetlist {
 public:
  CompiledNetlist(const netlist::Netlist& netlist, const gatelib::GateLibrary& lib);

  const netlist::Netlist& netlist() const { return *netlist_; }
  const gatelib::GateLibrary& lib() const { return *lib_; }
  const DelaySpace& delay_space() const { return space_; }

  int num_nets() const { return static_cast<int>(fanout_offset_.size()) - 1; }
  int num_gates() const { return static_cast<int>(gates_.size()); }

  const CompiledGate& gate(netlist::GateId g) const {
    return gates_[static_cast<std::size_t>(g)];
  }

  /// Gates reading `net`, in gate-id order (identical to the fanout lists
  /// the Simulator used to build per construction).
  std::span<const netlist::GateId> fanout(netlist::NetId net) const {
    const std::size_t begin = fanout_offset_[static_cast<std::size_t>(net)];
    const std::size_t end = fanout_offset_[static_cast<std::size_t>(net) + 1];
    return {fanout_gate_.data() + begin, end - begin};
  }

  /// The flat code array; hot loops index it with CompiledGate::first_input.
  const std::uint32_t* input_codes() const { return input_code_.data(); }

  /// Input net i of gate `g` (0-based within the gate).
  netlist::NetId input(const CompiledGate& g, std::size_t i) const {
    return static_cast<netlist::NetId>(input_code_[g.first_input + i] >> 1);
  }
  bool input_inverted(const CompiledGate& g, std::size_t i) const {
    return (input_code_[g.first_input + i] & 1u) != 0;
  }

  /// Gate driving `net`, or -1 (precomputed; Netlist::driver scans).
  netlist::GateId driver(netlist::NetId net) const {
    return driver_[static_cast<std::size_t>(net)];
  }

  /// The fanout-of-1 chain link out of `net`: the single gate reading it,
  /// provided that gate is a plain combinational reader (AND/OR/INV/BUF,
  /// no feedback cut) — or -1 when the net is a fusion boundary (fanout
  /// != 1, or the reader is storage / MHS / inertial / delay-line /
  /// feedback-cut).  run_burst walks these links without queue traffic.
  netlist::GateId fused_reader(netlist::NetId net) const {
    return fused_reader_[static_cast<std::size_t>(net)];
  }
  /// Number of nets with a fused reader (chain links collapsed at compile
  /// time); exposed for tests.
  int num_fused_nets() const { return num_fused_nets_; }
  /// Length of the longest fused chain (successive fused links); exposed
  /// for tests.
  int longest_fused_chain() const { return longest_fused_chain_; }

 private:
  const netlist::Netlist* netlist_;
  const gatelib::GateLibrary* lib_;
  DelaySpace space_;
  std::vector<std::uint32_t> fanout_offset_;  // num_nets + 1 entries
  std::vector<netlist::GateId> fanout_gate_;
  std::vector<CompiledGate> gates_;
  std::vector<std::uint32_t> input_code_;     // flat (net<<1)|inverted codes
  std::vector<netlist::GateId> driver_;       // per net, -1 = undriven
  std::vector<netlist::GateId> fused_reader_; // per net, -1 = boundary
  int num_fused_nets_ = 0;
  int longest_fused_chain_ = 0;
};

}  // namespace nshot::sim
