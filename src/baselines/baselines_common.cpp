#include "util/error.hpp"
#include "baselines/baselines_common.hpp"

#include "nshot/spec_derivation.hpp"

namespace nshot::baselines::detail {

logic::TwoLevelSpec next_state_spec(const sg::StateGraph& sg) {
  const std::vector<sg::SignalId> noninputs = sg.noninput_signals();
  logic::TwoLevelSpec spec(sg.num_signals(), static_cast<int>(noninputs.size()));
  for (sg::StateId s = 0; s < sg.num_states(); ++s) {
    for (std::size_t k = 0; k < noninputs.size(); ++k) {
      switch (core::classify_state(sg, s, noninputs[k])) {
        case core::Mode::kSet:
        case core::Mode::kQuiescentHigh:
          spec.add_on(static_cast<int>(k), sg.code(s));
          break;
        case core::Mode::kReset:
        case core::Mode::kQuiescentLow:
          spec.add_off(static_cast<int>(k), sg.code(s));
          break;
      }
    }
  }
  spec.normalize();
  return spec;
}

std::vector<netlist::NetId> make_signal_rails(const sg::StateGraph& sg, netlist::Netlist& nl) {
  std::vector<netlist::NetId> rails;
  rails.reserve(static_cast<std::size_t>(sg.num_signals()));
  for (int x = 0; x < sg.num_signals(); ++x) {
    const netlist::NetId net = nl.add_net(sg.signal(x).name);
    rails.push_back(net);
    if (sg.is_input(x))
      nl.add_primary_input(net);
    else
      nl.add_primary_output(net);
  }
  return rails;
}

netlist::NetId build_cube_gate(netlist::Netlist& nl, const logic::Cube& cube,
                               const std::vector<netlist::NetId>& rails,
                               const std::string& name) {
  std::vector<netlist::NetId> ins;
  std::vector<bool> inv;
  for (int x = 0; x < cube.num_inputs(); ++x) {
    if (cube.var_is_free(x)) continue;
    ins.push_back(rails[static_cast<std::size_t>(x)]);
    inv.push_back(!((cube.hi() >> x) & 1ULL));
  }
  NSHOT_REQUIRE(!ins.empty(), "baseline cube gate needs at least one literal");
  return nl.build_tree(gatelib::GateType::kAnd, ins, inv, name, /*force_gate=*/true);
}

}  // namespace nshot::baselines::detail
