#include "nshot/spec_derivation.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sg/bitset.hpp"
#include "util/error.hpp"

namespace nshot::core {

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kSet: return "+a (set)";
    case Mode::kQuiescentHigh: return "a=1 (quiescent)";
    case Mode::kReset: return "-a (reset)";
    case Mode::kQuiescentLow: return "a=0 (quiescent)";
  }
  return "?";
}

Mode classify_state(const sg::StateGraph& sg, sg::StateId s, sg::SignalId a) {
  NSHOT_REQUIRE(!sg.is_input(a), "classification is defined for non-input signals");
  const bool value = sg.value(s, a);
  const bool excited = sg.excited(s, a);
  if (excited) return value ? Mode::kReset : Mode::kSet;
  return value ? Mode::kQuiescentHigh : Mode::kQuiescentLow;
}

const OutputIndex& DerivedSpec::for_signal(sg::SignalId a) const {
  for (const OutputIndex& index : outputs)
    if (index.signal == a) return index;
  NSHOT_REQUIRE(false, "signal has no derived outputs (is it an input?)");
  // Unreachable; silences the compiler.
  return outputs.front();
}

DerivedSpec derive_spec(const sg::StateGraph& sg) {
  const obs::Span span("spec_derivation");
  const std::vector<sg::SignalId> noninputs = sg.noninput_signals();
  NSHOT_REQUIRE(!noninputs.empty(), "state graph has no non-input signals to synthesize");

  DerivedSpec derived{logic::TwoLevelSpec(sg.num_signals(),
                                          static_cast<int>(noninputs.size()) * 2),
                      {}};
  for (std::size_t k = 0; k < noninputs.size(); ++k)
    derived.outputs.push_back(OutputIndex{noninputs[k], static_cast<int>(2 * k),
                                          static_cast<int>(2 * k + 1)});

  // One edge sweep builds every signal's excitation plane; the per-state
  // classification below then probes bits instead of rescanning out-edges
  // per (state, signal) pair.
  const std::vector<sg::StateSet> excited = sg::all_excited_sets(sg);
  // States are visited in code order and a code joins a list only when it
  // differs from the list's last entry, so every list comes out sorted
  // and duplicate-free: normalize() below reorders nothing and is left
  // with the F ∩ R check.
  std::vector<std::pair<std::uint64_t, sg::StateId>> by_code;
  by_code.reserve(static_cast<std::size_t>(sg.num_states()));
  for (sg::StateId s = 0; s < sg.num_states(); ++s) by_code.emplace_back(sg.code(s), s);
  std::sort(by_code.begin(), by_code.end());
  logic::TwoLevelSpec& spec = derived.spec;
  auto add_on = [&spec](int o, std::uint64_t code) {
    if (spec.on(o).empty() || spec.on(o).back() != code) spec.add_on(o, code);
  };
  auto add_off = [&spec](int o, std::uint64_t code) {
    if (spec.off(o).empty() || spec.off(o).back() != code) spec.add_off(o, code);
  };
  for (const auto& [code, s] : by_code) {
    for (const OutputIndex& index : derived.outputs) {
      const bool value = sg.value(s, index.signal);
      const Mode mode =
          excited[static_cast<std::size_t>(index.signal)].contains(s)
              ? (value ? Mode::kReset : Mode::kSet)
              : (value ? Mode::kQuiescentHigh : Mode::kQuiescentLow);
      switch (mode) {
        case Mode::kSet:  // SET = 1, RESET = 0
          add_on(index.set_output, code);
          add_off(index.reset_output, code);
          break;
        case Mode::kQuiescentHigh:  // SET = don't care, RESET = 0
          add_off(index.reset_output, code);
          break;
        case Mode::kReset:  // SET = 0, RESET = 1
          add_off(index.set_output, code);
          add_on(index.reset_output, code);
          break;
        case Mode::kQuiescentLow:  // SET = 0, RESET = don't care
          add_off(index.set_output, code);
          break;
      }
    }
  }
  spec.normalize();  // throws only if CSC is violated
  return derived;
}

}  // namespace nshot::core
