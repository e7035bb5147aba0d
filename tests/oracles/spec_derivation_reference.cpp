#include "oracles/spec_derivation_reference.hpp"

#include <algorithm>
#include <string>

#include "nshot/spec_derivation.hpp"
#include "util/error.hpp"

namespace nshot::core::reference {

SpecLists derive_spec_lists(const sg::StateGraph& sg) {
  const std::vector<sg::SignalId> noninputs = sg.noninput_signals();
  SpecLists lists;
  lists.on.resize(2 * noninputs.size());
  lists.off.resize(2 * noninputs.size());
  for (sg::StateId s = 0; s < sg.num_states(); ++s) {
    const std::uint64_t code = sg.code(s);
    for (std::size_t k = 0; k < noninputs.size(); ++k) {
      std::vector<std::uint64_t>& set_on = lists.on[2 * k];
      std::vector<std::uint64_t>& set_off = lists.off[2 * k];
      std::vector<std::uint64_t>& reset_on = lists.on[2 * k + 1];
      std::vector<std::uint64_t>& reset_off = lists.off[2 * k + 1];
      switch (classify_state(sg, s, noninputs[k])) {
        case Mode::kSet:
          set_on.push_back(code);
          reset_off.push_back(code);
          break;
        case Mode::kQuiescentHigh:
          reset_off.push_back(code);
          break;
        case Mode::kReset:
          set_off.push_back(code);
          reset_on.push_back(code);
          break;
        case Mode::kQuiescentLow:
          set_off.push_back(code);
          break;
      }
    }
  }
  for (auto* side : {&lists.on, &lists.off}) {
    for (std::vector<std::uint64_t>& list : *side) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
  }
  for (std::size_t o = 0; o < lists.on.size(); ++o)
    for (const std::uint64_t code : lists.on[o])
      NSHOT_REQUIRE(!std::binary_search(lists.off[o].begin(), lists.off[o].end(), code),
                    "minterm " + std::to_string(code) + " is in both F and R of output " +
                        std::to_string(o));
  return lists;
}

}  // namespace nshot::core::reference
