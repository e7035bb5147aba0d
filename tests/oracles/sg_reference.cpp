#include "oracles/sg_reference.hpp"

#include "util/error.hpp"

namespace nshot::sg::reference {

PropertyReport check_semi_modular(const StateGraph& sg) {
  PropertyReport report;
  for (StateId s = 0; s < sg.num_states(); ++s) {
    const auto labels = sg.enabled_labels(s);
    for (const TransitionLabel& t1 : labels) {
      if (sg.is_input(t1.signal)) continue;  // only non-input transitions are protected
      for (const TransitionLabel& t2 : labels) {
        if (t1 == t2) continue;
        const auto s_via_t1 = sg.successor(s, t1);
        const auto s_via_t2 = sg.successor(s, t2);
        NSHOT_ASSERT(s_via_t1 && s_via_t2, "enabled label without successor");
        const auto s12 = sg.successor(*s_via_t1, t2);
        const auto s21 = sg.successor(*s_via_t2, t1);
        if (!s21)
          report.violations.push_back("non-input transition " + sg.label_name(t1) +
                                      " is disabled by " + sg.label_name(t2) + " in " +
                                      sg.state_name(s));
        else if (!s12 || *s12 != *s21)
          report.violations.push_back("diamond of " + sg.label_name(t1) + " and " +
                                      sg.label_name(t2) + " from " + sg.state_name(s) +
                                      " does not commute");
      }
    }
  }
  return report;
}

}  // namespace nshot::sg::reference
