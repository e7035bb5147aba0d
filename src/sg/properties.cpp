#include "sg/properties.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "exec/cancel.hpp"
#include "obs/obs.hpp"
#include "sg/bitset.hpp"
#include "util/error.hpp"

namespace nshot::sg {

std::string PropertyReport::summary() const {
  if (violations.empty()) return "ok";
  std::string text = std::to_string(violations.size()) + " violation(s):";
  for (const std::string& v : violations) {
    text += "\n  - ";
    text += v;
  }
  return text;
}

PropertyReport check_consistency(const StateGraph& sg) {
  PropertyReport report;
  for (StateId s = 0; s < sg.num_states(); ++s) {
    for (const Edge& e : sg.out_edges(s)) {
      const std::uint64_t bit = 1ULL << e.label.signal;
      const std::uint64_t expected =
          e.label.rising ? (sg.code(s) | bit) : (sg.code(s) & ~bit);
      const bool pre_ok = sg.value(s, e.label.signal) != e.label.rising;
      if (!pre_ok)
        report.violations.push_back("transition " + sg.label_name(e.label) + " from " +
                                    sg.state_name(s) + " does not change the signal value");
      else if (sg.code(e.target) != expected)
        report.violations.push_back("arc " + sg.state_name(s) + " --" + sg.label_name(e.label) +
                                    "--> " + sg.state_name(e.target) +
                                    " has an inconsistent target code");
    }
  }
  return report;
}

PropertyReport check_reachability(const StateGraph& sg) {
  PropertyReport report;
  if (sg.initial() < 0) {
    report.violations.push_back("no initial state set");
    return report;
  }
  std::vector<bool> seen(static_cast<std::size_t>(sg.num_states()), false);
  std::vector<StateId> stack{sg.initial()};
  seen[static_cast<std::size_t>(sg.initial())] = true;
  while (!stack.empty()) {
    const StateId s = stack.back();
    stack.pop_back();
    for (const Edge& e : sg.out_edges(s)) {
      if (!seen[static_cast<std::size_t>(e.target)]) {
        seen[static_cast<std::size_t>(e.target)] = true;
        stack.push_back(e.target);
      }
    }
  }
  for (StateId s = 0; s < sg.num_states(); ++s)
    if (!seen[static_cast<std::size_t>(s)])
      report.violations.push_back("state " + sg.state_name(s) + " is unreachable");
  return report;
}

namespace {

/// The target of the `label` arc out of s, or -1 (StateGraph::successor
/// inlined into the diamond loop).
StateId arc_target(const StateGraph& sg, StateId s, TransitionLabel label) {
  for (const Edge& e : sg.out_edges(s))
    if (e.label == label) return e.target;
  return -1;
}

}  // namespace

PropertyReport check_semi_modular(const StateGraph& sg) {
  PropertyReport report;
  // Each out-edge carries its label and its target, so the diamond of
  // (t1, t2) from s only needs the two closing probes: t2 from s via t1
  // and t1 from s via t2.  Edges at one state carry distinct labels, so
  // skipping the same edge is skipping t1 == t2.
  for (StateId s = 0; s < sg.num_states(); ++s) {
    const std::span<const Edge> edges = sg.out_edges(s);
    for (const Edge& e1 : edges) {
      if (sg.is_input(e1.label.signal)) continue;  // only non-input transitions are protected
      for (const Edge& e2 : edges) {
        if (&e1 == &e2) continue;
        const StateId s21 = arc_target(sg, e2.target, e1.label);
        if (s21 < 0) {
          report.violations.push_back("non-input transition " + sg.label_name(e1.label) +
                                      " is disabled by " + sg.label_name(e2.label) + " in " +
                                      sg.state_name(s));
          continue;
        }
        if (arc_target(sg, e1.target, e2.label) != s21)
          report.violations.push_back("diamond of " + sg.label_name(e1.label) + " and " +
                                      sg.label_name(e2.label) + " from " + sg.state_name(s) +
                                      " does not commute");
      }
    }
  }
  return report;
}

namespace {

/// Bit mask of non-input signals excited in s.
std::uint64_t excited_noninput_mask(const StateGraph& sg, StateId s) {
  std::uint64_t mask = 0;
  for (const Edge& e : sg.out_edges(s))
    if (!sg.is_input(e.label.signal)) mask |= (1ULL << e.label.signal);
  return mask;
}

/// The sorted (code, state) table the coding checkers group over.
std::vector<std::pair<std::uint64_t, StateId>> sorted_code_state_pairs(const StateGraph& sg) {
  std::vector<std::pair<std::uint64_t, StateId>> by_code;
  by_code.reserve(static_cast<std::size_t>(sg.num_states()));
  for (StateId s = 0; s < sg.num_states(); ++s) by_code.emplace_back(sg.code(s), s);
  std::sort(by_code.begin(), by_code.end());
  return by_code;
}

/// Visit CSC conflict pairs (first occurrence, conflicting state) in the
/// order check_csc reports them: groups in ascending code order, states
/// ascending within a group.  Shared by the string-building checker and
/// the count-only path the CSC solver hammers, so both stay identical.
/// Each duplicate-code group is one deadline checkpoint: the solver's
/// candidate loop has none of its own.
template <typename Visitor>
void for_each_csc_conflict(const StateGraph& sg, Visitor&& visit) {
  const std::vector<std::pair<std::uint64_t, StateId>> by_code = sorted_code_state_pairs(sg);
  for (std::size_t begin = 0; begin < by_code.size();) {
    std::size_t end = begin;
    while (end < by_code.size() && by_code[end].first == by_code[begin].first) ++end;
    if (end - begin >= 2) {
      exec::checkpoint();
      const std::uint64_t reference = excited_noninput_mask(sg, by_code[begin].second);
      for (std::size_t i = begin + 1; i < end; ++i)
        if (excited_noninput_mask(sg, by_code[i].second) != reference)
          visit(by_code[begin].second, by_code[i].second);
    }
    begin = end;
  }
}

}  // namespace

PropertyReport check_csc(const StateGraph& sg) {
  PropertyReport report;
  for_each_csc_conflict(sg, [&](StateId first, StateId other) {
    report.violations.push_back("CSC conflict between " + sg.state_name(first) + " and " +
                                sg.state_name(other) +
                                " (equal codes, different excited non-input signals)");
  });
  return report;
}

PropertyReport check_usc(const StateGraph& sg) {
  PropertyReport report;
  // Sorted-group formulation of the first-occurrence hash scan: within a
  // group (states ascending) every state after the first collides with the
  // group's first state, and sorting the (colliding state, first state)
  // pairs by colliding state reproduces the hash scan's report order —
  // one violation per non-first state, emitted in ascending state order.
  const std::vector<std::pair<std::uint64_t, StateId>> by_code = sorted_code_state_pairs(sg);
  std::vector<std::pair<StateId, StateId>> collisions;  // (colliding state, first state)
  for (std::size_t begin = 0; begin < by_code.size();) {
    std::size_t end = begin;
    while (end < by_code.size() && by_code[end].first == by_code[begin].first) ++end;
    for (std::size_t i = begin + 1; i < end; ++i)
      collisions.emplace_back(by_code[i].second, by_code[begin].second);
    begin = end;
  }
  std::sort(collisions.begin(), collisions.end());
  for (const auto& [other, first] : collisions)
    report.violations.push_back("states " + sg.state_name(first) + " and " +
                                sg.state_name(other) + " share one binary code");
  return report;
}

std::size_t count_csc_conflicts(const StateGraph& sg) {
  std::size_t count = 0;
  for_each_csc_conflict(sg, [&count](StateId, StateId) { ++count; });
  return count;
}

namespace {

/// The Definition-3 scan against a prebuilt excitation plane of `a` —
/// shared by the per-signal entry point (which builds one plane) and the
/// batched all-signal one (which builds every plane in a single sweep).
std::vector<StateId> detonant_scan(const StateGraph& sg, const StateSet& excited) {
  std::vector<StateId> found;
  std::vector<StateId> exciting_successors;
  for (StateId w = 0; w < sg.num_states(); ++w) {
    if (excited.contains(w)) continue;  // a must be stable in w
    exciting_successors.clear();
    for (const Edge& e : sg.out_edges(w))
      if (excited.contains(e.target)) exciting_successors.push_back(e.target);
    std::sort(exciting_successors.begin(), exciting_successors.end());
    exciting_successors.erase(std::unique(exciting_successors.begin(), exciting_successors.end()),
                              exciting_successors.end());
    if (exciting_successors.size() >= 2) found.push_back(w);
  }
  return found;
}

}  // namespace

std::vector<StateId> detonant_states(const StateGraph& sg, SignalId a) {
  NSHOT_REQUIRE(!sg.is_input(a), "detonant states are defined for non-input signals");
  // One excitation plane of a replaces the per-state / per-successor
  // out-edge scans: stability and successor excitation become bit probes.
  return detonant_scan(sg, excited_set(sg, a));
}

std::vector<std::vector<StateId>> all_detonant_states(const StateGraph& sg) {
  // One shared sweep builds every signal's excitation plane; calling
  // detonant_states per signal would repeat that whole-graph edge pass
  // once per non-input signal for identical plane content.
  const std::vector<StateSet> excited = all_excited_sets(sg);
  const std::vector<SignalId> signals = sg.noninput_signals();
  std::vector<std::vector<StateId>> result;
  result.reserve(signals.size());
  for (const SignalId a : signals)
    result.push_back(detonant_scan(sg, excited[static_cast<std::size_t>(a)]));
  return result;
}

bool is_distributive(const StateGraph& sg, SignalId a) { return detonant_states(sg, a).empty(); }

bool is_distributive(const StateGraph& sg) {
  // The batched scan shares one plane sweep across signals; early-exit on
  // the first detonant signal matches the per-signal loop's verdict (a
  // bool, so the extra signals a serial loop would skip are unobservable).
  for (const std::vector<StateId>& detonant : all_detonant_states(sg))
    if (!detonant.empty()) return false;
  return true;
}

PropertyReport check_implementability(const StateGraph& sg) {
  const obs::Span span("implementability");
  PropertyReport report;
  const auto csc = [](const StateGraph& g) { return check_csc(g); };
  using Checker = PropertyReport (*)(const StateGraph&);
  for (const Checker check : {Checker{&check_consistency}, Checker{&check_reachability},
                              Checker{&check_semi_modular}, Checker{csc}}) {
    PropertyReport partial = check(sg);
    report.violations.insert(report.violations.end(), partial.violations.begin(),
                             partial.violations.end());
  }
  return report;
}

}  // namespace nshot::sg
