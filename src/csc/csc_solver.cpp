#include "csc/csc_solver.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "sg/properties.hpp"
#include "stg/reachability.hpp"
#include "util/error.hpp"

namespace nshot::csc {
namespace {

/// Insert toggle `name` behind two groups of transitions: z+ joins after
/// every transition of `plus_group` (its preset is one fresh place per
/// member), z- after every transition of `minus_group`.  The members'
/// original postset places are rerouted to be fed by the toggle, so the
/// toggle is a serializing join — in a barrier-structured net this is
/// exactly "z+ fires at the end of the stage".
stg::Stg insert_toggle_groups(const stg::Stg& source,
                              const std::vector<stg::TransitionId>& plus_group,
                              const std::vector<stg::TransitionId>& minus_group,
                              const std::string& name) {
  stg::Stg result(source.name());
  for (int i = 0; i < source.num_signals(); ++i)
    result.add_signal(source.signal(i).name, source.signal(i).kind);
  const int z = result.add_signal(name, stg::SignalKind::kInternal);

  for (stg::TransitionId t = 0; t < source.num_transitions(); ++t) {
    const stg::StgTransition& tr = source.transition(t);
    result.add_transition(tr.signal, tr.rising, tr.instance);
  }
  const stg::TransitionId z_plus = result.add_transition(z, true);
  const stg::TransitionId z_minus = result.add_transition(z, false);

  for (stg::PlaceId p = 0; p < source.num_places(); ++p) {
    result.add_place(source.place_name(p));
    result.mark_place(p, source.initial_marking()[static_cast<std::size_t>(p)]);
  }

  const std::set<stg::TransitionId> plus(plus_group.begin(), plus_group.end());
  const std::set<stg::TransitionId> minus(minus_group.begin(), minus_group.end());
  for (stg::TransitionId t = 0; t < source.num_transitions(); ++t) {
    for (const stg::PlaceId p : source.preset(t)) result.add_arc_place_to_transition(p, t);
    const stg::TransitionId via = plus.contains(t)    ? z_plus
                                  : minus.contains(t) ? z_minus
                                                      : -1;
    if (via < 0) {
      for (const stg::PlaceId p : source.postset(t)) result.add_arc_transition_to_place(t, p);
    } else {
      std::string splice_name = "<";
      splice_name.append(source.transition_name(t)).append(",");
      splice_name.append(result.transition_name(via)).append(">");
      const stg::PlaceId splice = result.add_place(splice_name);
      result.add_arc_transition_to_place(t, splice);
      result.add_arc_place_to_transition(splice, via);
      for (const stg::PlaceId p : source.postset(t)) result.add_arc_transition_to_place(via, p);
    }
  }

  for (int i = 0; i < source.num_signals(); ++i)
    if (const auto v = source.declared_initial_values()[static_cast<std::size_t>(i)])
      result.set_initial_value(i, *v);
  return result;
}

/// Candidate splice groups: every singleton transition, plus the clusters
/// of transitions sharing one consumer set (the "stages" of a barrier
/// cycle — in [a+ b+][a- b-] the group {a+, b+} feeds {a-, b-}).
std::vector<std::vector<stg::TransitionId>> candidate_groups(const stg::Stg& source) {
  // place -> consumer transitions
  std::vector<std::vector<stg::TransitionId>> consumers(
      static_cast<std::size_t>(source.num_places()));
  for (stg::TransitionId t = 0; t < source.num_transitions(); ++t)
    for (const stg::PlaceId p : source.preset(t))
      consumers[static_cast<std::size_t>(p)].push_back(t);

  std::vector<std::vector<stg::TransitionId>> groups;
  std::map<std::vector<stg::TransitionId>, std::vector<stg::TransitionId>> by_consumer_set;
  for (stg::TransitionId t = 0; t < source.num_transitions(); ++t) {
    groups.push_back({t});
    std::set<stg::TransitionId> key_set;
    for (const stg::PlaceId p : source.postset(t))
      key_set.insert(consumers[static_cast<std::size_t>(p)].begin(),
                     consumers[static_cast<std::size_t>(p)].end());
    by_consumer_set[std::vector<stg::TransitionId>(key_set.begin(), key_set.end())].push_back(t);
  }
  for (auto& [key, members] : by_consumer_set)
    if (members.size() >= 2) groups.push_back(std::move(members));
  return groups;
}

}  // namespace

stg::Stg insert_toggle(const stg::Stg& source, stg::TransitionId after_plus,
                       stg::TransitionId after_minus, const std::string& name) {
  NSHOT_REQUIRE(after_plus != after_minus,
                "toggle must be spliced behind two distinct transitions");
  return insert_toggle_groups(source, {after_plus}, {after_minus}, name);
}

int csc_conflict_count(const sg::StateGraph& graph) {
  // Count-only fast path: same conflict enumeration as sg::check_csc but
  // without materializing the diagnostic strings the solver would discard.
  return static_cast<int>(sg::count_csc_conflicts(graph));
}

std::optional<CscSolveResult> solve_csc(const stg::Stg& source, const CscSolveOptions& options) {
  stg::ReachabilityOptions reach;
  reach.max_states = options.max_states;

  stg::Stg current = source;
  sg::StateGraph graph = stg::build_state_graph(current, reach);
  NSHOT_REQUIRE(sg::check_consistency(graph).ok() && sg::check_semi_modular(graph).ok(),
                "CSC solving expects a consistent semi-modular specification");
  int conflicts = csc_conflict_count(graph);

  CscSolveResult result{current, graph, 0, {}};
  while (conflicts > 0) {
    if (result.signals_added >= options.max_signals) return std::nullopt;

    const std::vector<std::vector<stg::TransitionId>> groups = candidate_groups(current);
    auto group_name = [&current](const std::vector<stg::TransitionId>& group) {
      std::string text;
      for (std::size_t i = 0; i < group.size(); ++i)
        text.append(i ? "," : "").append(current.transition_name(group[i]));
      return text;
    };

    // Greedy search: the splice pair that reduces conflicts the most while
    // preserving every other implementability property.
    int best_conflicts = conflicts;
    std::optional<stg::Stg> best_stg;
    std::optional<sg::StateGraph> best_graph;
    std::string best_description;

    for (std::size_t gp = 0; gp < groups.size() && best_conflicts > 0; ++gp) {
      for (std::size_t gm = 0; gm < groups.size(); ++gm) {
        if (gp == gm) continue;
        // Overlapping groups cannot alternate.
        bool overlap = false;
        for (const stg::TransitionId t : groups[gp])
          for (const stg::TransitionId u : groups[gm]) overlap = overlap || t == u;
        if (overlap) continue;

        const std::string name = "csc" + std::to_string(result.signals_added);
        stg::Stg candidate_stg = insert_toggle_groups(current, groups[gp], groups[gm], name);
        try {
          sg::StateGraph candidate = stg::build_state_graph(candidate_stg, reach);
          if (!sg::check_consistency(candidate).ok()) continue;
          if (!sg::check_semi_modular(candidate).ok()) continue;
          const int candidate_conflicts = csc_conflict_count(candidate);
          if (candidate_conflicts < best_conflicts) {
            best_conflicts = candidate_conflicts;
            best_stg = std::move(candidate_stg);
            best_graph = std::move(candidate);
            best_description = name + ": + after {" + group_name(groups[gp]) + "}, - after {" +
                               group_name(groups[gm]) + "}";
          }
        } catch (const Error&) {
          continue;  // splice broke alternation / safety: not a candidate
        }
        if (best_conflicts == 0) break;
      }
    }

    if (!best_stg) return std::nullopt;  // no insertion helps
    result.insertions.push_back(best_description);
    current = std::move(*best_stg);
    graph = std::move(*best_graph);
    conflicts = best_conflicts;
    ++result.signals_added;
  }

  result.transformed = std::move(current);
  result.graph = std::move(graph);
  return result;
}

}  // namespace nshot::csc
