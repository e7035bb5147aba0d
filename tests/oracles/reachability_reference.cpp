#include "oracles/reachability_reference.hpp"

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>

#include "util/error.hpp"

namespace nshot::stg::reference {
namespace {

using Marking = std::vector<std::uint64_t>;  // bit-packed place marking

Marking pack(const std::vector<bool>& marking) {
  Marking packed((marking.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < marking.size(); ++i)
    if (marking[i]) packed[i / 64] |= (1ULL << (i % 64));
  return packed;
}

bool has_token(const Marking& m, PlaceId p) {
  return (m[static_cast<std::size_t>(p) / 64] >> (static_cast<std::size_t>(p) % 64)) & 1ULL;
}

void set_token(Marking& m, PlaceId p, bool value) {
  const std::uint64_t bit = 1ULL << (static_cast<std::size_t>(p) % 64);
  if (value)
    m[static_cast<std::size_t>(p) / 64] |= bit;
  else
    m[static_cast<std::size_t>(p) / 64] &= ~bit;
}

bool enabled(const Stg& stg, const Marking& m, TransitionId t) {
  for (const PlaceId p : stg.preset(t))
    if (!has_token(m, p)) return false;
  return !stg.preset(t).empty();
}

/// Fire `t`; throws if the result is not 1-safe.
Marking fire(const Stg& stg, const Marking& m, TransitionId t) {
  Marking next = m;
  for (const PlaceId p : stg.preset(t)) set_token(next, p, false);
  for (const PlaceId p : stg.postset(t)) {
    NSHOT_REQUIRE(!has_token(next, p), "STG " + stg.name() + " is not 1-safe: firing " +
                                           stg.transition_name(t) + " double-marks place " +
                                           stg.place_name(p));
    set_token(next, p, true);
  }
  return next;
}

/// Eagerly fire every enabled dummy transition until quiescence; the
/// closure must converge on one dummy-quiescent marking.
Marking saturate_dummies(const Stg& stg, Marking m) {
  if (!stg.has_dummies()) return m;
  std::set<Marking> seen;
  std::deque<Marking> queue;
  std::vector<Marking> quiescent;
  seen.insert(m);
  queue.push_back(std::move(m));
  while (!queue.empty()) {
    const Marking current = queue.front();
    queue.pop_front();
    bool any = false;
    for (TransitionId t = 0; t < stg.num_transitions(); ++t) {
      if (!stg.transition(t).is_dummy() || !enabled(stg, current, t)) continue;
      any = true;
      Marking next = fire(stg, current, t);
      if (seen.insert(next).second) queue.push_back(std::move(next));
    }
    if (!any) quiescent.push_back(current);
    NSHOT_REQUIRE_CODE(seen.size() < 10000, ErrorCode::kResourceExhausted,
                       "STG " + stg.name() + " has a diverging dummy-transition closure");
  }
  NSHOT_REQUIRE(quiescent.size() == 1,
                "STG " + stg.name() + " has non-confluent (or cyclic) dummy transitions");
  return quiescent.front();
}

}  // namespace

std::vector<bool> infer_initial_values(const Stg& stg, const ReachabilityOptions& options) {
  const int n = stg.num_signals();
  std::vector<std::optional<bool>> values = stg.declared_initial_values();
  int unresolved = 0;
  for (const auto& v : values)
    if (!v) ++unresolved;

  if (unresolved > 0) {
    // BFS over markings; the first edge labelled with signal x (popping
    // markings in BFS order) is a first firing of x on some path, so its
    // polarity determines the initial value.
    std::set<Marking> seen;
    std::deque<Marking> queue;
    const Marking initial = pack(stg.initial_marking());
    seen.insert(initial);
    queue.push_back(initial);
    while (!queue.empty() && unresolved > 0) {
      NSHOT_REQUIRE_CODE(seen.size() <= options.max_states, ErrorCode::kResourceExhausted,
                         "STG " + stg.name() + " exceeds the reachability state cap");
      const Marking m = queue.front();
      queue.pop_front();
      for (TransitionId t = 0; t < stg.num_transitions(); ++t) {
        if (!enabled(stg, m, t)) continue;
        const StgTransition& tr = stg.transition(t);
        if (!tr.is_dummy()) {
          auto& value = values[static_cast<std::size_t>(tr.signal)];
          if (!value) {
            value = !tr.rising;  // fires +x first => x starts at 0
            --unresolved;
          }
        }
        Marking next = fire(stg, m, t);
        if (seen.insert(next).second) queue.push_back(std::move(next));
      }
    }
  }

  std::vector<bool> result(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    NSHOT_REQUIRE(values[static_cast<std::size_t>(i)].has_value(),
                  "signal " + stg.signal(i).name +
                      " never fires; declare its initial value with .init");
    result[static_cast<std::size_t>(i)] = *values[static_cast<std::size_t>(i)];
  }
  return result;
}

std::vector<TransitionId> dead_transitions(const Stg& stg, const ReachabilityOptions& options) {
  std::vector<bool> fired(static_cast<std::size_t>(stg.num_transitions()), false);
  std::set<Marking> seen;
  std::deque<Marking> queue;
  const Marking initial = pack(stg.initial_marking());
  seen.insert(initial);
  queue.push_back(initial);
  while (!queue.empty()) {
    NSHOT_REQUIRE_CODE(seen.size() <= options.max_states, ErrorCode::kResourceExhausted,
                       "STG " + stg.name() + " exceeds the reachability state cap");
    const Marking m = queue.front();
    queue.pop_front();
    for (TransitionId t = 0; t < stg.num_transitions(); ++t) {
      if (!enabled(stg, m, t)) continue;
      fired[static_cast<std::size_t>(t)] = true;
      Marking next = fire(stg, m, t);
      if (seen.insert(next).second) queue.push_back(std::move(next));
    }
  }
  std::vector<TransitionId> dead;
  for (TransitionId t = 0; t < stg.num_transitions(); ++t)
    if (!fired[static_cast<std::size_t>(t)]) dead.push_back(t);
  return dead;
}

sg::StateGraph build_state_graph(const Stg& stg, const ReachabilityOptions& options) {
  const std::vector<bool> initial_values = reference::infer_initial_values(stg, options);

  sg::StateGraph graph(stg.name());
  for (int i = 0; i < stg.num_signals(); ++i) {
    const SignalKind kind = stg.signal(i).kind;
    graph.add_signal(stg.signal(i).name, kind == SignalKind::kInput
                                             ? sg::SignalKind::kInput
                                             : sg::SignalKind::kNonInput);
  }

  std::uint64_t initial_code = 0;
  for (std::size_t i = 0; i < initial_values.size(); ++i)
    if (initial_values[i]) initial_code |= (1ULL << i);

  std::map<Marking, sg::StateId> ids;
  std::deque<Marking> queue;
  const Marking initial = saturate_dummies(stg, pack(stg.initial_marking()));
  ids.emplace(initial, graph.add_state(initial_code));
  graph.set_initial(0);
  queue.push_back(initial);

  while (!queue.empty()) {
    const Marking m = queue.front();
    queue.pop_front();
    const sg::StateId from = ids.at(m);
    const std::uint64_t code = graph.code(from);

    for (TransitionId t = 0; t < stg.num_transitions(); ++t) {
      if (!enabled(stg, m, t)) continue;
      const StgTransition& tr = stg.transition(t);
      if (tr.is_dummy()) continue;  // eliminated by eager saturation below
      const std::uint64_t bit = 1ULL << tr.signal;
      NSHOT_REQUIRE(((code & bit) != 0) != tr.rising,
                    "STG " + stg.name() + " is inconsistent: " + stg.transition_name(t) +
                        " fires when " + stg.signal(tr.signal).name + " is already " +
                        (tr.rising ? "1" : "0"));
      const std::uint64_t next_code = tr.rising ? (code | bit) : (code & ~bit);

      Marking next = saturate_dummies(stg, fire(stg, m, t));
      const auto [it, inserted] = ids.emplace(std::move(next), -1);
      if (inserted) {
        NSHOT_REQUIRE_CODE(ids.size() <= options.max_states, ErrorCode::kResourceExhausted,
                           "STG " + stg.name() + " exceeds the reachability state cap");
        it->second = graph.add_state(next_code);
        queue.push_back(it->first);
      } else {
        NSHOT_REQUIRE(graph.code(it->second) == next_code,
                      "STG " + stg.name() +
                          " is inconsistent: one marking is reached with two different codes");
      }

      const sg::TransitionLabel label{tr.signal, tr.rising};
      const auto existing = graph.successor(from, label);
      if (existing) {
        NSHOT_REQUIRE(*existing == it->second,
                      "STG " + stg.name() + " maps label " + stg.transition_name(t) +
                          " to two successors of one state (not SG-deterministic)");
      } else {
        graph.add_edge(from, label, it->second);
      }
    }
  }
  return graph;
}

}  // namespace nshot::stg::reference
