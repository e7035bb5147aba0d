#include "stg/reachability.hpp"

#include <deque>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "exec/cancel.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace nshot::stg {
namespace {

using Marking = std::vector<std::uint64_t>;  // bit-packed place marking

/// FNV/splitmix-style mix over the packed marking words.
struct MarkingHash {
  std::size_t operator()(const Marking& m) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint64_t word : m) {
      h = (h ^ word) * 0x100000001b3ULL;
      h ^= h >> 29;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Ordered reference map and hashed hot-path map over markings.  Every
/// traversal below is queue-driven (maps are only consulted for
/// membership and id lookup), so the two instantiations are
/// output-identical; `ReachabilityOptions::reference_maps` picks one.
template <typename Value>
using OrderedMarkingMap = std::map<Marking, Value>;
template <typename Value>
using HashedMarkingMap = std::unordered_map<Marking, Value, MarkingHash>;

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

bool transition_enabled(const Stg& stg, const Marking& m, TransitionId t) {
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

/// Unambiguous name for the place-loop firing, callable from the policy
/// classes' own `fire` members without self-lookup.
inline Marking fire_via_loop(const Stg& stg, const Marking& m, TransitionId t) {
  return fire(stg, m, t);
}

/// Place-at-a-time firing — the original implementation, kept as the
/// reference kernel (ReachabilityOptions::reference_maps).
struct LoopFiring {
  explicit LoopFiring(const Stg&) {}
  bool enabled(const Stg& stg, const Marking& m, TransitionId t) const {
    return transition_enabled(stg, m, t);
  }
  Marking fire(const Stg& stg, const Marking& m, TransitionId t) const {
    return fire_via_loop(stg, m, t);
  }
};

/// Mask-compiled firing: per transition, the preset and postset packed as
/// word masks over the marking words, compiled once per traversal.
/// Enabledness is `(m & preset) == preset`; firing is clear-preset /
/// check-postset-overlap / set-postset, one word op per marking word.  On a
/// 1-safety violation (postset overlap after clearing the preset) the
/// kernel re-fires through the place loop so the diagnostic names the same
/// transition and place as the reference.
class MaskFiring {
 public:
  explicit MaskFiring(const Stg& stg) {
    const std::size_t words = (static_cast<std::size_t>(stg.num_places()) + 63) / 64;
    const std::size_t nt = static_cast<std::size_t>(stg.num_transitions());
    preset_.assign(nt, Marking(words, 0));
    postset_.assign(nt, Marking(words, 0));
    has_preset_.assign(nt, false);
    degenerate_.assign(nt, false);
    for (TransitionId t = 0; t < stg.num_transitions(); ++t) {
      const std::size_t ti = static_cast<std::size_t>(t);
      for (const PlaceId p : stg.preset(t)) set_token(preset_[ti], p, true);
      for (const PlaceId p : stg.postset(t)) {
        // A duplicate postset arc double-marks its place on every firing;
        // masks cannot express the duplicate, so route such transitions
        // through the place loop for the identical diagnostic.
        if (has_token(postset_[ti], p)) degenerate_[ti] = true;
        set_token(postset_[ti], p, true);
      }
      has_preset_[ti] = !stg.preset(t).empty();
    }
  }

  bool enabled(const Stg&, const Marking& m, TransitionId t) const {
    const std::size_t ti = static_cast<std::size_t>(t);
    if (!has_preset_[ti]) return false;
    const Marking& pre = preset_[ti];
    for (std::size_t w = 0; w < pre.size(); ++w)
      if ((m[w] & pre[w]) != pre[w]) return false;
    return true;
  }

  Marking fire(const Stg& stg, const Marking& m, TransitionId t) const {
    const std::size_t ti = static_cast<std::size_t>(t);
    if (degenerate_[ti]) return fire_via_loop(stg, m, t);
    const Marking& pre = preset_[ti];
    const Marking& post = postset_[ti];
    Marking next = m;
    for (std::size_t w = 0; w < next.size(); ++w) {
      next[w] &= ~pre[w];
      if (next[w] & post[w]) return fire_via_loop(stg, m, t);  // 1-safety diagnostic
      next[w] |= post[w];
    }
    return next;
  }

 private:
  std::vector<Marking> preset_, postset_;
  std::vector<bool> has_preset_, degenerate_;
};

/// Eagerly fire every enabled dummy transition until quiescence.  The
/// closure over all firing orders must converge on a single
/// dummy-quiescent marking (confusion-free dummies); anything else is
/// rejected, as is a cycle of dummies.
template <template <typename> class MapT, typename Firing>
Marking saturate_dummies(const Stg& stg, const Firing& firing, Marking m) {
  if (!stg.has_dummies()) return m;
  MapT<bool> seen;
  std::deque<Marking> queue;
  std::vector<Marking> quiescent;
  seen.emplace(m, true);
  queue.push_back(std::move(m));
  while (!queue.empty()) {
    const Marking current = queue.front();
    queue.pop_front();
    bool any = false;
    for (TransitionId t = 0; t < stg.num_transitions(); ++t) {
      if (!stg.transition(t).is_dummy() || !firing.enabled(stg, current, t)) continue;
      any = true;
      Marking next = firing.fire(stg, current, t);
      if (seen.emplace(next, true).second) queue.push_back(std::move(next));
    }
    if (!any) quiescent.push_back(current);
    NSHOT_REQUIRE_CODE(seen.size() < 10000, ErrorCode::kResourceExhausted,
                       "STG " + stg.name() + " has a diverging dummy-transition closure");
  }
  NSHOT_REQUIRE(quiescent.size() == 1,
                "STG " + stg.name() + " has non-confluent (or cyclic) dummy transitions");
  return quiescent.front();
}

template <template <typename> class MapT, typename Firing>
std::vector<bool> infer_initial_values_impl(const Stg& stg, const ReachabilityOptions& options) {
  const Firing firing(stg);
  const int n = stg.num_signals();
  std::vector<std::optional<bool>> values = stg.declared_initial_values();
  int unresolved = 0;
  for (const auto& v : values)
    if (!v) ++unresolved;

  if (unresolved > 0) {
    // BFS over markings; the first edge labelled with signal x (popping
    // markings in BFS order) is a first firing of x on some path, so its
    // polarity determines the initial value.
    MapT<bool> seen;
    std::deque<Marking> queue;
    const Marking initial = pack(stg.initial_marking());
    seen.emplace(initial, true);
    queue.push_back(initial);
    while (!queue.empty() && unresolved > 0) {
      exec::checkpoint();
      NSHOT_REQUIRE_CODE(seen.size() <= options.max_states, ErrorCode::kResourceExhausted,
                         "STG " + stg.name() + " exceeds the reachability state cap");
      const Marking m = queue.front();
      queue.pop_front();
      for (TransitionId t = 0; t < stg.num_transitions(); ++t) {
        if (!firing.enabled(stg, m, t)) continue;
        const StgTransition& tr = stg.transition(t);
        if (!tr.is_dummy()) {
          auto& value = values[static_cast<std::size_t>(tr.signal)];
          if (!value) {
            value = !tr.rising;  // fires +x first => x starts at 0
            --unresolved;
          }
        }
        Marking next = firing.fire(stg, m, t);
        const auto [it, inserted] = seen.emplace(std::move(next), true);
        if (inserted) queue.push_back(it->first);
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

template <template <typename> class MapT, typename Firing>
std::vector<TransitionId> dead_transitions_impl(const Stg& stg,
                                                const ReachabilityOptions& options) {
  const Firing firing(stg);
  std::vector<bool> fired(static_cast<std::size_t>(stg.num_transitions()), false);
  MapT<bool> seen;
  std::deque<Marking> queue;
  const Marking initial = pack(stg.initial_marking());
  seen.emplace(initial, true);
  queue.push_back(initial);
  while (!queue.empty()) {
    exec::checkpoint();
    NSHOT_REQUIRE_CODE(seen.size() <= options.max_states, ErrorCode::kResourceExhausted,
                       "STG " + stg.name() + " exceeds the reachability state cap");
    const Marking m = queue.front();
    queue.pop_front();
    for (TransitionId t = 0; t < stg.num_transitions(); ++t) {
      if (!firing.enabled(stg, m, t)) continue;
      fired[static_cast<std::size_t>(t)] = true;
      Marking next = firing.fire(stg, m, t);
      const auto [it, inserted] = seen.emplace(std::move(next), true);
      if (inserted) queue.push_back(it->first);
    }
  }
  std::vector<TransitionId> dead;
  for (TransitionId t = 0; t < stg.num_transitions(); ++t)
    if (!fired[static_cast<std::size_t>(t)]) dead.push_back(t);
  return dead;
}

template <template <typename> class MapT, typename Firing>
sg::StateGraph build_state_graph_impl(const Stg& stg, const ReachabilityOptions& options) {
  const obs::Span reach_span("reachability");
  const Firing firing(stg);
  const std::vector<bool> initial_values = infer_initial_values_impl<MapT, Firing>(stg, options);

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

  MapT<sg::StateId> ids;
  std::deque<Marking> queue;
  const Marking initial = saturate_dummies<MapT>(stg, firing, pack(stg.initial_marking()));
  ids.emplace(initial, graph.add_state(initial_code));
  graph.set_initial(0);
  queue.push_back(initial);

  while (!queue.empty()) {
    exec::checkpoint();
    const Marking m = queue.front();
    queue.pop_front();
    const sg::StateId from = ids.at(m);
    const std::uint64_t code = graph.code(from);

    for (TransitionId t = 0; t < stg.num_transitions(); ++t) {
      if (!firing.enabled(stg, m, t)) continue;
      const StgTransition& tr = stg.transition(t);
      if (tr.is_dummy()) continue;  // eliminated by eager saturation below
      const std::uint64_t bit = 1ULL << tr.signal;
      NSHOT_REQUIRE(((code & bit) != 0) != tr.rising,
                    "STG " + stg.name() + " is inconsistent: " + stg.transition_name(t) +
                        " fires when " + stg.signal(tr.signal).name + " is already " +
                        (tr.rising ? "1" : "0"));
      const std::uint64_t next_code = tr.rising ? (code | bit) : (code & ~bit);

      Marking next = saturate_dummies<MapT>(stg, firing, firing.fire(stg, m, t));
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
  obs::count(obs::Counter::kStatesVisited, graph.num_states());
  return graph;
}

}  // namespace

std::vector<bool> infer_initial_values(const Stg& stg, const ReachabilityOptions& options) {
  return options.reference_maps
             ? infer_initial_values_impl<OrderedMarkingMap, LoopFiring>(stg, options)
             : infer_initial_values_impl<HashedMarkingMap, MaskFiring>(stg, options);
}

std::vector<TransitionId> dead_transitions(const Stg& stg, const ReachabilityOptions& options) {
  return options.reference_maps
             ? dead_transitions_impl<OrderedMarkingMap, LoopFiring>(stg, options)
             : dead_transitions_impl<HashedMarkingMap, MaskFiring>(stg, options);
}

sg::StateGraph build_state_graph(const Stg& stg, const ReachabilityOptions& options) {
  return options.reference_maps
             ? build_state_graph_impl<OrderedMarkingMap, LoopFiring>(stg, options)
             : build_state_graph_impl<HashedMarkingMap, MaskFiring>(stg, options);
}

}  // namespace nshot::stg
