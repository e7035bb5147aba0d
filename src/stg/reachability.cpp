#include "stg/reachability.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <utility>

#include "exec/cancel.hpp"
#include "obs/obs.hpp"
#include "util/error.hpp"

namespace nshot::stg {
namespace {

using Word = std::uint64_t;

std::size_t words_for(int bits) { return (static_cast<std::size_t>(bits) + 63) / 64; }

bool test_bit(const Word* words, int i) {
  return (words[static_cast<std::size_t>(i) / 64] >> (static_cast<std::size_t>(i) % 64)) & 1ULL;
}

void set_bit(Word* words, int i) {
  words[static_cast<std::size_t>(i) / 64] |= 1ULL << (static_cast<std::size_t>(i) % 64);
}

/// Replay firing `t` from `m` place by place, as the original kernel did,
/// to raise its 1-safety diagnostic (the first postset place marked once
/// the preset is cleared).  Masks cannot express a duplicate postset arc.
[[noreturn]] void raise_not_1_safe(const Stg& stg, const Word* m, std::size_t words,
                                   TransitionId t) {
  std::vector<Word> next(m, m + words);
  for (const PlaceId p : stg.preset(t))
    next[static_cast<std::size_t>(p) / 64] &= ~(1ULL << (static_cast<std::size_t>(p) % 64));
  for (const PlaceId p : stg.postset(t)) {
    NSHOT_REQUIRE(!test_bit(next.data(), p), "STG " + stg.name() + " is not 1-safe: firing " +
                                                 stg.transition_name(t) +
                                                 " double-marks place " + stg.place_name(p));
    set_bit(next.data(), p);
  }
  raise_error(__FILE__, __LINE__, ErrorCode::kInternal,
              "internal: no double-marked place when replaying " + stg.transition_name(t));
}

/// The STG compiled to word masks once per traversal.  Per transition: the
/// preset and postset over the marking words.  Per place: the transitions
/// whose FIRST preset place it is, so the candidates of a marking are the
/// OR of its marked places' consumer masks — every enabled transition is
/// among them, and they are visited in ascending id, the order a scan of
/// all transitions would fire them in.
struct CompiledNet {
  explicit CompiledNet(const Stg& net)
      : stg(net),
        words(words_for(net.num_places())),
        twords(words_for(net.num_transitions())),
        has_dummies(net.has_dummies()),
        pre(static_cast<std::size_t>(net.num_transitions()) * words, 0),
        post(pre.size(), 0),
        consumers(static_cast<std::size_t>(net.num_places()) * twords, 0),
        all(twords, 0), labelled(twords, 0), dummies(twords, 0), degenerate(twords, 0),
        initial(words, 0) {
    for (TransitionId t = 0; t < net.num_transitions(); ++t) {
      for (const PlaceId p : net.preset(t)) set_bit(&pre[static_cast<std::size_t>(t) * words], p);
      for (const PlaceId p : net.postset(t)) {
        Word* mask = &post[static_cast<std::size_t>(t) * words];
        if (test_bit(mask, p)) set_bit(degenerate.data(), t);  // duplicate postset arc
        set_bit(mask, p);
      }
      if (net.preset(t).empty()) continue;  // never enabled: in no consumer list
      set_bit(&consumers[static_cast<std::size_t>(net.preset(t).front()) * twords], t);
      set_bit(all.data(), t);
      set_bit(net.transition(t).is_dummy() ? dummies.data() : labelled.data(), t);
    }
    for (PlaceId p = 0; p < net.num_places(); ++p)
      if (net.initial_marking()[static_cast<std::size_t>(p)]) set_bit(initial.data(), p);
  }

  const Stg& stg;
  std::size_t words, twords;
  bool has_dummies;
  std::vector<Word> pre, post;  // per transition, `words` each
  std::vector<Word> consumers;  // per place, `twords` each
  /// Transition filters for the sweeps (`twords` each): every transition,
  /// the labelled ones (state-graph edges), the dummies (saturation).
  std::vector<Word> all, labelled, dummies;
  std::vector<Word> degenerate;  // transitions with a duplicate postset arc
  std::vector<Word> initial;     // the initial marking
};

/// One breadth-first traversal: markings packed `words` to a state in one
/// flat arena indexed by state id, an open-addressing id table
/// (power-of-two capacity, linear probing, load <= 1/2), and the buffers
/// for the state being expanded and the one being fired.  Ids are handed
/// out in discovery order, so the queue is the id range itself:
/// `for (from = 0; from < size(); ++from) expand(from, ...)`.
class Sweep {
 public:
  explicit Sweep(const CompiledNet& net)
      : net_(net), slots_(16, kEmpty), current_(net.words), next_(net.words) {}

  std::uint32_t size() const { return count_; }
  const Word* at(std::uint32_t id) const { return arena_.data() + id * net_.words; }

  void clear() {
    arena_.clear();
    slots_.assign(slots_.size(), kEmpty);
    count_ = 0;
  }

  /// The id of `m` and whether this call added it (as id size() - 1).
  std::pair<std::uint32_t, bool> insert(const Word* m) {
    if (2 * (static_cast<std::size_t>(count_) + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(m) & mask;; i = (i + 1) & mask) {
      const std::uint32_t id = slots_[i];
      if (id == kEmpty) {
        slots_[i] = count_;
        arena_.insert(arena_.end(), m, m + net_.words);
        return {count_++, true};
      }
      if (std::equal(m, m + net_.words, at(id))) return {id, false};
    }
  }

  /// Call `visit(t)` for every transition of `filter` enabled in state
  /// `from`, in ascending t; returns whether there was any.  The marking
  /// is copied out first (insertions may move the arena), and candidate
  /// words live on the stack, so `visit` may insert and fire.
  template <typename Visit>
  bool expand(std::uint32_t from, const Word* filter, Visit&& visit) {
    const std::size_t words = net_.words, twords = net_.twords;
    std::copy_n(at(from), words, current_.data());
    const Word* m = current_.data();
    bool any = false;
    for (std::size_t tw = 0; tw < twords; ++tw) {
      Word candidates = 0;
      for (std::size_t w = 0; w < words; ++w)
        for (Word marked = m[w]; marked != 0; marked &= marked - 1) {
          const std::size_t p = w * 64 + static_cast<std::size_t>(std::countr_zero(marked));
          candidates |= net_.consumers[p * twords + tw];
        }
      for (candidates &= filter[tw]; candidates != 0; candidates &= candidates - 1) {
        const std::size_t t = tw * 64 + static_cast<std::size_t>(std::countr_zero(candidates));
        const Word* pre = &net_.pre[t * words];
        bool enabled = true;
        for (std::size_t w = 0; w < words && enabled; ++w) enabled = (m[w] & pre[w]) == pre[w];
        if (!enabled) continue;
        any = true;
        visit(static_cast<TransitionId>(t));
      }
    }
    return any;
  }

  /// Fire the enabled transition `t` from the state being expanded: clear
  /// preset, check postset overlap (not 1-safe), set postset, per marking
  /// word.  The result is valid until the next call.
  const Word* fire(TransitionId t) {
    const std::size_t words = net_.words;
    const Word* m = current_.data();
    if (test_bit(net_.degenerate.data(), t)) raise_not_1_safe(net_.stg, m, words, t);
    const Word* pre = &net_.pre[static_cast<std::size_t>(t) * words];
    const Word* post = &net_.post[static_cast<std::size_t>(t) * words];
    for (std::size_t w = 0; w < words; ++w) {
      const Word cleared = m[w] & ~pre[w];
      if (cleared & post[w]) raise_not_1_safe(net_.stg, m, words, t);
      next_[w] = cleared | post[w];
    }
    return next_.data();
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  /// Word fold with a MurmurHash3 fmix64 finalizer: linear probing needs
  /// the well-mixed low bits a bare multiply-xor chain does not give.
  std::size_t hash(const Word* m) const {
    Word h = 0;
    for (std::size_t w = 0; w < net_.words; ++w) {
      h ^= m[w];
      h = (h ^ (h >> 33)) * 0xff51afd7ed558ccdULL;
      h = (h ^ (h >> 33)) * 0xc4ceb9fe1a85ec53ULL;
      h ^= h >> 33;
    }
    return static_cast<std::size_t>(h);
  }

  void grow() {
    slots_.assign(2 * slots_.size(), kEmpty);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t id = 0; id < count_; ++id) {
      std::size_t i = hash(at(id)) & mask;
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  const CompiledNet& net_;
  std::vector<Word> arena_;
  std::vector<std::uint32_t> slots_;
  std::uint32_t count_ = 0;
  std::vector<Word> current_, next_;
};

/// Eagerly fire every enabled dummy transition from `m` until quiescence,
/// over `closure`; the result is valid until the next call.  The closure
/// over all firing orders must converge on a single dummy-quiescent
/// marking (confusion-free dummies); anything else is rejected, as is a
/// cycle of dummies.
const Word* saturate_dummies(const CompiledNet& net, Sweep& closure, const Word* m) {
  if (!net.has_dummies) return m;
  closure.clear();
  closure.insert(m);
  std::uint32_t quiescent = 0, first_quiescent = 0;
  for (std::uint32_t id = 0; id < closure.size(); ++id) {
    const bool any = closure.expand(id, net.dummies.data(),
                                    [&](TransitionId t) { closure.insert(closure.fire(t)); });
    if (!any && quiescent++ == 0) first_quiescent = id;
    NSHOT_REQUIRE_CODE(closure.size() < 10000, ErrorCode::kResourceExhausted,
                       "STG " + net.stg.name() + " has a diverging dummy-transition closure");
  }
  NSHOT_REQUIRE(quiescent == 1, "STG " + net.stg.name() +
                                    " has non-confluent (or cyclic) dummy transitions");
  return closure.at(first_quiescent);
}

/// Declared values win; the rest come from a sweep over the unsaturated
/// markings with every transition, stopped once every signal is
/// resolved: the first edge labelled x in discovery order is a first
/// firing of x on some path, so its polarity is x's complement at the
/// start.
std::vector<bool> resolve_initial_values(const CompiledNet& net,
                                         const ReachabilityOptions& options) {
  const Stg& stg = net.stg;
  std::vector<std::optional<bool>> values = stg.declared_initial_values();
  int unresolved = 0;
  for (const auto& v : values)
    if (!v) ++unresolved;

  if (unresolved > 0) {
    Sweep sweep(net);
    sweep.insert(net.initial.data());
    for (std::uint32_t from = 0; from < sweep.size() && unresolved > 0; ++from) {
      exec::checkpoint();
      NSHOT_REQUIRE_CODE(sweep.size() <= options.max_states, ErrorCode::kResourceExhausted,
                         "STG " + stg.name() + " exceeds the reachability state cap");
      sweep.expand(from, net.all.data(), [&](TransitionId t) {
        const StgTransition& tr = stg.transition(t);
        if (!tr.is_dummy()) {
          auto& value = values[static_cast<std::size_t>(tr.signal)];
          if (!value) {
            value = !tr.rising;  // fires +x first => x starts at 0
            --unresolved;
          }
        }
        sweep.insert(sweep.fire(t));
      });
    }
  }

  std::vector<bool> result(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    NSHOT_REQUIRE(values[i].has_value(), "signal " + stg.signal(static_cast<int>(i)).name +
                                             " never fires; declare its initial value with .init");
    result[i] = *values[i];
  }
  return result;
}

}  // namespace

std::vector<bool> infer_initial_values(const Stg& stg, const ReachabilityOptions& options) {
  return resolve_initial_values(CompiledNet(stg), options);
}

sg::StateGraph build_state_graph(const Stg& stg, const ReachabilityOptions& options) {
  const obs::Span reach_span("reachability");
  const CompiledNet net(stg);
  const std::vector<bool> initial_values = resolve_initial_values(net, options);

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

  // The same sweep over dummy-saturated markings with the labelled
  // transitions (saturation leaves no dummy enabled).
  Sweep sweep(net), closure(net);
  sweep.insert(saturate_dummies(net, closure, net.initial.data()));
  graph.set_initial(graph.add_state(initial_code));

  for (std::uint32_t from = 0; from < sweep.size(); ++from) {
    exec::checkpoint();
    const auto source = static_cast<sg::StateId>(from);
    const std::uint64_t code = graph.code(source);
    sweep.expand(from, net.labelled.data(), [&](TransitionId t) {
      const StgTransition& tr = stg.transition(t);
      const std::uint64_t bit = 1ULL << tr.signal;
      NSHOT_REQUIRE(((code & bit) != 0) != tr.rising,
                    "STG " + stg.name() + " is inconsistent: " + stg.transition_name(t) +
                        " fires when " + stg.signal(tr.signal).name + " is already " +
                        (tr.rising ? "1" : "0"));
      const std::uint64_t next_code = tr.rising ? (code | bit) : (code & ~bit);

      const auto [id, inserted] = sweep.insert(saturate_dummies(net, closure, sweep.fire(t)));
      const auto to = static_cast<sg::StateId>(id);
      if (inserted) {
        NSHOT_REQUIRE_CODE(sweep.size() <= options.max_states, ErrorCode::kResourceExhausted,
                           "STG " + stg.name() + " exceeds the reachability state cap");
        graph.add_state(next_code);
      } else {
        NSHOT_REQUIRE(graph.code(to) == next_code,
                      "STG " + stg.name() +
                          " is inconsistent: one marking is reached with two different codes");
      }

      const sg::TransitionLabel label{tr.signal, tr.rising};
      const auto existing = graph.successor(source, label);
      if (existing) {
        NSHOT_REQUIRE(*existing == to,
                      "STG " + stg.name() + " maps label " + stg.transition_name(t) +
                          " to two successors of one state (not SG-deterministic)");
      } else {
        graph.add_edge(source, label, to);
      }
    });
  }
  obs::count(obs::Counter::kStatesVisited, graph.num_states());
  return graph;
}

}  // namespace nshot::stg
