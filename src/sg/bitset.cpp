#include "sg/bitset.hpp"

#include <algorithm>

#include "exec/thread_pool.hpp"

namespace nshot::sg {
namespace {

/// Dispatch `body(state_begin, state_end)` over 64-aligned state ranges.
/// Each range only writes plane words [state_begin/64, state_end/64), so
/// ranges are write-disjoint and the planes come out byte-identical at any
/// worker count.  jobs <= 1 (or a graph below the admission threshold)
/// degrades to one serial call over the full range.
void for_state_word_ranges(int num_states, int jobs,
                           const std::function<void(StateId, StateId)>& body) {
  const int words = (num_states + 63) / 64;
  if (jobs <= 1 || words <= 1) {
    body(0, num_states);
    return;
  }
  exec::parallel_for_chunks(
      words, /*grain=*/0,
      [&](int wbegin, int wend) {
        body(static_cast<StateId>(wbegin) * 64,
             std::min(static_cast<StateId>(wend) * 64, num_states));
      },
      jobs);
}

}  // namespace

void StateSet::clear() { std::fill(words_.begin(), words_.end(), 0); }

StateSet& StateSet::operator&=(const StateSet& other) {
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
  return *this;
}

StateSet& StateSet::operator|=(const StateSet& other) {
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  return *this;
}

StateSet& StateSet::subtract(const StateSet& other) {
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= ~other.words_[w];
  return *this;
}

void StateSet::complement() {
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] = ~words_[w];
  const std::size_t tail = universe_ & 63;
  if (!words_.empty() && tail != 0) words_.back() &= (1ULL << tail) - 1ULL;
}

std::size_t StateSet::count() const {
  std::size_t total = 0;
  for (const std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

bool StateSet::empty() const {
  for (const std::uint64_t w : words_)
    if (w) return false;
  return true;
}

std::vector<StateId> StateSet::to_vector() const {
  std::vector<StateId> members;
  members.reserve(count());
  for_each([&members](StateId s) { members.push_back(s); });
  return members;
}

StateSet value_set(const StateGraph& sg, SignalId x, int jobs) {
  StateSet plane(static_cast<std::size_t>(sg.num_states()));
  for_state_word_ranges(sg.num_states(), jobs, [&](StateId begin, StateId end) {
    for (StateId s = begin; s < end; ++s)
      if (sg.value(s, x)) plane.insert(s);
  });
  return plane;
}

StateSet excited_set(const StateGraph& sg, SignalId x, int jobs) {
  StateSet plane(static_cast<std::size_t>(sg.num_states()));
  for_state_word_ranges(sg.num_states(), jobs, [&](StateId begin, StateId end) {
    for (StateId s = begin; s < end; ++s)
      for (const Edge& e : sg.out_edges(s))
        if (e.label.signal == x) {
          plane.insert(s);
          break;
        }
  });
  return plane;
}

std::vector<StateSet> all_value_sets(const StateGraph& sg, int jobs) {
  std::vector<StateSet> planes(static_cast<std::size_t>(sg.num_signals()),
                               StateSet(static_cast<std::size_t>(sg.num_states())));
  for_state_word_ranges(sg.num_states(), jobs, [&](StateId begin, StateId end) {
    for (StateId s = begin; s < end; ++s) {
      std::uint64_t code = sg.code(s);
      while (code) {
        const int x = std::countr_zero(code);
        code &= code - 1;
        if (x < sg.num_signals()) planes[static_cast<std::size_t>(x)].insert(s);
      }
    }
  });
  return planes;
}

std::vector<StateSet> all_excited_sets(const StateGraph& sg, int jobs) {
  std::vector<StateSet> planes(static_cast<std::size_t>(sg.num_signals()),
                               StateSet(static_cast<std::size_t>(sg.num_states())));
  for_state_word_ranges(sg.num_states(), jobs, [&](StateId begin, StateId end) {
    for (StateId s = begin; s < end; ++s)
      for (const Edge& e : sg.out_edges(s))
        planes[static_cast<std::size_t>(e.label.signal)].insert(s);
  });
  return planes;
}

}  // namespace nshot::sg
