#include "sg/bitset.hpp"

#include <algorithm>

namespace nshot::sg {

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

StateSet value_set(const StateGraph& sg, SignalId x) {
  StateSet plane(static_cast<std::size_t>(sg.num_states()));
  for (StateId s = 0; s < sg.num_states(); ++s)
    if (sg.value(s, x)) plane.insert(s);
  return plane;
}

StateSet excited_set(const StateGraph& sg, SignalId x) {
  StateSet plane(static_cast<std::size_t>(sg.num_states()));
  for (StateId s = 0; s < sg.num_states(); ++s)
    for (const Edge& e : sg.out_edges(s))
      if (e.label.signal == x) {
        plane.insert(s);
        break;
      }
  return plane;
}

std::vector<StateSet> all_value_sets(const StateGraph& sg) {
  std::vector<StateSet> planes(static_cast<std::size_t>(sg.num_signals()),
                               StateSet(static_cast<std::size_t>(sg.num_states())));
  for (StateId s = 0; s < sg.num_states(); ++s) {
    std::uint64_t code = sg.code(s);
    while (code) {
      const int x = std::countr_zero(code);
      code &= code - 1;
      if (x < sg.num_signals()) planes[static_cast<std::size_t>(x)].insert(s);
    }
  }
  return planes;
}

std::vector<StateSet> all_excited_sets(const StateGraph& sg) {
  std::vector<StateSet> planes(static_cast<std::size_t>(sg.num_signals()),
                               StateSet(static_cast<std::size_t>(sg.num_states())));
  for (StateId s = 0; s < sg.num_states(); ++s)
    for (const Edge& e : sg.out_edges(s))
      planes[static_cast<std::size_t>(e.label.signal)].insert(s);
  return planes;
}

}  // namespace nshot::sg
