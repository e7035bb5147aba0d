// Word-parallel state-set engine.
//
// Region, coding and trigger analyses are predicates over sets of SG
// states.  A StateSet packs 64 states per machine word so that set
// algebra (intersection, union, difference, complement), cardinality and
// membership run as tight word loops instead of node-at-a-time container
// operations; iteration always visits members in ascending StateId order,
// which is exactly the order the original ordered-container (std::set /
// std::map) implementations produced — so analyses rewritten on top of
// StateSet stay byte-identical to their ordered-container oracles
// (tests/oracles/sg_reference.hpp).
//
// The free functions at the bottom build the bit planes the analyses
// start from: per-signal value planes (bit s of plane x = value of signal
// x in state s) and per-signal excitation planes (bit s set iff some
// transition of x is enabled in s).  Building a plane is one pass over
// the graph; afterwards every value / excitation test in a flood or scan
// is a single bit probe instead of an out-edge scan.
//
// The builders are serial, one ascending state sweep per call: threads
// did not pay below ~524k states (DESIGN.md §12).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "sg/state_graph.hpp"

namespace nshot::sg {

class StateSet {
 public:
  StateSet() = default;
  explicit StateSet(std::size_t universe)
      : universe_(universe), words_((universe + 63) / 64, 0) {}

  std::size_t universe() const { return universe_; }
  std::size_t num_words() const { return words_.size(); }

  void insert(StateId s) { words_[word_index(s)] |= bit(s); }
  void erase(StateId s) { words_[word_index(s)] &= ~bit(s); }
  bool contains(StateId s) const { return (words_[word_index(s)] >> (s & 63)) & 1ULL; }

  /// Insert; true if the state was not yet a member (std::set::insert).
  bool insert_new(StateId s) {
    const std::uint64_t b = bit(s);
    std::uint64_t& w = words_[word_index(s)];
    if (w & b) return false;
    w |= b;
    return true;
  }

  void clear();

  StateSet& operator&=(const StateSet& other);
  StateSet& operator|=(const StateSet& other);
  /// this \ other (word-parallel and-not).
  StateSet& subtract(const StateSet& other);
  /// Complement within the universe (the tail beyond `universe` stays 0).
  void complement();

  std::size_t count() const;
  bool empty() const;

  friend bool operator==(const StateSet& a, const StateSet& b) {
    return a.universe_ == b.universe_ && a.words_ == b.words_;
  }

  /// Visit members in ascending StateId order.
  template <typename Visitor>
  void for_each(Visitor&& visit) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits) {
        visit(static_cast<StateId>(w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
        bits &= bits - 1;
      }
    }
  }

  /// Members in ascending order — the iteration order of the std::set the
  /// reference implementations use.
  std::vector<StateId> to_vector() const;

 private:
  static std::size_t word_index(StateId s) { return static_cast<std::size_t>(s) >> 6; }
  static std::uint64_t bit(StateId s) { return 1ULL << (s & 63); }

  std::size_t universe_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Bit plane of signal x's value: state s is a member iff bit x of s's
/// code is 1.
StateSet value_set(const StateGraph& sg, SignalId x);

/// Bit plane of signal x's excitation: state s is a member iff some
/// transition of x is enabled in s.
StateSet excited_set(const StateGraph& sg, SignalId x);

/// Value planes of every signal in a single state sweep (plane x ==
/// value_set(sg, x)).
std::vector<StateSet> all_value_sets(const StateGraph& sg);

/// Excitation planes of every signal in a single edge sweep.
std::vector<StateSet> all_excited_sets(const StateGraph& sg);

}  // namespace nshot::sg
