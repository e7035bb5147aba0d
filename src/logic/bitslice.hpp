// Bit-sliced cube/cover evaluation over packed minterm codes.
//
// A CodeBitPlanes transposes a list of minterm codes into per-variable bit
// planes: bit i of plane v = value of input variable v in code i.  A cube's
// coverage over ALL codes is then evaluated word-parallel — AND together
// plane v (for a positive literal) or ~plane v (for a negative literal)
// over the cube's bound variables — instead of testing the cube against
// one code at a time.  Cost per cube: O(bound_literals x words) word ops
// for any number of codes, versus O(codes) full-cube probes.
//
// Code index order is preserved (bit i <-> codes[i]), so "first violating
// minterm" diagnostics extracted from the lowest set bit match the
// code-at-a-time reference scans exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "logic/cube.hpp"

namespace nshot::logic {

class CodeBitPlanes {
 public:
  CodeBitPlanes(const std::vector<std::uint64_t>& codes, int num_inputs);

  std::size_t num_words() const { return words_; }
  std::uint64_t code(std::size_t i) const { return codes_[i]; }

  /// Word w of the all-codes set (tail bits beyond num_codes are 0).
  std::uint64_t full_word(std::size_t w) const { return full_[w]; }

  /// The num_words() words of variable v's plane (bit i = bit v of codes[i]).
  const std::uint64_t* plane(int v) const {
    return planes_.data() + static_cast<std::size_t>(v) * words_;
  }

  /// Write the coverage set of `cube`'s input part into `out` (num_words()
  /// words): bit i set iff cube covers codes[i].  A cube with an empty
  /// literal (admits neither value) covers nothing.
  void covered_by(const Cube& cube, std::uint64_t* out) const;

 private:
  std::size_t num_codes_ = 0;
  std::size_t words_ = 0;
  int num_inputs_ = 0;
  std::vector<std::uint64_t> codes_;   // original order, for diagnostics
  std::vector<std::uint64_t> planes_;  // num_inputs x words, flattened
  std::vector<std::uint64_t> full_;    // all-codes mask (tail-masked)
};

}  // namespace nshot::logic
