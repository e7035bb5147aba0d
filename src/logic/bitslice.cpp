#include "logic/bitslice.hpp"

#include <algorithm>
#include <bit>

namespace nshot::logic {

CodeBitPlanes::CodeBitPlanes(const std::vector<std::uint64_t>& codes, int num_inputs)
    : num_codes_(codes.size()),
      words_((codes.size() + 63) / 64),
      num_inputs_(num_inputs),
      codes_(codes),
      planes_(static_cast<std::size_t>(num_inputs) * words_, 0),
      full_(words_, 0) {
  for (std::size_t i = 0; i < num_codes_; ++i) {
    const std::uint64_t bit = 1ULL << (i & 63);
    const std::size_t word = i >> 6;
    full_[word] |= bit;
    std::uint64_t code = codes_[i];
    while (code) {
      const int v = std::countr_zero(code);
      code &= code - 1;
      if (v < num_inputs_) planes_[static_cast<std::size_t>(v) * words_ + word] |= bit;
    }
  }
}

void CodeBitPlanes::covered_by(const Cube& cube, std::uint64_t* out) const {
  std::copy(full_.begin(), full_.end(), out);
  const std::uint64_t lo = cube.lo();
  const std::uint64_t hi = cube.hi();
  std::uint64_t bound = Cube::input_mask(num_inputs_) & ~(lo & hi);
  while (bound) {
    const int v = std::countr_zero(bound);
    bound &= bound - 1;
    const bool admits0 = (lo >> v) & 1ULL;
    const bool admits1 = (hi >> v) & 1ULL;
    if (!admits0 && !admits1) {  // empty literal: the cube covers nothing
      std::fill(out, out + words_, 0);
      return;
    }
    const std::uint64_t* bits = plane(v);
    if (admits1)
      for (std::size_t w = 0; w < words_; ++w) out[w] &= bits[w];
    else
      for (std::size_t w = 0; w < words_; ++w) out[w] &= ~bits[w];
  }
}

}  // namespace nshot::logic
