#include "logic/verify.hpp"

#include <algorithm>
#include <bit>
#include <vector>

#include "logic/bitslice.hpp"

namespace nshot::logic {
namespace {

// Bit-sliced check of one output: transpose its on/off minterm lists into
// code planes once, then every cube is one word-parallel literal AND
// instead of a per-minterm probe.  The first violating minterm is the
// lowest set bit of the violation set, which is the first minterm in list
// order — the same one the code-at-a-time oracle
// (logic::reference::verify_cover) reports.
VerifyResult verify_output(const TwoLevelSpec& spec, const Cover& cover, int o) {
  const CodeBitPlanes on(spec.on(o), spec.num_inputs());
  const CodeBitPlanes off(spec.off(o), spec.num_inputs());
  std::vector<std::uint64_t> on_covered(on.num_words(), 0);
  std::vector<std::uint64_t> off_covered(off.num_words(), 0);
  std::vector<std::uint64_t> scratch(std::max(on.num_words(), off.num_words()));
  for (const Cube& cube : cover) {
    if (!cube.has_output(o)) continue;
    on.covered_by(cube, scratch.data());
    for (std::size_t w = 0; w < on.num_words(); ++w) on_covered[w] |= scratch[w];
    off.covered_by(cube, scratch.data());
    for (std::size_t w = 0; w < off.num_words(); ++w) off_covered[w] |= scratch[w];
  }
  for (std::size_t w = 0; w < on.num_words(); ++w) {
    const std::uint64_t missing = on.full_word(w) & ~on_covered[w];
    if (missing) {
      const std::size_t i = w * 64 + static_cast<std::size_t>(std::countr_zero(missing));
      return {false, "on-minterm " + std::to_string(on.code(i)) + " of output " +
                         std::to_string(o) + " is not covered"};
    }
  }
  for (std::size_t w = 0; w < off.num_words(); ++w) {
    if (off_covered[w]) {
      const std::size_t i = w * 64 + static_cast<std::size_t>(std::countr_zero(off_covered[w]));
      return {false, "off-minterm " + std::to_string(off.code(i)) + " of output " +
                         std::to_string(o) + " is covered"};
    }
  }
  return {};
}

}  // namespace

VerifyResult verify_cover(const TwoLevelSpec& spec, const Cover& cover) {
  for (int o = 0; o < spec.num_outputs(); ++o) {
    VerifyResult result = verify_output(spec, cover, o);
    if (!result.ok) return result;
  }
  return {};
}

VerifyResult verify_irredundant(const TwoLevelSpec& spec, const Cover& cover) {
  for (std::size_t i = 0; i < cover.size(); ++i) {
    bool needed = false;
    for (int o = 0; o < spec.num_outputs() && !needed; ++o) {
      if (!cover[i].has_output(o)) continue;
      for (const std::uint64_t code : spec.on(o)) {
        if (!cover[i].covers_minterm(code)) continue;
        bool elsewhere = false;
        for (std::size_t j = 0; j < cover.size() && !elsewhere; ++j)
          elsewhere = j != i && cover[j].has_output(o) && cover[j].covers_minterm(code);
        if (!elsewhere) {
          needed = true;
          break;
        }
      }
    }
    if (!needed)
      return {false, "cube " + std::to_string(i) + " (" + cover[i].to_string() + ") is redundant"};
  }
  return {};
}

}  // namespace nshot::logic
