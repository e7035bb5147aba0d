// Randomized equivalence fuzzing for the heuristic minimizer.
//
// The EXPAND/IRREDUNDANT/REDUCE loop has no correctness oracle of its own
// beyond the handful of fixed functions in espresso_test.cpp.  Here random
// (F, D, R) specifications drive three checks per draw:
//   1. cover validity — verify_cover (and its test-only oracle
//      reference::verify_cover) accept the heuristic cover: F is covered,
//      R is untouched;
//   2. functional equivalence against the exact minimizer — both covers
//      evaluate identically on every minterm of the input space for every
//      output (they may differ inside D, but espresso's and exact's covers
//      must both contain F and avoid R, and this check pins exactly that
//      down point by point);
//   3. irredundancy — no cube of the final cover can be dropped.
#include <gtest/gtest.h>

#include <vector>

#include "logic/cover.hpp"
#include "logic/espresso.hpp"
#include "logic/exact.hpp"
#include "logic/spec.hpp"
#include "logic/verify.hpp"
#include "oracles/espresso_reference.hpp"
#include "util/rng.hpp"

namespace nshot::logic {
namespace {

struct Drawn {
  TwoLevelSpec spec;
  std::vector<std::vector<int>> kind;  // [output][minterm]: 1 = on, 0 = off, -1 = dc
};

Drawn random_spec(Rng& rng) {
  const int num_inputs = 3 + static_cast<int>(rng.next_below(5));   // 3..7
  const int num_outputs = 1 + static_cast<int>(rng.next_below(3));  // 1..3
  const double p_on = rng.next_double(0.1, 0.5);
  const double p_off = rng.next_double(0.1, 1.0 - p_on);
  Drawn drawn{TwoLevelSpec(num_inputs, num_outputs), {}};
  const std::uint64_t space = 1ULL << num_inputs;
  for (int o = 0; o < num_outputs; ++o) {
    std::vector<int> kind(static_cast<std::size_t>(space), -1);
    for (std::uint64_t m = 0; m < space; ++m) {
      const double roll = rng.next_double(0.0, 1.0);
      if (roll < p_on) {
        drawn.spec.add_on(o, m);
        kind[static_cast<std::size_t>(m)] = 1;
      } else if (roll < p_on + p_off) {
        drawn.spec.add_off(o, m);
        kind[static_cast<std::size_t>(m)] = 0;
      }
    }
    drawn.kind.push_back(std::move(kind));
  }
  drawn.spec.normalize();
  return drawn;
}

class EspressoFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(EspressoFuzzTest, HeuristicCoverIsValidAndMatchesExactOnCarePoints) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x2545F4914F6CDD1DULL + 1);
  const Drawn drawn = random_spec(rng);
  const TwoLevelSpec& spec = drawn.spec;

  const Cover heuristic = espresso(spec);
  const Cover exact = exact_minimize(spec);

  // 1. Cover validity, through both the bit-sliced verifier and its
  //    minterm-at-a-time oracle (doubles as a bitslice fuzz case).
  for (const Cover* cover : {&heuristic, &exact}) {
    const VerifyResult fast = verify_cover(spec, *cover);
    const VerifyResult reference = reference::verify_cover(spec, *cover);
    EXPECT_TRUE(fast.ok) << fast.message;
    EXPECT_EQ(reference.ok, fast.ok);
    EXPECT_EQ(reference.message, fast.message);
  }

  // 2. Functional equivalence on every care point of the input space (on
  //    and off minterms; don't-cares may legitimately differ).
  const std::uint64_t space = 1ULL << spec.num_inputs();
  for (int o = 0; o < spec.num_outputs(); ++o) {
    for (std::uint64_t m = 0; m < space; ++m) {
      const int kind = drawn.kind[static_cast<std::size_t>(o)][static_cast<std::size_t>(m)];
      if (kind < 0) continue;
      const bool expected = kind == 1;
      EXPECT_EQ(expected, heuristic.covers(m, o))
          << "heuristic output " << o << " minterm " << m;
      EXPECT_EQ(expected, exact.covers(m, o)) << "exact output " << o << " minterm " << m;
    }
  }

  // 3. The heuristic cover is irredundant, and per output it never beats
  //    the exact single-output minimum.  (Total cube counts are NOT
  //    comparable: espresso shares products across outputs, exact_minimize
  //    solves each output separately.)
  EXPECT_TRUE(verify_irredundant(spec, heuristic).ok);
  for (int o = 0; o < spec.num_outputs(); ++o) {
    const auto exact_output = exact_minimize_output(spec, o);
    if (exact_output) {
      EXPECT_LE(exact_output->size(),
                static_cast<std::size_t>(heuristic.cube_count_for_output(o)))
          << "output " << o;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EspressoFuzzTest, ::testing::Range(1, 33));

}  // namespace
}  // namespace nshot::logic
