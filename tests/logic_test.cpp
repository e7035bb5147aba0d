// Unit and property tests for the two-level logic substrate: cubes,
// covers, the heuristic ESPRESSO loop, the exact minimizer, PLA I/O and
// the verification oracle.
#include <gtest/gtest.h>

#include "logic/cover.hpp"
#include "logic/cube.hpp"
#include "logic/espresso.hpp"
#include "logic/exact.hpp"
#include "logic/pla.hpp"
#include "logic/spec.hpp"
#include "logic/verify.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nshot::logic {
namespace {

// ---------------------------------------------------------------- cubes --

TEST(CubeTest, MintermCoversExactlyItself) {
  const Cube cube = Cube::minterm(0b101, 3);
  for (std::uint64_t m = 0; m < 8; ++m) EXPECT_EQ(cube.covers_minterm(m), m == 0b101);
  EXPECT_EQ(cube.literal_count(), 3);
  EXPECT_EQ(cube.minterm_count(), 1u);
}

TEST(CubeTest, FullCubeCoversEverything) {
  const Cube cube = Cube::full(4);
  for (std::uint64_t m = 0; m < 16; ++m) EXPECT_TRUE(cube.covers_minterm(m));
  EXPECT_EQ(cube.literal_count(), 0);
  EXPECT_EQ(cube.minterm_count(), 16u);
}

TEST(CubeTest, RaiseVarWidensCoverage) {
  Cube cube = Cube::minterm(0b00, 2);
  cube.raise_var(1);
  EXPECT_TRUE(cube.covers_minterm(0b00));
  EXPECT_TRUE(cube.covers_minterm(0b10));
  EXPECT_FALSE(cube.covers_minterm(0b01));
  EXPECT_EQ(cube.literal_count(), 1);
}

TEST(CubeTest, RestrictVarNarrows) {
  Cube cube = Cube::full(3);
  cube.restrict_var(0, true);
  EXPECT_TRUE(cube.covers_minterm(0b001));
  EXPECT_FALSE(cube.covers_minterm(0b000));
}

TEST(CubeTest, ContainmentAndSupercube) {
  const Cube small = Cube::minterm(0b11, 2, 0b1);
  Cube big = Cube::minterm(0b11, 2, 0b1);
  big.raise_var(0);
  EXPECT_TRUE(big.contains(small));
  EXPECT_FALSE(small.contains(big));
  const Cube sup = small.supercube(Cube::minterm(0b00, 2, 0b10));
  EXPECT_TRUE(sup.covers_minterm(0b00));
  EXPECT_TRUE(sup.covers_minterm(0b11));
  EXPECT_EQ(sup.outputs(), 0b11u);
}

TEST(CubeTest, OutputContainmentMatters) {
  const Cube narrow = Cube::minterm(0b1, 1, 0b01);
  const Cube wide_outputs = Cube::minterm(0b1, 1, 0b11);
  EXPECT_TRUE(wide_outputs.contains(narrow));
  EXPECT_FALSE(narrow.contains(wide_outputs));
}

TEST(CubeTest, IntersectionEmptyWhenLiteralsConflict) {
  Cube a = Cube::full(2);
  a.restrict_var(0, true);
  Cube b = Cube::full(2);
  b.restrict_var(0, false);
  EXPECT_FALSE(a.input_intersects(b));
  EXPECT_FALSE(a.input_intersection(b).has_value());
  b.raise_var(0);
  EXPECT_TRUE(a.input_intersects(b));
}

TEST(CubeTest, RejectsTooManyVariables) {
  EXPECT_THROW(Cube::full(65), Error);
  EXPECT_THROW(Cube::minterm(0b100, 2), Error);  // code beyond inputs
}

// --------------------------------------------------------------- covers --

TEST(CoverTest, CoversAndCoveringCubes) {
  Cover cover(2, 1);
  cover.add(Cube::minterm(0b00, 2, 1));
  cover.add(Cube::minterm(0b11, 2, 1));
  EXPECT_TRUE(cover.covers(0b00, 0));
  EXPECT_FALSE(cover.covers(0b01, 0));
  EXPECT_EQ(cover.covering_cubes(0b11, 0).size(), 1u);
  EXPECT_EQ(cover.literal_count(), 4);
}

TEST(CoverTest, RemoveContainedDropsSubsumedCubes) {
  Cover cover(2, 1);
  Cube big = Cube::minterm(0b00, 2, 1);
  big.raise_var(0);
  cover.add(Cube::minterm(0b00, 2, 1));
  cover.add(big);
  cover.add(big);  // duplicate
  cover.remove_contained();
  EXPECT_EQ(cover.size(), 1u);
  EXPECT_TRUE(cover.covers(0b00, 0));
  EXPECT_TRUE(cover.covers(0b01, 0));
}

// ----------------------------------------------------------------- spec --

TEST(SpecTest, ValidateRejectsOnOffOverlap) {
  TwoLevelSpec spec(2, 1);
  spec.add_on(0, 0b01);
  spec.add_off(0, 0b01);
  EXPECT_THROW(spec.normalize(), Error);
}

// ------------------------------------------------------------- espresso --

TEST(EspressoTest, MinimizesXorWithoutDontCares) {
  TwoLevelSpec spec(2, 1);
  spec.add_on(0, 0b01);
  spec.add_on(0, 0b10);
  spec.add_off(0, 0b00);
  spec.add_off(0, 0b11);
  const Cover cover = espresso(spec);
  EXPECT_TRUE(verify_cover(spec, cover).ok);
  EXPECT_EQ(cover.size(), 2u);  // XOR needs two products
}

TEST(EspressoTest, SingleCubeFunctionCollapses) {
  // f = x1 (on wherever x1=1, off wherever x1=0) over 3 variables.
  TwoLevelSpec spec(3, 1);
  for (std::uint64_t m = 0; m < 8; ++m)
    ((m >> 1) & 1) ? spec.add_on(0, m) : spec.add_off(0, m);
  const Cover cover = espresso(spec);
  EXPECT_TRUE(verify_cover(spec, cover).ok);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].literal_count(), 1);
}

TEST(EspressoTest, UsesDontCaresFreely) {
  // On-set {11}, off-set {00}; 01 and 10 are don't cares, so one 1-literal
  // cube (or even a single literal) suffices.
  TwoLevelSpec spec(2, 1);
  spec.add_on(0, 0b11);
  spec.add_off(0, 0b00);
  const Cover cover = espresso(spec);
  EXPECT_TRUE(verify_cover(spec, cover).ok);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_LE(cover[0].literal_count(), 1);
}

TEST(EspressoTest, SharesProductsAcrossOutputs) {
  // Two outputs with identical on/off sets must share one AND gate.
  TwoLevelSpec spec(2, 2);
  for (int o = 0; o < 2; ++o) {
    spec.add_on(o, 0b11);
    spec.add_off(o, 0b00);
    spec.add_off(o, 0b01);
    spec.add_off(o, 0b10);
  }
  const Cover cover = espresso(spec);
  EXPECT_TRUE(verify_cover(spec, cover).ok);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0].outputs(), 0b11u);
}

TEST(EspressoTest, EmptyOnSetGivesEmptyCover) {
  TwoLevelSpec spec(2, 1);
  spec.add_off(0, 0b00);
  EXPECT_TRUE(espresso(spec).empty());
}

TEST(EspressoTest, IrredundantAfterMinimization) {
  TwoLevelSpec spec(4, 1);
  // f = x0 + x1 x2 with scattered off minterms.
  for (std::uint64_t m = 0; m < 16; ++m) {
    const bool on = (m & 1) || (((m >> 1) & 1) && ((m >> 2) & 1));
    on ? spec.add_on(0, m) : spec.add_off(0, m);
  }
  const Cover cover = espresso(spec);
  EXPECT_TRUE(verify_cover(spec, cover).ok);
  EXPECT_TRUE(verify_irredundant(spec, cover).ok) << cover.to_string();
  EXPECT_EQ(cover.size(), 2u);
}

/// Property test: random incompletely-specified functions; the cover must
/// always satisfy F ⊆ cover, cover ∩ R = ∅ and be irredundant.
class EspressoPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EspressoPropertyTest, RandomFunctionsAreCoveredCorrectly) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int num_inputs = 3 + static_cast<int>(rng.next_below(5));    // 3..7
  const int num_outputs = 1 + static_cast<int>(rng.next_below(3));   // 1..3
  TwoLevelSpec spec(num_inputs, num_outputs);
  const std::uint64_t space = 1ULL << num_inputs;
  for (int o = 0; o < num_outputs; ++o) {
    for (std::uint64_t m = 0; m < space; ++m) {
      const double roll = rng.next_double(0.0, 1.0);
      if (roll < 0.35)
        spec.add_on(o, m);
      else if (roll < 0.75)
        spec.add_off(o, m);
      // else: don't care
    }
  }
  spec.normalize();
  const Cover cover = espresso(spec);
  const VerifyResult correct = verify_cover(spec, cover);
  EXPECT_TRUE(correct.ok) << correct.message;
  const VerifyResult irredundant = verify_irredundant(spec, cover);
  EXPECT_TRUE(irredundant.ok) << irredundant.message;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EspressoPropertyTest, ::testing::Range(1, 33));

// ---------------------------------------------------------------- exact --

TEST(ExactTest, PrimesOfXor) {
  TwoLevelSpec spec(2, 1);
  spec.add_on(0, 0b01);
  spec.add_on(0, 0b10);
  spec.add_off(0, 0b00);
  spec.add_off(0, 0b11);
  spec.normalize();
  const auto primes = generate_primes(spec, 0);
  ASSERT_TRUE(primes.has_value());
  EXPECT_EQ(primes->size(), 2u);  // x0 x1' and x0' x1
}

TEST(ExactTest, ExactNeverWorseThanHeuristic) {
  Rng rng(7);
  for (int trial = 0; trial < 12; ++trial) {
    TwoLevelSpec spec(4, 1);
    for (std::uint64_t m = 0; m < 16; ++m) {
      const double roll = rng.next_double(0.0, 1.0);
      if (roll < 0.4)
        spec.add_on(0, m);
      else if (roll < 0.8)
        spec.add_off(0, m);
    }
    spec.normalize();
    if (spec.on(0).empty()) continue;
    const Cover heuristic = espresso(spec);
    const Cover exact = exact_minimize(spec);
    EXPECT_TRUE(verify_cover(spec, exact).ok);
    EXPECT_LE(exact.size(), heuristic.size());
  }
}

TEST(ExactTest, ExactIsOptimalOnKnownFunction) {
  // f = majority(x0, x1, x2): minimum SOP has exactly 3 products.
  TwoLevelSpec spec(3, 1);
  for (std::uint64_t m = 0; m < 8; ++m) {
    const int ones = ((m >> 0) & 1) + ((m >> 1) & 1) + ((m >> 2) & 1);
    ones >= 2 ? spec.add_on(0, m) : spec.add_off(0, m);
  }
  const Cover cover = exact_minimize(spec);
  EXPECT_TRUE(verify_cover(spec, cover).ok);
  EXPECT_EQ(cover.size(), 3u);
}

// ------------------------------------------------------------------ pla --

TEST(PlaTest, ParseAndMinimize) {
  const std::string text =
      ".i 3\n.o 1\n"
      "000 0\n001 1\n011 1\n010 0\n1-- -\n"
      ".e\n";
  const PlaFile pla = parse_pla(text);
  EXPECT_EQ(pla.spec.num_inputs(), 3);
  EXPECT_EQ(pla.spec.on(0).size(), 2u);
  const Cover cover = espresso(pla.spec);
  EXPECT_TRUE(verify_cover(pla.spec, cover).ok);
  EXPECT_EQ(cover.size(), 1u);  // x2 (don't cares absorb the upper half)
}

TEST(PlaTest, RoundTripThroughWriter) {
  TwoLevelSpec spec(3, 2);
  spec.add_on(0, 0b011);
  spec.add_on(1, 0b100);
  spec.add_off(0, 0b000);
  spec.add_off(1, 0b000);
  const Cover cover = espresso(spec);
  const std::string text = write_pla(cover);
  EXPECT_NE(text.find(".i 3"), std::string::npos);
  EXPECT_NE(text.find(".o 2"), std::string::npos);
}

TEST(PlaTest, RejectsMalformedInput) {
  EXPECT_THROW(parse_pla(".o 1\n1 1\n.e\n"), Error);           // missing .i
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n111 1\n.e\n"), Error);   // width mismatch
  EXPECT_THROW(parse_pla(".i 2\n.o 1\n.unknown\n"), Error);    // bad directive
}

// --------------------------------------------------------------- verify --

TEST(VerifyTest, DetectsMissingOnMinterm) {
  TwoLevelSpec spec(2, 1);
  spec.add_on(0, 0b11);
  spec.normalize();
  const Cover empty_cover(2, 1);
  EXPECT_FALSE(verify_cover(spec, empty_cover).ok);
}

TEST(VerifyTest, DetectsOffSetViolation) {
  TwoLevelSpec spec(2, 1);
  spec.add_on(0, 0b11);
  spec.add_off(0, 0b00);
  spec.normalize();
  Cover cover(2, 1);
  cover.add(Cube::full(2, 1));  // covers the off minterm too
  EXPECT_FALSE(verify_cover(spec, cover).ok);
}

TEST(VerifyTest, DetectsRedundantCube) {
  TwoLevelSpec spec(2, 1);
  spec.add_on(0, 0b11);
  spec.normalize();
  Cover cover(2, 1);
  cover.add(Cube::minterm(0b11, 2, 1));
  Cube wide = Cube::minterm(0b11, 2, 1);
  wide.raise_var(0);
  cover.add(wide);
  EXPECT_FALSE(verify_irredundant(spec, cover).ok);
}

}  // namespace
}  // namespace nshot::logic
