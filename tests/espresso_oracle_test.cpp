// Differential test of the heuristic minimizer against its reference
// oracle (tests/oracles/espresso_reference): the merge-built initial
// cover, the bit-plane EXPAND and the incremental IRREDUNDANT must return
// covers byte-identical (Cover::to_string) to the sort-then-search,
// minterm-scan and rescan versions they replaced, on the Table 2 corpus,
// on seeded random (F, D, R) specs and on the specs of random
// semi-modular controllers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generators.hpp"
#include "logic/cover.hpp"
#include "logic/espresso.hpp"
#include "logic/spec.hpp"
#include "nshot/spec_derivation.hpp"
#include "oracles/espresso_reference.hpp"
#include "sg/properties.hpp"
#include "util/rng.hpp"

namespace nshot::logic {
namespace {

void expect_same_cover(const TwoLevelSpec& spec, const EspressoOptions& options,
                       const std::string& label) {
  const std::string fast = espresso(spec, options).to_string();
  const std::string oracle = reference::espresso(spec, options).to_string();
  EXPECT_EQ(fast, oracle) << label << " share_outputs=" << options.share_outputs
                          << " max_iterations=" << options.max_iterations;
}

/// A random (F, D, R) spec.  Up to 7 inputs every minterm of the space is
/// classified; above that, a random set of distinct codes is (as the
/// reachable states of a state graph are), the rest is don't care.
TwoLevelSpec random_spec(Rng& rng, int num_inputs, int num_outputs) {
  const std::uint64_t mask = Cube::input_mask(num_inputs);
  std::vector<std::uint64_t> codes;
  if (num_inputs <= 7) {
    for (std::uint64_t m = 0; m <= mask; ++m) codes.push_back(m);
  } else {
    const std::uint64_t count = 16 + rng.next_below(113);
    for (std::uint64_t i = 0; i < count; ++i) codes.push_back(rng.next_u64() & mask);
    std::sort(codes.begin(), codes.end());
    codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
  }
  const double p_on = rng.next_double(0.1, 0.5);
  const double p_off = rng.next_double(0.1, 1.0 - p_on);
  TwoLevelSpec spec(num_inputs, num_outputs);
  for (int o = 0; o < num_outputs; ++o) {
    for (const std::uint64_t code : codes) {
      const double roll = rng.next_double(0.0, 1.0);
      if (roll < p_on)
        spec.add_on(o, code);
      else if (roll < p_on + p_off)
        spec.add_off(o, code);
    }
  }
  spec.normalize();
  return spec;
}

// --------------------------------------------------------- the oracle --

TEST(SpecTest, CubeValidityAgainstOffSet) {
  TwoLevelSpec spec(2, 2);
  spec.add_off(0, 0b01);
  spec.normalize();
  Cube cube = Cube::full(2, 0b01);
  EXPECT_FALSE(reference::cube_is_valid(spec, cube));  // hits the off-set of output 0
  cube.set_outputs(0b10);
  EXPECT_TRUE(reference::cube_is_valid(spec, cube));   // output 1 has an empty off-set
}

// ----------------------------------------------------- initial cover --

void expect_same_initial_cover(const TwoLevelSpec& spec, const std::string& label) {
  for (const bool share : {true, false})
    EXPECT_EQ(espresso_initial_cover(spec, share).to_string(),
              reference::initial_cover(spec, share).to_string())
        << label << " share_outputs=" << share;
}

TEST(InitialCoverOracleTest, SharedCodesAndEmptyOutputs) {
  // Outputs 1 and 3 have empty on-sets; codes 5 and 9 feed several
  // outputs; output 4's last code is the largest code of all.
  TwoLevelSpec spec(4, 5);
  for (const std::uint64_t code : {9, 1, 5}) spec.add_on(0, code);
  for (const std::uint64_t code : {5, 9, 2}) spec.add_on(2, code);
  for (const std::uint64_t code : {15, 5, 0}) spec.add_on(4, code);
  spec.add_off(1, 3);
  spec.add_off(3, 5);
  spec.normalize();
  expect_same_initial_cover(spec, "hand-built");
  EXPECT_EQ(espresso_initial_cover(spec, true).size(), 6u);  // codes 0 1 2 5 9 15
  EXPECT_EQ(espresso_initial_cover(spec, false).size(), 9u);

  TwoLevelSpec empty(3, 2);
  empty.add_off(0, 1);
  empty.normalize();
  expect_same_initial_cover(empty, "no on-codes");
  EXPECT_TRUE(espresso_initial_cover(empty, true).empty());

  // 64 inputs: the all-ones code is a real code, not an end marker.
  TwoLevelSpec wide(64, 2);
  wide.add_on(0, ~0ULL);
  wide.add_on(1, ~0ULL);
  wide.add_on(1, 7);
  wide.normalize();
  expect_same_initial_cover(wide, "64 inputs");
  EXPECT_EQ(espresso_initial_cover(wide, true).size(), 2u);
}

TEST(InitialCoverOracleTest, RandomSpecsMatchOracle) {
  for (int seed = 0; seed < 200; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 0x2545F4914F6CDD1DULL + 11);
    const int num_inputs = 2 + static_cast<int>(rng.next_below(11));  // 2..12
    const int num_outputs = 1 + static_cast<int>(rng.next_below(8));  // 1..8
    expect_same_initial_cover(random_spec(rng, num_inputs, num_outputs),
                              "seed " + std::to_string(seed));
  }
}

// ------------------------------------------------------------ Table 2 --

class EspressoOracleTable2Test : public ::testing::TestWithParam<std::string> {};

TEST_P(EspressoOracleTable2Test, CoverMatchesOracleWithAndWithoutSharing) {
  const TwoLevelSpec spec = core::derive_spec(bench_suite::build_benchmark(GetParam())).spec;
  expect_same_initial_cover(spec, GetParam());
  for (const bool share : {true, false}) {
    EspressoOptions options;
    options.share_outputs = share;
    expect_same_cover(spec, options, GetParam());
  }
}

std::vector<std::string> table2_names() {
  std::vector<std::string> names;
  for (const auto& info : bench_suite::all_benchmarks()) names.push_back(info.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, EspressoOracleTable2Test,
                         ::testing::ValuesIn(table2_names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           std::replace_if(name.begin(), name.end(),
                                           [](char c) { return !std::isalnum(c); }, '_');
                           return name;
                         });

// ------------------------------------------------------- random specs --

constexpr int kSpecsPerShard = 100;

class EspressoOracleRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(EspressoOracleRandomTest, CoverAndStepsMatchOracle) {
  for (int k = 0; k < kSpecsPerShard; ++k) {
    const int seed = GetParam() * kSpecsPerShard + k;
    Rng rng(static_cast<std::uint64_t>(seed) * 0x9E3779B97F4A7C15ULL + 7);
    const int num_inputs = 3 + static_cast<int>(rng.next_below(9));   // 3..11
    const int num_outputs = 1 + static_cast<int>(rng.next_below(5));  // 1..5
    EspressoOptions options;
    options.max_iterations = 1 + static_cast<int>(rng.next_below(4));  // 1..4
    options.share_outputs = rng.next_bool();
    const TwoLevelSpec spec = random_spec(rng, num_inputs, num_outputs);
    const std::string label = "seed " + std::to_string(seed);
    expect_same_cover(spec, options, label);

    // The steps on their own, from the initial cover.
    Cover fast = espresso_initial_cover(spec, options.share_outputs);
    Cover oracle = reference::initial_cover(spec, options.share_outputs);
    ASSERT_EQ(fast.to_string(), oracle.to_string()) << label << " initial cover";
    espresso_expand(fast, spec, options.share_outputs);
    reference::expand(oracle, spec, options.share_outputs);
    ASSERT_EQ(fast.to_string(), oracle.to_string()) << label << " EXPAND";
    if (fast.empty()) continue;
    espresso_irredundant(fast, spec);
    reference::irredundant(oracle, spec);
    ASSERT_EQ(fast.to_string(), oracle.to_string()) << label << " IRREDUNDANT";
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, EspressoOracleRandomTest, ::testing::Range(0, 20));

// Full-width cubes: 64 inputs exercise the all-ones input mask and the
// shifts by 63.
TEST(EspressoOracleWideTest, SixtyFourInputSpecsMatchOracle) {
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 0x64);
    const int num_outputs = 1 + static_cast<int>(rng.next_below(5));
    const TwoLevelSpec spec = random_spec(rng, 64, num_outputs);
    for (const bool share : {true, false}) {
      EspressoOptions options;
      options.share_outputs = share;
      expect_same_cover(spec, options, "64-input seed " + std::to_string(seed));
    }
  }
}

// -------------------------------------------- random controller specs --

constexpr int kControllersPerShard = 50;

class EspressoOracleControllerTest : public ::testing::TestWithParam<int> {};

TEST_P(EspressoOracleControllerTest, ImplementableDrawsMatchOracle) {
  int implementable = 0;
  for (int k = 0; k < 4 * kControllersPerShard && implementable < kControllersPerShard; ++k) {
    bench_suite::RandomStgOptions gen;
    gen.seed = static_cast<std::uint64_t>(GetParam()) * 1000 + static_cast<std::uint64_t>(k) + 1;
    const sg::StateGraph graph = bench_suite::build_g(bench_suite::random_semimodular_g(gen));
    if (graph.noninput_signals().empty() || !sg::check_implementability(graph).ok()) continue;
    ++implementable;
    const TwoLevelSpec spec = core::derive_spec(graph).spec;
    for (const bool share : {true, false}) {
      EspressoOptions options;
      options.share_outputs = share;
      expect_same_cover(spec, options, "rand" + std::to_string(gen.seed));
    }
  }
  EXPECT_EQ(implementable, kControllersPerShard);
}

INSTANTIATE_TEST_SUITE_P(Shards, EspressoOracleControllerTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace nshot::logic
