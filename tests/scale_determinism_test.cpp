// Thread-determinism tests for the jobs knobs added by the thread×word
// fusion work: every kernel that accepts a worker count must be
// byte-identical at jobs=1 (serial) and jobs=8 (threaded) — region
// structures, CSC/USC verdicts, bit planes, detonant scans and cover
// verification.  The suite runs under ThreadSanitizer in CI, so it
// doubles as the race detector for the chunked word-range sweeps.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "bench_suite/generators.hpp"
#include "logic/verify.hpp"
#include "nshot/synthesis.hpp"
#include "sg/bitset.hpp"
#include "sg/properties.hpp"
#include "sg/regions.hpp"
#include "stg/g_format.hpp"
#include "stg/reachability.hpp"
#include "util/error.hpp"

namespace nshot {
namespace {

constexpr int kJobs = 8;

stg::Stg random_net(int seed) {
  bench_suite::RandomStgOptions gen;
  gen.seed = static_cast<std::uint64_t>(seed);
  return stg::parse_g(bench_suite::random_semimodular_g(gen));
}

class ScaleDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(ScaleDeterminismTest, PlaneBuildersMatchSerial) {
  const sg::StateGraph g = stg::build_state_graph(random_net(GetParam()));
  const std::vector<sg::StateSet> values1 = sg::all_value_sets(g, 1);
  const std::vector<sg::StateSet> valuesN = sg::all_value_sets(g, kJobs);
  const std::vector<sg::StateSet> excited1 = sg::all_excited_sets(g, 1);
  const std::vector<sg::StateSet> excitedN = sg::all_excited_sets(g, kJobs);
  ASSERT_EQ(values1.size(), valuesN.size());
  ASSERT_EQ(excited1.size(), excitedN.size());
  for (int x = 0; x < g.num_signals(); ++x) {
    const std::size_t xi = static_cast<std::size_t>(x);
    EXPECT_EQ(values1[xi].to_vector(), valuesN[xi].to_vector()) << "value plane " << x;
    EXPECT_EQ(excited1[xi].to_vector(), excitedN[xi].to_vector()) << "excited plane " << x;
    EXPECT_EQ(sg::value_set(g, x, 1).to_vector(), sg::value_set(g, x, kJobs).to_vector());
    EXPECT_EQ(sg::excited_set(g, x, 1).to_vector(), sg::excited_set(g, x, kJobs).to_vector());
  }
}

TEST_P(ScaleDeterminismTest, RegionsMatchSerial) {
  const sg::StateGraph g = stg::build_state_graph(random_net(GetParam()));
  const std::vector<sg::SignalRegions> serial = sg::compute_all_regions(g, 1);
  const std::vector<sg::SignalRegions> threaded = sg::compute_all_regions(g, kJobs);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i].to_string(g), threaded[i].to_string(g)) << "signal index " << i;
}

TEST_P(ScaleDeterminismTest, CodingPropertiesMatchSerial) {
  const sg::StateGraph g = stg::build_state_graph(random_net(GetParam()));
  EXPECT_EQ(sg::check_csc(g, 1).summary(), sg::check_csc(g, kJobs).summary());
  EXPECT_EQ(sg::check_usc(g, 1).summary(), sg::check_usc(g, kJobs).summary());
  EXPECT_EQ(sg::count_csc_conflicts(g, 1), sg::count_csc_conflicts(g, kJobs));
  for (const sg::SignalId a : g.noninput_signals())
    EXPECT_EQ(sg::detonant_states(g, a, 1), sg::detonant_states(g, a, kJobs)) << "signal " << a;
  // The batched scan must agree with the per-signal entry point at any
  // worker count (it shares one plane sweep; entry i is signal_i's scan).
  const std::vector<std::vector<sg::StateId>> batched = sg::all_detonant_states(g, kJobs);
  ASSERT_EQ(batched.size(), g.noninput_signals().size());
  for (std::size_t k = 0; k < batched.size(); ++k)
    EXPECT_EQ(sg::detonant_states(g, g.noninput_signals()[k], 1), batched[k])
        << "signal index " << k;
}

TEST_P(ScaleDeterminismTest, VerifyCoverMatchesSerial) {
  const sg::StateGraph g = stg::build_state_graph(random_net(GetParam()));
  if (g.noninput_signals().empty()) GTEST_SKIP() << "all-input controller";
  std::optional<core::SynthesisResult> synthesized;
  try {
    synthesized = core::synthesize(g);
  } catch (const Error&) {
    GTEST_SKIP() << "unimplementable draw";
  }
  const core::SynthesisResult& result = *synthesized;
  const logic::TwoLevelSpec& spec = result.derived.spec;

  auto compare = [&spec](const logic::Cover& cover, const std::string& what) {
    const logic::VerifyResult serial = logic::verify_cover(spec, cover, 1);
    const logic::VerifyResult threaded = logic::verify_cover(spec, cover, kJobs);
    EXPECT_EQ(serial.ok, threaded.ok) << what;
    EXPECT_EQ(serial.message, threaded.message) << what;
  };

  compare(result.cover, "intact cover");
  // Broken covers exercise the first-failure-in-output-order merge.
  for (std::size_t drop = 0; drop < result.cover.size(); ++drop) {
    logic::Cover broken = result.cover;
    broken.erase(drop);
    compare(broken, "cover without cube " + std::to_string(drop));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScaleDeterminismTest, ::testing::Range(1, 33));

}  // namespace
}  // namespace nshot
