// Random-controller oracle tests for the SG analysis kernels and cover
// verification.  kernel_equivalence_test draws staged cycles only; this
// suite draws bench_suite::random_semimodular_g controllers (staged
// cycles, parallel chains and choice cycles, CSC-conflicting draws
// included) and checks each production kernel against the serial
// one-state-at-a-time formulation it replaced:
//  * the bit-plane builders against per-state code and out-edge probes;
//  * compute_all_regions, check_csc, check_usc, count_csc_conflicts and
//    the detonant scans against the ordered-container oracles
//    (tests/oracles/sg_reference.hpp);
//  * verify_cover against the minterm-at-a-time
//    logic::reference::verify_cover, on intact and broken covers.
// The kernels are serial; the suite name is kept from when it compared
// their jobs=1 and jobs=8 runs.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "bench_suite/generators.hpp"
#include "logic/verify.hpp"
#include "nshot/synthesis.hpp"
#include "oracles/espresso_reference.hpp"
#include "oracles/sg_reference.hpp"
#include "sg/bitset.hpp"
#include "sg/properties.hpp"
#include "sg/regions.hpp"
#include "stg/g_format.hpp"
#include "stg/reachability.hpp"
#include "util/error.hpp"

namespace nshot {
namespace {

/// Number of ScaleDeterminismTest parameters (seeds 1..kSeeds).
constexpr int kSeeds = 32;

sg::StateGraph random_graph(int seed) {
  bench_suite::RandomStgOptions gen;
  gen.seed = static_cast<std::uint64_t>(seed);
  return stg::build_state_graph(stg::parse_g(bench_suite::random_semimodular_g(gen)));
}

struct Synthesized {
  sg::StateGraph graph;
  core::SynthesisResult result;
};

/// The first implementable draw over the seeds param, param + kSeeds,
/// param + 2 kSeeds, ... — never a seed of another parameter.
Synthesized synthesized(int param) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    sg::StateGraph graph = random_graph(param + attempt * kSeeds);
    if (graph.noninput_signals().empty()) continue;  // all-input controller
    try {
      core::SynthesisResult result = core::synthesize(graph);
      return Synthesized{std::move(graph), std::move(result)};
    } catch (const Error&) {
      // not implementable (e.g. a CSC conflict); draw again
    }
  }
  throw std::runtime_error(std::string("no implementable draw for parameter ") +
                           std::to_string(param));
}

class ScaleDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(ScaleDeterminismTest, PlaneBuildersMatchSerial) {
  const sg::StateGraph g = random_graph(GetParam());
  const std::vector<sg::StateSet> values = sg::all_value_sets(g);
  const std::vector<sg::StateSet> excited = sg::all_excited_sets(g);
  ASSERT_EQ(values.size(), static_cast<std::size_t>(g.num_signals()));
  ASSERT_EQ(excited.size(), static_cast<std::size_t>(g.num_signals()));
  for (sg::SignalId x = 0; x < g.num_signals(); ++x) {
    std::vector<sg::StateId> value_members, excited_members;
    for (sg::StateId s = 0; s < g.num_states(); ++s) {
      if (g.value(s, x)) value_members.push_back(s);
      for (const sg::Edge& e : g.out_edges(s))
        if (e.label.signal == x) {
          excited_members.push_back(s);
          break;
        }
    }
    const std::size_t xi = static_cast<std::size_t>(x);
    EXPECT_EQ(value_members, values[xi].to_vector()) << "value plane " << x;
    EXPECT_EQ(excited_members, excited[xi].to_vector()) << "excited plane " << x;
    EXPECT_EQ(sg::value_set(g, x), values[xi]) << "value_set " << x;
    EXPECT_EQ(sg::excited_set(g, x), excited[xi]) << "excited_set " << x;
  }
}

TEST_P(ScaleDeterminismTest, RegionsMatchSerial) {
  const sg::StateGraph g = random_graph(GetParam());
  const std::vector<sg::SignalId> noninput = g.noninput_signals();
  const std::vector<sg::SignalRegions> all = sg::compute_all_regions(g);
  ASSERT_EQ(all.size(), noninput.size());
  for (std::size_t k = 0; k < noninput.size(); ++k) {
    const std::string reference = sg::reference::compute_regions(g, noninput[k]).to_string(g);
    EXPECT_EQ(reference, all[k].to_string(g)) << "signal index " << k;
    EXPECT_EQ(reference, sg::compute_regions(g, noninput[k]).to_string(g)) << "signal index " << k;
  }
}

TEST_P(ScaleDeterminismTest, CodingPropertiesMatchSerial) {
  const sg::StateGraph g = random_graph(GetParam());
  const sg::PropertyReport csc = sg::reference::check_csc(g);
  EXPECT_EQ(csc.violations, sg::check_csc(g).violations);
  EXPECT_EQ(sg::reference::check_usc(g).violations, sg::check_usc(g).violations);
  EXPECT_EQ(sg::reference::count_csc_conflicts(g), sg::count_csc_conflicts(g));
  EXPECT_EQ(csc.violations.size(), sg::count_csc_conflicts(g));
  const std::vector<sg::SignalId> noninput = g.noninput_signals();
  const std::vector<std::vector<sg::StateId>> batched = sg::all_detonant_states(g);
  ASSERT_EQ(batched.size(), noninput.size());
  for (std::size_t k = 0; k < noninput.size(); ++k) {
    const std::vector<sg::StateId> reference = sg::reference::detonant_states(g, noninput[k]);
    EXPECT_EQ(reference, sg::detonant_states(g, noninput[k])) << "signal index " << k;
    EXPECT_EQ(reference, batched[k]) << "all_detonant_states signal index " << k;
  }
}

TEST_P(ScaleDeterminismTest, VerifyCoverMatchesSerial) {
  const Synthesized gen = synthesized(GetParam());
  const logic::TwoLevelSpec& spec = gen.result.derived.spec;

  auto compare = [&spec](const logic::Cover& cover, const std::string& what) {
    const logic::VerifyResult reference = logic::reference::verify_cover(spec, cover);
    const logic::VerifyResult fast = logic::verify_cover(spec, cover);
    EXPECT_EQ(reference.ok, fast.ok) << what;
    EXPECT_EQ(reference.message, fast.message) << what;
  };

  compare(gen.result.cover, "intact cover");
  // Broken covers exercise the first-failure-in-output-order report.
  for (std::size_t drop = 0; drop < gen.result.cover.size(); ++drop) {
    logic::Cover broken = gen.result.cover;
    broken.erase(drop);
    compare(broken, std::string("cover without cube ") + std::to_string(drop));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScaleDeterminismTest, ::testing::Range(1, kSeeds + 1));

}  // namespace
}  // namespace nshot
