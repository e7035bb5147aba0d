// Randomized end-to-end property test: generate controller STGs with
// random structure (stage counts, widths, chain shapes, signal kinds),
// keep the ones that satisfy the paper's preconditions, and require the
// full flow — reachability, regions, minimization, trigger enforcement,
// architecture mapping, closed-loop simulation — to produce externally
// hazard-free circuits on all of them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_suite/generators.hpp"
#include "nshot/synthesis.hpp"
#include "sg/properties.hpp"
#include "sim/conformance.hpp"
#include "util/rng.hpp"

namespace nshot {
namespace {

/// Random staged cycle: 2-5 single-polarity stage pairs over 3-8 signals.
std::string random_staged_cycle(Rng& rng, int index) {
  const int num_signals = 3 + static_cast<int>(rng.next_below(6));
  std::vector<std::string> names, inputs, outputs;
  for (int i = 0; i < num_signals; ++i) {
    const std::string name = std::string("x").append(std::to_string(i));
    names.push_back(name);
    (rng.next_bool(0.5) ? inputs : outputs).push_back(name);
  }
  if (inputs.empty()) {
    inputs.push_back(outputs.back());
    outputs.pop_back();
  }
  if (outputs.empty()) {
    outputs.push_back(inputs.back());
    inputs.pop_back();
  }

  // Partition the signals into rising stages; the falling stages reuse the
  // same partition (guaranteeing phase-distinguishable codes).
  std::vector<std::vector<std::string>> rising;
  std::vector<std::string> pool = names;
  while (!pool.empty()) {
    const std::size_t take = 1 + rng.next_below(std::min<std::size_t>(pool.size(), 3));
    std::vector<std::string> stage;
    for (std::size_t i = 0; i < take; ++i) {
      stage.push_back(pool.back() + "+");
      pool.pop_back();
    }
    rising.push_back(std::move(stage));
  }
  std::vector<std::vector<std::string>> stages = rising;
  for (const auto& stage : rising) {
    std::vector<std::string> falling;
    for (const std::string& t : stage) falling.push_back(t.substr(0, t.size() - 1) + "-");
    stages.push_back(std::move(falling));
  }
  return bench_suite::staged_cycle_g("rand" + std::to_string(index), inputs, outputs, stages);
}

/// Random parallel-chains controller: 2-4 chains of length 1-3.
std::string random_chains(Rng& rng, int index) {
  const int width = 2 + static_cast<int>(rng.next_below(3));
  std::vector<std::vector<std::string>> chains;
  std::vector<std::string> inputs, outputs;
  for (int c = 0; c < width; ++c) {
    const int length = 1 + static_cast<int>(rng.next_below(3));
    std::vector<std::string> chain;
    for (int k = 0; k < length; ++k) {
      const std::string name =
          std::string("c").append(std::to_string(c)).append("_").append(std::to_string(k));
      chain.push_back(name);
      (k == 0 && rng.next_bool(0.7) ? inputs : outputs).push_back(name);
    }
    chains.push_back(std::move(chain));
  }
  return bench_suite::parallel_chains_g("randc" + std::to_string(index), "m",
                                        /*master_is_input=*/true, chains, inputs, outputs);
}

class RandomControllerTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomControllerTest, GeneratedControllersAreHazardFree) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 0xC0FFEEULL + 17);
  const std::string g_text = rng.next_bool(0.5) ? random_staged_cycle(rng, GetParam())
                                                : random_chains(rng, GetParam());
  const sg::StateGraph graph = bench_suite::build_g(g_text);

  // The generators are correct by construction; assert rather than skip.
  ASSERT_TRUE(sg::check_implementability(graph).ok())
      << g_text << sg::check_implementability(graph).summary();
  if (graph.noninput_signals().empty()) GTEST_SKIP() << "all-input controller";

  const core::SynthesisResult result = core::synthesize(graph);
  sim::ConformanceOptions options;
  options.seed = static_cast<std::uint64_t>(GetParam());
  options.runs = 4;
  options.max_transitions = 100;
  const sim::ConformanceReport report = sim::check_conformance(graph, result.circuit, options);
  EXPECT_TRUE(report.clean()) << g_text << report.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomControllerTest, ::testing::Range(1, 41));

}  // namespace
}  // namespace nshot
