// Property-based determinism tests for the parallel execution engine:
// over randomly generated controllers, every parallelized sweep must be
// byte-identical at jobs=1 and jobs=8, and each trial's outcome must be a
// pure function of (base_seed, run) — the invariant the by-index merge
// relies on.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "bench_suite/generators.hpp"
#include "faults/adversarial.hpp"
#include "faults/stress.hpp"
#include "nshot/synthesis.hpp"
#include "oracles/trial_reference.hpp"
#include "sim/conformance.hpp"
#include "util/rng.hpp"

namespace nshot {
namespace {

/// Random staged-cycle controller (same generator family as
/// random_controller_test.cpp).
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
  return bench_suite::staged_cycle_g("det" + std::to_string(index), inputs, outputs, stages);
}

/// Build a random implementable controller with at least one non-input
/// signal, or an empty optional when the draw has none.
struct Generated {
  sg::StateGraph graph;
  core::SynthesisResult result;
};

std::optional<Generated> generate(int seed) {
  Rng rng(static_cast<std::uint64_t>(seed) * 0x9E3779B9ULL + 3);
  const std::string g_text = random_staged_cycle(rng, seed);
  sg::StateGraph graph = bench_suite::build_g(g_text);
  if (graph.noninput_signals().empty()) return std::nullopt;
  core::SynthesisResult result = core::synthesize(graph);
  return Generated{std::move(graph), std::move(result)};
}

std::string conformance_fingerprint(const sim::ConformanceReport& r) {
  std::string out = std::to_string(r.runs) + "/" + std::to_string(r.external_transitions) + "/" +
                    std::to_string(r.internal_toggles) + "/" + std::to_string(r.absorbed_pulses) +
                    "/" + std::to_string(r.simulated_time) + "/" + std::to_string(r.deadlocks) +
                    "/" + std::to_string(r.budget_exhausted);
  for (const sim::ConformanceViolation& v : r.violations)
    out.append("|").append(std::to_string(v.seed)).append("@").append(std::to_string(v.time))
        .append(":").append(v.description);
  return out;
}

class ParallelDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelDeterminismTest, ConformanceSweepIsJobsInvariant) {
  const auto gen = generate(GetParam());
  if (!gen) GTEST_SKIP() << "all-input controller";

  sim::ConformanceOptions options;
  options.seed = static_cast<std::uint64_t>(GetParam()) + 100;
  options.runs = 12;
  options.max_transitions = 60;

  options.jobs = 1;
  const sim::ConformanceReport serial = sim::check_conformance(gen->graph, gen->result.circuit, options);
  options.jobs = 8;
  const sim::ConformanceReport parallel =
      sim::check_conformance(gen->graph, gen->result.circuit, options);

  EXPECT_EQ(conformance_fingerprint(serial), conformance_fingerprint(parallel));
}

TEST_P(ParallelDeterminismTest, TrialOutcomeDependsOnlyOnBaseSeedAndRun) {
  // The sweep of N runs must equal the merge of N independent single runs
  // configured with run_seed(base, r) — i.e. no hidden state couples the
  // trials, which is exactly what makes the by-index merge sound.
  const auto gen = generate(GetParam());
  if (!gen) GTEST_SKIP() << "all-input controller";

  sim::ConformanceOptions options;
  options.seed = static_cast<std::uint64_t>(GetParam()) * 31 + 5;
  options.runs = 6;
  options.max_transitions = 60;
  options.jobs = 8;
  const sim::ConformanceReport sweep =
      sim::check_conformance(gen->graph, gen->result.circuit, options);

  // The reference sweep: one fresh reference trial per run_seed(base, r),
  // serially, merged in trial order.
  const sim::ConformanceReport merged =
      sim::reference::check_conformance(gen->graph, gen->result.circuit, options);

  EXPECT_EQ(conformance_fingerprint(sweep), conformance_fingerprint(merged));
}

TEST_P(ParallelDeterminismTest, StressReportJsonIsByteIdenticalAcrossJobs) {
  const auto gen = generate(GetParam());
  if (!gen) GTEST_SKIP() << "all-input controller";

  faults::StressOptions options;
  options.seed = static_cast<std::uint64_t>(GetParam()) * 7 + 1;
  options.margin_runs = 3;
  options.run.max_transitions = 60;
  options.adversarial.restarts = 2;
  options.adversarial.iterations = 15;
  options.adversarial.run.max_transitions = 60;

  options.jobs = 1;
  options.adversarial.jobs = 1;
  const std::string serial = faults::stress_report_json(
      faults::run_stress(gen->graph, gen->result.circuit, "det", options));

  options.jobs = 8;
  options.adversarial.jobs = 8;
  const std::string parallel = faults::stress_report_json(
      faults::run_stress(gen->graph, gen->result.circuit, "det", options));

  EXPECT_EQ(serial, parallel);
}

TEST_P(ParallelDeterminismTest, AdversarialSearchIsJobsInvariant) {
  const auto gen = generate(GetParam());
  if (!gen) GTEST_SKIP() << "all-input controller";

  faults::AdversarialOptions options;
  options.seed = static_cast<std::uint64_t>(GetParam()) + 9;
  options.restarts = 3;
  options.iterations = 20;
  options.run.max_transitions = 60;

  options.jobs = 1;
  const faults::AdversarialResult serial =
      faults::adversarial_delay_search(gen->graph, gen->result.circuit, options);
  options.jobs = 8;
  const faults::AdversarialResult parallel =
      faults::adversarial_delay_search(gen->graph, gen->result.circuit, options);

  EXPECT_EQ(serial.violation_found, parallel.violation_found);
  EXPECT_EQ(serial.best_slack, parallel.best_slack);
  EXPECT_EQ(serial.delays, parallel.delays);
  EXPECT_EQ(serial.env_seed, parallel.env_seed);
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
}

TEST_P(ParallelDeterminismTest, SynthesisIsJobsInvariant) {
  // Per-signal analyses and per-output exact minimization merge in index
  // order; the synthesized implementation must not depend on jobs.
  const auto gen = generate(GetParam());
  if (!gen) GTEST_SKIP() << "all-input controller";

  for (const bool exact : {false, true}) {
    core::SynthesisOptions options;
    options.exact = exact;
    options.memoize_minimization = false;  // isolate the parallel paths
    options.jobs = 1;
    const core::SynthesisResult serial = core::synthesize(gen->graph, options);
    options.jobs = 8;
    const core::SynthesisResult parallel = core::synthesize(gen->graph, options);

    EXPECT_EQ(core::describe(gen->graph, serial), core::describe(gen->graph, parallel))
        << "exact=" << exact;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminismTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace nshot
