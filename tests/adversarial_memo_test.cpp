// Differential test of the adversarial search's exact proposal memo
// against its reference oracle (tests/oracles/adversarial_reference): the
// production climb answers no-op and revisited proposals from a
// per-restart score memo instead of re-running their trials, and must
// still return a byte-identical AdversarialResult — best_slack bits,
// delay vector bits, environment seed, the best run's report and the
// proposal count — for every jobs value.  Covers the 25 Table 2 circuits,
// seeded random semi-modular controllers, and the under-compensated
// converta circuit of --stress-uncomp searched with a stretched box and
// shaved delay lines, where the violation early exit (and the discard of
// later restarts) runs.
#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generators.hpp"
#include "faults/adversarial.hpp"
#include "faults/fault_model.hpp"
#include "faults/margins.hpp"
#include "nshot/synthesis.hpp"
#include "oracles/adversarial_reference.hpp"
#include "sg/properties.hpp"

namespace nshot {
namespace {

struct Synthesized {
  sg::StateGraph graph;
  netlist::Netlist circuit;
};

Synthesized synthesize(sg::StateGraph graph) {
  core::SynthesisResult result = core::synthesize(graph);
  return {std::move(graph), std::move(result.circuit)};
}

std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  for (const double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

void expect_same_result(const faults::AdversarialResult& got,
                        const faults::AdversarialResult& want, const std::string& label) {
  EXPECT_EQ(got.violation_found, want.violation_found) << label;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.best_slack),
            std::bit_cast<std::uint64_t>(want.best_slack))
      << label << ": " << got.best_slack << " vs " << want.best_slack;
  EXPECT_EQ(bits(got.delays), bits(want.delays)) << label;
  EXPECT_EQ(got.env_seed, want.env_seed) << label;
  EXPECT_EQ(got.evaluations, want.evaluations) << label;
  const sim::ConformanceReport& a = got.report;
  const sim::ConformanceReport& b = want.report;
  EXPECT_EQ(a.runs, b.runs) << label;
  EXPECT_EQ(a.external_transitions, b.external_transitions) << label;
  EXPECT_EQ(a.internal_toggles, b.internal_toggles) << label;
  EXPECT_EQ(a.absorbed_pulses, b.absorbed_pulses) << label;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.simulated_time),
            std::bit_cast<std::uint64_t>(b.simulated_time))
      << label;
  EXPECT_EQ(a.deadlocks, b.deadlocks) << label;
  EXPECT_EQ(a.budget_exhausted, b.budget_exhausted) << label;
  ASSERT_EQ(a.violations.size(), b.violations.size()) << label;
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].seed, b.violations[i].seed) << label;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.violations[i].time),
              std::bit_cast<std::uint64_t>(b.violations[i].time))
        << label;
    EXPECT_EQ(a.violations[i].kind, b.violations[i].kind) << label;
    EXPECT_EQ(a.violations[i].description, b.violations[i].description) << label;
  }
}

/// The oracle once, then production at jobs 1 and 4 against it.
void expect_memo_matches_oracle(const Synthesized& s, faults::AdversarialOptions options,
                                const std::string& label) {
  options.jobs = 1;
  const faults::AdversarialResult want =
      faults::reference::adversarial_delay_search(s.graph, s.circuit, options);
  for (const int jobs : {1, 4}) {
    options.jobs = jobs;
    expect_same_result(faults::adversarial_delay_search(s.graph, s.circuit, options), want,
                       label + " jobs=" + std::to_string(jobs));
  }
}

class AdversarialMemoTable2Test : public ::testing::TestWithParam<std::string> {};

TEST_P(AdversarialMemoTable2Test, ServeDefaultsMatchTheUnmemoizedClimb) {
  const Synthesized s = synthesize(bench_suite::build_benchmark(GetParam()));
  expect_memo_matches_oracle(s, faults::AdversarialOptions{}, GetParam());
}

std::vector<std::string> table2_names() {
  std::vector<std::string> names;
  for (const bench_suite::BenchmarkInfo& info : bench_suite::all_benchmarks())
    names.push_back(info.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Table2, AdversarialMemoTable2Test, ::testing::ValuesIn(table2_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name;
                           for (const char c : info.param) name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
                           return name;
                         });

TEST(AdversarialMemoTest, RandomControllersMatchTheUnmemoizedClimb) {
  int implementable = 0;
  for (std::uint64_t seed = 1; seed <= 40 && implementable < 12; ++seed) {
    bench_suite::RandomStgOptions gen;
    gen.seed = seed;
    sg::StateGraph graph = bench_suite::build_g(bench_suite::random_semimodular_g(gen));
    if (graph.noninput_signals().empty() || !sg::check_implementability(graph).ok()) continue;
    ++implementable;
    faults::AdversarialOptions options;
    options.seed = 1000 + seed;
    options.restarts = 3;
    options.iterations = 120;
    expect_memo_matches_oracle(synthesize(std::move(graph)), options,
                               "rand" + std::to_string(seed));
  }
  EXPECT_EQ(implementable, 12);
}

/// converta made under-compensated the way --stress-uncomp does it: the
/// (signal, depth) whose deepened set SOP leaves the smallest Eq. 1
/// shortfall, with every delay line stripped.
Synthesized uncompensated_converta() {
  Synthesized s = synthesize(bench_suite::build_benchmark("converta"));
  const gatelib::GateLibrary& lib = gatelib::GateLibrary::standard();
  std::string target;
  int levels = 0;
  double required = faults::kNoMargin;
  for (const sg::SignalId sid : s.graph.noninput_signals()) {
    const std::string& name = s.graph.signal(sid).name;
    for (int l = 1; l <= 2; ++l) {
      double shortfall = 0.0;
      for (const faults::Eq1Requirement& req :
           faults::eq1_requirements(faults::deepen_set_path(s.circuit, name, l), lib))
        if (req.signal == name) shortfall = req.required_set - req.installed_set;
      if (shortfall <= 0.0) continue;
      if (shortfall < required) {
        required = shortfall;
        target = name;
        levels = l;
      }
      break;
    }
  }
  EXPECT_FALSE(target.empty());
  s.circuit = faults::strip_delay_compensation(faults::deepen_set_path(s.circuit, target, levels));
  return s;
}

TEST(AdversarialMemoTest, ViolationEarlyExitMatchesTheUnmemoizedClimb) {
  const Synthesized s = uncompensated_converta();
  faults::AdversarialOptions options;
  options.stress_factor = 2.0;
  options.shave_delay_lines = true;
  options.restarts = 3;
  expect_memo_matches_oracle(s, options, "converta uncompensated");
  // The case must actually take the early exit, or it covers nothing.
  EXPECT_TRUE(faults::adversarial_delay_search(s.graph, s.circuit, options).violation_found);
}

}  // namespace
}  // namespace nshot
