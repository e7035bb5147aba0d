// The paper's headline claim, checked empirically: circuits produced by
// the N-SHOT flow are hazard-free at every observable non-input signal and
// conform to the state-graph specification, for arbitrary gate delays —
// even though the SOP core glitches internally.  Each benchmark runs under
// many independently sampled delay assignments (the pure delay model).
#include <gtest/gtest.h>

#include "baselines/baselines.hpp"
#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generators.hpp"
#include "nshot/synthesis.hpp"
#include "oracles/trial_reference.hpp"
#include "sim/conformance.hpp"
#include "sim/vcd.hpp"

namespace nshot {
namespace {

sim::ConformanceOptions standard_options(std::uint64_t seed = 42) {
  sim::ConformanceOptions options;
  options.seed = seed;
  options.runs = 8;
  options.max_transitions = 120;
  return options;
}

/// N-SHOT circuits: clean on every benchmark (distributive or not).
class NshotConformanceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(NshotConformanceTest, ExternallyHazardFreeUnderRandomDelays) {
  const sg::StateGraph g = bench_suite::build_benchmark(GetParam());
  const core::SynthesisResult result = core::synthesize(g);
  const sim::ConformanceReport report =
      sim::check_conformance(g, result.circuit, standard_options());
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_GT(report.external_transitions, 0);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, NshotConformanceTest,
                         ::testing::Values("chu133", "chu150", "chu172", "converta", "ebergen",
                                           "full", "hazard", "hybridf", "pe-send-ifc", "qr42",
                                           "vbe10b", "vbe5b", "wrdatab", "sbuf-send-ctl",
                                           "pr-rcv-ifc", "read-write", "pmcm1", "pmcm2",
                                           "combuf1", "combuf2", "sing2dual-inp",
                                           "sing2dual-out"));

/// Exact-minimization mode is equally hazard-free (Corollary 1: any
/// minimizer works, including ESPRESSO-exact).
class ExactConformanceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ExactConformanceTest, ExactCoversAreAlsoClean) {
  const sg::StateGraph g = bench_suite::build_benchmark(GetParam());
  core::SynthesisOptions options;
  options.exact = true;
  const core::SynthesisResult result = core::synthesize(g, options);
  const sim::ConformanceReport report =
      sim::check_conformance(g, result.circuit, standard_options(7));
  EXPECT_TRUE(report.clean()) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(SmallBenchmarks, ExactConformanceTest,
                         ::testing::Values("chu172", "full", "hazard", "pmcm2", "converta"));

TEST(ConformanceDetailTest, InternalNetsGlitchWhileOutputsStayClean) {
  // The architecture's whole point: the SOP core may be hazardous (extra
  // internal toggles) while observable signals see exactly the specified
  // transitions.  The OR cell's set function is a c̄(a + b)-style SOP whose
  // OR output rises twice when a and b arrive staggered.
  const sg::StateGraph cell = bench_suite::build_benchmark("pmcm1");
  const core::SynthesisResult result = core::synthesize(cell);
  sim::ConformanceOptions options = standard_options(3);
  options.runs = 12;
  const sim::ConformanceReport report = sim::check_conformance(cell, result.circuit, options);
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_GT(report.internal_toggles, 0);
}

TEST(ConformanceDetailTest, SynLikeMonotonousCoversAreAlsoClean) {
  // The C-element baseline is glitch-free by construction of its
  // monotonous covers; verify on a distributive benchmark.
  const sg::StateGraph g = bench_suite::build_benchmark("full");
  const auto outcome = baselines::synthesize_syn_like(g);
  ASSERT_TRUE(outcome.ok());
  const sim::ConformanceReport report =
      sim::check_conformance(g, outcome.result->circuit, standard_options(11));
  EXPECT_TRUE(report.clean()) << report.summary();
}

TEST(ConformanceDetailTest, ViolationMachineryDetectsWrongCircuit) {
  // Sanity check that the monitor actually fails circuits that misbehave:
  // synthesize one benchmark and simulate it against a DIFFERENT spec.
  const sg::StateGraph right = bench_suite::build_benchmark("chu172");
  const core::SynthesisResult result = core::synthesize(right);
  // Same signal names, different protocol: c+/d+ before a+/b+.
  const sg::StateGraph wrong = bench_suite::build_g(bench_suite::staged_cycle_g(
      "wrong", {"a", "b"}, {"c", "d"},
      {{"c+", "d+"}, {"a+", "b+"}, {"c-", "d-"}, {"a-", "b-"}}));
  sim::ConformanceOptions options = standard_options(5);
  options.runs = 4;
  const sim::ConformanceReport report = sim::check_conformance(wrong, result.circuit, options);
  EXPECT_FALSE(report.clean());
}

TEST(ConformanceDetailTest, DeadlockIsReportedWhenCircuitStalls) {
  // A circuit whose output never fires (set input tied low through an
  // always-0 SOP) must be reported as a deadlock, not silently pass.
  const sg::StateGraph g = bench_suite::build_g(bench_suite::staged_cycle_g(
      "stall", {"x"}, {"y"}, {{"x+"}, {"y+"}, {"x-"}, {"y-"}}));
  // Hand-build a netlist where y's MHS never gets excited.
  netlist::Netlist nl("stall");
  const netlist::NetId x = nl.add_net("x");
  const netlist::NetId y = nl.add_net("y");
  const netlist::NetId yb = nl.add_net("y_b");
  const netlist::NetId c0 = nl.add_net("const0");
  const netlist::NetId c1 = nl.add_net("const1");
  nl.add_primary_input(x);
  nl.add_primary_input(c0);
  nl.add_primary_input(c1);
  nl.add_primary_output(y);
  nl.add_gate(netlist::Gate{.type = gatelib::GateType::kMhsFlipFlop,
                            .name = "y_mhs",
                            .inputs = {c0, c0, c1, c1},
                            .outputs = {y, yb}});
  sim::ConformanceOptions options = standard_options(9);
  options.runs = 1;
  const sim::ConformanceReport report = sim::check_conformance(g, nl, options);
  EXPECT_GT(report.deadlocks, 0);
}

TEST(ConformanceDetailTest, FundamentalModeEnvironmentIsAlsoClean) {
  // A circuit correct for an immediate environment is trivially correct
  // for a fundamental-mode one (a strict subset of behaviours).
  const sg::StateGraph g = bench_suite::build_benchmark("pmcm2");
  const core::SynthesisResult result = core::synthesize(g);
  sim::ConformanceOptions options = standard_options(21);
  options.fundamental_mode = true;
  const sim::ConformanceReport report = sim::check_conformance(g, result.circuit, options);
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_GT(report.external_transitions, 0);
}

TEST(ConformanceDetailTest, VcdTraceOfAClosedLoopRun) {
  const sg::StateGraph g = bench_suite::build_benchmark("chu172");
  const core::SynthesisResult result = core::synthesize(g);
  const sim::TracedRun traced = sim::record_vcd_trace(g, result.circuit, 5, 40);
  EXPECT_TRUE(traced.report.clean()) << traced.report.summary();
  EXPECT_EQ(traced.report.external_transitions, 40);
  EXPECT_NE(traced.vcd.find("$enddefinitions"), std::string::npos);
  // Every signal rail appears as a VCD variable.
  for (int x = 0; x < g.num_signals(); ++x)
    EXPECT_NE(traced.vcd.find(" " + g.signal(x).name + " $end"), std::string::npos);
  EXPECT_GT(traced.report.simulated_time, 0.0);
  EXPECT_GT(traced.report.time_per_transition(), 0.0);
}

/// record_vcd_trace runs the production TrialRunner; its waveform and
/// report must be the reference trial's, byte for byte.
class VcdTraceReferenceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(VcdTraceReferenceTest, RecordVcdTraceMatchesTheReferenceTrial) {
  const sg::StateGraph g = bench_suite::build_benchmark(GetParam());
  const core::SynthesisResult result = core::synthesize(g);
  const sim::TracedRun traced = sim::record_vcd_trace(g, result.circuit, 5, 40);

  sim::ClosedLoopConfig config;
  config.sim.seed = 5;
  config.sim.randomize_delays = true;
  config.max_transitions = 40;
  sim::VcdRecorder recorder(result.circuit);
  const sim::ConformanceReport want =
      sim::reference::run_closed_loop(g, result.circuit, config, &recorder);

  EXPECT_EQ(traced.vcd, recorder.write());
  EXPECT_EQ(traced.report.summary(), want.summary());
  EXPECT_EQ(traced.report.runs, want.runs);
  EXPECT_EQ(traced.report.external_transitions, want.external_transitions);
  EXPECT_EQ(traced.report.internal_toggles, want.internal_toggles);
  EXPECT_EQ(traced.report.absorbed_pulses, want.absorbed_pulses);
  EXPECT_EQ(traced.report.simulated_time, want.simulated_time);  // bit-exact
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, VcdTraceReferenceTest,
                         ::testing::Values("chu133", "converta"));

/// Seed sweep on one non-trivial benchmark: many delay samples, long runs.
class SeedSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SeedSweepTest, ReadWriteStaysCleanAcrossSeeds) {
  static const sg::StateGraph g = bench_suite::build_benchmark("read-write");
  static const core::SynthesisResult result = core::synthesize(g);
  sim::ConformanceOptions options;
  options.seed = static_cast<std::uint64_t>(GetParam()) * 7919;
  options.runs = 2;
  options.max_transitions = 200;
  const sim::ConformanceReport report = sim::check_conformance(g, result.circuit, options);
  EXPECT_TRUE(report.clean()) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace nshot
