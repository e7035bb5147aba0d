// The fault-injection and adversarial delay-stress subsystem, checked on
// the paper's own benchmarks: injected faults must surface as structured
// conformance violations (Theorem 1's ω filtering decides which glitches
// are absorbed), margins must be measurable, and a failing scenario must
// minimize to its load-bearing core.
#include <gtest/gtest.h>

#include "bench_suite/benchmarks.hpp"
#include "faults/adversarial.hpp"
#include "faults/fault_model.hpp"
#include "faults/margins.hpp"
#include "faults/minimize.hpp"
#include "faults/stress.hpp"
#include "nshot/synthesis.hpp"
#include "obs/obs.hpp"
#include "oracles/trial_reference.hpp"
#include "sim/conformance.hpp"
#include "sim/vcd.hpp"

namespace nshot {
namespace {

using faults::Fault;
using faults::FaultKind;
using faults::FaultScenario;
using faults::ScenarioOptions;

struct Synthesized {
  sg::StateGraph graph;
  netlist::Netlist circuit;
};

Synthesized synthesize(const std::string& name) {
  sg::StateGraph g = bench_suite::build_benchmark(name);
  core::SynthesisResult result = core::synthesize(g);
  return {std::move(g), std::move(result.circuit)};
}

/// First MHS flip-flop of the circuit (set, reset, enable_set,
/// enable_reset input nets; q output).
const netlist::Gate& first_mhs(const netlist::Netlist& circuit) {
  for (netlist::GateId g = 0; g < circuit.num_gates(); ++g)
    if (circuit.gate(g).type == gatelib::GateType::kMhsFlipFlop) return circuit.gate(g);
  throw Error("no MHS flip-flop in circuit");
}

/// Options that keep the environment quiet until well after the injection
/// window, so a glitch at small t meets a deterministic circuit state.  In
/// chu133 the outputs autonomously rise at t = 2.4 (they are excited in the
/// initial state) and the circuit is quiescent again by t = 3, so t = 5 is a
/// settled instant with q high; the tiny transition budget ends the run
/// before the delayed environment can blur the margin statistics.
ScenarioOptions quiet_env() {
  ScenarioOptions options;
  options.input_delay_min = 20.0;
  options.input_delay_max = 30.0;
  options.max_transitions = 3;
  return options;
}

bool has_kind(const sim::ConformanceReport& report, sim::ViolationKind kind) {
  for (const auto& v : report.violations)
    if (v.kind == kind) return true;
  return false;
}

TEST(FaultModelTest, StuckAtOnAcknowledgementRailDeadlocks) {
  // Pinning enable_set (the qb acknowledgement rail) low starves the MHS
  // flip-flop's effective set excitation: the circuit goes quiescent while
  // the spec still enables the output's rise — a detected deadlock.
  const Synthesized s = synthesize("chu133");
  FaultScenario scenario;
  scenario.faults.push_back(
      Fault{.kind = FaultKind::kStuckAt, .net = first_mhs(s.circuit).inputs[2], .value = false});
  const sim::ConformanceReport report =
      faults::reference::run_scenario(s.graph, s.circuit, scenario, ScenarioOptions{});
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_kind(report, sim::ViolationKind::kDeadlock)) << report.summary();
}

TEST(FaultModelTest, StuckAtOnPrimaryInputDeadlocks) {
  // A primary input pinned at its initial value can never hand the
  // environment's transition to the circuit; the closed loop must report
  // the stall instead of spinning or passing.
  const Synthesized s = synthesize("chu133");
  const auto net = s.circuit.find_net("a");
  ASSERT_TRUE(net.has_value());
  FaultScenario scenario;
  scenario.faults.push_back(Fault{.kind = FaultKind::kStuckAt, .net = *net, .value = false});
  const sim::ConformanceReport report =
      faults::reference::run_scenario(s.graph, s.circuit, scenario, ScenarioOptions{});
  EXPECT_FALSE(report.clean());
  EXPECT_TRUE(has_kind(report, sim::ViolationKind::kDeadlock)) << report.summary();
}

TEST(FaultModelTest, SubThresholdGlitchIsAbsorbedSuperThresholdFires) {
  // Theorem 1 at the boundary: once q is high a pulse of width ω − ε on
  // the reset SOP net is filtered by the MHS master stage (run stays
  // clean, absorption is counted); ω + ε fires the flip-flop in a state
  // where the spec does not enable c− — an external hazard.  (The set SOP
  // is unusable here: it is already high in the initial state.)
  const Synthesized s = synthesize("chu133");
  const double omega = gatelib::GateLibrary::standard().mhs_threshold();
  const netlist::NetId sop = first_mhs(s.circuit).inputs[1];

  FaultScenario absorbed;
  absorbed.faults.push_back(Fault{
      .kind = FaultKind::kGlitch, .net = sop, .value = true, .time = 5.0, .width = omega - 0.05});
  const sim::ConformanceReport clean_run =
      faults::reference::run_scenario(s.graph, s.circuit, absorbed, quiet_env());
  EXPECT_TRUE(clean_run.clean()) << clean_run.summary();
  EXPECT_GT(clean_run.absorbed_pulses, 0);

  FaultScenario fired;
  fired.faults.push_back(Fault{
      .kind = FaultKind::kGlitch, .net = sop, .value = true, .time = 5.0, .width = omega + 0.05});
  const sim::ConformanceReport hazard_run =
      faults::reference::run_scenario(s.graph, s.circuit, fired, quiet_env());
  EXPECT_FALSE(hazard_run.clean());
  EXPECT_TRUE(has_kind(hazard_run, sim::ViolationKind::kHazard)) << hazard_run.summary();
}

TEST(FaultModelTest, EventBudgetSurfacesAsStructuredViolation) {
  // A pathologically small budget converts the run into a kEventBudget
  // violation instead of an unbounded simulation.
  const Synthesized s = synthesize("chu133");
  ScenarioOptions options;
  options.max_events = 40;
  const sim::ConformanceReport report =
      faults::reference::run_scenario(s.graph, s.circuit, FaultScenario{}, options);
  EXPECT_TRUE(has_kind(report, sim::ViolationKind::kEventBudget)) << report.summary();
  EXPECT_GT(report.budget_exhausted, 0);
}

TEST(MarginTest, CleanRunsHavePositiveMargins) {
  const Synthesized s = synthesize("chu172");
  const faults::ProbedRun run =
      faults::reference::run_probed(s.graph, s.circuit, FaultScenario{}, ScenarioOptions{});
  EXPECT_TRUE(run.report.clean()) << run.report.summary();
  ASSERT_FALSE(run.omega.empty());
  ASSERT_FALSE(run.eq1.empty());
  long fired = 0;
  for (const faults::OmegaStats& stats : run.omega) fired += stats.fired;
  EXPECT_GT(fired, 0);  // every observable transition is a fired excitation
  for (const faults::Eq1Margin& m : run.eq1) EXPECT_GT(m.slack(), 0.0) << m.signal;
  EXPECT_GT(run.min_slack, 0.0);
}

TEST(MarginTest, ProbeSeesAbsorbedPulseWithItsSlack) {
  // Inject ω − ε: the probe must classify exactly that pulse as absorbed
  // with absorption slack ε.
  const Synthesized s = synthesize("chu133");
  const double omega = gatelib::GateLibrary::standard().mhs_threshold();
  FaultScenario scenario;
  scenario.faults.push_back(Fault{.kind = FaultKind::kGlitch,
                                  .net = first_mhs(s.circuit).inputs[1],
                                  .value = true,
                                  .time = 5.0,
                                  .width = omega - 0.05});
  const faults::ProbedRun run =
      faults::reference::run_probed(s.graph, s.circuit, scenario, quiet_env());
  long absorbed = 0;
  double min_absorb = faults::kNoMargin;
  for (const faults::OmegaStats& stats : run.omega) {
    absorbed += stats.absorbed;
    min_absorb = std::min(min_absorb, stats.min_absorb_slack);
  }
  EXPECT_GT(absorbed, 0);
  EXPECT_NEAR(min_absorb, 0.05, 1e-9);
}

TEST(MarginTest, DeepenedSetPathIsUnderCompensated) {
  // The synthesized benchmark satisfies Eq. 1 outright (no delay line
  // needed); adding set-SOP depth without compensation must flip the
  // corner-case requirement check.
  const Synthesized s = synthesize("converta");
  const gatelib::GateLibrary& lib = gatelib::GateLibrary::standard();
  for (const faults::Eq1Requirement& req : faults::eq1_requirements(s.circuit, lib))
    EXPECT_FALSE(req.under_compensated()) << req.signal;

  const std::string target = s.graph.signal(s.graph.noninput_signals().front()).name;
  const netlist::Netlist deepened = faults::deepen_set_path(s.circuit, target, 1);
  bool flagged = false;
  for (const faults::Eq1Requirement& req : faults::eq1_requirements(deepened, lib))
    if (req.signal == target) flagged = req.under_compensated();
  EXPECT_TRUE(flagged);
}

TEST(AdversarialTest, FindsTrespassUniformMonteCarloMisses) {
  // The acceptance demo in miniature: deepen converta's first output by
  // one buffer level (Eq. 1 then requires t_del > 0; none installed).
  // Uniform Monte Carlo over the library delay box stays clean while the
  // slack-guided search walks into the hazardous corner.
  const Synthesized s = synthesize("converta");
  const std::string target = s.graph.signal(s.graph.noninput_signals().front()).name;
  const netlist::Netlist uncomp =
      faults::strip_delay_compensation(faults::deepen_set_path(s.circuit, target, 1));

  faults::AdversarialOptions options;  // stress factor 1: plain library box
  const faults::MonteCarloResult mc =
      faults::stressed_monte_carlo(s.graph, uncomp, 20, options);
  EXPECT_EQ(mc.violating_runs, 0);

  const faults::AdversarialResult adv =
      faults::adversarial_delay_search(s.graph, uncomp, options);
  EXPECT_TRUE(adv.violation_found);
  EXPECT_LT(adv.best_slack, 0.0);
  ASSERT_FALSE(adv.report.violations.empty());
  EXPECT_EQ(adv.report.violations.front().kind, sim::ViolationKind::kHazard);
}

TEST(AdversarialTest, SkippedProposalsAreCounted) {
  // No-op corner snaps and revisited vectors are answered from the
  // restart's score memo: some proposals skip their trial, never all.
  const Synthesized s = synthesize("chu133");
  const obs::Session session("faults_test");
  const faults::AdversarialResult adv =
      faults::adversarial_delay_search(s.graph, s.circuit, faults::AdversarialOptions{});
  const long evaluations = session.counter_total(obs::Counter::kAdversarialEvaluations);
  const long skipped = session.counter_total(obs::Counter::kAdversarialSkipped);
  EXPECT_EQ(evaluations, adv.evaluations);
  EXPECT_GT(skipped, 0);
  EXPECT_LT(skipped, evaluations);
  EXPECT_FALSE(obs::counter_info(obs::Counter::kAdversarialSkipped).deterministic);
}

TEST(MinimizeTest, ShrinksMultiFaultFailureToSingleFaultWitness) {
  // Two injected faults, only one load-bearing: a benign sub-threshold
  // glitch plus the acknowledgement stuck-at that actually kills the run.
  // Delta debugging must drop the glitch and keep the stuck-at.
  const Synthesized s = synthesize("chu133");
  const netlist::Gate& mhs = first_mhs(s.circuit);
  FaultScenario scenario;
  scenario.faults.push_back(Fault{
      .kind = FaultKind::kGlitch, .net = mhs.inputs[0], .value = true, .time = 1.0, .width = 0.2});
  scenario.faults.push_back(
      Fault{.kind = FaultKind::kStuckAt, .net = mhs.inputs[2], .value = false});

  const faults::MinimizedWitness witness =
      faults::minimize_counterexample(s.graph, s.circuit, scenario);
  EXPECT_TRUE(witness.reproduced);
  EXPECT_EQ(witness.faults_removed, 1);
  ASSERT_EQ(witness.scenario.faults.size(), 1u);
  EXPECT_EQ(witness.scenario.faults[0].kind, FaultKind::kStuckAt);
  EXPECT_FALSE(witness.report.clean());
  EXPECT_NE(witness.vcd.find("$enddefinitions"), std::string::npos);

  const std::string json = faults::witness_json(witness, s.circuit);
  EXPECT_NE(json.find("\"stuck-at\""), std::string::npos);
  EXPECT_NE(json.find("\"reproduced\":true"), std::string::npos);
}

/// The minimizer replays on the production TrialRunner; its witness must
/// be exactly what the reference driver (a fresh compile and a fresh
/// Simulator stepped per event) produces for witness.scenario — same verdict, same report
/// fingerprint, same VCD bytes.
void expect_witness_matches_reference_replay(const Synthesized& s, const netlist::Netlist& circuit,
                                             const faults::MinimizedWitness& witness) {
  ASSERT_EQ(witness.scenario.delays.size(), static_cast<std::size_t>(circuit.num_gates()));
  sim::VcdRecorder recorder(circuit);
  const sim::ConformanceReport want = faults::reference::run_scenario(
      s.graph, circuit, witness.scenario, faults::MinimizeOptions{}.run, &recorder);
  const sim::ConformanceReport& got = witness.report;
  EXPECT_EQ(got.clean(), want.clean());
  EXPECT_EQ(got.runs, want.runs);
  EXPECT_EQ(got.external_transitions, want.external_transitions);
  EXPECT_EQ(got.internal_toggles, want.internal_toggles);
  EXPECT_EQ(got.absorbed_pulses, want.absorbed_pulses);
  EXPECT_EQ(got.simulated_time, want.simulated_time);  // exact: byte identity
  EXPECT_EQ(got.deadlocks, want.deadlocks);
  EXPECT_EQ(got.budget_exhausted, want.budget_exhausted);
  ASSERT_EQ(got.violations.size(), want.violations.size());
  for (std::size_t i = 0; i < want.violations.size(); ++i) {
    EXPECT_EQ(got.violations[i].seed, want.violations[i].seed);
    EXPECT_EQ(got.violations[i].time, want.violations[i].time);
    EXPECT_EQ(got.violations[i].kind, want.violations[i].kind);
    EXPECT_EQ(got.violations[i].description, want.violations[i].description);
  }
  EXPECT_EQ(witness.vcd, recorder.write());
}

TEST(MinimizeTest, StuckAtWitnessMatchesReferenceReplay) {
  const Synthesized s = synthesize("chu133");
  const netlist::Gate& mhs = first_mhs(s.circuit);
  FaultScenario scenario;
  scenario.faults.push_back(Fault{
      .kind = FaultKind::kGlitch, .net = mhs.inputs[0], .value = true, .time = 1.0, .width = 0.2});
  scenario.faults.push_back(
      Fault{.kind = FaultKind::kStuckAt, .net = mhs.inputs[2], .value = false});
  const faults::MinimizedWitness witness =
      faults::minimize_counterexample(s.graph, s.circuit, scenario);
  ASSERT_TRUE(witness.reproduced);
  expect_witness_matches_reference_replay(s, s.circuit, witness);
}

TEST(MinimizeTest, UncompensatedStressWitnessMatchesReferenceReplay) {
  // The --stress-uncomp flow on converta: one extra set level on the
  // first output, no compensating delay line, adversarial search, then
  // minimization of the violating delay vector.
  const Synthesized s = synthesize("converta");
  const std::string target = s.graph.signal(s.graph.noninput_signals().front()).name;
  const netlist::Netlist uncomp =
      faults::strip_delay_compensation(faults::deepen_set_path(s.circuit, target, 1));
  const faults::AdversarialResult adv =
      faults::adversarial_delay_search(s.graph, uncomp, faults::AdversarialOptions{});
  ASSERT_TRUE(adv.violation_found);
  FaultScenario scenario;
  scenario.seed = adv.env_seed;
  scenario.delays = adv.delays;
  const faults::MinimizedWitness witness =
      faults::minimize_counterexample(s.graph, uncomp, scenario);
  ASSERT_TRUE(witness.reproduced);
  EXPECT_GT(witness.delays_reset, 0);
  expect_witness_matches_reference_replay(s, uncomp, witness);
}

TEST(MinimizeTest, PassingScenarioIsReportedNotMinimized) {
  const Synthesized s = synthesize("chu172");
  const faults::MinimizedWitness witness =
      faults::minimize_counterexample(s.graph, s.circuit, FaultScenario{});
  EXPECT_FALSE(witness.reproduced);
  EXPECT_TRUE(witness.report.clean());
  EXPECT_EQ(witness.faults_removed, 0);
}

TEST(StressTest, ReportCoversEverySignalAndSerializes) {
  const Synthesized s = synthesize("chu172");
  faults::StressOptions options;
  options.margin_runs = 2;
  options.run.max_transitions = 60;
  options.adversarial.restarts = 0;  // battery + margins only
  const faults::StressReport report =
      faults::run_stress(s.graph, s.circuit, "chu172", options);

  EXPECT_TRUE(report.baseline_clean);
  EXPECT_EQ(report.signals.size(), s.graph.noninput_signals().size());
  EXPECT_FALSE(report.outcomes.empty());
  EXPECT_GT(report.min_eq1_slack, 0.0);
  int detected = 0;
  for (const faults::FaultOutcome& outcome : report.outcomes)
    if (!outcome.survived) ++detected;
  EXPECT_GT(detected, 0);  // stuck-at enables etc. must be caught

  const std::string json = faults::stress_report_json(report);
  EXPECT_NE(json.find("\"benchmark\":\"chu172\""), std::string::npos);
  EXPECT_NE(json.find("\"signals\":["), std::string::npos);
  EXPECT_NE(json.find("\"min_eq1_slack\""), std::string::npos);
  EXPECT_EQ(json.find("\"adversarial\":{"), std::string::npos);  // skipped -> null
}

}  // namespace
}  // namespace nshot
