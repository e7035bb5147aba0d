// Kernel equivalence tests: every compiled / sorted-vector / bit-plane hot
// path introduced by the kernel layer must be byte-identical to the
// original reference implementation it replaced.  The references are the
// test-only oracles linked from tests/oracles (the reference closed-loop
// trial, sim::reference::run_closed_loop and check_conformance, with the
// probed and scenario wrappers over it in faults::reference;
// stg::reference reachability; sg::reference regions, CSC, USC, the CSC
// conflict count and detonant states; logic::reference::verify_cover and
// generate_primes; core::reference::enforce_trigger_requirement), so the
// comparison runs over randomly generated controllers and the Table 2
// suite in one binary.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generators.hpp"
#include "csc/csc_solver.hpp"
#include "faults/stress.hpp"
#include "logic/exact.hpp"
#include "logic/verify.hpp"
#include "nshot/synthesis.hpp"
#include "nshot/trigger.hpp"
#include "oracles/espresso_reference.hpp"
#include "oracles/reachability_reference.hpp"
#include "oracles/sg_reference.hpp"
#include "oracles/trial_reference.hpp"
#include "oracles/trigger_reference.hpp"
#include "sg/properties.hpp"
#include "sg/regions.hpp"
#include "sim/conformance.hpp"
#include "sim/trial_runner.hpp"
#include "stg/g_format.hpp"
#include "stg/reachability.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nshot {
namespace {

/// Random staged-cycle controller (same generator family as
/// parallel_determinism_test.cpp).
std::string random_staged_cycle(Rng& rng, int index) {
  const int num_signals = 3 + static_cast<int>(rng.next_below(6));
  std::vector<std::string> names, inputs, outputs;
  for (int i = 0; i < num_signals; ++i) {
    const std::string name = "x" + std::to_string(i);
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
  return bench_suite::staged_cycle_g("keq" + std::to_string(index), inputs, outputs, stages);
}

std::string random_g_text(int seed) {
  Rng rng(static_cast<std::uint64_t>(seed) * 0x9E3779B9ULL + 17);
  return random_staged_cycle(rng, seed);
}

struct Generated {
  sg::StateGraph graph;
  core::SynthesisResult result;
};

/// Number of KernelEquivalenceTest parameters (seeds 1..kSeeds).
constexpr int kSeeds = 12;

std::optional<Generated> draw(int seed) {
  sg::StateGraph graph = bench_suite::build_g(random_g_text(seed));
  if (graph.noninput_signals().empty()) return std::nullopt;
  try {
    core::SynthesisResult result = core::synthesize(graph);
    return Generated{std::move(graph), std::move(result)};
  } catch (const Error&) {
    return std::nullopt;  // draw is not implementable (e.g. CSC conflict)
  }
}

/// The controller of parameter `param`: the first implementable draw over
/// the seeds param, param + kSeeds, param + 2 kSeeds, ... — never a seed of
/// another parameter, so every parameter tests a distinct circuit.
Generated generate(int param) {
  for (int attempt = 0; attempt < 64; ++attempt)
    if (std::optional<Generated> gen = draw(param + attempt * kSeeds)) return std::move(*gen);
  throw std::runtime_error("no implementable draw for parameter " + std::to_string(param));
}

std::string conformance_fingerprint(const sim::ConformanceReport& r) {
  std::string out = std::to_string(r.runs) + "/" + std::to_string(r.external_transitions) + "/" +
                    std::to_string(r.internal_toggles) + "/" + std::to_string(r.absorbed_pulses) +
                    "/" + std::to_string(r.simulated_time) + "/" + std::to_string(r.deadlocks) +
                    "/" + std::to_string(r.budget_exhausted);
  for (const sim::ConformanceViolation& v : r.violations)
    out += "|" + std::to_string(v.seed) + "@" + std::to_string(v.time) + ":" + v.description;
  return out;
}

/// Full structural fingerprint of a state graph: states with codes and
/// names, every edge, the initial state, signal table.
std::string sg_fingerprint(const sg::StateGraph& g) {
  std::string out = "init=" + std::to_string(g.initial()) + ";";
  for (int i = 0; i < g.num_signals(); ++i)
    out += g.signal(i).name + (g.is_input(i) ? "?" : "!") + ",";
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    out += "\n" + std::to_string(s) + ":" + g.state_name(s) + "=" + std::to_string(g.code(s));
    for (const sg::Edge& e : g.out_edges(s))
      out += " --" + g.label_name(e.label) + "--> " + std::to_string(e.target);
  }
  return out;
}

class KernelEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelEquivalenceTest, ConformanceCompiledMatchesReference) {
  // The chunked TrialRunner sweep must report what the reference trials
  // over the same run_seed configs report, merged in trial order.
  const Generated gen = generate(GetParam());

  sim::ConformanceOptions options;
  options.seed = static_cast<std::uint64_t>(GetParam()) * 13 + 7;
  options.runs = 10;
  options.max_transitions = 60;

  const sim::ConformanceReport compiled =
      sim::check_conformance(gen.graph, gen.result.circuit, options);
  const sim::ConformanceReport reference =
      sim::reference::check_conformance(gen.graph, gen.result.circuit, options);

  EXPECT_EQ(conformance_fingerprint(compiled), conformance_fingerprint(reference));
  EXPECT_EQ(compiled.simulated_time, reference.simulated_time);  // bit-exact
}

TEST_P(KernelEquivalenceTest, SimulatorReuseMatchesFreshConstruction) {
  // One TrialRunner reused across runs must reproduce what a fresh
  // reference Simulator produces for each run — the runner's reset() and
  // settle cache have to be equivalent to reconstruction.
  const Generated gen = generate(GetParam());

  const sim::CompiledNetlist compiled(gen.result.circuit, gatelib::GateLibrary::standard());
  const sim::SpecBinding binding(gen.graph, gen.result.circuit);
  sim::TrialRunner reuse(compiled);

  for (int r = 0; r < 4; ++r) {
    sim::ClosedLoopConfig config;
    config.sim.seed = run_seed(static_cast<std::uint64_t>(GetParam()) * 13 + 7, r);
    config.sim.randomize_delays = true;
    config.max_transitions = 60;
    const sim::ConformanceReport fresh =
        sim::reference::run_closed_loop(gen.graph, gen.result.circuit, config);
    const sim::ConformanceReport reused =
        reuse.run(gen.graph, binding, config);
    EXPECT_EQ(conformance_fingerprint(fresh), conformance_fingerprint(reused)) << "run " << r;
  }
}

TEST_P(KernelEquivalenceTest, StressJsonCompiledMatchesReference) {
  // The campaign runs its margin and battery trials on TrialRunner.
  // Rebuild those fields from the reference trial — faults::reference's
  // run_probed and run_scenario — and the rendered report must not
  // change.
  const Generated gen = generate(GetParam());
  const sg::StateGraph& spec = gen.graph;
  const netlist::Netlist& circuit = gen.result.circuit;

  faults::StressOptions options;
  options.seed = static_cast<std::uint64_t>(GetParam()) * 5 + 3;
  options.margin_runs = 3;
  options.run.max_transitions = 60;
  options.adversarial.restarts = 0;
  const faults::StressReport compiled = faults::run_stress(spec, circuit, "keq", options);

  faults::StressReport reference = compiled;
  reference.baseline_clean = true;
  reference.min_omega_slack = reference.min_eq1_slack = faults::kNoMargin;
  for (faults::SignalMargins& margins : reference.signals) margins = {margins.signal};
  for (int r = 0; r < options.margin_runs; ++r) {
    faults::FaultScenario scenario;
    scenario.seed = run_seed(options.seed, r);
    const faults::ProbedRun run =
        faults::reference::run_probed(spec, circuit, scenario, options.run);
    ASSERT_EQ(run.omega.size(), reference.signals.size());
    if (!run.report.clean()) reference.baseline_clean = false;
    for (std::size_t k = 0; k < run.omega.size(); ++k) {
      reference.signals[k].omega.merge(run.omega[k]);
      if (k < run.eq1.size())
        reference.signals[k].min_eq1_slack =
            std::min(reference.signals[k].min_eq1_slack, run.eq1[k].slack());
    }
  }
  for (const faults::SignalMargins& margins : reference.signals) {
    reference.min_omega_slack = std::min(reference.min_omega_slack, margins.omega.min_slack());
    reference.min_eq1_slack = std::min(reference.min_eq1_slack, margins.min_eq1_slack);
  }
  for (faults::FaultOutcome& outcome : reference.outcomes) {
    faults::FaultScenario scenario;
    scenario.seed = options.seed;
    scenario.faults.push_back(outcome.fault);
    const sim::ConformanceReport run =
        faults::reference::run_scenario(spec, circuit, scenario, options.run);
    outcome.survived = run.clean();
    outcome.violation = run.violations.empty()
                            ? ""
                            : std::string(sim::violation_kind_name(run.violations.front().kind)) +
                                  ": " + run.violations.front().description;
    for (faults::SignalMargins& margins : reference.signals)
      if (margins.signal == outcome.signal)
        (outcome.survived ? margins.faults_survived : margins.faults_failed) += 1;
  }

  EXPECT_FALSE(compiled.outcomes.empty());
  EXPECT_EQ(faults::stress_report_json(reference), faults::stress_report_json(compiled));
}

TEST_P(KernelEquivalenceTest, ExactMinimizeMatchesReferenceSets) {
  // generate_primes expands from the on-minterms through ordered key
  // sets; the oracle enumerates every input cube.  The exact cover must
  // be a valid cover built from those primes.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 29 + 11);
  const int num_inputs = 3 + static_cast<int>(rng.next_below(5));
  const int num_outputs = 1 + static_cast<int>(rng.next_below(3));
  logic::TwoLevelSpec spec(num_inputs, num_outputs);
  const std::uint64_t space = 1ULL << num_inputs;
  for (int o = 0; o < num_outputs; ++o) {
    for (std::uint64_t m = 0; m < space; ++m) {
      const double roll = rng.next_double(0.0, 1.0);
      if (roll < 0.35)
        spec.add_on(o, m);
      else if (roll < 0.75)
        spec.add_off(o, m);
    }
  }
  spec.normalize();

  std::set<std::string> all_primes;
  for (int o = 0; o < num_outputs; ++o) {
    const std::vector<logic::Cube> reference = logic::reference::generate_primes(spec, o);
    const std::optional<std::vector<logic::Cube>> primes = logic::generate_primes(spec, o);
    ASSERT_TRUE(primes.has_value()) << "output " << o;
    ASSERT_EQ(reference.size(), primes->size()) << "output " << o;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference[i].to_string(), (*primes)[i].to_string()) << "output " << o << " " << i;
      all_primes.insert(reference[i].to_string());
    }
  }

  const logic::Cover cover = logic::exact_minimize(spec);
  EXPECT_TRUE(logic::reference::verify_cover(spec, cover).ok);
  for (const logic::Cube& cube : cover) {
    logic::Cube single = cube;
    for (int o = 0; o < num_outputs; ++o) {
      if (!cube.has_output(o)) continue;
      single.set_outputs(1ULL << o);
      EXPECT_TRUE(all_primes.count(single.to_string())) << cube.to_string();
    }
  }
}

/// The flat-arena sweep against the ordered-map oracle: the whole graph
/// (ids, edge order, codes) and the inferred initial values.
void expect_reachability_matches_reference(const std::string& g_text) {
  const stg::Stg net = stg::parse_g(g_text);
  EXPECT_EQ(sg_fingerprint(stg::reference::build_state_graph(net)),
            sg_fingerprint(stg::build_state_graph(net)));
  EXPECT_EQ(stg::reference::infer_initial_values(net), stg::infer_initial_values(net));
}

TEST_P(KernelEquivalenceTest, ReachabilityMatchesReferenceMaps) {
  expect_reachability_matches_reference(random_g_text(GetParam()));
}

TEST(KernelEquivalenceFixedTest, ReachabilityWithDummiesMatchesReferenceMaps) {
  // Dummy saturation walks its own marking table; exercise it explicitly.
  expect_reachability_matches_reference(
      ".model dum\n.inputs a\n.outputs b\n.dummy d\n.graph\n"
      "a+ d\nd b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n");
}

TEST(KernelEquivalenceFixedTest, ReachabilityMultiWordRingMatchesReferenceMaps) {
  // 40 signals in one sequential ring: 80 places and 80 transitions, so
  // both the marking and the candidate masks span two words.
  std::vector<std::string> inputs, outputs;
  std::vector<std::vector<std::string>> stages;
  for (int i = 0; i < 40; ++i) {
    const std::string name = "x" + std::to_string(i);
    (i % 2 == 0 ? inputs : outputs).push_back(name);
    stages.push_back({name + "+"});
  }
  for (int i = 0; i < 40; ++i) stages.push_back({"x" + std::to_string(i) + "-"});
  const std::string g_text = bench_suite::staged_cycle_g("ring40", inputs, outputs, stages);
  const stg::Stg net = stg::parse_g(g_text);
  ASSERT_EQ(net.num_places(), 80);
  ASSERT_EQ(net.num_transitions(), 80);
  EXPECT_EQ(stg::build_state_graph(net).num_states(), 80);
  expect_reachability_matches_reference(g_text);
}

TEST(KernelEquivalenceFixedTest, ReachabilityTable2ChainsMatchReferenceMaps) {
  // The two largest Table 2 reachability graphs, from the same
  // parallel_chains_g texts as the benchmark suite.
  std::vector<std::vector<std::string>> brk_chains;
  std::vector<std::string> brk_inputs, brk_outputs;
  for (int i = 1; i <= 11; ++i) {
    const std::string b = "b" + std::to_string(i);
    brk_chains.push_back({b});
    (i <= 5 ? brk_inputs : brk_outputs).push_back(b);
  }
  expect_reachability_matches_reference(bench_suite::parallel_chains_g(
      "tsbmsiBRK", "m", true, brk_chains, brk_inputs, brk_outputs));
  expect_reachability_matches_reference(bench_suite::parallel_chains_g(
      "master-read", "m", true,
      {{"r1", "p1", "q1"}, {"r2", "p2", "q2"}, {"r3", "p3", "q3"}, {"r4", "p4", "q4"},
       {"r5", "p5", "q5"}},
      {"r1", "r2", "r3", "r4", "r5"},
      {"p1", "q1", "p2", "q2", "p3", "q3", "p4", "q4", "p5", "q5"}));
}

/// Both production entry points against the ordered-container oracle:
/// compute_regions per signal, and entry k of compute_all_regions (the
/// shared-plane sweep synthesis calls) for the k-th non-input signal.
void expect_regions_match_reference(const sg::StateGraph& g, const std::string& what) {
  const std::vector<sg::SignalId> noninput = g.noninput_signals();
  const std::vector<sg::SignalRegions> all = sg::compute_all_regions(g);
  ASSERT_EQ(all.size(), noninput.size()) << what;
  for (std::size_t k = 0; k < noninput.size(); ++k) {
    const sg::SignalId a = noninput[k];
    const std::string reference = sg::reference::compute_regions(g, a).to_string(g);
    EXPECT_EQ(reference, sg::compute_regions(g, a).to_string(g)) << what << " signal " << a;
    EXPECT_EQ(reference, all[k].to_string(g)) << what << " compute_all_regions signal " << a;
  }
}

TEST_P(KernelEquivalenceTest, RegionsMatchReference) {
  const Generated gen = generate(GetParam());
  expect_regions_match_reference(gen.graph, "param " + std::to_string(GetParam()));

  for (const sg::SignalId a : gen.graph.noninput_signals()) {
    for (const sg::ExcitationRegion& er : sg::compute_regions(gen.graph, a).regions) {
      EXPECT_TRUE(sg::verify_output_trapping(gen.graph, er));
      EXPECT_TRUE(sg::verify_trigger_reachability(gen.graph, er));
    }
  }
}

TEST(KernelEquivalenceFixedTest, RegionsTable2MatchReference) {
  // The real circuits carry the shapes random staged cycles rarely draw:
  // multi-state trigger regions, several ERs per polarity, QRs reached
  // through input choices.
  for (const bench_suite::BenchmarkInfo& info : bench_suite::all_benchmarks())
    expect_regions_match_reference(info.build(), info.name);
}

/// check_csc / check_usc / count_csc_conflicts (and the CSC solver's
/// counter) against the ordered-container oracles.
void expect_coding_matches_reference(const sg::StateGraph& g, const std::string& what) {
  const sg::PropertyReport csc = sg::reference::check_csc(g);
  EXPECT_EQ(sg::reference::check_usc(g).violations, sg::check_usc(g).violations) << what;
  EXPECT_EQ(csc.violations, sg::check_csc(g).violations) << what;
  EXPECT_EQ(csc.violations.size(), sg::reference::count_csc_conflicts(g)) << what;
  EXPECT_EQ(csc.violations.size(), sg::count_csc_conflicts(g)) << what;
  EXPECT_EQ(static_cast<int>(csc.violations.size()), csc::csc_conflict_count(g)) << what;
}

TEST_P(KernelEquivalenceTest, CodingChecksMatchOrderedReference) {
  // check_csc / check_usc / detonant_states run over sorted vectors and
  // excitation bit planes; compare against the ordered-container oracles.
  const Generated gen = generate(GetParam());
  const sg::StateGraph& g = gen.graph;

  expect_coding_matches_reference(g, "param " + std::to_string(GetParam()));
  for (const sg::SignalId a : g.noninput_signals())
    EXPECT_EQ(sg::reference::detonant_states(g, a), sg::detonant_states(g, a)) << "signal " << a;
}

TEST(KernelEquivalenceFixedTest, CodingChecksMatchOrderedReferenceOnCscConflicts) {
  // Implementable draws satisfy CSC, so their violation lists are empty.
  // Raw staged-cycle draws that fail CSC exercise the report order of
  // real conflicts (and their USC collisions) against the oracle.
  int conflicting = 0;
  for (int seed = 1; seed <= 768; ++seed) {
    const sg::StateGraph g = bench_suite::build_g(random_g_text(seed));
    if (g.noninput_signals().empty() || sg::check_csc(g).ok()) continue;
    ++conflicting;
    expect_coding_matches_reference(g, "seed " + std::to_string(seed));
  }
  RecordProperty("conflicting_draws", conflicting);
  EXPECT_GT(conflicting, 0);
}

TEST(KernelEquivalenceFixedTest, DistributivityAndUscMatchOrderedReferenceOnTable2) {
  // The nondistributive half of Table 2 has detonant states, and
  // read-write satisfies CSC but not USC: real findings for the
  // Definition-3 scan and the USC report order.
  int graphs = 0;
  for (const bench_suite::BenchmarkInfo& info : bench_suite::all_benchmarks()) {
    if (!info.nondistributive && info.name != "read-write") continue;
    ++graphs;
    const sg::StateGraph g = info.build();
    const std::vector<sg::SignalId> noninput = g.noninput_signals();
    const std::vector<std::vector<sg::StateId>> all = sg::all_detonant_states(g);
    ASSERT_EQ(all.size(), noninput.size()) << info.name;
    std::size_t detonant = 0;
    for (std::size_t k = 0; k < noninput.size(); ++k) {
      const std::vector<sg::StateId> reference = sg::reference::detonant_states(g, noninput[k]);
      EXPECT_EQ(reference, sg::detonant_states(g, noninput[k])) << info.name << " " << k;
      EXPECT_EQ(reference, all[k]) << info.name << " all_detonant_states " << k;
      detonant += reference.size();
    }
    const std::vector<std::string> usc = sg::reference::check_usc(g).violations;
    EXPECT_EQ(usc, sg::check_usc(g).violations) << info.name;
    if (info.nondistributive)
      EXPECT_GT(detonant, 0u) << info.name;
    else
      EXPECT_FALSE(usc.empty()) << info.name;
  }
  EXPECT_EQ(graphs, 7);
}

TEST_P(KernelEquivalenceTest, TriggerEnforcementMatchesReferenceMembership) {
  // Trigger-cube membership was rewritten from a cube x codes minterm scan
  // to one supercube-containment test per cube; the repair decisions and
  // the resulting cover must be identical.  Thin the cover cube by cube so
  // the not-covered repair path runs too.
  const Generated gen = generate(GetParam());
  const std::vector<sg::SignalRegions> regions = sg::compute_all_regions(gen.graph);

  auto report_fingerprint = [&](const core::TriggerReport& r) {
    std::string out = std::to_string(r.cubes_added);
    for (const core::TriggerIssue& issue : r.issues) out += "|" + issue.describe(gen.graph);
    return out;
  };

  const std::size_t cover_size = gen.result.cover.size();
  for (std::size_t drop = 0; drop <= cover_size; ++drop) {
    logic::Cover thinned = gen.result.cover;
    if (drop < cover_size) thinned.erase(drop);

    logic::Cover reference_cover = thinned;
    logic::Cover fast_cover = thinned;
    const core::TriggerReport reference = core::reference::enforce_trigger_requirement(
        gen.graph, regions, gen.result.derived, reference_cover);
    const core::TriggerReport fast =
        core::enforce_trigger_requirement(gen.graph, regions, gen.result.derived, fast_cover);

    EXPECT_EQ(report_fingerprint(reference), report_fingerprint(fast)) << "drop " << drop;
    EXPECT_EQ(reference_cover.to_string(), fast_cover.to_string()) << "drop " << drop;
  }
}

TEST_P(KernelEquivalenceTest, VerifyCoverMatchesReference) {
  // verify_cover was rewritten bit-sliced over code planes; both the ok
  // verdict and the first-violation diagnostic must match the
  // minterm-at-a-time oracle, including on deliberately broken covers.
  const Generated gen = generate(GetParam());
  const logic::TwoLevelSpec& spec = gen.result.derived.spec;

  auto compare = [&spec](const logic::Cover& cover, const std::string& what) {
    const logic::VerifyResult reference = logic::reference::verify_cover(spec, cover);
    const logic::VerifyResult fast = logic::verify_cover(spec, cover);
    EXPECT_EQ(reference.ok, fast.ok) << what;
    EXPECT_EQ(reference.message, fast.message) << what;
  };

  compare(gen.result.cover, "intact cover");
  for (std::size_t drop = 0; drop < gen.result.cover.size(); ++drop) {
    logic::Cover broken = gen.result.cover;
    broken.erase(drop);
    compare(broken, "cover without cube " + std::to_string(drop));
  }
  // A universal cube on every output trips the off-set check.
  logic::Cover greedy = gen.result.cover;
  greedy.add(logic::Cube::full(spec.num_inputs(),
                               (spec.num_outputs() >= 64)
                                   ? ~0ULL
                                   : ((1ULL << spec.num_outputs()) - 1)));
  compare(greedy, "cover with a universal cube");
}

TEST_P(KernelEquivalenceTest, CscSolverMatchesReferenceKernels) {
  // The solver counts conflicts count-only; the ordered-container oracle
  // must agree on the draw, on every insertion candidate the solver
  // scores (a single toggle spliced behind each pair of distinct
  // transitions) and on the graph it returns.
  const stg::Stg net = stg::parse_g(random_g_text(GetParam()));
  const sg::StateGraph graph = stg::build_state_graph(net);
  if (!sg::check_consistency(graph).ok() || !sg::check_semi_modular(graph).ok())
    GTEST_SKIP() << "draw is not a consistent semi-modular specification";

  auto expect_count = [](const sg::StateGraph& g, const std::string& what) {
    EXPECT_EQ(static_cast<int>(sg::reference::count_csc_conflicts(g)), csc::csc_conflict_count(g))
        << what;
  };
  expect_count(graph, "draw");
  for (stg::TransitionId plus = 0; plus < net.num_transitions(); ++plus)
    for (stg::TransitionId minus = 0; minus < net.num_transitions(); ++minus) {
      if (plus == minus) continue;
      std::optional<sg::StateGraph> candidate;
      try {
        candidate = stg::build_state_graph(csc::insert_toggle(net, plus, minus, "z"));
      } catch (const Error&) {
        continue;  // an insertion the solver would discard as unsafe
      }
      expect_count(*candidate, "toggle " + std::to_string(plus) + "/" + std::to_string(minus));
    }

  csc::CscSolveOptions options;
  options.max_signals = 2;
  if (const std::optional<csc::CscSolveResult> solved = csc::solve_csc(net, options)) {
    expect_count(solved->graph, "solved");
    EXPECT_EQ(sg::reference::count_csc_conflicts(solved->graph), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalenceTest, ::testing::Range(1, kSeeds + 1));

}  // namespace
}  // namespace nshot
