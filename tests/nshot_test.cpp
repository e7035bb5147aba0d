// Tests for the N-SHOT synthesis flow: Table 1 spec derivation, trigger
// requirement (Theorem 1), delay requirement (Eq. 1), architecture mapping
// (Figure 3) and flip-flop initialization (Section IV-F).
#include <gtest/gtest.h>

#include <cmath>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generators.hpp"
#include "gatelib/gate_library.hpp"
#include "logic/verify.hpp"
#include "nshot/hazard_analysis.hpp"
#include "nshot/synthesis.hpp"
#include "oracles/trigger_reference.hpp"
#include "sg/regions.hpp"

namespace nshot::core {
namespace {

using gatelib::GateLibrary;
using gatelib::GateType;

// ------------------------------------------------- Table 1 / derivation --

TEST(SpecDerivationTest, ClassifyMatchesTable1OnOrCell) {
  const sg::StateGraph cell = bench_suite::or_causality_cell("cell", "");
  const sg::SignalId c = *cell.find_signal("c");
  int set_states = 0, reset_states = 0, qh = 0, ql = 0;
  for (sg::StateId s = 0; s < cell.num_states(); ++s) {
    switch (classify_state(cell, s, c)) {
      case Mode::kSet: ++set_states; break;
      case Mode::kReset: ++reset_states; break;
      case Mode::kQuiescentHigh: ++qh; break;
      case Mode::kQuiescentLow: ++ql; break;
    }
  }
  EXPECT_EQ(set_states, 3);    // ER(+c)
  EXPECT_EQ(reset_states, 3);  // ER(-c)
  EXPECT_EQ(qh, 4);            // QR(+c): c=1 stable
  EXPECT_EQ(ql, 4);            // QR(-c): c=0 stable
}

TEST(SpecDerivationTest, SetAndResetSpecFollowTable1) {
  const sg::StateGraph cell = bench_suite::or_causality_cell("cell", "");
  const DerivedSpec derived = derive_spec(cell);
  ASSERT_EQ(derived.outputs.size(), 1u);  // only c is non-input
  const OutputIndex& index = derived.outputs[0];

  // Per Table 1: |F_set| = |ER(+c)| = 3, |R_set| = |ER(-c) u QR(-c)| = 7.
  EXPECT_EQ(derived.spec.on(index.set_output).size(), 3u);
  EXPECT_EQ(derived.spec.off(index.set_output).size(), 7u);
  EXPECT_EQ(derived.spec.on(index.reset_output).size(), 3u);
  EXPECT_EQ(derived.spec.off(index.reset_output).size(), 7u);
}

TEST(SpecDerivationTest, SharedCodesStayConsistentUnderCsc) {
  // read-write core: two states share a code; the derived spec must not
  // put that code in both F and R (CSC guarantees it).
  const sg::StateGraph g = bench_suite::build_read_write_core();
  EXPECT_NO_THROW(derive_spec(g));
}

TEST(SpecDerivationTest, ModeNamesAreStable) {
  EXPECT_STREQ(mode_name(Mode::kSet), "+a (set)");
  EXPECT_STREQ(mode_name(Mode::kQuiescentLow), "a=0 (quiescent)");
}

// ---------------------------------------------------- trigger (Thm. 1) --

TEST(TriggerTest, HasTriggerCubeDetectsCoverage) {
  logic::Cover cover(2, 1);
  logic::Cube cube = logic::Cube::minterm(0b01, 2, 1);
  cube.raise_var(1);
  cover.add(cube);  // covers {01, 11}
  EXPECT_TRUE(reference::has_trigger_cube(cover, 0, {0b01, 0b11}));
  EXPECT_FALSE(reference::has_trigger_cube(cover, 0, {0b01, 0b00}));
}

TEST(TriggerTest, SingleTraversalNeedsNoRepair) {
  const sg::StateGraph g = bench_suite::build_benchmark("chu172");
  const SynthesisResult result = synthesize(g);
  EXPECT_TRUE(result.single_traversal);
  EXPECT_EQ(result.trigger.cubes_added, 0);
}

TEST(TriggerTest, NonSingleTraversalIsRepairedWithTriggerCubes) {
  // The sing2dual products have multi-state trigger regions (a cyclic peer
  // runs inside the excitation regions); every one must end up covered by
  // a single cube.
  const sg::StateGraph g = bench_suite::build_benchmark("sing2dual-inp");
  const SynthesisResult result = synthesize(g);
  EXPECT_FALSE(result.single_traversal);
  EXPECT_TRUE(result.trigger.satisfied());
  // Re-check explicitly: every trigger region of every signal has a cube.
  const DerivedSpec derived = derive_spec(g);
  for (const sg::SignalRegions& regions : sg::compute_all_regions(g)) {
    const OutputIndex& index = derived.for_signal(regions.signal);
    for (const sg::ExcitationRegion& er : regions.regions) {
      for (const auto& tr : er.trigger_regions) {
        std::vector<std::uint64_t> codes;
        for (const sg::StateId s : tr) codes.push_back(g.code(s));
        EXPECT_TRUE(reference::has_trigger_cube(
            result.cover, er.rising ? index.set_output : index.reset_output, codes));
      }
    }
  }
}

TEST(TriggerTest, RepairAddsSupercubesToFragmentedCover) {
  // Start from a deliberately fragmented cover (one minterm cube per
  // on-pair): the multi-state trigger regions of the product benchmark are
  // split across cubes, so enforcement must add their supercubes.
  const sg::StateGraph g = bench_suite::build_benchmark("sing2dual-inp");
  const DerivedSpec derived = derive_spec(g);
  logic::Cover cover(derived.spec.num_inputs(), derived.spec.num_outputs());
  for (int o = 0; o < derived.spec.num_outputs(); ++o)
    for (const std::uint64_t code : derived.spec.on(o))
      cover.add(logic::Cube::minterm(code, derived.spec.num_inputs(), 1ULL << o));

  const auto regions = sg::compute_all_regions(g);
  const TriggerReport report = enforce_trigger_requirement(g, regions, derived, cover);
  EXPECT_GT(report.cubes_added, 0);
  EXPECT_TRUE(report.satisfied());
  EXPECT_TRUE(logic::verify_cover(derived.spec, cover).ok);
}

TEST(TriggerTest, UnrepairableRegionIsReportedNotPatched) {
  // Unit-level check of the Theorem 1 "only if" branch: if the supercube
  // of a trigger region intersects the off-set, no trigger cube exists and
  // the enforcement must report the region as unrepairable.
  const sg::StateGraph g = bench_suite::build_benchmark("sing2dual-inp");
  DerivedSpec derived = derive_spec(g);

  // Find a multi-state trigger region and poison the spec with an off
  // minterm strictly inside its supercube.
  const auto regions = sg::compute_all_regions(g);
  for (const auto& signal_regions : regions) {
    const OutputIndex& index = derived.for_signal(signal_regions.signal);
    for (const auto& er : signal_regions.regions) {
      for (const auto& tr : er.trigger_regions) {
        if (tr.size() < 2) continue;
        logic::Cube supercube = logic::Cube::minterm(g.code(tr[0]), g.num_signals(), 0);
        for (const sg::StateId s : tr)
          supercube = supercube.supercube(logic::Cube::minterm(g.code(s), g.num_signals(), 0));
        // A code inside the supercube but not one of the region's codes.
        for (std::uint64_t probe = 0; probe < (1ULL << g.num_signals()); ++probe) {
          if (!supercube.covers_minterm(probe)) continue;
          bool is_member = false;
          for (const sg::StateId s : tr) is_member = is_member || g.code(s) == probe;
          if (is_member) continue;
          const int output = er.rising ? index.set_output : index.reset_output;
          derived.spec.add_off(output, probe);
          derived.spec.normalize();
          logic::Cover empty(derived.spec.num_inputs(), derived.spec.num_outputs());
          const TriggerReport report =
              enforce_trigger_requirement(g, regions, derived, empty);
          EXPECT_FALSE(report.satisfied());
          return;
        }
      }
    }
  }
  FAIL() << "expected a multi-state trigger region in sing2dual-inp";
}

// ------------------------------------------------------- Eq. 1 (delay) --

TEST(DelayRequirementTest, BalancedSopsNeedNoCompensation) {
  const GateLibrary& lib = GateLibrary::standard();
  const DelayRequirement req = compute_delay_requirement(2, 2, lib);
  EXPECT_LE(req.t_del, 0.0);
  EXPECT_FALSE(req.compensation_needed());
}

TEST(DelayRequirementTest, HighlySkewedSopsNeedCompensation) {
  const GateLibrary& lib = GateLibrary::standard();
  // Deep set SOP vs single-wire reset: Eq. 1 goes positive.
  const DelayRequirement req = compute_delay_requirement(4, 1, lib);
  EXPECT_GT(req.t_set0_worst, req.t_res1_fast);
  EXPECT_TRUE(req.compensation_needed());
}

TEST(DelayRequirementTest, FormulaMatchesEq1) {
  const GateLibrary& lib = GateLibrary::standard();
  const DelayRequirement req = compute_delay_requirement(3, 2, lib);
  const double expected = std::max(req.t_set0_worst - req.t_res1_fast - req.t_mhs,
                                   req.t_res0_worst - req.t_set1_fast - req.t_mhs);
  EXPECT_DOUBLE_EQ(req.t_del, expected);
}

TEST(DelayRequirementTest, SopLevelsCountAndOrTrees) {
  logic::Cover cover(8, 1);
  logic::Cube cube = logic::Cube::full(8, 1);
  for (int v = 0; v < 6; ++v) cube.restrict_var(v, true);  // 6 literals
  cover.add(cube);
  const GateLibrary& lib = GateLibrary::standard();
  // 6 literals -> two AND levels (max fanin 4); single cube -> no OR tree.
  EXPECT_EQ(sop_levels(cover, 0, lib), 2);
  // Add more cubes: an OR level appears.
  cover.add(logic::Cube::minterm(0b11111111, 8, 1));
  cover.add(logic::Cube::minterm(0b00000000, 8, 1));
  EXPECT_EQ(sop_levels(cover, 0, lib), 3);
  // Constant (absent) function: no levels.
  EXPECT_EQ(sop_levels(cover, 0, GateLibrary::standard()), 3);
  logic::Cover empty(8, 1);
  EXPECT_EQ(sop_levels(empty, 0, lib), 0);
}

// ------------------------------------------------------ hazard analysis --

TEST(HazardAnalysisTest, XorStyleCoverHasStaticOneHazards) {
  // chu172's next-state functions: espresso produces a cover whose
  // covering cube changes along specified arcs (the reason sis_like pads).
  const sg::StateGraph g = bench_suite::build_benchmark("chu172");
  // Reuse the SIS-like next-state spec shape: set up on/off by hand via
  // the derived spec of the set function and look for handovers.
  const DerivedSpec derived = derive_spec(g);
  const logic::Cover cover = logic::espresso(derived.spec);
  int total_sites = 0;
  for (const OutputIndex& index : derived.outputs) {
    total_sites +=
        static_cast<int>(static_one_hazards(g, derived.spec, cover, index.set_output).size());
    total_sites +=
        static_cast<int>(static_one_hazards(g, derived.spec, cover, index.reset_output).size());
  }
  // The set/reset on-sets are excitation regions: a state and its in-region
  // successor are on-on pairs; cube handovers inside a region are rare for
  // these small covers, so just check the API is total and consistent.
  EXPECT_GE(total_sites, 0);
}

TEST(HazardAnalysisTest, SingleCubeCoverHasNoStaticOneHazard) {
  // A function covered by ONE cube can never hand over between cubes.
  const sg::StateGraph g = bench_suite::build_benchmark("full");
  const DerivedSpec derived = derive_spec(g);
  const logic::Cover cover = logic::espresso(derived.spec);
  for (const OutputIndex& index : derived.outputs) {
    if (cover.cube_count_for_output(index.set_output) == 1) {
      EXPECT_TRUE(static_one_hazards(g, derived.spec, cover, index.set_output).empty());
    }
  }
}

TEST(HazardAnalysisTest, SopActivityCountsPulseSources) {
  // The OR cell's set function is ON in the ER and DON'T-CARE in the QR:
  // the minimizer's choice makes the SOP value change along region arcs —
  // the statically-visible pulse sources of Figure 3.
  const sg::StateGraph cell = bench_suite::or_causality_cell("cell", "");
  const DerivedSpec derived = derive_spec(cell);
  const logic::Cover cover = logic::espresso(derived.spec);
  const OutputIndex& index = derived.outputs[0];
  const sg::SignalRegions regions = sg::compute_regions(cell, index.signal);
  int activity = 0;
  for (const sg::ExcitationRegion& er : regions.regions)
    activity += sop_activity_edges(cell, cover, er.rising ? index.set_output : index.reset_output,
                                   er);
  EXPECT_GT(activity, 0);
}

// -------------------------------------------------- architecture / init --

TEST(ArchitectureTest, NetlistHasOneMhsPerNonInputSignal) {
  const sg::StateGraph g = bench_suite::build_benchmark("ebergen");
  const SynthesisResult result = synthesize(g);
  int mhs = 0;
  for (const auto& gate : result.circuit.gates())
    if (gate.type == GateType::kMhsFlipFlop) {
      ++mhs;
      ASSERT_EQ(gate.inputs.size(), 4u);   // set, reset, enable_set, enable_reset
      ASSERT_EQ(gate.outputs.size(), 2u);  // q, qb (dual rail)
    }
  EXPECT_EQ(mhs, static_cast<int>(g.noninput_signals().size()));
  // Every non-input signal has both rails.
  for (const sg::SignalId a : g.noninput_signals()) {
    EXPECT_TRUE(result.circuit.find_net(g.signal(a).name).has_value());
    EXPECT_TRUE(result.circuit.find_net(g.signal(a).name + "_b").has_value());
  }
}

TEST(ArchitectureTest, NoInvertersNeededForNonInputLiterals) {
  // The flip-flop is dual-rail encoded: negative literals of non-input
  // signals use the qb rail, so no INV gate is ever emitted by the
  // architecture builder.
  const sg::StateGraph g = bench_suite::build_benchmark("pmcm1");
  const SynthesisResult result = synthesize(g);
  for (const auto& gate : result.circuit.gates()) EXPECT_NE(gate.type, GateType::kInv);
}

TEST(ArchitectureTest, DelayLinesOnlyWhenEq1Positive) {
  for (const char* name : {"chu133", "full", "pmcm2"}) {
    const SynthesisResult result = synthesize(bench_suite::build_benchmark(name));
    int delay_lines = 0;
    for (const auto& gate : result.circuit.gates())
      if (gate.type == GateType::kDelayLine) ++delay_lines;
    bool any_needed = false;
    for (const SignalImplementation& impl : result.signals)
      if (impl.delay.compensation_needed()) any_needed = true;
    EXPECT_EQ(delay_lines > 0, any_needed) << name;
    EXPECT_EQ(result.delay_compensation_used, any_needed) << name;
  }
}

TEST(ArchitectureTest, InitializationAnalysisFollowsSectionIVF) {
  const sg::StateGraph cell = bench_suite::or_causality_cell("cell", "");
  const SynthesisResult result = synthesize(cell);
  ASSERT_EQ(result.signals.size(), 1u);
  // Initial state (all zero) is in QR(-c): init value 0; the explicit
  // reset term is needed only if the reset SOP is 0 there.
  EXPECT_FALSE(result.signals[0].init.value);
  const OutputIndex& index = result.derived.outputs[0];
  const bool reset_on_s0 = result.cover.covers(cell.code(cell.initial()), index.reset_output);
  EXPECT_EQ(result.signals[0].init.explicit_reset, !reset_on_s0);
}

TEST(ArchitectureTest, InitValueMatchesInitialCode) {
  const sg::StateGraph g = bench_suite::build_benchmark("vbe5b");
  const SynthesisResult result = synthesize(g);
  for (const SignalImplementation& impl : result.signals)
    EXPECT_EQ(impl.init.value, g.value(g.initial(), impl.signal));
}

TEST(ArchitectureTest, ForcedCompensationInsertsWorkingDelayLines) {
  // Exercise the delay-line branch of the builder end-to-end: hand the
  // architecture a positive Eq. 1 requirement and check that (a) the delay
  // lines appear on the enable rails and (b) the circuit still conforms
  // (compensation only slows the enables down, it never breaks them).
  const sg::StateGraph cell = bench_suite::or_causality_cell("cell", "");
  const DerivedSpec derived = derive_spec(cell);
  logic::Cover cover = logic::espresso(derived.spec);
  DelayRequirement forced;
  forced.t_del = 1.0;
  const netlist::Netlist circuit = build_nshot_netlist(cell, derived, cover, {forced});
  int delay_lines = 0;
  for (const auto& gate : circuit.gates())
    if (gate.type == GateType::kDelayLine) {
      ++delay_lines;
      EXPECT_DOUBLE_EQ(gate.explicit_delay, 1.0);
    }
  EXPECT_EQ(delay_lines, 2);  // one per enable rail of the single MHS
}

// ----------------------------------------------------------- synthesis --

TEST(SynthesisTest, CoverSatisfiesDerivedSpec) {
  for (const char* name : {"chu133", "converta", "pmcm1", "read-write"}) {
    const sg::StateGraph g = bench_suite::build_benchmark(name);
    const SynthesisResult result = synthesize(g);
    const logic::VerifyResult ok = logic::verify_cover(result.derived.spec, result.cover);
    EXPECT_TRUE(ok.ok) << name << ": " << ok.message;
  }
}

TEST(SynthesisTest, ExactModeProducesValidAndNoWorseCover) {
  const sg::StateGraph g = bench_suite::build_benchmark("chu172");
  SynthesisOptions exact_options;
  exact_options.exact = true;
  const SynthesisResult heuristic = synthesize(g);
  const SynthesisResult exact = synthesize(g, exact_options);
  EXPECT_TRUE(logic::verify_cover(exact.derived.spec, exact.cover).ok);
  // Exact minimizes per output (no sharing), so compare per-output counts.
  for (std::size_t k = 0; k < exact.signals.size(); ++k) {
    EXPECT_LE(exact.signals[k].set_cubes, heuristic.signals[k].set_cubes);
    EXPECT_LE(exact.signals[k].reset_cubes, heuristic.signals[k].reset_cubes);
  }
}

TEST(SynthesisTest, RejectsCscViolation) {
  sg::StateGraph g("bad");
  const sg::SignalId x = g.add_signal("x", sg::SignalKind::kInput);
  const sg::SignalId y = g.add_signal("y", sg::SignalKind::kNonInput);
  const sg::StateId a = g.add_state(0b00);
  const sg::StateId b = g.add_state(0b01);
  const sg::StateId c = g.add_state(0b00);
  const sg::StateId d = g.add_state(0b10);
  g.add_edge(a, {x, true}, b);
  g.add_edge(b, {x, false}, c);
  g.add_edge(c, {y, true}, d);
  g.add_edge(d, {y, false}, a);
  g.set_initial(a);
  EXPECT_THROW(synthesize(g), SynthesisError);
}

TEST(SynthesisTest, ExplicitResetTermsAreChargedInArea) {
  // The OR cell starts in QR(-c) with the reset SOP at 0, so the MHS needs
  // an explicit reset term (Section IV-F) — one small AND of area.
  const sg::StateGraph cell = bench_suite::or_causality_cell("cell", "");
  const SynthesisResult result = synthesize(cell);
  ASSERT_TRUE(result.signals[0].init.explicit_reset);
  const double netlist_area =
      result.circuit.stats(GateLibrary::standard()).area;
  EXPECT_DOUBLE_EQ(result.stats.area,
                   netlist_area + GateLibrary::standard().area(GateType::kAnd, 1));
}

TEST(SynthesisTest, StatsAreConsistent) {
  const sg::StateGraph g = bench_suite::build_benchmark("hazard");
  const SynthesisResult result = synthesize(g);
  EXPECT_GT(result.stats.area, 0.0);
  EXPECT_GT(result.stats.delay, 0.0);
  EXPECT_EQ(result.stats.gate_count, result.circuit.num_gates());
  // Delay is level-quantized (multiple of 1.2).
  const double levels = result.stats.delay / 1.2;
  EXPECT_NEAR(levels, std::round(levels), 1e-9);
}

TEST(SynthesisTest, DescribeMentionsEverySignal) {
  const sg::StateGraph g = bench_suite::build_benchmark("full");
  const SynthesisResult result = synthesize(g);
  const std::string text = describe(g, result);
  for (const sg::SignalId a : g.noninput_signals())
    EXPECT_NE(text.find(g.signal(a).name), std::string::npos);
}

TEST(SynthesisTest, ProductShareOptionReducesOrKeepsCubeCount) {
  const sg::StateGraph g = bench_suite::build_benchmark("pmcm1");
  SynthesisOptions no_share;
  no_share.share_products = false;
  const SynthesisResult shared = synthesize(g);
  const SynthesisResult unshared = synthesize(g, no_share);
  EXPECT_LE(shared.cover.size(), unshared.cover.size());
}

}  // namespace
}  // namespace nshot::core
