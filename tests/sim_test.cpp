// Tests for the event-driven simulator: pure-delay propagation, inertial
// absorption, storage primitives, and the MHS flip-flop contract of
// Figure 4 (pulses < ω absorbed, pulses >= ω fire the output at rise + τ).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "gatelib/gate_library.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/event_sim.hpp"
#include "sim/mhs_structural.hpp"
#include "sim/vcd.hpp"
#include "util/error.hpp"

namespace nshot::sim {
namespace {

using gatelib::GateLibrary;
using gatelib::GateType;
using netlist::Gate;
using netlist::NetId;
using netlist::Netlist;

struct Change {
  double time;
  bool value;
};

/// Collect the committed changes of one net.
class Recorder {
 public:
  Recorder(Simulator& sim, NetId net) {
    sim.set_observer([this, net](NetId n, bool v, double t) {
      if (n == net) changes_.push_back({t, v});
    });
  }
  const std::vector<Change>& changes() const { return changes_; }

 private:
  std::vector<Change> changes_;
};

SimulatorOptions fixed_delays(std::uint64_t seed = 1) {
  SimulatorOptions options;
  options.seed = seed;
  options.randomize_delays = false;  // midpoint delays: deterministic timing
  return options;
}

// ----------------------------------------------------------- transport --

TEST(EventSimTest, AndGateWithInversionBubble) {
  Netlist nl("t");
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId out = nl.add_net("out");
  nl.add_primary_input(a);
  nl.add_primary_input(b);
  nl.add_gate(Gate{.type = GateType::kAnd,
                   .name = "g",
                   .inputs = {a, b},
                   .inverted = {false, true},
                   .outputs = {out}});
  const CompiledNetlist compiled(nl, GateLibrary::standard());
  Simulator sim(compiled, fixed_delays());
  sim.initialize({{a, true}, {b, false}});
  EXPECT_TRUE(sim.value(out));  // a & !b settles true at t=0
  sim.set_input(b, true, 1.0);
  sim.run_until(100.0);
  EXPECT_FALSE(sim.value(out));
}

TEST(EventSimTest, PureDelayPreservesPulseTrains) {
  // A chain of buffers must transport a train of three short pulses
  // unchanged (the pure delay model of Section IV-A).
  Netlist nl("t");
  const NetId in = nl.add_net("in");
  nl.add_primary_input(in);
  NetId prev = in;
  for (int i = 0; i < 3; ++i) {
    const NetId next = nl.add_net(std::string("n").append(std::to_string(i)));
    nl.add_gate(Gate{.type = GateType::kBuf,
                     .name = std::string("b").append(std::to_string(i)),
                     .inputs = {prev},
                     .outputs = {next}});
    prev = next;
  }
  const CompiledNetlist compiled(nl, GateLibrary::standard());
  Simulator sim(compiled, fixed_delays());
  Recorder rec(sim, prev);
  sim.initialize({{in, false}});
  double t = 1.0;
  for (int pulse = 0; pulse < 3; ++pulse) {
    sim.set_input(in, true, t);
    sim.set_input(in, false, t + 0.05);  // much shorter than the gate delay
    t += 1.0;
  }
  sim.run_until(100.0);
  ASSERT_EQ(rec.changes().size(), 6u);  // 3 rises + 3 falls survive
}

TEST(EventSimTest, DelayLineShiftsInTime) {
  Netlist nl("t");
  const NetId in = nl.add_net("in");
  const NetId out = nl.add_net("out");
  nl.add_primary_input(in);
  nl.add_gate(Gate{.type = GateType::kDelayLine,
                   .name = "dl",
                   .inputs = {in},
                   .outputs = {out},
                   .explicit_delay = 5.0});
  const CompiledNetlist compiled(nl, GateLibrary::standard());
  Simulator sim(compiled, fixed_delays());
  Recorder rec(sim, out);
  sim.initialize({{in, false}});
  sim.set_input(in, true, 1.0);
  sim.set_input(in, false, 1.5);  // 0.5-wide pulse passes a transport delay
  sim.run_until(100.0);
  ASSERT_EQ(rec.changes().size(), 2u);
  EXPECT_NEAR(rec.changes()[0].time, 6.0, 1e-9);
  EXPECT_NEAR(rec.changes()[1].time, 6.5, 1e-9);
}

// ------------------------------------------------------------ inertial --

TEST(EventSimTest, InertialDelayAbsorbsShortPulse) {
  Netlist nl("t");
  const NetId in = nl.add_net("in");
  const NetId out = nl.add_net("out");
  nl.add_primary_input(in);
  nl.add_gate(Gate{.type = GateType::kInertialDelay,
                   .name = "id",
                   .inputs = {in},
                   .outputs = {out},
                   .explicit_delay = 1.0});
  const CompiledNetlist compiled(nl, GateLibrary::standard());
  Simulator sim(compiled, fixed_delays());
  Recorder rec(sim, out);
  sim.initialize({{in, false}});
  sim.set_input(in, true, 1.0);
  sim.set_input(in, false, 1.4);  // 0.4 < 1.0: absorbed
  sim.set_input(in, true, 5.0);
  sim.set_input(in, false, 7.0);  // 2.0 > 1.0: passes
  sim.run_until(100.0);
  ASSERT_EQ(rec.changes().size(), 2u);
  EXPECT_NEAR(rec.changes()[0].time, 6.0, 1e-9);
  EXPECT_NEAR(rec.changes()[1].time, 8.0, 1e-9);
}

// ------------------------------------------------------------- storage --

TEST(EventSimTest, RsLatchSetsResetsAndHolds) {
  Netlist nl("t");
  const NetId s = nl.add_net("s");
  const NetId r = nl.add_net("r");
  const NetId q = nl.add_net("q");
  nl.add_primary_input(s);
  nl.add_primary_input(r);
  nl.add_gate(Gate{.type = GateType::kRsLatch, .name = "l", .inputs = {s, r}, .outputs = {q}});
  const CompiledNetlist compiled(nl, GateLibrary::standard());
  Simulator sim(compiled, fixed_delays());
  sim.initialize({{s, false}, {r, false}, {q, false}});
  sim.set_input(s, true, 1.0);
  sim.set_input(s, false, 2.0);
  sim.run_until(3.0);
  EXPECT_TRUE(sim.value(q));  // latched through s=r=0
  sim.set_input(r, true, 4.0);
  sim.set_input(r, false, 5.0);
  sim.run_until(6.0);
  EXPECT_FALSE(sim.value(q));
}

TEST(EventSimTest, CElementWaitsForBothInputs) {
  Netlist nl("t");
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId q = nl.add_net("q");
  nl.add_primary_input(a);
  nl.add_primary_input(b);
  nl.add_gate(Gate{.type = GateType::kCElement, .name = "c", .inputs = {a, b}, .outputs = {q}});
  const CompiledNetlist compiled(nl, GateLibrary::standard());
  Simulator sim(compiled, fixed_delays());
  sim.initialize({{a, false}, {b, false}, {q, false}});
  sim.set_input(a, true, 1.0);
  sim.run_until(3.0);
  EXPECT_FALSE(sim.value(q));  // holds until both are 1
  sim.set_input(b, true, 4.0);
  sim.run_until(8.0);
  EXPECT_TRUE(sim.value(q));
  sim.set_input(a, false, 9.0);
  sim.run_until(12.0);
  EXPECT_TRUE(sim.value(q));  // holds until both are 0
  sim.set_input(b, false, 13.0);
  sim.run_until(16.0);
  EXPECT_FALSE(sim.value(q));
}

// --------------------------------------------------- MHS flip-flop cell --

/// Four-input MHS cell with both enables tied high through const rails.
struct MhsFixture {
  Netlist nl{"mhs"};
  NetId set, reset, en_set, en_reset, q, qb;

  MhsFixture() {
    set = nl.add_net("set");
    reset = nl.add_net("reset");
    en_set = nl.add_net("en_set");
    en_reset = nl.add_net("en_reset");
    q = nl.add_net("q");
    qb = nl.add_net("qb");
    for (const NetId n : {set, reset, en_set, en_reset}) nl.add_primary_input(n);
    nl.add_gate(Gate{.type = GateType::kMhsFlipFlop,
                     .name = "ff",
                     .inputs = {set, reset, en_set, en_reset},
                     .outputs = {q, qb}});
  }
};

/// Figure 4 contract, swept over pulse widths: a set pulse of width w fires
/// the output at rise + τ iff w >= ω.
class MhsPulseWidthTest : public ::testing::TestWithParam<double> {};

TEST_P(MhsPulseWidthTest, PulseFiresIffAtLeastOmega) {
  const GateLibrary& lib = GateLibrary::standard();
  const double width = GetParam();
  MhsFixture f;
  const CompiledNetlist compiled(f.nl, lib);
  Simulator sim(compiled, fixed_delays());
  Recorder rec(sim, f.q);
  sim.initialize({{f.set, false}, {f.reset, false}, {f.en_set, true}, {f.en_reset, true},
                  {f.q, false}, {f.qb, true}});
  sim.set_input(f.set, true, 10.0);
  sim.set_input(f.set, false, 10.0 + width);
  sim.run_until(1000.0);
  if (width >= lib.mhs_threshold()) {
    ASSERT_EQ(rec.changes().size(), 1u) << "width " << width;
    EXPECT_TRUE(rec.changes()[0].value);
    // Output translated forward in time by τ from the pulse start.
    EXPECT_NEAR(rec.changes()[0].time, 10.0 + lib.mhs_response(), 1e-9);
  } else {
    EXPECT_TRUE(rec.changes().empty()) << "width " << width;
  }
}

INSTANTIATE_TEST_SUITE_P(WidthSweep, MhsPulseWidthTest,
                         ::testing::Values(0.05, 0.1, 0.2, 0.29, 0.3, 0.31, 0.5, 1.0, 2.0, 5.0));

TEST(MhsTest, PulseTrainConvertsToSingleTransition) {
  // Property 3: a stream of pulses produces exactly one output transition.
  const GateLibrary& lib = GateLibrary::standard();
  MhsFixture f;
  const CompiledNetlist compiled(f.nl, lib);
  Simulator sim(compiled, fixed_delays());
  Recorder rec(sim, f.q);
  sim.initialize({{f.set, false}, {f.reset, false}, {f.en_set, true}, {f.en_reset, true},
                  {f.q, false}, {f.qb, true}});
  double t = 10.0;
  for (int i = 0; i < 6; ++i) {  // mixed sub- and super-threshold pulses
    const double width = (i % 2 == 0) ? 0.1 : 0.8;
    sim.set_input(f.set, true, t);
    sim.set_input(f.set, false, t + width);
    t += 2.0;
  }
  sim.run_until(1000.0);
  ASSERT_EQ(rec.changes().size(), 1u);
  EXPECT_TRUE(rec.changes()[0].value);
}

TEST(MhsTest, EnableGatesBlockExcitation) {
  const GateLibrary& lib = GateLibrary::standard();
  MhsFixture f;
  const CompiledNetlist compiled(f.nl, lib);
  Simulator sim(compiled, fixed_delays());
  Recorder rec(sim, f.q);
  sim.initialize({{f.set, false}, {f.reset, false}, {f.en_set, false}, {f.en_reset, true},
                  {f.q, false}, {f.qb, true}});
  sim.set_input(f.set, true, 10.0);  // wide pulse, but enable_set = 0
  sim.set_input(f.set, false, 20.0);
  sim.run_until(100.0);
  EXPECT_TRUE(rec.changes().empty());
  // Raising the enable while set is high must fire (effective excitation).
  sim.set_input(f.set, true, 110.0);
  sim.set_input(f.en_set, true, 120.0);
  sim.run_until(200.0);
  ASSERT_EQ(rec.changes().size(), 1u);
  EXPECT_NEAR(rec.changes()[0].time, 120.0 + lib.mhs_response(), 1e-9);
}

TEST(MhsTest, ResetSideIsSymmetric) {
  const GateLibrary& lib = GateLibrary::standard();
  MhsFixture f;
  const CompiledNetlist compiled(f.nl, lib);
  Simulator sim(compiled, fixed_delays());
  Recorder rec(sim, f.q);
  sim.initialize({{f.set, false}, {f.reset, false}, {f.en_set, true}, {f.en_reset, true},
                  {f.q, true}, {f.qb, false}});
  sim.set_input(f.reset, true, 10.0);
  sim.set_input(f.reset, false, 10.1);  // absorbed
  sim.set_input(f.reset, true, 20.0);   // fires
  sim.run_until(100.0);
  ASSERT_EQ(rec.changes().size(), 1u);
  EXPECT_FALSE(rec.changes()[0].value);
  EXPECT_NEAR(rec.changes()[0].time, 20.0 + lib.mhs_response(), 1e-9);
  EXPECT_TRUE(sim.value(f.qb));  // dual rail follows
}

// ---------------------------------------------------------------- VCD --

TEST(VcdTest, TraceContainsHeaderInitialValuesAndChanges) {
  Netlist nl("t");
  const NetId in = nl.add_net("in");
  const NetId out = nl.add_net("out");
  nl.add_primary_input(in);
  nl.add_gate(Gate{.type = GateType::kBuf, .name = "b", .inputs = {in}, .outputs = {out}});
  const CompiledNetlist compiled(nl, GateLibrary::standard());
  Simulator sim(compiled, fixed_delays());
  VcdRecorder recorder(nl, "1ns");
  sim.set_observer(recorder.observer());
  sim.initialize({{in, false}});
  recorder.capture_initial(sim);
  sim.set_input(in, true, 2.0);
  sim.run_until(100.0);
  const std::string vcd = recorder.write();
  EXPECT_NE(vcd.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1"), std::string::npos);
  EXPECT_NE(vcd.find("$dumpvars"), std::string::npos);
  EXPECT_NE(vcd.find("#20"), std::string::npos);  // input change at t=2.0 -> tick 20
}

TEST(VcdTest, WriteBeforeCaptureIsAnError) {
  Netlist nl("t");
  nl.add_primary_input(nl.add_net("x"));
  VcdRecorder recorder(nl);
  EXPECT_THROW(recorder.write(), Error);
}

// ------------------------------------------------------ structural MHS --

TEST(StructuralMhsTest, FiltersHazardousExcitationLikeBehaviouralModel) {
  // Drive the three-stage model (Figure 5) with a hazardous set stream and
  // a clean reset phase: the q output must make exactly one rise and one
  // fall (Figure 6's outcome), with the filter stage absorbing the
  // sub-threshold master activity.
  const GateLibrary& lib = GateLibrary::standard();
  StructuralMhs model = build_structural_mhs(lib.mhs_threshold());
  const CompiledNetlist compiled(model.circuit, lib);
  Simulator sim(compiled, fixed_delays());
  std::vector<Change> q_changes;
  sim.set_observer([&](NetId n, bool v, double t) {
    if (n == model.nets.q) q_changes.push_back({t, v});
  });
  sim.initialize({{model.nets.set_in, false},
                  {model.nets.reset_in, false},
                  {model.nets.master_set, false},
                  {model.nets.master_reset, false},
                  {model.nets.q, false},
                  {model.nets.qb, true}});
  // Hazardous set stream: short spikes then a real excitation.
  sim.set_input(model.nets.set_in, true, 10.0);
  sim.set_input(model.nets.set_in, false, 10.05);
  sim.set_input(model.nets.set_in, true, 11.0);
  sim.set_input(model.nets.set_in, false, 11.08);
  sim.set_input(model.nets.set_in, true, 12.0);
  sim.set_input(model.nets.set_in, false, 14.0);
  // Clean reset phase afterwards.
  sim.set_input(model.nets.reset_in, true, 30.0);
  sim.set_input(model.nets.reset_in, false, 32.0);
  sim.run_until(1000.0);
  ASSERT_EQ(q_changes.size(), 2u);
  EXPECT_TRUE(q_changes[0].value);
  EXPECT_FALSE(q_changes[1].value);
}

TEST(StructuralMhsTest, SlaveCleansFilterDownTransitions) {
  // With overlapping hazardous excitation on BOTH rails, the slave stage
  // still produces monotonic behaviour on q/qb per phase.
  const GateLibrary& lib = GateLibrary::standard();
  StructuralMhs model = build_structural_mhs(lib.mhs_threshold());
  const CompiledNetlist compiled(model.circuit, lib);
  Simulator sim(compiled, fixed_delays());
  long q_toggles = 0;
  sim.set_observer([&](NetId n, bool, double) {
    if (n == model.nets.q) ++q_toggles;
  });
  sim.initialize({{model.nets.set_in, false},
                  {model.nets.reset_in, false},
                  {model.nets.master_set, false},
                  {model.nets.master_reset, false},
                  {model.nets.q, false},
                  {model.nets.qb, true}});
  sim.set_input(model.nets.set_in, true, 10.0);
  sim.set_input(model.nets.set_in, false, 12.0);
  sim.run_until(20.0);
  EXPECT_EQ(q_toggles, 1);  // one clean rise despite master-stage activity
}

}  // namespace
}  // namespace nshot::sim
