// Tests for the STG model, the .g parser/writer and token-flow
// reachability.
#include <gtest/gtest.h>

#include "oracles/reachability_reference.hpp"
#include "sg/properties.hpp"
#include "stg/g_format.hpp"
#include "stg/reachability.hpp"
#include "stg/stg.hpp"
#include "util/error.hpp"

namespace nshot::stg {
namespace {

const char* kXyzG = R"(
.model xyz
.inputs x
.outputs y z
.graph
x+ y+
y+ z+
z+ x-
x- y-
y- z-
z- x+
.marking { <z-,x+> }
.end
)";

TEST(GFormatTest, ParsesSimpleCycle) {
  const Stg stg = parse_g(kXyzG);
  EXPECT_EQ(stg.name(), "xyz");
  EXPECT_EQ(stg.num_signals(), 3);
  EXPECT_EQ(stg.num_transitions(), 6);
  EXPECT_EQ(stg.signal(0).kind, SignalKind::kInput);
  EXPECT_EQ(stg.signal(1).kind, SignalKind::kOutput);
  // Exactly one marked implicit place.
  int marked = 0;
  for (const bool token : stg.initial_marking()) marked += token;
  EXPECT_EQ(marked, 1);
}

TEST(GFormatTest, ParsesInstancesAndExplicitPlaces) {
  const Stg stg = parse_g(
      ".model t\n.inputs a\n.outputs b\n.graph\n"
      "a+ p1\np1 b+\nb+ a-\na- b-/1\nb-/1 a+/2\na+/2 b+/2\nb+/2 a-/2\na-/2 p2\np2 a+\n"
      ".marking { p2 }\n.end\n");
  EXPECT_TRUE(stg.find_place("p1").has_value());
  EXPECT_TRUE(stg.find_transition(*stg.find_signal("a"), true, 2).has_value());
}

TEST(GFormatTest, RejectsUndeclaredSignalsAndPlaces) {
  EXPECT_THROW(parse_g(".model t\n.inputs a\n.graph\na+ b+\n.marking { <a+,b+> }\n.end\n"),
               Error);
  EXPECT_THROW(parse_g(".model t\n.inputs a\n.graph\na+ a-\n.marking { nosuch }\n.end\n"),
               Error);
}

TEST(GFormatTest, DummyTransitionsAreEliminatedBySaturation) {
  // x+ -> eps -> y+ -> x- -> y-: the dummy disappears from the SG, whose
  // language is the plain 4-state handshake.
  const char* text =
      ".model dummy_demo\n.inputs x\n.outputs y\n.dummy eps\n.graph\n"
      "x+ eps\neps y+\ny+ x-\nx- y-\ny- x+\n.marking { <y-,x+> }\n.end\n";
  const Stg net = parse_g(text);
  EXPECT_TRUE(net.has_dummies());
  const sg::StateGraph g = build_state_graph(net);
  EXPECT_EQ(g.num_states(), 4);
  EXPECT_TRUE(sg::check_implementability(g).ok());
  // Roundtrip keeps the .dummy declaration.
  const Stg reparsed = parse_g(write_g(net));
  EXPECT_TRUE(reparsed.has_dummies());
  EXPECT_EQ(build_state_graph(reparsed).num_states(), 4);
}

TEST(GFormatTest, ForkJoinThroughDummiesIsConfluent) {
  // A dummy fork releasing two concurrent outputs and a dummy join.
  const char* text =
      ".model dummy_fork\n.inputs r\n.outputs u v a\n.dummy fork join\n.graph\n"
      "r+ fork\nfork u+ v+\nu+ join\nv+ join\njoin a+\n"
      "a+ r-\nr- u- v-\nu- a-\nv- a-\na- r+\n.marking { <a-,r+> }\n.end\n";
  const sg::StateGraph g = build_state_graph(parse_g(text));
  EXPECT_TRUE(sg::check_implementability(g).ok());
  EXPECT_FALSE(g.find_signal("fork").has_value());  // dummies are not signals
}

TEST(GFormatTest, CyclicDummiesAreRejected) {
  // A marked 2-dummy ring never reaches a dummy-quiescent marking.
  const char* text =
      ".model bad\n.inputs x\n.dummy d1 d2\n.graph\n"
      "d1 d2\nd2 d1\nx+ x-\nx- x+\n.marking { <x-,x+> <d2,d1> }\n.end\n";
  EXPECT_THROW(build_state_graph(parse_g(text)), Error);
}

TEST(GFormatTest, WriterRoundTrips) {
  const Stg original = parse_g(kXyzG);
  const Stg reparsed = parse_g(write_g(original));
  EXPECT_EQ(reparsed.num_signals(), original.num_signals());
  EXPECT_EQ(reparsed.num_transitions(), original.num_transitions());
  const sg::StateGraph a = build_state_graph(original);
  const sg::StateGraph b = build_state_graph(reparsed);
  EXPECT_EQ(a.num_states(), b.num_states());
}

TEST(ReachabilityTest, CycleProducesSixStates) {
  const sg::StateGraph g = build_state_graph(parse_g(kXyzG));
  EXPECT_EQ(g.num_states(), 6);
  EXPECT_TRUE(sg::check_consistency(g).ok());
  EXPECT_TRUE(sg::check_reachability(g).ok());
  EXPECT_TRUE(sg::check_semi_modular(g).ok());
  EXPECT_TRUE(sg::check_csc(g).ok());
  // Initial values inferred: everything starts at 0 (first firings are +).
  EXPECT_EQ(g.code(g.initial()), 0u);
}

TEST(ReachabilityTest, InitialValueInferenceForFallingFirst) {
  // y starts high: its first transition is y-.
  const sg::StateGraph g = build_state_graph(parse_g(
      ".model t\n.inputs x\n.outputs y\n.graph\n"
      "x+ y-\ny- x-\nx- y+\ny+ x+\n.marking { <y+,x+> }\n.end\n"));
  const auto y = g.find_signal("y");
  ASSERT_TRUE(y.has_value());
  EXPECT_TRUE(g.value(g.initial(), *y));
  EXPECT_FALSE(g.value(g.initial(), *g.find_signal("x")));
}

TEST(ReachabilityTest, DeclaredInitRequiredForConstantSignal) {
  const char* text =
      ".model t\n.inputs x c\n.outputs y\n.graph\n"
      "x+ y+\ny+ x-\nx- y-\ny- x+\n.marking { <y-,x+> }\n%INIT%.end\n";
  std::string without(text);
  without.replace(without.find("%INIT%"), 6, "");
  EXPECT_THROW(build_state_graph(parse_g(without)), Error);  // c never fires
  std::string with(text);
  with.replace(with.find("%INIT%"), 6, ".init c=1\n");
  const sg::StateGraph g = build_state_graph(parse_g(with));
  EXPECT_TRUE(g.value(g.initial(), *g.find_signal("c")));
}

TEST(ReachabilityTest, DetectsNonOneSafeNet) {
  // Two producers into one place without consumption in between.
  Stg stg("unsafe");
  const int a = stg.add_signal("a", SignalKind::kInput);
  const int b = stg.add_signal("b", SignalKind::kInput);
  const TransitionId ap = stg.add_transition(a, true);
  const TransitionId am = stg.add_transition(a, false);
  const TransitionId bp = stg.add_transition(b, true);
  const PlaceId p0 = stg.add_place("p0");
  const PlaceId p1 = stg.add_place("p1");
  const PlaceId shared = stg.add_place("shared");
  stg.mark_place(p0);
  stg.mark_place(p1);
  stg.add_arc_place_to_transition(p0, ap);
  stg.add_arc_transition_to_place(ap, shared);
  stg.add_arc_place_to_transition(p1, bp);
  stg.add_arc_transition_to_place(bp, shared);
  stg.add_arc_place_to_transition(shared, am);
  EXPECT_THROW(build_state_graph(stg), Error);
}

TEST(ReachabilityTest, DetectsInconsistentStg) {
  // x fires + twice along one path (no - in between).
  Stg stg("inconsistent");
  const int x = stg.add_signal("x", SignalKind::kInput);
  const TransitionId x1 = stg.add_transition(x, true, 1);
  const TransitionId x2 = stg.add_transition(x, true, 2);
  const PlaceId p0 = stg.add_place("p0");
  const PlaceId p1 = stg.add_place("p1");
  const PlaceId p2 = stg.add_place("p2");
  stg.mark_place(p0);
  stg.add_arc_place_to_transition(p0, x1);
  stg.add_arc_transition_to_place(x1, p1);
  stg.add_arc_place_to_transition(p1, x2);
  stg.add_arc_transition_to_place(x2, p2);
  EXPECT_THROW(build_state_graph(stg), Error);
}

TEST(ReachabilityTest, StateCapIsEnforced) {
  const Stg stg = parse_g(kXyzG);
  ReachabilityOptions options;
  options.max_states = 3;
  EXPECT_THROW(build_state_graph(stg, options), Error);
}

TEST(ReachabilityTest, DeadTransitionsAreDiagnosed) {
  // b+/2 can never fire: its preset place is never marked.  The liveness
  // diagnostic has no production caller; it lives with the test oracle.
  Stg stg("dead");
  const int a = stg.add_signal("a", SignalKind::kInput);
  const int b = stg.add_signal("b", SignalKind::kOutput);
  const TransitionId ap = stg.add_transition(a, true);
  const TransitionId am = stg.add_transition(a, false);
  const TransitionId bp = stg.add_transition(b, true, 2);
  stg.connect(ap, am);
  const PlaceId loop = stg.connect(am, ap);
  stg.mark_place(loop);
  const PlaceId orphan = stg.add_place("orphan");
  stg.add_arc_place_to_transition(orphan, bp);
  const auto dead = reference::dead_transitions(stg);
  ASSERT_EQ(dead.size(), 1u);
  EXPECT_EQ(dead[0], bp);
  // A live net reports nothing.
  EXPECT_TRUE(reference::dead_transitions(parse_g(kXyzG)).empty());
}

TEST(StgModelTest, ConnectCreatesImplicitPlace) {
  Stg stg("t");
  const int a = stg.add_signal("a", SignalKind::kInput);
  const TransitionId ap = stg.add_transition(a, true);
  const TransitionId am = stg.add_transition(a, false);
  stg.connect(ap, am);
  EXPECT_TRUE(stg.find_place("<a+,a->").has_value());
  EXPECT_EQ(stg.preset(am).size(), 1u);
  EXPECT_EQ(stg.postset(ap).size(), 1u);
}

TEST(StgModelTest, TransitionNamesIncludeInstances) {
  Stg stg("t");
  const int a = stg.add_signal("a", SignalKind::kInput);
  const TransitionId t1 = stg.add_transition(a, true, 1);
  const TransitionId t2 = stg.add_transition(a, true, 2);
  EXPECT_EQ(stg.transition_name(t1), "a+");
  EXPECT_EQ(stg.transition_name(t2), "a+/2");
  EXPECT_THROW(stg.add_transition(a, true, 2), Error);
}

}  // namespace
}  // namespace nshot::stg
