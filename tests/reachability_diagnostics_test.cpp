// Diagnostics oracle for STG reachability: on malformed nets the
// flat-arena sweep (stg::build_state_graph / stg::infer_initial_values)
// must throw exactly what the ordered-map oracle in
// tests/oracles/reachability_reference throws — the same ErrorCode and the
// same message — and on well-formed nets return the same graph.  Each case
// also pins the diagnostic it is meant to provoke, so a case that silently
// stops failing is caught too.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "bench_suite/generators.hpp"
#include "oracles/reachability_reference.hpp"
#include "stg/g_format.hpp"
#include "stg/reachability.hpp"
#include "stg/stg.hpp"
#include "util/error.hpp"

namespace nshot::stg {
namespace {

/// What one engine did: the graph (or initial values) it returned, or the
/// error it threw.  Messages drop the "file:line: " raise-site prefix,
/// which names the engine's source file, not the diagnostic.
struct Outcome {
  bool threw = false;
  ErrorCode code = ErrorCode::kInternal;
  std::string text;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

std::ostream& operator<<(std::ostream& os, const Outcome& o) {
  return os << (o.threw ? std::string("threw ") + error_code_name(o.code) + ": " : "returned ")
            << o.text;
}

std::string strip_raise_site(const std::string& message) {
  const std::size_t cpp = message.find(".cpp:");
  if (cpp == std::string::npos) return message;
  const std::size_t colon = message.find(": ", cpp);
  return colon == std::string::npos ? message : message.substr(colon + 2);
}

Outcome capture(const std::function<std::string()>& body) {
  try {
    return {false, ErrorCode::kInternal, body()};
  } catch (const Error& e) {
    return {true, e.code(), strip_raise_site(e.message())};
  }
}

std::string fingerprint(const sg::StateGraph& g) {
  std::string out = "init=" + std::to_string(g.initial()) + ";";
  for (sg::StateId s = 0; s < g.num_states(); ++s) {
    out.append("\n").append(std::to_string(s)).append("=").append(std::to_string(g.code(s)));
    for (const sg::Edge& e : g.out_edges(s))
      out += " --" + g.label_name(e.label) + "--> " + std::to_string(e.target);
  }
  return out;
}

std::string values_text(const std::vector<bool>& values) {
  std::string out;
  for (const bool v : values) out += v ? '1' : '0';
  return out;
}

/// Run both engines through both entry points; they must agree.  Returns
/// the production build outcome for the per-case expectation.
Outcome expect_engines_agree(const Stg& net, const ReachabilityOptions& options = {}) {
  const Outcome reference =
      capture([&] { return fingerprint(reference::build_state_graph(net, options)); });
  const Outcome production = capture([&] { return fingerprint(build_state_graph(net, options)); });
  EXPECT_EQ(reference, production) << net.name() << " build_state_graph";
  EXPECT_EQ(capture([&] { return values_text(reference::infer_initial_values(net, options)); }),
            capture([&] { return values_text(infer_initial_values(net, options)); }))
      << net.name() << " infer_initial_values";
  return production;
}

void expect_diagnostic(const Outcome& outcome, ErrorCode code, const std::string& needle) {
  EXPECT_TRUE(outcome.threw) << outcome;
  EXPECT_EQ(outcome.code, code) << outcome;
  EXPECT_NE(outcome.text.find(needle), std::string::npos) << outcome;
}

/// a+ -> a- -> a+ through places p0 (marked) and p1, plus whatever the
/// case adds.
struct Toggle {
  Stg net;
  int a = -1;
  TransitionId plus = -1, minus = -1;
  PlaceId p0 = -1, p1 = -1;

  explicit Toggle(const std::string& name) : net(name) {
    a = net.add_signal("a", SignalKind::kInput);
    plus = net.add_transition(a, true);
    minus = net.add_transition(a, false);
    p0 = net.add_place("p0");
    p1 = net.add_place("p1");
    net.add_arc_place_to_transition(p0, plus);
    net.add_arc_transition_to_place(minus, p0);
    net.add_arc_place_to_transition(p1, minus);
    net.mark_place(p0);
  }
};

TEST(ReachabilityDiagnosticsTest, NotOneSafe) {
  // a+ puts a token on p1 while p1 is already marked.  Without .init the
  // inference sweep fires it first; with .init the state-graph sweep does.
  Toggle unsafe("unsafe");
  unsafe.net.add_arc_transition_to_place(unsafe.plus, unsafe.p1);
  unsafe.net.mark_place(unsafe.p1);
  expect_diagnostic(expect_engines_agree(unsafe.net), ErrorCode::kInputInvalid,
                    "is not 1-safe: firing a+ double-marks place p1");
  unsafe.net.set_initial_value(unsafe.a, false);
  expect_diagnostic(expect_engines_agree(unsafe.net), ErrorCode::kInputInvalid,
                    "is not 1-safe: firing a+ double-marks place p1");
}

TEST(ReachabilityDiagnosticsTest, DuplicatePostsetArcIsNotOneSafe) {
  // Two arcs a+ -> p1: the second one double-marks p1 on every firing —
  // the degenerate arc the word masks cannot express.
  Toggle dup("duplicate-arc");
  dup.net.add_arc_transition_to_place(dup.plus, dup.p1);
  dup.net.add_arc_transition_to_place(dup.plus, dup.p1);
  expect_diagnostic(expect_engines_agree(dup.net), ErrorCode::kInputInvalid,
                    "is not 1-safe: firing a+ double-marks place p1");
  dup.net.set_initial_value(dup.a, false);
  expect_diagnostic(expect_engines_agree(dup.net), ErrorCode::kInputInvalid,
                    "double-marks place p1");
}

TEST(ReachabilityDiagnosticsTest, InconsistentFiring) {
  // a+ then a+/2: the second rising edge fires when a is already 1.
  const Stg net = parse_g(
      ".model twice\n.inputs a\n.graph\na+ a+/2\na+/2 a-\na- a+\n.marking { <a-,a+> }\n.end\n");
  expect_diagnostic(expect_engines_agree(net), ErrorCode::kInputInvalid,
                    "is inconsistent: a+/2 fires when a is already 1");
}

TEST(ReachabilityDiagnosticsTest, MarkingReachedWithTwoCodes) {
  // a rises but never falls: after a+ b+ b- the initial marking returns
  // with a = 1.
  const Stg net = parse_g(
      ".model drift\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ b-\nb- a+\n"
      ".marking { <b-,a+> }\n.end\n");
  expect_diagnostic(expect_engines_agree(net), ErrorCode::kInputInvalid,
                    "one marking is reached with two different codes");
}

TEST(ReachabilityDiagnosticsTest, LabelWithTwoSuccessors) {
  // A free choice between a+ and a+/2 leads to two different markings
  // under one label.
  const Stg net = parse_g(
      ".model choice\n.inputs a\n.graph\np0 a+ a+/2\na+ p1\na+/2 p2\np1 a-\np2 a-/2\n"
      "a- p0\na-/2 p0\n.marking { p0 }\n.end\n");
  expect_diagnostic(expect_engines_agree(net), ErrorCode::kInputInvalid,
                    "maps label a+/2 to two successors of one state");
}

TEST(ReachabilityDiagnosticsTest, StateCapAtAndBelowTheStateCount) {
  std::vector<std::vector<std::string>> chains;
  std::vector<std::string> inputs, outputs;
  for (int i = 1; i <= 5; ++i) {
    const std::string b = std::string("b").append(std::to_string(i));
    chains.push_back({b});
    (i <= 2 ? inputs : outputs).push_back(b);
  }
  Stg net = parse_g(bench_suite::parallel_chains_g("cap", "m", true, chains, inputs, outputs));
  const int states = build_state_graph(net).num_states();
  ASSERT_GT(states, 2);

  ReachabilityOptions options;
  options.max_states = static_cast<std::size_t>(states);
  EXPECT_FALSE(expect_engines_agree(net, options).threw);
  options.max_states = static_cast<std::size_t>(states) - 1;
  expect_diagnostic(expect_engines_agree(net, options), ErrorCode::kResourceExhausted,
                    "exceeds the reachability state cap");

  // With every initial value declared, only the state-graph sweep counts.
  for (int x = 0; x < net.num_signals(); ++x) net.set_initial_value(x, false);
  expect_diagnostic(expect_engines_agree(net, options), ErrorCode::kResourceExhausted,
                    "exceeds the reachability state cap");
  options.max_states = 1;
  expect_diagnostic(expect_engines_agree(net, options), ErrorCode::kResourceExhausted,
                    "exceeds the reachability state cap");
}

TEST(ReachabilityDiagnosticsTest, NonConfluentDummies) {
  // After a+, dummies d1 and d2 compete for one token and settle in two
  // different quiescent markings.
  const Stg net = parse_g(
      ".model fork\n.inputs a\n.dummy d1 d2\n.graph\na+ p0\np0 d1 d2\nd1 p1\nd2 p2\n"
      "p1 a-\np2 a-/2\na- p3\na-/2 p3\np3 a+\n.marking { p3 }\n.end\n");
  expect_diagnostic(expect_engines_agree(net), ErrorCode::kInputInvalid,
                    "has non-confluent (or cyclic) dummy transitions");
}

TEST(ReachabilityDiagnosticsTest, CyclicDummies) {
  // d1 and d2 pass one token around forever: no quiescent marking.
  Toggle cyclic("dummy-cycle");
  const TransitionId d1 = cyclic.net.add_dummy_transition("d1");
  const TransitionId d2 = cyclic.net.add_dummy_transition("d2");
  cyclic.net.add_arc_transition_to_place(cyclic.plus, cyclic.p1);
  const PlaceId q = cyclic.net.add_place("q");
  cyclic.net.add_arc_place_to_transition(cyclic.p1, d1);
  cyclic.net.add_arc_transition_to_place(d1, q);
  cyclic.net.add_arc_place_to_transition(q, d2);
  cyclic.net.add_arc_transition_to_place(d2, cyclic.p1);
  expect_diagnostic(expect_engines_agree(cyclic.net), ErrorCode::kInputInvalid,
                    "has non-confluent (or cyclic) dummy transitions");
}

TEST(ReachabilityDiagnosticsTest, DivergingDummyClosure) {
  // 14 independent two-dummy token rings: 2^14 markings in one dummy
  // closure, past its 10000-marking bound.
  Toggle diverging("diverging");
  diverging.net.add_arc_transition_to_place(diverging.plus, diverging.p1);
  for (int i = 0; i < 14; ++i) {
    const std::string n = std::to_string(i);
    const PlaceId left = diverging.net.add_place("l" + n);
    const PlaceId right = diverging.net.add_place("r" + n);
    const TransitionId go = diverging.net.add_dummy_transition("go" + n);
    const TransitionId back = diverging.net.add_dummy_transition("back" + n);
    diverging.net.add_arc_place_to_transition(left, go);
    diverging.net.add_arc_transition_to_place(go, right);
    diverging.net.add_arc_place_to_transition(right, back);
    diverging.net.add_arc_transition_to_place(back, left);
    diverging.net.mark_place(left);
  }
  expect_diagnostic(expect_engines_agree(diverging.net), ErrorCode::kResourceExhausted,
                    "has a diverging dummy-transition closure");
}

TEST(ReachabilityDiagnosticsTest, SignalThatNeverFiresNeedsInit) {
  Toggle idle("idle");
  idle.net.add_arc_transition_to_place(idle.plus, idle.p1);
  const int b = idle.net.add_signal("b", SignalKind::kOutput);
  expect_diagnostic(expect_engines_agree(idle.net), ErrorCode::kInputInvalid,
                    "signal b never fires; declare its initial value with .init");
  idle.net.set_initial_value(b, true);
  EXPECT_FALSE(expect_engines_agree(idle.net).threw);
}

}  // namespace
}  // namespace nshot::stg
