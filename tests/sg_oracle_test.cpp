// Differential test of the edge-driven semi-modularity check against its
// reference oracle (tests/oracles/sg_reference): check_semi_modular must
// report the same violations, element for element, as the label-lookup
// version it replaced — on the Table 2 corpus, on seeded random
// controllers, on those controllers with arcs dropped or redirected, and
// on hand-built graphs that break diamonds in both ways.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generators.hpp"
#include "oracles/sg_reference.hpp"
#include "sg/properties.hpp"
#include "sg/state_graph.hpp"
#include "util/rng.hpp"

namespace nshot::sg {
namespace {

void expect_same_violations(const StateGraph& g, const std::string& label) {
  const std::vector<std::string> fast = check_semi_modular(g).violations;
  const std::vector<std::string> oracle = reference::check_semi_modular(g).violations;
  EXPECT_EQ(fast, oracle) << label;
}

/// A copy of `g` in which each arc is dropped with probability 1/8 and
/// otherwise, with probability 1/8, sent to a random state: the result is
/// no longer semi-modular in general and yields both kinds of violation.
StateGraph mutate(const StateGraph& g, Rng& rng) {
  StateGraph out(g.name() + "-mutated");
  for (SignalId x = 0; x < g.num_signals(); ++x) out.add_signal(g.signal(x).name, g.signal(x).kind);
  for (StateId s = 0; s < g.num_states(); ++s) out.add_state(g.code(s));
  for (StateId s = 0; s < g.num_states(); ++s) {
    for (const Edge& e : g.out_edges(s)) {
      const std::uint64_t roll = rng.next_below(8);
      if (roll == 0) continue;
      const StateId target =
          roll == 1 ? static_cast<StateId>(rng.next_below(static_cast<std::uint64_t>(
                          g.num_states())))
                    : e.target;
      out.add_edge(s, e.label, target);
    }
  }
  if (g.initial() >= 0) out.set_initial(g.initial());
  return out;
}

TEST(SemiModularOracleTest, Table2MatchesOracle) {
  int checked = 0;
  for (const auto& info : bench_suite::all_benchmarks()) {
    expect_same_violations(bench_suite::build_benchmark(info.name), info.name);
    ++checked;
  }
  EXPECT_EQ(checked, 25);
}

TEST(SemiModularOracleTest, RandomControllersAndMutantsMatchOracle) {
  int violating = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    bench_suite::RandomStgOptions gen;
    gen.seed = seed;
    const StateGraph g = bench_suite::build_g(bench_suite::random_semimodular_g(gen));
    const std::string label = "rand" + std::to_string(seed);
    expect_same_violations(g, label);
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 3);
    const StateGraph mutant = mutate(g, rng);
    expect_same_violations(mutant, label + "-mutated");
    if (!check_semi_modular(mutant).ok()) ++violating;
  }
  // The mutants must actually exercise the violation paths.
  EXPECT_GE(violating, 30);
}

/// Non-input a, b and input c all enabled in one state: every ordered
/// pair with a non-input first breaks its diamond, so the state emits
/// both messages twice (and the state after c+, where a+ and b+ disable
/// each other, emits two more).  A second fan repeats the pattern.
StateGraph broken_diamonds() {
  StateGraph g("broken");
  const SignalId a = g.add_signal("a", SignalKind::kNonInput);
  const SignalId b = g.add_signal("b", SignalKind::kNonInput);
  const SignalId c = g.add_signal("c", SignalKind::kInput);
  auto add_fan = [&](std::uint64_t base) {
    const StateId s0 = g.add_state(base);
    const StateId via_a = g.add_state(base | 0b001);
    const StateId via_b = g.add_state(base | 0b010);
    const StateId via_c = g.add_state(base | 0b100);
    const StateId ac = g.add_state(base | 0b101);
    const StateId ac_other = g.add_state(base | 0b101);
    const StateId bc = g.add_state(base | 0b110);
    g.add_edge(s0, {a, true}, via_a);
    g.add_edge(s0, {b, true}, via_b);
    g.add_edge(s0, {c, true}, via_c);
    g.add_edge(via_c, {a, true}, ac);        // a+ after c+ ...
    g.add_edge(via_a, {c, true}, ac_other);  // ... and c+ after a+ end apart
    g.add_edge(via_c, {b, true}, bc);        // b+ after c+, but c+ is gone after b+
    // a+ after b+ and b+ after a+ are missing: each disables the other.
    return s0;
  };
  g.set_initial(add_fan(0));
  add_fan(0);
  return g;
}

TEST(SemiModularOracleTest, HandBuiltViolationsMatchOracleAndCoverBothMessages) {
  const StateGraph g = broken_diamonds();
  const std::vector<std::string> violations = check_semi_modular(g).violations;
  EXPECT_EQ(violations, reference::check_semi_modular(g).violations);
  ASSERT_EQ(violations.size(), 12u);
  int disabled = 0;
  int not_commuting = 0;
  for (const std::string& v : violations) {
    disabled += v.find("is disabled by") != std::string::npos;
    not_commuting += v.find("does not commute") != std::string::npos;
  }
  EXPECT_EQ(disabled, 8);
  EXPECT_EQ(not_commuting, 4);
  EXPECT_EQ(violations[0], "non-input transition a+ is disabled by b+ in " + g.state_name(0));
  EXPECT_EQ(violations[1], "diamond of a+ and c+ from " + g.state_name(0) + " does not commute");
}

}  // namespace
}  // namespace nshot::sg
