// The normalized-spec invariant and the code-order spec derivation.
//
// derive_spec must produce exactly the lists of the push-then-normalize
// construction it replaced (tests/oracles/spec_derivation_reference) and
// fail on a CSC violation with the same message.  TwoLevelSpec::normalize
// sets the flag the minimizers trust, add_on/add_off clear it, and an
// unnormalized argument minimizes to the same cover as its normalized
// copy.  The F ∩ R check is reached from derive_spec, the PLA reader and
// the baselines' next-state spec.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/baselines_common.hpp"
#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generators.hpp"
#include "logic/espresso.hpp"
#include "logic/exact.hpp"
#include "logic/pla.hpp"
#include "logic/spec.hpp"
#include "nshot/spec_derivation.hpp"
#include "oracles/spec_derivation_reference.hpp"
#include "sg/properties.hpp"
#include "sg/state_graph.hpp"
#include "util/error.hpp"

namespace nshot {
namespace {

/// The message of an nshot::Error without its "file:line: " prefix.
std::string message_of(const Error& e) {
  const std::string what = e.what();
  const std::size_t at = what.find("minterm ");
  return at == std::string::npos ? what : what.substr(at);
}

/// Runs `f`, which must throw nshot::Error; returns the stripped message.
template <typename F>
std::string error_of(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return message_of(e);
  }
  ADD_FAILURE() << "expected nshot::Error";
  return {};
}

/// derive_spec against the reference: equal lists, or the same error.
void expect_same_derivation(const sg::StateGraph& g, const std::string& label) {
  core::reference::SpecLists lists;
  std::string reference_error;
  try {
    lists = core::reference::derive_spec_lists(g);
  } catch (const Error& e) {
    reference_error = message_of(e);
  }
  if (!reference_error.empty()) {
    EXPECT_EQ(error_of([&] { core::derive_spec(g); }), reference_error) << label;
    return;
  }
  const core::DerivedSpec derived = core::derive_spec(g);
  EXPECT_TRUE(derived.spec.normalized()) << label;
  ASSERT_EQ(static_cast<std::size_t>(derived.spec.num_outputs()), lists.on.size()) << label;
  for (int o = 0; o < derived.spec.num_outputs(); ++o) {
    EXPECT_EQ(derived.spec.on(o), lists.on[static_cast<std::size_t>(o)]) << label << " F" << o;
    EXPECT_EQ(derived.spec.off(o), lists.off[static_cast<std::size_t>(o)]) << label << " R" << o;
  }
}

/// x (input) and y (non-input) around a six-state cycle whose states
/// s0/s4 and s1/s5 share codes with equal excitation: USC fails, CSC holds.
sg::StateGraph usc_conflict_graph() {
  sg::StateGraph g("usc");
  const sg::SignalId x = g.add_signal("x", sg::SignalKind::kInput);
  const sg::SignalId y = g.add_signal("y", sg::SignalKind::kNonInput);
  const sg::StateId s0 = g.add_state(0b00);
  const sg::StateId s1 = g.add_state(0b01);
  const sg::StateId s2 = g.add_state(0b11);
  const sg::StateId s3 = g.add_state(0b10);
  const sg::StateId s4 = g.add_state(0b00);
  const sg::StateId s5 = g.add_state(0b01);
  g.add_edge(s0, {x, true}, s1);
  g.add_edge(s1, {y, true}, s2);
  g.add_edge(s2, {x, false}, s3);
  g.add_edge(s3, {y, false}, s4);
  g.add_edge(s4, {x, true}, s5);
  g.add_edge(s5, {y, true}, s2);
  g.set_initial(s0);
  return g;
}

/// Two-phase cycle [a+ b+][a- b-]: the partial states (a=1, b=0) of the
/// two phases share a code but excite b differently — a CSC violation.
sg::StateGraph csc_violating_graph() {
  return bench_suite::build_g(
      bench_suite::staged_cycle_g("csc_demo", {"a"}, {"b"}, {{"a+", "b+"}, {"a-", "b-"}}));
}

// ------------------------------------------------------- derive_spec --

TEST(DeriveSpecOracleTest, Table2MatchesPushThenNormalize) {
  for (const auto& info : bench_suite::all_benchmarks())
    expect_same_derivation(bench_suite::build_benchmark(info.name), info.name);
}

TEST(DeriveSpecOracleTest, RandomControllersMatchPushThenNormalize) {
  int derived = 0;
  int usc_conflicts = 0;
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    bench_suite::RandomStgOptions gen;
    gen.seed = seed;
    const sg::StateGraph g = bench_suite::build_g(bench_suite::random_semimodular_g(gen));
    if (g.noninput_signals().empty()) continue;
    expect_same_derivation(g, "rand" + std::to_string(seed));
    ++derived;
    if (!sg::check_usc(g).ok()) ++usc_conflicts;
  }
  EXPECT_GE(derived, 50);
  EXPECT_GE(usc_conflicts, 1);
}

TEST(DeriveSpecOracleTest, SharedCodesAreListedOnce) {
  const sg::StateGraph g = usc_conflict_graph();
  ASSERT_FALSE(sg::check_usc(g).ok());
  ASSERT_TRUE(sg::check_csc(g).ok());
  expect_same_derivation(g, "usc");
  const core::DerivedSpec derived = core::derive_spec(g);
  EXPECT_EQ(derived.spec.on(0), (std::vector<std::uint64_t>{0b01}));         // y set: ER(+y)
  EXPECT_EQ(derived.spec.off(0), (std::vector<std::uint64_t>{0b00, 0b10}));  // QR(-y), ER(-y)
  EXPECT_EQ(derived.spec.on(1), (std::vector<std::uint64_t>{0b10}));         // y reset: ER(-y)
  EXPECT_EQ(derived.spec.off(1), (std::vector<std::uint64_t>{0b01, 0b11}));  // ER(+y), QR(+y)
}

TEST(DeriveSpecOracleTest, CscViolationFailsWithTheSameMessage) {
  const sg::StateGraph g = csc_violating_graph();
  ASSERT_FALSE(sg::check_csc(g).ok());
  const std::string message = error_of([&] { core::derive_spec(g); });
  EXPECT_EQ(message, error_of([&] { core::reference::derive_spec_lists(g); }));
  EXPECT_NE(message.find(" is in both F and R of output "), std::string::npos) << message;
}

// -------------------------------------------------- the F ∩ R check --

TEST(NormalizedSpecTest, OverlapThrowsFromEveryBuilder) {
  logic::TwoLevelSpec spec(2, 2);
  spec.add_on(1, 0b11);
  spec.add_off(1, 0b10);
  spec.add_off(1, 0b11);
  EXPECT_EQ(error_of([&] { spec.normalize(); }), "minterm 3 is in both F and R of output 1");
  EXPECT_FALSE(spec.normalized());

  // The PLA reader: minterm 01 is declared on by one row and off by another.
  EXPECT_EQ(error_of([] { logic::parse_pla(".i 2\n.o 1\n01 1\n0- 0\n.e\n"); }),
            "minterm 2 is in both F and R of output 0");

  // The baselines' next-state spec of a CSC-violating graph.
  const sg::StateGraph g = csc_violating_graph();
  const std::string message = error_of([&] { baselines::detail::next_state_spec(g); });
  EXPECT_NE(message.find(" is in both F and R of output "), std::string::npos) << message;
}

// --------------------------------------------- the normalized flag --

TEST(NormalizedSpecTest, AddClearsTheFlagAndNormalizeSetsIt) {
  logic::TwoLevelSpec spec(3, 2);
  EXPECT_FALSE(spec.normalized());
  spec.add_on(0, 5);
  spec.add_off(0, 2);
  spec.normalize();
  EXPECT_TRUE(spec.normalized());
  const logic::TwoLevelSpec copy = spec;
  EXPECT_TRUE(copy.normalized());

  spec.add_on(1, 4);
  EXPECT_FALSE(spec.normalized());
  spec.normalize();
  EXPECT_TRUE(spec.normalized());
  spec.add_off(1, 1);
  EXPECT_FALSE(spec.normalized());
  spec.normalize();
  EXPECT_TRUE(spec.normalized());
}

TEST(NormalizedSpecTest, StepsRejectAnUnnormalizedSpec) {
  logic::TwoLevelSpec spec(2, 1);
  spec.add_on(0, 1);
  logic::Cover cover(2, 1);
  EXPECT_THROW(logic::espresso_initial_cover(spec, true), Error);
  EXPECT_THROW(logic::espresso_expand(cover, spec, true), Error);
  EXPECT_THROW(logic::espresso_irredundant(cover, spec), Error);
  EXPECT_THROW(logic::espresso_reduce(cover, spec), Error);
}

/// An unsorted spec with duplicate codes over 5 inputs and 3 outputs.
logic::TwoLevelSpec unsorted_spec() {
  logic::TwoLevelSpec spec(5, 3);
  for (int o = 0; o < 3; ++o) {
    for (std::uint64_t m = 32; m-- > 0;) {
      const std::uint64_t kind = (m * 7 + static_cast<std::uint64_t>(o) * 3) % 5;
      for (int copies = 0; copies < 1 + static_cast<int>(m % 2); ++copies) {
        if (kind < 2)
          spec.add_on(o, m);
        else if (kind < 4)
          spec.add_off(o, m);
      }
    }
  }
  return spec;
}

TEST(NormalizedSpecTest, MinimizersGiveTheSameCoverOnAnUnnormalizedSpec) {
  const logic::TwoLevelSpec raw = unsorted_spec();
  ASSERT_FALSE(raw.normalized());
  logic::TwoLevelSpec normalized = raw;
  normalized.normalize();
  ASSERT_NE(raw.on(0), normalized.on(0));  // the raw lists really are out of order
  for (const bool share : {true, false}) {
    logic::EspressoOptions options;
    options.share_outputs = share;
    EXPECT_EQ(logic::espresso(raw, options).to_string(),
              logic::espresso(normalized, options).to_string())
        << "share_outputs=" << share;
  }
  EXPECT_EQ(logic::exact_minimize(raw).to_string(),
            logic::exact_minimize(normalized).to_string());
  EXPECT_FALSE(raw.normalized());  // the argument itself is left alone
}

}  // namespace
}  // namespace nshot
