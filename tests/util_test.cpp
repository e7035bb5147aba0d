// Tests for the shared utilities (error reporting, string helpers, PRNG)
// and the netlist / gate-library substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "gatelib/gate_library.hpp"
#include "netlist/netlist.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/json_value.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace nshot {
namespace {

using gatelib::GateLibrary;
using gatelib::GateType;
using netlist::Gate;
using netlist::NetId;
using netlist::Netlist;

// ----------------------------------------------------------------- util --

TEST(ErrorTest, RequireThrowsWithLocation) {
  try {
    NSHOT_REQUIRE(false, "boom");
    FAIL() << "expected an exception";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("util_test.cpp"), std::string::npos);
  }
}

TEST(StringsTest, SplitAndTrim) {
  EXPECT_EQ(split_ws("  a\tb   c "), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
  EXPECT_EQ(strip_comment_and_trim("  foo bar # comment "), "foo bar");
  EXPECT_EQ(strip_comment_and_trim("# all comment"), "");
  EXPECT_TRUE(starts_with(".inputs a b", ".inputs"));
  EXPECT_FALSE(starts_with(".in", ".inputs"));
}

TEST(RngTest, DeterministicAndInRange) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(13), 13u);
    const double d = r.next_double(2.0, 5.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 5.0);
  }
}

TEST(RngTest, RoughlyUniformBits) {
  Rng r(99);
  int ones = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) ones += r.next_bool() ? 1 : 0;
  EXPECT_NEAR(ones, trials / 2, 300);  // ~6 sigma
}

// ----------------------------------------------------------- json parse --

TEST(JsonParseTest, ParsesScalarsArraysAndObjects) {
  const JsonValue doc = parse_json(
      R"({"id":"r1","ok":true,"n":3,"x":-2.5e1,"none":null,"list":[1,"two",false]})");
  EXPECT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("id").as_string(), "r1");
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("n").as_int(), 3);
  EXPECT_DOUBLE_EQ(doc.at("x").as_number(), -25.0);
  EXPECT_TRUE(doc.at("none").is_null());
  const auto& list = doc.at("list").as_array();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].as_int(), 1);
  EXPECT_EQ(list[1].as_string(), "two");
  EXPECT_FALSE(list[2].as_bool());
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_EQ(doc.string_or("id", "x"), "r1");
  EXPECT_EQ(doc.string_or("missing", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(doc.number_or("none", 7.0), 7.0);
}

TEST(JsonParseTest, DecodesEscapesAndSurrogatePairs) {
  const JsonValue doc = parse_json(R"({"s":"a\"b\\c\ndAé😀"})");
  EXPECT_EQ(doc.at("s").as_string(), std::string("a\"b\\c\ndA\xc3\xa9\xf0\x9f\x98\x80"));
}

TEST(JsonParseTest, RoundTripsJsonWriterOutput) {
  JsonWriter writer;
  writer.begin_object();
  writer.key("name").value("tab\there \"quoted\"");
  writer.key("count").value(42);
  writer.key("ratio").value(1.5);
  writer.key("flags").begin_array().value(true).value(false).end_array();
  writer.end_object();
  const JsonValue doc = parse_json(writer.str());
  EXPECT_EQ(doc.at("name").as_string(), "tab\there \"quoted\"");
  EXPECT_EQ(doc.at("count").as_int(), 42);
  EXPECT_DOUBLE_EQ(doc.at("ratio").as_number(), 1.5);
  EXPECT_EQ(doc.at("flags").as_array().size(), 2u);
}

TEST(JsonParseTest, RejectsMalformedDocumentsAsInputInvalid) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\":1,}", "tru", "01x", "\"unterminated",
        "{\"a\":1}garbage", "{\"dup\":1,\"dup\":2}", "\"bad \\q escape\"",
        "{\"a\":\"\\ud800 unpaired\"}", "1e99999"}) {
    try {
      parse_json(bad, "test doc");
      FAIL() << "expected rejection of: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInputInvalid) << bad;
      EXPECT_NE(std::string(e.what()).find("test doc"), std::string::npos) << bad;
    }
  }
}

TEST(JsonParseTest, RejectsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_THROW(parse_json(deep), Error);
}

TEST(JsonParseTest, CheckedAccessorsNameTheKindMismatch) {
  const JsonValue doc = parse_json(R"({"n":1})");
  try {
    doc.at("n").as_string();
    FAIL() << "expected a kind mismatch";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInputInvalid);
    EXPECT_NE(std::string(e.what()).find("expected string"), std::string::npos);
  }
  EXPECT_THROW(doc.at("missing"), Error);
  EXPECT_THROW(parse_json(R"({"x":1.5})").at("x").as_int(), Error);
}

// -------------------------------------------------------------- gatelib --

TEST(GateLibraryTest, AreaGrowsWithFanin) {
  const GateLibrary& lib = GateLibrary::standard();
  EXPECT_LT(lib.area(GateType::kAnd, 2), lib.area(GateType::kAnd, 4));
  EXPECT_GT(lib.area(GateType::kMhsFlipFlop, 4), lib.area(GateType::kCElement, 2));
  EXPECT_THROW(lib.area(GateType::kAnd, 9), Error);  // beyond max fanin
}

TEST(GateLibraryTest, TimingIsOrderedAndThresholdBelowResponse) {
  const GateLibrary& lib = GateLibrary::standard();
  const auto timing = lib.timing(GateType::kAnd, 2);
  EXPECT_LT(timing.min_delay, timing.max_delay);
  EXPECT_LT(lib.mhs_threshold(), lib.mhs_response());  // omega < tau (Fig. 4)
  EXPECT_DOUBLE_EQ(lib.report_delay(GateType::kMhsFlipFlop), 2 * lib.level_delay());
}

// -------------------------------------------------------------- netlist --

TEST(NetlistTest, BuildTreeDecomposesWideFunctions) {
  Netlist nl("t");
  std::vector<NetId> ins;
  for (int i = 0; i < 9; ++i) {
    ins.push_back(nl.add_net(std::string("i").append(std::to_string(i))));
    nl.add_primary_input(ins.back());
  }
  nl.build_tree(GateType::kAnd, ins, {}, "wide", /*force_gate=*/true);
  int gates = 0;
  for (const Gate& g : nl.gates()) {
    EXPECT_LE(g.inputs.size(), 4u);
    ++gates;
  }
  EXPECT_EQ(gates, 4);  // 4+4+1 leaves -> 3 first-level + 1 merge
}

TEST(NetlistTest, BuildTreeSingleInputIsWire) {
  Netlist nl("t");
  const NetId in = nl.add_net("in");
  nl.add_primary_input(in);
  EXPECT_EQ(nl.build_tree(GateType::kAnd, {in}, {}, "w"), in);
  EXPECT_EQ(nl.num_gates(), 0);
  // Forced or inverted single inputs do create a gate.
  EXPECT_NE(nl.build_tree(GateType::kAnd, {in}, {true}, "inv"), in);
  EXPECT_EQ(nl.gate(0).type, GateType::kInv);
}

TEST(NetlistTest, WellFormednessChecks) {
  Netlist nl("t");
  const NetId a = nl.add_net("a");
  const NetId out = nl.add_net("out");
  nl.add_gate(Gate{.type = GateType::kBuf, .name = "b", .inputs = {a}, .outputs = {out}});
  EXPECT_THROW(nl.check_well_formed(), Error);  // a undriven
  nl.add_primary_input(a);
  nl.check_well_formed();
  // Second driver on `out` is caught.
  nl.add_gate(Gate{.type = GateType::kBuf, .name = "b2", .inputs = {a}, .outputs = {out}});
  EXPECT_THROW(nl.check_well_formed(), Error);
  EXPECT_THROW(nl.add_net("a"), Error);  // duplicate name
}

TEST(NetlistTest, StatsCountLevelsThroughTrees) {
  // in -> AND -> OR -> MHS: delay = 1.2 + 1.2 + 2.4.
  Netlist nl("t");
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  nl.add_primary_input(a);
  nl.add_primary_input(b);
  const NetId and_out = nl.add_net("and_out");
  nl.add_gate(Gate{.type = GateType::kAnd, .name = "g1", .inputs = {a, b}, .outputs = {and_out}});
  const NetId or_out = nl.add_net("or_out");
  nl.add_gate(Gate{.type = GateType::kOr, .name = "g2", .inputs = {and_out, b},
                   .outputs = {or_out}});
  const NetId q = nl.add_net("q");
  const NetId qb = nl.add_net("qb");
  nl.add_gate(Gate{.type = GateType::kMhsFlipFlop,
                   .name = "ff",
                   .inputs = {or_out, or_out, q, qb},
                   .outputs = {q, qb}});
  nl.add_primary_output(q);
  const netlist::NetlistStats stats = nl.stats(GateLibrary::standard());
  EXPECT_DOUBLE_EQ(stats.delay, 4.8);
  EXPECT_EQ(stats.gate_count, 3);
  EXPECT_EQ(stats.literal_count, 4);
}

TEST(NetlistTest, CombinationalCycleWithoutCutIsRejected) {
  Netlist nl("t");
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  nl.add_gate(Gate{.type = GateType::kBuf, .name = "f", .inputs = {a}, .outputs = {b}});
  nl.add_gate(Gate{.type = GateType::kBuf, .name = "g", .inputs = {b}, .outputs = {a}});
  EXPECT_THROW(nl.stats(GateLibrary::standard()), Error);
  // Marking one element as a feedback cut makes the analysis well defined.
  Netlist cut("t2");
  const NetId c = cut.add_net("c");
  const NetId d = cut.add_net("d");
  cut.add_gate(Gate{.type = GateType::kBuf, .name = "f", .inputs = {c}, .outputs = {d}});
  cut.add_gate(Gate{.type = GateType::kDelayLine,
                    .name = "g",
                    .inputs = {d},
                    .outputs = {c},
                    .feedback_cut = true});
  EXPECT_NO_THROW(cut.stats(GateLibrary::standard()));
}

}  // namespace
}  // namespace nshot
