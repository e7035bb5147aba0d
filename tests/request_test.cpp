// The unified Request/Response surface: spec resolution, kind + override
// layering, the deterministic payload contract, and the legacy
// run/run_g/run_checked/run_checked_g wrappers staying faithful to
// submit() (same results, original exception types on the throwing
// paths).
#include <gtest/gtest.h>

#include <string>

#include "bench_suite/benchmarks.hpp"
#include "nshot/pipeline.hpp"
#include "util/error.hpp"

namespace nshot {
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

PipelineOptions quiet_options() {
  PipelineOptions options;
  options.collect_observability = false;
  options.conformance.runs = 4;
  return options;
}

// The CSC-violating two-signal graph from nshot_test: two states share
// the code 0b00, so synthesis must reject it with SynthesisError.
sg::StateGraph csc_violation_graph() {
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
  return g;
}

// ---------------------------------------------------------------------------
// Spec resolution
// ---------------------------------------------------------------------------

TEST(SubmitTest, ResolvesBenchSpec) {
  Pipeline pipeline(quiet_options());
  Request request;
  request.id = "r1";
  request.spec = "bench:chu133";
  const Response response = pipeline.submit(request);
  ASSERT_TRUE(response.outcome.ok()) << response.outcome.message;
  EXPECT_EQ(response.id, "r1");
  EXPECT_EQ(response.outcome.run->benchmark, "chu133");
  EXPECT_TRUE(response.outcome.run->conformance_ran);
}

TEST(SubmitTest, ResolvesGenSpecAndInlineGText) {
  Pipeline pipeline(quiet_options());
  Request gen;
  gen.spec = "gen:7";
  const Response from_gen = pipeline.submit(gen);
  // Generated circuits may fail classified, but never with an escaping
  // exception or an internal code.
  if (!from_gen.outcome.ok()) {
    EXPECT_NE(from_gen.outcome.code, ErrorCode::kInternal);
  }

  Request inline_g;
  inline_g.g_text = kXyzG;
  const Response from_text = pipeline.submit(inline_g);
  ASSERT_TRUE(from_text.outcome.ok()) << from_text.outcome.message;
  const std::vector<std::string> expected = {"parse", "reachability", "synthesize", "conformance"};
  EXPECT_EQ(from_text.outcome.stages_completed, expected);
}

TEST(SubmitTest, UnknownBenchmarkIsClassifiedAsLoad) {
  Pipeline pipeline(quiet_options());
  Request request;
  request.id = "nope";
  request.spec = "bench:does_not_exist";
  const Response response = pipeline.submit(request);
  ASSERT_FALSE(response.outcome.ok());
  EXPECT_EQ(response.outcome.stage, "load");
  // The request id is part of the context chain.
  EXPECT_NE(response.outcome.message.find("request nope"), std::string::npos)
      << response.outcome.message;
}

TEST(SubmitTest, RejectsAmbiguousOrMissingSpec) {
  Pipeline pipeline(quiet_options());
  const Response none = pipeline.submit(Request{});
  ASSERT_FALSE(none.outcome.ok());
  EXPECT_EQ(none.outcome.code, ErrorCode::kInputInvalid);
  EXPECT_EQ(none.outcome.stage, "load");

  Request both;
  both.spec = "bench:chu133";
  both.g_text = kXyzG;
  const Response two = pipeline.submit(both);
  ASSERT_FALSE(two.outcome.ok());
  EXPECT_EQ(two.outcome.code, ErrorCode::kInputInvalid);

  Request malformed;
  malformed.spec = "http:not-a-spec";
  const Response bad = pipeline.submit(malformed);
  ASSERT_FALSE(bad.outcome.ok());
  EXPECT_EQ(bad.outcome.code, ErrorCode::kInputInvalid);
}

// ---------------------------------------------------------------------------
// Kind + overrides
// ---------------------------------------------------------------------------

TEST(SubmitTest, KindSelectsTheStageSet) {
  Pipeline pipeline(quiet_options());
  Request request;
  request.g_text = kXyzG;

  request.kind = "synthesis";
  const Response synth = pipeline.submit(request);
  ASSERT_TRUE(synth.outcome.ok()) << synth.outcome.message;
  EXPECT_FALSE(synth.outcome.run->conformance_ran);
  EXPECT_FALSE(synth.outcome.run->stress_ran);

  request.kind = "conformance";
  const Response conf = pipeline.submit(request);
  ASSERT_TRUE(conf.outcome.ok()) << conf.outcome.message;
  EXPECT_TRUE(conf.outcome.run->conformance_ran);
  EXPECT_FALSE(conf.outcome.run->stress_ran);

  request.kind = "unheard-of";
  const Response bad = pipeline.submit(request);
  ASSERT_FALSE(bad.outcome.ok());
  EXPECT_EQ(bad.outcome.code, ErrorCode::kInputInvalid);
  EXPECT_EQ(bad.outcome.stage, "load");
}

TEST(SubmitTest, OverridesLayerOverBaseOptions) {
  Pipeline pipeline(quiet_options());
  Request request;
  request.g_text = kXyzG;
  request.overrides["runs"] = "2";
  request.overrides["seed"] = "99";
  const Response response = pipeline.submit(request);
  ASSERT_TRUE(response.outcome.ok()) << response.outcome.message;
  EXPECT_EQ(response.outcome.run->conformance.runs, 2);
  // The pipeline's own options are untouched — submit layers per call.
  EXPECT_EQ(pipeline.options().conformance.runs, 4);
  EXPECT_EQ(pipeline.options().run.seed, 1u);

  Request bad = request;
  bad.overrides["warp_factor"] = "9";
  const Response rejected = pipeline.submit(bad);
  ASSERT_FALSE(rejected.outcome.ok());
  EXPECT_EQ(rejected.outcome.code, ErrorCode::kInputInvalid);
  EXPECT_NE(rejected.outcome.message.find("warp_factor"), std::string::npos);
}

/// A request whose only override is `key`, submitted to a quiet pipeline.
Response submit_with_override(const std::string& key) {
  Pipeline pipeline(quiet_options());
  Request request;
  request.g_text = kXyzG;
  request.overrides[key] = "1";
  return pipeline.submit(request);
}

TEST(SubmitTest, RetiredGrainKeyIsRejected) {
  // Every sweep sizes its own chunks (exec::batch_grain); the key is gone.
  const Response response = submit_with_override("grain");
  ASSERT_FALSE(response.outcome.ok());
  EXPECT_EQ(response.outcome.code, ErrorCode::kInputInvalid);
  EXPECT_NE(response.outcome.message.find("unknown override key 'grain'"), std::string::npos)
      << response.outcome.message;
}

TEST(SubmitTest, RetiredReferenceKernelsKeyIsRejected) {
  // Every kernel has one production path; the key that picked a second
  // one is gone.
  const Response response = submit_with_override("reference_kernels");
  ASSERT_FALSE(response.outcome.ok());
  EXPECT_EQ(response.outcome.code, ErrorCode::kInputInvalid);
  EXPECT_NE(response.outcome.message.find("unknown override key 'reference_kernels'"),
            std::string::npos)
      << response.outcome.message;
}

TEST(SubmitTest, RetiredVerifyKernelsKeyIsRejected) {
  // The runtime trial cross-check is gone (the reference trial is a test
  // oracle now), and so is the key that switched it on.
  const Response response = submit_with_override("verify_kernels");
  ASSERT_FALSE(response.outcome.ok());
  EXPECT_EQ(response.outcome.code, ErrorCode::kInputInvalid);
  EXPECT_NE(response.outcome.message.find("unknown override key 'verify_kernels'"),
            std::string::npos)
      << response.outcome.message;
}

TEST(SubmitTest, DeadlineOverrideIsEnforced) {
  Pipeline pipeline(quiet_options());
  Request request;
  request.g_text = kXyzG;
  request.overrides["deadline_ms"] = "0.000001";
  const Response response = pipeline.submit(request);
  ASSERT_FALSE(response.outcome.ok());
  EXPECT_EQ(response.outcome.code, ErrorCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Payload determinism
// ---------------------------------------------------------------------------

TEST(SubmitTest, PayloadJsonIsByteIdenticalAcrossRepeats) {
  Pipeline pipeline(quiet_options());
  Request request;
  request.id = "det";
  request.spec = "bench:chu133";
  const Response first = pipeline.submit(request);
  const Response second = pipeline.submit(request);
  ASSERT_TRUE(first.outcome.ok()) << first.outcome.message;
  EXPECT_EQ(first.payload_json(), second.payload_json());
  // And the payload is free of wall-clock fields by construction.
  EXPECT_EQ(first.payload_json().find("elapsed"), std::string::npos);
  EXPECT_NE(first.to_json().find("\"elapsed_ms\":"), std::string::npos);
}

TEST(SubmitTest, FailurePayloadCarriesTheTaxonomy) {
  Pipeline pipeline(quiet_options());
  Request request;
  request.id = "broken";
  request.g_text = ".model broken\n.inputs a a\n.end\n";
  const Response response = pipeline.submit(request);
  ASSERT_FALSE(response.outcome.ok());
  const std::string payload = response.payload_json();
  EXPECT_NE(payload.find("\"ok\":false"), std::string::npos) << payload;
  EXPECT_NE(payload.find("\"code\":\"input_invalid\""), std::string::npos) << payload;
  EXPECT_NE(payload.find("\"stage\":\"parse\""), std::string::npos) << payload;
}

// ---------------------------------------------------------------------------
// Legacy wrapper fidelity
// ---------------------------------------------------------------------------

TEST(LegacyWrapperTest, RunCheckedMatchesSubmitOutcome) {
  Pipeline pipeline(quiet_options());
  const RunOutcome wrapped = pipeline.run_checked_g(kXyzG);
  Request request;
  request.g_text = kXyzG;
  const RunOutcome direct = pipeline.submit(request).outcome;
  ASSERT_TRUE(wrapped.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(wrapped.stages_completed, direct.stages_completed);
  EXPECT_EQ(wrapped.run->conformance.external_transitions,
            direct.run->conformance.external_transitions);
  EXPECT_EQ(wrapped.run->conformance.internal_toggles, direct.run->conformance.internal_toggles);
}

TEST(LegacyWrapperTest, RunRethrowsTheOriginalExceptionType) {
  Pipeline pipeline(quiet_options());
  const sg::StateGraph bad = csc_violation_graph();
  // The wrapper routes through submit() internally but still surfaces the
  // ORIGINAL exception object, not a re-wrapped generic Error.
  EXPECT_THROW(pipeline.run(bad), core::SynthesisError);
  EXPECT_THROW(pipeline.run_g(".model broken\n.inputs a a\n.end\n"), Error);
}

TEST(LegacyWrapperTest, RunStillReturnsACompleteRun) {
  Pipeline pipeline(quiet_options());
  const PipelineRun run = pipeline.run(bench_suite::build_benchmark("chu133"));
  EXPECT_EQ(run.benchmark, "chu133");
  EXPECT_TRUE(run.conformance_ran);
  EXPECT_TRUE(run.ok());
}

}  // namespace
}  // namespace nshot
