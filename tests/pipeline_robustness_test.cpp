// Pipeline robustness tests: run_checked's classified RunOutcome on both
// the happy and failure paths, and the RunConfig deadline knobs surfacing
// as clean deadline-exceeded outcomes.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "bench_suite/generators.hpp"
#include "nshot/pipeline.hpp"
#include "util/error.hpp"

namespace nshot {
namespace {

// A trivially-synthesizable three-signal cycle (same shape as the stg_test
// fixture) so the happy-path tests stay fast.
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

// ---------------------------------------------------------------------------
// run_checked classification
// ---------------------------------------------------------------------------

TEST(RunCheckedTest, CompletesAndRecordsEveryStage) {
  Pipeline pipeline(quiet_options());
  const RunOutcome outcome = pipeline.run_checked_g(kXyzG);
  ASSERT_TRUE(outcome.ok()) << outcome.message;
  EXPECT_TRUE(outcome.run->conformance_ran);
  EXPECT_TRUE(outcome.run->ok());
  const std::vector<std::string> expected = {"parse", "reachability", "synthesize", "conformance"};
  EXPECT_EQ(outcome.stages_completed, expected);
}

TEST(RunCheckedTest, MalformedGTextIsInputInvalidAtParse) {
  Pipeline pipeline(quiet_options());
  const RunOutcome outcome = pipeline.run_checked_g(".model broken\n.inputs a a\n.end\n");
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.code, ErrorCode::kInputInvalid);
  EXPECT_EQ(outcome.stage, "parse");
  EXPECT_TRUE(outcome.stages_completed.empty());
  // The message carries the stage context and the line diagnostic.
  EXPECT_NE(outcome.message.find("stage parse"), std::string::npos) << outcome.message;
  EXPECT_NE(outcome.message.find("line 2"), std::string::npos) << outcome.message;
}

TEST(RunCheckedTest, NeverThrowsAcrossAGeneratedSweep) {
  // Every generated circuit must come back classified: ok, or a clean
  // taxonomy code with the failing stage named — never an escaping
  // exception (this is the unit-sized version of the soak campaign).
  Pipeline pipeline(quiet_options());
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    bench_suite::RandomStgOptions gen;
    gen.seed = seed;
    const RunOutcome outcome = pipeline.run_checked_g(bench_suite::random_semimodular_g(gen));
    if (!outcome.ok()) {
      EXPECT_NE(outcome.code, ErrorCode::kInternal)
          << "seed " << seed << ": " << outcome.message;
      EXPECT_FALSE(outcome.stage.empty()) << "seed " << seed;
      EXPECT_FALSE(outcome.message.empty()) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST(RunCheckedTest, ExhaustedRunBudgetIsDeadlineExceeded) {
  PipelineOptions options = quiet_options();
  // A budget this small is spent before the first stage's pre-check, so
  // the outcome is deterministic regardless of host speed.
  options.run.deadline_ms = 1e-6;
  Pipeline pipeline(options);
  const RunOutcome outcome = pipeline.run_checked_g(kXyzG);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.code, ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(outcome.stages_completed.empty());
  EXPECT_NE(outcome.message.find("budget"), std::string::npos) << outcome.message;
}

TEST(RunCheckedTest, DeadlineOutcomeIsIdenticalAtAnyJobs) {
  for (const int jobs : {1, 8}) {
    PipelineOptions options = quiet_options();
    options.run.deadline_ms = 1e-6;
    options.run.jobs = jobs;
    Pipeline pipeline(options);
    const RunOutcome outcome = pipeline.run_checked_g(kXyzG);
    ASSERT_FALSE(outcome.ok()) << "jobs=" << jobs;
    EXPECT_EQ(outcome.code, ErrorCode::kDeadlineExceeded) << "jobs=" << jobs;
    EXPECT_TRUE(outcome.stages_completed.empty()) << "jobs=" << jobs;
  }
}

TEST(RunCheckedTest, GenerousDeadlineDoesNotPerturbTheRun) {
  PipelineOptions options = quiet_options();
  options.run.deadline_ms = 60000;
  options.run.stage_deadline_ms = 30000;
  Pipeline pipeline(options);
  const RunOutcome outcome = pipeline.run_checked_g(kXyzG);
  ASSERT_TRUE(outcome.ok()) << outcome.message;

  // Same circuit, no deadline: the verified trial fingerprints agree, so
  // the deadline plumbing is pure control flow, not a result change.
  Pipeline unbounded(quiet_options());
  const RunOutcome baseline = unbounded.run_checked_g(kXyzG);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(outcome.run->conformance.external_transitions,
            baseline.run->conformance.external_transitions);
  EXPECT_EQ(outcome.run->conformance.internal_toggles, baseline.run->conformance.internal_toggles);
}

// Exact prime generation on master-read runs far past 200 ms, and a single
// seed minterm's expansion can take hundreds of milliseconds by itself, so
// the run only stops near its deadline if the expansion polls it per node.
TEST(RunCheckedTest, ExactMinimizationStopsNearItsDeadline) {
  Pipeline pipeline(quiet_options());
  Request request;
  request.kind = "synthesis";
  request.spec = "bench:master-read";
  request.overrides = {{"exact", "1"}, {"deadline_ms", "200"}};
  const auto start = std::chrono::steady_clock::now();
  const Response response = pipeline.submit(request);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_FALSE(response.outcome.ok());
  EXPECT_EQ(response.outcome.code, ErrorCode::kDeadlineExceeded) << response.outcome.message;
  EXPECT_EQ(response.outcome.stage, "synthesize");
  EXPECT_LT(wall_ms, 200.0 + 250.0);
}

}  // namespace
}  // namespace nshot
