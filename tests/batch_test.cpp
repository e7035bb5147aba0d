// BatchRunner tests: manifest parsing (including the classified rejection
// of malformed lines), the crash-safe JSONL journal (resume, truncated
// trailing lines), bounded transient retry, stop_after crash simulation,
// and the summary's failure-class accounting.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "nshot/batch.hpp"
#include "util/error.hpp"

namespace nshot {
namespace {

// The fast three-signal cycle used across the robustness tests.
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

BatchOptions quiet_options() {
  BatchOptions options;
  options.pipeline.collect_observability = false;
  options.pipeline.conformance.runs = 2;
  return options;
}

// Scratch file helper: unique path under the gtest temp dir, removed on
// destruction so journal tests do not leak state between runs.
struct ScratchFile {
  explicit ScratchFile(const std::string& name) : path(::testing::TempDir() + name) {
    std::remove(path.c_str());
  }
  ~ScratchFile() { std::remove(path.c_str()); }
  void write(const std::string& text) const {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }
  std::string read() const {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  }
  int lines() const {
    const std::string text = read();
    int n = 0;
    for (const char c : text) n += (c == '\n');
    return n;
  }
  std::string path;
};

// ---------------------------------------------------------------------------
// Manifest parsing
// ---------------------------------------------------------------------------

TEST(BatchManifestTest, ParsesIdsSpecsAndParams) {
  const auto entries = BatchRunner::parse_manifest(
      "# comment\n"
      "\n"
      "a bench:converta seed=7 runs=3\n"
      "b gen:42 deadline_ms=100\n"
      "c file:circuits/x.g\n");
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].id, "a");
  EXPECT_EQ(entries[0].spec, "bench:converta");
  EXPECT_EQ(entries[0].params.at("seed"), "7");
  EXPECT_EQ(entries[0].params.at("runs"), "3");
  EXPECT_EQ(entries[0].line, 3);
  EXPECT_EQ(entries[1].spec, "gen:42");
  EXPECT_EQ(entries[2].spec, "file:circuits/x.g");
}

TEST(BatchManifestTest, RejectsMalformedLinesWithTheLineNumber) {
  const auto expect_invalid = [](const std::string& text, const std::string& needle) {
    try {
      BatchRunner::parse_manifest(text);
      FAIL() << "expected Error for: " << text;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInputInvalid);
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  expect_invalid("lonely_id\n", "line 1");
  expect_invalid("x nosuchscheme:foo\n", "line 1");
  expect_invalid("x bench:converta not_an_override\n", "line 1");
  expect_invalid("x bench:converta bogus_key=1\n", "bogus_key");
  expect_invalid("a bench:converta\n\na bench:vme\n", "duplicate");
}

TEST(BatchManifestTest, SoakManifestIsParsableAndSeeded) {
  const std::string text = BatchRunner::soak_manifest(5, 99, "deadline_ms=1000");
  const auto entries = BatchRunner::parse_manifest(text);
  ASSERT_EQ(entries.size(), 5u);
  for (const auto& entry : entries) {
    EXPECT_EQ(entry.spec.rfind("gen:", 0), 0u) << entry.spec;
    EXPECT_EQ(entry.params.at("deadline_ms"), "1000");
  }
  // Distinct derived seeds per run.
  EXPECT_NE(entries[0].spec, entries[1].spec);
}

// ---------------------------------------------------------------------------
// Execution, isolation, retry
// ---------------------------------------------------------------------------

TEST(BatchRunTest, FailuresAreIsolatedAndClassified) {
  ScratchFile circuit("batch_test_xyz.g");
  circuit.write(kXyzG);
  BatchRunner runner(quiet_options());
  const auto entries = BatchRunner::parse_manifest(
      "good file:" + circuit.path + "\n" +
      "missing file:" + circuit.path + ".does-not-exist\n" +
      "good2 bench:converta runs=2\n");
  const BatchSummary summary = runner.run(entries);
  EXPECT_EQ(summary.total, 3);
  EXPECT_EQ(summary.executed, 3);
  EXPECT_EQ(summary.succeeded, 2);
  EXPECT_EQ(summary.failed, 1);
  ASSERT_EQ(summary.runs.size(), 3u);
  EXPECT_TRUE(summary.runs[0].ok);
  ASSERT_FALSE(summary.runs[1].ok);
  EXPECT_EQ(summary.runs[1].code, ErrorCode::kInputInvalid);
  EXPECT_TRUE(summary.runs[2].ok);
  EXPECT_EQ(summary.failures_by_code.at("input_invalid"), 1);
  // Deterministic failures are never retried.
  EXPECT_EQ(summary.runs[1].attempts, 1);
  EXPECT_EQ(summary.retries, 0);
}

TEST(BatchRunTest, TransientDeadlineFailuresAreRetried) {
  BatchOptions options = quiet_options();
  options.max_retries = 2;
  BatchRunner runner(options);
  // A sub-microsecond budget fails deterministically on every attempt, so
  // the runner spends exactly max_retries extra attempts before giving up.
  const auto entries = BatchRunner::parse_manifest("slow bench:converta deadline_ms=0.000001\n");
  const BatchSummary summary = runner.run(entries);
  ASSERT_EQ(summary.runs.size(), 1u);
  EXPECT_FALSE(summary.runs[0].ok);
  EXPECT_EQ(summary.runs[0].code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(summary.runs[0].attempts, 3);  // 1 + max_retries
  EXPECT_EQ(summary.retries, 2);
  EXPECT_EQ(summary.failures_by_code.at("deadline_exceeded"), 1);
}

// ---------------------------------------------------------------------------
// Journal: checkpointing, resume, truncation tolerance
// ---------------------------------------------------------------------------

TEST(BatchJournalTest, StopAfterSimulatesACrashAndResumeSkipsTheJournaledPrefix) {
  ScratchFile journal("batch_test_journal.jsonl");
  const auto entries =
      BatchRunner::parse_manifest(BatchRunner::soak_manifest(6, 7, "runs=2"));

  BatchOptions first = quiet_options();
  first.journal_path = journal.path;
  first.stop_after = 2;
  const BatchSummary crashed = BatchRunner(first).run(entries);
  EXPECT_TRUE(crashed.stopped_early);
  EXPECT_EQ(crashed.executed, 2);
  EXPECT_EQ(journal.lines(), 2);

  BatchOptions second = quiet_options();
  second.journal_path = journal.path;
  const BatchSummary resumed = BatchRunner(second).run(entries);
  EXPECT_FALSE(resumed.stopped_early);
  EXPECT_EQ(resumed.total, 6);
  EXPECT_EQ(resumed.resumed, 2);
  EXPECT_EQ(resumed.executed, 4);
  EXPECT_EQ(journal.lines(), 6);
  ASSERT_EQ(resumed.runs.size(), 6u);
  EXPECT_TRUE(resumed.runs[0].resumed);
  EXPECT_TRUE(resumed.runs[1].resumed);
  EXPECT_EQ(resumed.runs[0].attempts, 0);
  EXPECT_FALSE(resumed.runs[2].resumed);

  // A third invocation is a pure no-op: everything resumes.
  const BatchSummary done = BatchRunner(second).run(entries);
  EXPECT_EQ(done.resumed, 6);
  EXPECT_EQ(done.executed, 0);
}

TEST(BatchJournalTest, TruncatedTrailingLineIsReExecuted) {
  ScratchFile journal("batch_test_truncated.jsonl");
  ScratchFile circuit("batch_test_trunc_xyz.g");
  circuit.write(kXyzG);
  const auto entries = BatchRunner::parse_manifest(
      "a file:" + circuit.path + "\nb file:" + circuit.path + "\n");

  // Simulate a crash mid-write: run "a"'s line is complete, run "b"'s was
  // cut off before the closing brace.
  journal.write(
      "{\"id\":\"a\",\"status\":\"ok\",\"attempts\":1,\"elapsed_ms\":1.0}\n"
      "{\"id\":\"b\",\"status\":\"ok\",\"atte");

  BatchOptions options = quiet_options();
  options.journal_path = journal.path;
  const BatchSummary summary = BatchRunner(options).run(entries);
  EXPECT_EQ(summary.resumed, 1);
  EXPECT_EQ(summary.executed, 1);
  ASSERT_EQ(summary.runs.size(), 2u);
  EXPECT_TRUE(summary.runs[0].resumed);
  EXPECT_FALSE(summary.runs[1].resumed);
  EXPECT_TRUE(summary.runs[1].ok);
}

TEST(BatchJournalTest, ResumedFailuresKeepTheirRecordedClassification) {
  ScratchFile journal("batch_test_failed_resume.jsonl");
  journal.write(
      "{\"id\":\"x\",\"status\":\"failed\",\"code\":\"unimplementable\",\"stage\":\"synthesize\","
      "\"message\":\"no trigger\",\"attempts\":1,\"elapsed_ms\":2.0}\n");
  BatchOptions options = quiet_options();
  options.journal_path = journal.path;
  const auto entries = BatchRunner::parse_manifest("x bench:converta\n");
  const BatchSummary summary = BatchRunner(options).run(entries);
  EXPECT_EQ(summary.executed, 0);
  EXPECT_EQ(summary.resumed, 1);
  EXPECT_EQ(summary.failed, 1);
  ASSERT_EQ(summary.runs.size(), 1u);
  EXPECT_FALSE(summary.runs[0].ok);
  EXPECT_EQ(summary.runs[0].code, ErrorCode::kUnimplementable);
  EXPECT_EQ(summary.failures_by_code.at("unimplementable"), 1);
}

// ---------------------------------------------------------------------------
// Summary shape
// ---------------------------------------------------------------------------

TEST(BatchSummaryTest, JsonCarriesTheSchemaRequiredFields) {
  BatchRunner runner(quiet_options());
  const auto entries = BatchRunner::parse_manifest(
      "ok bench:converta runs=2\nbad bench:no_such_benchmark\n");
  const std::string json = runner.run(entries).to_json();
  for (const char* field :
       {"\"total\":", "\"executed\":", "\"succeeded\":", "\"failed\":", "\"resumed\":",
        "\"retries\":", "\"stopped_early\":", "\"failures_by_code\":", "\"runs\":",
        "\"elapsed_ms\":", "\"attempts\":"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field << " missing from " << json;
  }
  EXPECT_EQ(json.find("kernel_fallbacks"), std::string::npos) << json;
  EXPECT_NE(json.find("\"code\":\"input_invalid\""), std::string::npos) << json;
}

}  // namespace
}  // namespace nshot
