// nshot::BatchRunner — crash-safe batch execution over the Pipeline
// facade.
//
// A batch is a text manifest of independent runs (one per line); the
// runner executes them sequentially through Pipeline::submit — each
// manifest entry IS a nshot::Request (see entry_request) — so every
// failure comes back classified (ErrorCode + failing stage + context
// chain) instead of aborting the batch.  Robustness machinery:
//
//  * per-run error isolation — a run that fails, times out, or is
//    rejected as unimplementable is recorded and the batch continues;
//  * bounded retry with backoff for the transient failure classes
//    (resource-exhausted, deadline-exceeded); deterministic failures
//    (input-invalid, unimplementable, internal) are never retried;
//  * a checkpointed JSONL journal — one line appended and flushed per
//    finished run, so a crashed or killed batch resumes by re-reading the
//    journal and skipping every run that already has a terminal line
//    (truncated trailing lines from a mid-write crash are ignored);
//  * a machine-readable summary (schemas/batch.schema.json) with a
//    failure-class histogram.
//
// Manifest format (hash comments and blank lines are skipped):
//
//   <id> <spec> [key=value ...]
//
// where <spec> is one of
//   bench:NAME   a built-in Table 2 benchmark reconstruction
//   file:PATH    a .g (STG) or .sg (state graph) text file
//   gen:SEED     a seeded random semi-modular STG (bench_suite generator)
//
// and the keys override the shared RunConfig / stage knobs per run:
//   seed, jobs, runs (conformance trials), deadline_ms, stage_deadline_ms,
//   verify_kernels, stress, exact.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "nshot/pipeline.hpp"

namespace nshot {

struct BatchOptions {
  /// Base pipeline configuration every run starts from; manifest keys
  /// override per run.  Batch runs default to no owned obs session.
  PipelineOptions pipeline;
  /// JSONL journal path; empty disables journaling (and resume).
  std::string journal_path;
  /// Extra attempts for transient failures (resource/deadline), per run.
  int max_retries = 1;
  /// Sleep between retry attempts (0 = immediate, used by tests).
  double backoff_ms = 0.0;
  /// Stop after this many newly-executed runs (0 = no limit) — simulates
  /// a crash mid-batch; the CI resume smoke uses it to assert that a
  /// second invocation skips exactly the journaled prefix.
  int stop_after = 0;
  /// Keep each executed run's deterministic Response::payload_json() in
  /// BatchRunResult::payload — the serial reference the serve load-replay
  /// harness compares concurrent server payloads against, byte for byte.
  bool record_payloads = false;
};

/// One parsed manifest line.
struct BatchEntry {
  std::string id;
  std::string spec;                          // "bench:...", "file:...", "gen:..."
  std::map<std::string, std::string> params;  // key=value overrides
  int line = 0;                              // 1-based manifest line (diagnostics)
};

/// Terminal outcome of one batch run.
struct BatchRunResult {
  std::string id;
  bool ok = false;
  bool resumed = false;  // skipped: the journal already had a terminal line
  ErrorCode code = ErrorCode::kInternal;  // meaningful when !ok && !resumed
  std::string stage;
  std::string message;
  int attempts = 0;   // executed attempts this invocation (0 when resumed)
  double elapsed_ms = 0.0;
  int kernel_fallbacks = 0;  // stages that kept a reference result (verify_kernels)
  std::string payload;  // Response::payload_json() when record_payloads was set
};

struct BatchSummary {
  int total = 0;      // manifest entries
  int executed = 0;   // runs attempted this invocation
  int succeeded = 0;  // ok over the whole batch (including resumed oks)
  int failed = 0;
  int resumed = 0;    // skipped via journal
  int retries = 0;    // extra attempts spent on transient failures
  bool stopped_early = false;  // stop_after tripped before the manifest ended
  std::map<std::string, int> failures_by_code;  // code name -> count
  std::vector<BatchRunResult> runs;

  /// Render per schemas/batch.schema.json.
  std::string to_json() const;
};

class BatchRunner {
 public:
  explicit BatchRunner(BatchOptions options);

  /// Parse manifest text; throws Error(kInputInvalid) naming the offending
  /// line on malformed entries or duplicate ids.
  static std::vector<BatchEntry> parse_manifest(const std::string& text);

  /// A manifest of `count` generated circuits (`gen-<i> gen:<seed_i>`),
  /// seeds derived run_seed(base_seed, i); `extra_params` is appended to
  /// every line (e.g. "deadline_ms=2000 verify_kernels=1").
  static std::string soak_manifest(int count, std::uint64_t base_seed,
                                   const std::string& extra_params = "");

  /// The Request a manifest entry denotes: id, spec and overrides carried
  /// over verbatim (the `stress` key stays an override, so `kind` is left
  /// empty).  Shared with the serve replay tooling so a manifest line and
  /// a wire request mean the same run.
  static Request entry_request(const BatchEntry& entry);

  /// Execute the batch.  Never throws for per-run failures; throws only
  /// for harness-level problems (unreadable journal, bad manifest keys).
  BatchSummary run(const std::vector<BatchEntry>& entries);

 private:
  BatchOptions options_;
};

}  // namespace nshot
