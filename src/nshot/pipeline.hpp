// nshot::Pipeline — the one-call facade over the full N-SHOT flow:
//
//   STG (.g text)  --reachability-->  SG  --synthesize-->  netlist
//        --check_conformance-->  closed-loop verification
//        --run_stress-->        fault battery + margins (optional)
//
// plus an owned obs::Session so every run is traced and reportable
// without the caller touching the observability layer.  The shared
// nshot::RunConfig (seed / jobs / deadlines) is applied once here and
// propagated to every stage's options, replacing the per-stage copies
// callers previously had to keep in sync.
//
// The facade adds no policy of its own: each stage is the same public
// function the examples called directly, in the same order, with the
// same defaults, so porting a caller to Pipeline changes no results.
#pragma once

#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "faults/stress.hpp"
#include "nshot/synthesis.hpp"
#include "obs/obs.hpp"
#include "sg/state_graph.hpp"
#include "sim/conformance.hpp"
#include "util/error.hpp"
#include "util/run_config.hpp"

namespace nshot {

struct PipelineOptions {
  /// Shared run knobs, applied to synthesis/conformance/stress before a
  /// run (overriding whatever those sub-structs carry).
  RunConfig run;
  core::SynthesisOptions synthesis;
  sim::ConformanceOptions conformance;
  faults::StressOptions stress;

  /// Closed-loop random-delay conformance check after synthesis.
  bool verify_conformance = true;
  /// Fault battery + margin sweep (slow; off by default).
  bool stress_test = false;
  /// Own an obs::Session for the Pipeline's lifetime.  When false (or when
  /// a session already exists elsewhere) the pipeline runs uninstrumented
  /// and trace_json()/report() return empty results.
  bool collect_observability = true;
  /// Report label; the first run's benchmark name when empty.
  std::string label;
};

/// Everything one run produced.  Stage results keep their native types so
/// existing consumers (describe(), stress_report_json(), ...) work as-is.
struct PipelineRun {
  std::string benchmark;
  sg::StateGraph graph;  // the verified-against state graph
  core::SynthesisResult synthesis;
  sim::ConformanceReport conformance;  // default unless conformance_ran
  bool conformance_ran = false;
  faults::StressReport stress;  // default unless stress_ran
  bool stress_ran = false;
  /// Holds nothing.  perfbench/layers.cpp builds a PipelineRun from eight
  /// positional initializers, the eighth for a retired per-stage record;
  /// this empty slot keeps that layout compiling until it names its fields.
  struct Unused {};
  [[no_unique_address]] Unused unused;

  /// Synthesized, conformant (when checked) and fault-clean (when stressed).
  bool ok() const {
    return (!conformance_ran || conformance.clean()) && (!stress_ran || stress.baseline_clean);
  }
};

/// The checked counterpart of PipelineRun: either a completed run, or a
/// classified failure with enough context to diagnose it without a
/// debugger — which stage failed, the rendered context chain, and the
/// stages that DID complete (the partial diagnostics a batch report
/// keeps).  run_checked never throws for circuit- or budget-shaped
/// failures; escaping exceptions indicate a harness bug.
struct RunOutcome {
  std::optional<PipelineRun> run;  // engaged iff the pipeline completed
  ErrorCode code = ErrorCode::kInternal;  // meaningful when !ok()
  std::string stage;    // failing stage: load|parse|reachability|synthesize|conformance|stress
  std::string message;  // rendered what() including the context chain
  std::vector<std::string> stages_completed;
  /// The captured exception behind a failed outcome (engaged iff !ok()),
  /// so the legacy throwing wrappers can rethrow the ORIGINAL exception
  /// object — type, context chain and all.  Never serialized.
  std::exception_ptr exception;

  bool ok() const { return run.has_value(); }
};

/// One unit of pipeline work, self-describing enough to travel over a
/// wire or a manifest line: a circuit spec plus per-request overrides
/// layered over the pipeline's base configuration.  This is the single
/// submission surface — the legacy run/run_g/run_checked/run_checked_g
/// quartet is now a set of thin wrappers over Pipeline::submit(Request).
struct Request {
  /// Client-assigned identifier, echoed in the Response (may be empty).
  std::string id;

  /// Requested stage set, doubling as the admission class in the batch
  /// server: "synthesis" (stop after synthesize), "conformance"
  /// (synthesize + closed-loop verification), "stress" (conformance +
  /// fault battery/margins).  Empty inherits the pipeline's base
  /// verify_conformance / stress_test toggles.  Anything else is
  /// rejected as kInputInvalid.
  std::string kind;

  /// Circuit spec — exactly one of the three forms below must be set:
  /// `spec` uses the batch-manifest spellings (bench:NAME | file:PATH |
  /// gen:SEED), `g_text` is inline `.g` STG text, `graph` is a pre-built
  /// state graph (non-owning views via an aliasing shared_ptr are fine).
  std::string spec;
  std::string g_text;
  std::shared_ptr<const sg::StateGraph> graph;

  /// Per-request overrides over the base RunConfig / stage knobs — the
  /// same key set batch manifests accept: seed, jobs, runs, deadline_ms,
  /// stage_deadline_ms, stress, exact.  Applied after `kind`, so
  /// `stress=1` can re-enable the battery on a "conformance" request.
  /// Unknown keys are rejected as kInputInvalid.
  std::map<std::string, std::string> overrides;

  /// The accepted override keys (shared with BatchRunner::parse_manifest).
  static const std::set<std::string>& known_override_keys();
};

/// What one Request produced.  The deterministic, byte-comparable part of
/// the story lives in payload_json(); the wall-clock part (elapsed_ms,
/// attempts) is appended only by to_json(), so two runs of the same work
/// — serial batch or concurrent server, cold cache or warm — render
/// byte-identical payloads.
struct Response {
  std::string id;       // echoed Request::id
  RunOutcome outcome;
  double elapsed_ms = 0.0;  // wall clock of the submit() call
  int attempts = 1;         // execution attempts (retries are driver policy)

  /// Deterministic RunOutcome-derived payload (one JSON object, no
  /// trailing newline): identity, stages, synthesis/conformance/stress
  /// summaries or the classified error.  No timing fields.
  std::string payload_json() const;

  /// Full wire response: the payload plus elapsed_ms / attempts.
  std::string to_json() const;
};

class Pipeline {
 public:
  explicit Pipeline(PipelineOptions options = {});
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// THE submission surface: resolve the request's spec, layer its kind
  /// and overrides over this pipeline's base options, and run the staged
  /// flow under the RunConfig deadline knobs — each stage runs under a
  /// CancelToken budgeted to min(stage_deadline_ms, remaining run
  /// deadline_ms), with a Watchdog firing the token on wall-clock overrun
  /// so even non-polling work is cancelled at its next checkpoint.
  /// Never throws: every failure — including spec-resolution problems,
  /// reported as stage "load" — comes back as a classified RunOutcome.
  ///
  /// Thread-safe for concurrent calls on one Pipeline: each call works on
  /// its own copy of the options and shares only immutable state (plus
  /// the process-wide memo caches, which are internally synchronized).
  /// Concurrent callers should construct the Pipeline with a non-empty
  /// label; the first-run-names-the-session convenience is unsynchronized.
  Response submit(const Request& request);

  /// Deprecated entry points, now thin wrappers over submit().  Kept (one
  /// release, like the RunConfig field aliases before them) so existing
  /// callers compile unchanged; new code should build a Request.
  ///
  /// run/run_g rethrow the original exception on failure — e.g.
  /// core::SynthesisError when the SG is not implementable.  Note one
  /// (documented) improvement over the historical behavior: the RunConfig
  /// deadline knobs are now enforced on this path too (they default to 0
  /// = unbounded, so callers that never set them see no change).
  PipelineRun run(const sg::StateGraph& sg);
  PipelineRun run_g(const std::string& g_text);

  /// Checked variants: Response::outcome of the equivalent submit().
  RunOutcome run_checked(const sg::StateGraph& sg);
  RunOutcome run_checked_g(const std::string& g_text);

  const PipelineOptions& options() const { return options_; }

  /// The owned session; nullptr when collect_observability was false or
  /// another session was already active at construction.
  obs::Session* session() { return session_.get(); }

  /// Exporter pass-throughs; empty-session results when uninstrumented.
  obs::RunReport report() const;
  std::string report_json(const obs::ReportOptions& options = {}) const;
  std::string trace_json(const obs::TraceOptions& options = {}) const;

 private:
  RunOutcome run_with(const PipelineOptions& options, const sg::StateGraph* graph,
                      const std::string* g_text);

  PipelineOptions options_;
  std::unique_ptr<obs::Session> session_;
};

/// The per-request effective options: `base` with the request's kind and
/// overrides applied and the shared RunConfig re-fanned into every stage
/// struct.  Throws Error(kInputInvalid) on unknown kinds, unknown
/// override keys or out-of-range values.  Exposed for drivers
/// (BatchRunner, the serve admission queue) that need to inspect the
/// effective deadline before scheduling.
PipelineOptions request_options(const PipelineOptions& base, const Request& request);

}  // namespace nshot
