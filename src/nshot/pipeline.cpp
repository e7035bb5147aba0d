#include "nshot/pipeline.hpp"

#include <algorithm>
#include <optional>

#include "exec/cancel.hpp"
#include "stg/g_format.hpp"
#include "stg/reachability.hpp"
#include "util/error.hpp"

namespace nshot {

namespace {

/// Wall-clock budget of the next stage: min(per-stage budget, remaining
/// run budget); 0 = unbounded.
double stage_budget_ms(const RunConfig& run, const exec::CancelToken& run_token) {
  double budget = run.stage_deadline_ms > 0 ? run.stage_deadline_ms : 0.0;
  if (run.deadline_ms > 0) {
    const double left = run_token.remaining_ms();
    budget = budget > 0 ? std::min(budget, left) : left;
  }
  return budget;
}

/// Execute one pipeline stage under its deadline budget.  The stage gets
/// its own CancelToken (installed thread-current, so it propagates into
/// every parallel_for the stage runs) and a Watchdog that fires the token
/// on wall-clock overrun; a fired token surfaces as Error(kDeadlineExceeded)
/// from the next checkpoint.  Errors gain a "stage <name>" context frame.
template <typename Fn>
void run_stage(const char* name, const RunConfig& run, const exec::CancelToken& run_token,
               Fn&& fn) {
  if (run.deadline_ms > 0 && run_token.remaining_ms() <= 0)
    throw Error(ErrorCode::kDeadlineExceeded,
                std::string("run budget exhausted before stage ") + name);
  const double budget = stage_budget_ms(run, run_token);
  if (budget <= 0) {
    with_error_context(std::string("stage ") + name, fn);
    return;
  }
  const exec::CancelToken token = exec::CancelToken::with_deadline(budget);
  const exec::CancelScope scope(token);
  const exec::Watchdog watchdog(
      token, budget, std::string("stage '") + name + "' exceeded its deadline budget");
  with_error_context(std::string("stage ") + name, fn);
}

}  // namespace

Pipeline::Pipeline(PipelineOptions options) : options_(std::move(options)) {
  // Apply the shared RunConfig once, up front: every stage below sees the
  // same seed / jobs / verify_kernels regardless of what the caller left
  // in the per-stage sub-structs.
  options_.synthesis.apply_run_config(options_.run);
  options_.conformance.apply_run_config(options_.run);
  options_.stress.apply_run_config(options_.run);
  options_.stress.adversarial.apply_run_config(options_.run);
  if (options_.collect_observability && !obs::session_active())
    session_ = std::make_unique<obs::Session>("nshot", options_.label);
}

Pipeline::~Pipeline() = default;

namespace {

/// A Request viewing `sg` without copying it (the aliasing-constructor
/// trick: an empty owner, so the shared_ptr never deletes).  The view is
/// only valid for the duration of the submit() call, which is exactly the
/// lifetime the legacy by-reference entry points promised.
Request graph_request(const sg::StateGraph& sg) {
  Request request;
  request.graph = std::shared_ptr<const sg::StateGraph>(std::shared_ptr<void>(), &sg);
  return request;
}

}  // namespace

PipelineRun Pipeline::run(const sg::StateGraph& sg) {
  Response response = submit(graph_request(sg));
  if (!response.outcome.ok()) std::rethrow_exception(response.outcome.exception);
  return std::move(*response.outcome.run);
}

PipelineRun Pipeline::run_g(const std::string& g_text) {
  Request request;
  request.g_text = g_text;
  Response response = submit(request);
  if (!response.outcome.ok()) std::rethrow_exception(response.outcome.exception);
  return std::move(*response.outcome.run);
}

RunOutcome Pipeline::run_checked(const sg::StateGraph& sg) {
  return submit(graph_request(sg)).outcome;
}

RunOutcome Pipeline::run_checked_g(const std::string& g_text) {
  Request request;
  request.g_text = g_text;
  return submit(request).outcome;
}

RunOutcome Pipeline::run_with(const PipelineOptions& options, const sg::StateGraph* graph_in,
                              const std::string* g_text) {
  RunOutcome out;
  const exec::CancelToken run_token =
      exec::CancelToken::with_deadline(options.run.deadline_ms);
  const char* stage = g_text ? "parse" : "synthesize";
  try {
    std::optional<sg::StateGraph> graph;
    if (g_text) {
      stg::Stg parsed;
      run_stage("parse", options.run, run_token, [&] { parsed = stg::parse_g(*g_text); });
      out.stages_completed.emplace_back("parse");
      stage = "reachability";
      run_stage("reachability", options.run, run_token,
                [&] { graph.emplace(stg::build_state_graph(parsed)); });
      out.stages_completed.emplace_back("reachability");
      stage = "synthesize";
    } else {
      graph.emplace(*graph_in);
    }
    if (session_ && session_->label().empty()) session_->set_label(graph->name());

    std::optional<core::SynthesisResult> synthesis;
    run_stage("synthesize", options.run, run_token,
              [&] { synthesis.emplace(core::synthesize(*graph, options.synthesis)); });
    out.stages_completed.emplace_back("synthesize");

    PipelineRun result{graph->name(), std::move(*graph), std::move(*synthesis),
                       {}, false, {}, false, {}};
    if (options.verify_conformance) {
      stage = "conformance";
      run_stage("conformance", options.run, run_token, [&] {
        result.conformance =
            sim::check_conformance(result.graph, result.synthesis.circuit, options.conformance);
      });
      if (!result.conformance.kernel_divergence.empty()) {
        obs::count(obs::Counter::kKernelFallbacks);
        result.kernel_fallbacks.push_back("conformance: " + result.conformance.kernel_divergence);
      }
      result.conformance_ran = true;
      out.stages_completed.emplace_back("conformance");
    }
    if (options.stress_test) {
      stage = "stress";
      run_stage("stress", options.run, run_token, [&] {
        result.stress = faults::run_stress(result.graph, result.synthesis.circuit,
                                           result.benchmark, options.stress);
      });
      result.stress_ran = true;
      out.stages_completed.emplace_back("stress");
    }
    out.run.emplace(std::move(result));
  } catch (const Error& e) {
    out.code = e.code();
    out.stage = stage;
    out.message = e.what();
    out.exception = std::current_exception();
  } catch (const std::exception& e) {
    out.code = classify_exception(e);
    out.stage = stage;
    out.message = e.what();
    out.exception = std::current_exception();
  }
  return out;
}

obs::RunReport Pipeline::report() const {
  return session_ ? session_->report() : obs::RunReport{};
}

std::string Pipeline::report_json(const obs::ReportOptions& options) const {
  return session_ ? session_->report_json(options) : obs::report_json(obs::RunReport{}, options);
}

std::string Pipeline::trace_json(const obs::TraceOptions& options) const {
  return session_ ? session_->trace_json(options) : std::string("{\"traceEvents\":[]}\n");
}

}  // namespace nshot
