// The unified Request/Response surface of nshot::Pipeline: spec
// resolution (bench:/file:/gen:, inline .g text, pre-built graphs),
// per-request option layering, and the deterministic JSON payload every
// driver (BatchRunner, the serve protocol, the examples) renders the same
// way.  This file is the one place a "request" is interpreted; the batch
// manifest parser and the wire protocol both delegate here.
#include <chrono>
#include <fstream>
#include <limits>
#include <sstream>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generators.hpp"
#include "nshot/pipeline.hpp"
#include "stg/sg_format.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace nshot {

namespace {

bool parse_flag(const std::string& value) { return !value.empty() && value != "0"; }

/// Apply the request's kind to the stage toggles.  The kind names the
/// largest stage that runs; overrides (applied after) can still re-enable
/// a later stage on a narrower kind.
void apply_kind(PipelineOptions& options, const std::string& kind) {
  if (kind.empty()) return;  // inherit the base toggles
  if (kind == "synthesis") {
    options.verify_conformance = false;
    options.stress_test = false;
  } else if (kind == "conformance") {
    options.verify_conformance = true;
    options.stress_test = false;
  } else if (kind == "stress") {
    options.verify_conformance = true;
    options.stress_test = true;
  } else {
    throw Error(ErrorCode::kInputInvalid,
                "unknown request kind '" + kind +
                    "' (expected synthesis, conformance or stress)");
  }
}

void apply_override(PipelineOptions& options, const std::string& key, const std::string& value) {
  if (key == "seed")
    options.run.seed = static_cast<std::uint64_t>(
        parse_long(value, 0, std::numeric_limits<long>::max(), "seed"));
  else if (key == "jobs")
    options.run.jobs = parse_int(value, 0, 4096, "jobs");
  else if (key == "runs")
    options.conformance.runs = parse_int(value, 0, 1'000'000, "runs");
  else if (key == "deadline_ms")
    options.run.deadline_ms = parse_double(value, 0, 1e9, "deadline_ms");
  else if (key == "stage_deadline_ms")
    options.run.stage_deadline_ms = parse_double(value, 0, 1e9, "stage_deadline_ms");
  else if (key == "verify_kernels")
    options.run.verify_kernels = parse_flag(value);
  else if (key == "stress")
    options.stress_test = parse_flag(value);
  else if (key == "exact")
    options.synthesis.exact = parse_flag(value);
  else
    throw Error(ErrorCode::kInputInvalid, "unknown override key '" + key + "'");
}

}  // namespace

const std::set<std::string>& Request::known_override_keys() {
  static const std::set<std::string> keys = {
      "seed",           "jobs",   "runs", "deadline_ms", "stage_deadline_ms",
      "verify_kernels", "stress", "exact"};
  return keys;
}

PipelineOptions request_options(const PipelineOptions& base, const Request& request) {
  PipelineOptions options = base;
  apply_kind(options, request.kind);
  for (const auto& [key, value] : request.overrides) apply_override(options, key, value);
  // Re-fan the (possibly overridden) shared RunConfig into every stage
  // struct, exactly as the Pipeline constructor does for the base options.
  options.synthesis.apply_run_config(options.run);
  options.conformance.apply_run_config(options.run);
  options.stress.apply_run_config(options.run);
  options.stress.adversarial.apply_run_config(options.run);
  return options;
}

Response Pipeline::submit(const Request& request) {
  Response response;
  response.id = request.id;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    const auto work = [&] {
      const PipelineOptions effective = request_options(options_, request);

      const int spec_forms = (request.spec.empty() ? 0 : 1) + (request.g_text.empty() ? 0 : 1) +
                             (request.graph ? 1 : 0);
      NSHOT_REQUIRE(spec_forms == 1,
                    "request must carry exactly one of spec, g_text or graph (got " +
                        std::to_string(spec_forms) + ")");

      if (request.graph) {
        response.outcome = run_with(effective, request.graph.get(), nullptr);
      } else if (!request.g_text.empty()) {
        response.outcome = run_with(effective, nullptr, &request.g_text);
      } else if (starts_with(request.spec, "bench:")) {
        const sg::StateGraph graph = bench_suite::build_benchmark(request.spec.substr(6));
        response.outcome = run_with(effective, &graph, nullptr);
      } else if (starts_with(request.spec, "gen:")) {
        bench_suite::RandomStgOptions gen;
        gen.seed = static_cast<std::uint64_t>(parse_long(
            request.spec.substr(4), 0, std::numeric_limits<long>::max(), "gen seed"));
        const std::string g_text = bench_suite::random_semimodular_g(gen);
        response.outcome = run_with(effective, nullptr, &g_text);
      } else if (starts_with(request.spec, "file:")) {
        const std::string path = request.spec.substr(5);
        std::ifstream stream(path);
        NSHOT_REQUIRE(static_cast<bool>(stream), "cannot open " + path);
        std::stringstream buffer;
        buffer << stream.rdbuf();
        const bool is_sg = path.size() >= 3 && path.compare(path.size() - 3, 3, ".sg") == 0;
        if (is_sg) {
          const sg::StateGraph graph = stg::parse_sg(buffer.str());
          response.outcome = run_with(effective, &graph, nullptr);
        } else {
          const std::string g_text = buffer.str();
          response.outcome = run_with(effective, nullptr, &g_text);
        }
      } else {
        throw Error(ErrorCode::kInputInvalid,
                    "spec '" + request.spec + "' must be bench:NAME, file:PATH or gen:SEED");
      }
    };
    if (request.id.empty())
      work();
    else
      with_error_context("request " + request.id, work);
  } catch (const Error& e) {
    // Everything thrown before run_with took over is a resolution
    // problem: classify it under the synthetic "load" stage, exactly as
    // BatchRunner always reported bad specs.
    response.outcome.code = e.code();
    response.outcome.stage = "load";
    response.outcome.message = e.what();
    response.outcome.exception = std::current_exception();
  } catch (const std::exception& e) {
    response.outcome.code = classify_exception(e);
    response.outcome.stage = "load";
    response.outcome.message = e.what();
    response.outcome.exception = std::current_exception();
  }
  response.elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  return response;
}

namespace {

/// The deterministic body shared by payload_json and to_json.  Every
/// field here is a pure function of (spec, effective options): counts,
/// slacks and simulated time — never wall-clock measurements, so payloads
/// are byte-comparable across serial/concurrent and cold/warm runs.
void render_payload(JsonWriter& json, const Response& response) {
  const RunOutcome& outcome = response.outcome;
  json.key("id").value(response.id);
  json.key("ok").value(outcome.ok());
  json.key("stages_completed").begin_array();
  for (const std::string& stage : outcome.stages_completed) json.value(stage);
  json.end_array();
  if (outcome.ok()) {
    const PipelineRun& run = *outcome.run;
    json.key("benchmark").value(run.benchmark);
    json.key("clean").value(run.ok());
    json.key("kernel_fallbacks").value(static_cast<int>(run.kernel_fallbacks.size()));
    json.key("synthesis").begin_object();
    json.key("area").value(run.synthesis.stats.area);
    json.key("delay").value(run.synthesis.stats.delay);
    json.key("gates").value(run.synthesis.stats.gate_count);
    json.key("literals").value(run.synthesis.stats.literal_count);
    json.key("cubes").value(static_cast<int>(run.synthesis.cover.size()));
    json.key("single_traversal").value(run.synthesis.single_traversal);
    json.key("delay_compensation").value(run.synthesis.delay_compensation_used);
    json.end_object();
    if (run.conformance_ran) {
      json.key("conformance").begin_object();
      json.key("runs").value(run.conformance.runs);
      json.key("external_transitions").value(run.conformance.external_transitions);
      json.key("internal_toggles").value(run.conformance.internal_toggles);
      json.key("absorbed_pulses").value(run.conformance.absorbed_pulses);
      json.key("simulated_time").value(run.conformance.simulated_time);
      json.key("deadlocks").value(run.conformance.deadlocks);
      json.key("budget_exhausted").value(run.conformance.budget_exhausted);
      json.key("violations").value(static_cast<int>(run.conformance.violations.size()));
      json.end_object();
    }
    if (run.stress_ran) {
      int survived = 0;
      for (const auto& fault : run.stress.outcomes) survived += fault.survived ? 1 : 0;
      json.key("stress").begin_object();
      json.key("margin_runs").value(run.stress.margin_runs);
      json.key("faults").value(static_cast<int>(run.stress.outcomes.size()));
      json.key("survived").value(survived);
      json.key("min_omega_slack").value(run.stress.min_omega_slack);  // null when unmeasured
      json.key("min_eq1_slack").value(run.stress.min_eq1_slack);
      json.key("baseline_clean").value(run.stress.baseline_clean);
      json.key("adversarial_ran").value(run.stress.adversarial_ran);
      json.end_object();
    }
  } else {
    json.key("error").begin_object();
    json.key("code").value(error_code_name(outcome.code));
    json.key("stage").value(outcome.stage);
    json.key("message").value(outcome.message);
    json.end_object();
  }
}

}  // namespace

std::string Response::payload_json() const {
  JsonWriter json;
  json.begin_object();
  render_payload(json, *this);
  json.end_object();
  return json.str();
}

std::string Response::to_json() const {
  JsonWriter json;
  json.begin_object();
  render_payload(json, *this);
  json.key("elapsed_ms").value(elapsed_ms);
  json.key("attempts").value(attempts);
  json.end_object();
  return json.str();
}

}  // namespace nshot
