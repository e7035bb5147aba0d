#include "layers.hpp"

#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>

#include "bench_suite/benchmarks.hpp"
#include "faults/stress.hpp"
#include "gatelib/gate_library.hpp"
#include "logic/verify.hpp"
#include "nshot/synthesis.hpp"
#include "sg/properties.hpp"
#include "sg/regions.hpp"
#include "sim/conformance.hpp"
#include "stg/g_format.hpp"
#include "stg/reachability.hpp"

namespace perfbench {

using namespace nshot;

namespace {

double now_us() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin)
      .count();
}

}  // namespace

// ---------------------------------------------------------------- Tracer

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (!tracer_) return;
  SpanRecord span;
  span.id = static_cast<int>(tracer_->spans_.size());
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.request = tracer_->request_;
  span.name = name;
  id_ = span.id;
  tracer_->open_.push_back(id_);
  span.start_us = now_us();
  tracer_->spans_.push_back(span);
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  tracer_->spans_[static_cast<std::size_t>(id_)].end_us = now_us();
  tracer_->open_.pop_back();
}

void Tracer::begin_request(long request) {
  request_ = request;
  open_.clear();
}

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_us - spans_[i].start_us;
  for (const SpanRecord& span : spans_)
    if (span.parent >= 0)
      self[static_cast<std::size_t>(span.parent)] -= span.end_us - span.start_us;
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) by_name[spans_[i].name] += self[i] / 1000.0;
  return by_name;
}

std::map<long, double> Tracer::attributed_ms() const {
  std::map<long, double> by_request;
  for (const SpanRecord& span : spans_)
    if (span.parent >= 0 && spans_[static_cast<std::size_t>(span.parent)].parent < 0)
      by_request[span.request] += (span.end_us - span.start_us) / 1000.0;
  return by_request;
}

std::string Tracer::to_json() const {
  // Hand-rendered: JsonWriter keeps 6 significant digits, too few for
  // microsecond timestamps.  Span names are identifiers, never escaped.
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,"
                  "\"tid\":1,\"args\":{\"id\":%d,\"parent\":%d,\"request\":%ld}}",
                  i ? "," : "", span.name, span.start_us, span.end_us - span.start_us, span.id,
                  span.parent, span.request);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

// ------------------------------------------------------- decomposition

namespace {

using Scope = Tracer::Scope;

std::string spec_key(const logic::TwoLevelSpec& spec) {
  std::ostringstream key;
  key << spec.num_inputs() << 'x' << spec.num_outputs();
  for (int o = 0; o < spec.num_outputs(); ++o) {
    key << "|F";
    for (const std::uint64_t code : spec.on(o)) key << ' ' << code;
    key << "|R";
    for (const std::uint64_t code : spec.off(o)) key << ' ' << code;
  }
  return key.str();
}

/// The heuristic minimizer, as synthesize() calls it (no workload requests
/// exact minimization).
logic::Cover minimize(const logic::TwoLevelSpec& spec, const core::SynthesisOptions& options,
                      Tracer* tracer) {
  const Scope span(tracer, "logic.espresso");
  logic::EspressoOptions espresso = options.espresso;
  espresso.share_outputs = options.share_products;
  return logic::espresso(spec, espresso);
}

logic::Cover minimize_memoized(const logic::TwoLevelSpec& spec,
                               const core::SynthesisOptions& options, Tracer* tracer,
                               CoverMemo& memo) {
  if (!options.memoize_minimization) return minimize(spec, options, tracer);
  const Scope span(tracer, "exec.memo");
  const std::string key = spec_key(spec);
  if (const auto it = memo.find(key); it != memo.end()) return it->second;
  logic::Cover cover = minimize(spec, options, tracer);
  memo.emplace(key, cover);
  return cover;
}

/// core::synthesize, one layer call at a time (same order, same calls).
core::SynthesisResult synthesize_layers(const sg::StateGraph& sg,
                                        const core::SynthesisOptions& options, Tracer* tracer,
                                        CoverMemo& memo, LayerCounts& counts) {
  {
    const Scope span(tracer, "sg.implementability");
    const sg::PropertyReport implementability = sg::check_implementability(sg);
    if (!implementability.ok()) {
      ++counts.unimplementable;
      throw core::SynthesisError("state graph " + sg.name() + " is not implementable: " +
                                 implementability.summary());
    }
  }

  core::DerivedSpec derived = [&] {
    const Scope span(tracer, "nshot.derive_spec");
    return core::derive_spec(sg);
  }();
  for (int o = 0; o < derived.spec.num_outputs(); ++o)
    counts.spec_minterms += static_cast<long>(derived.spec.on(o).size() + derived.spec.off(o).size());

  logic::Cover cover = minimize_memoized(derived.spec, options, tracer, memo);
  counts.cover_cubes += static_cast<long>(cover.size());
  counts.cover_literals += cover.literal_count();

  {
    const Scope span(tracer, "logic.verify");
    const logic::VerifyResult verified = logic::verify_cover(derived.spec, cover);
    if (!verified.ok)
      throw Error(ErrorCode::kInternal,
                  "minimizer produced an incorrect cover: " + verified.message);
  }

  const std::vector<sg::SignalRegions> regions = [&] {
    const Scope span(tracer, "sg.regions");
    return sg::compute_all_regions(sg);
  }();

  core::TriggerReport trigger = [&] {
    const Scope span(tracer, "nshot.trigger");
    return core::enforce_trigger_requirement(sg, regions, derived, cover);
  }();
  counts.trigger_cubes_added += trigger.cubes_added;
  if (!trigger.satisfied()) {
    std::string message = "trigger requirement violated for " + sg.name() + ":";
    for (const core::TriggerIssue& issue : trigger.issues)
      if (!issue.repaired) message += "\n  " + issue.describe(sg);
    throw core::SynthesisError(message);
  }

  const gatelib::GateLibrary& lib = gatelib::GateLibrary::standard();
  std::vector<core::SignalImplementation> signals;
  {
    const Scope span(tracer, "nshot.signal_analysis");
    for (const core::OutputIndex& index : derived.outputs) {
      core::SignalImplementation impl;
      impl.signal = index.signal;
      impl.set_cubes = cover.cube_count_for_output(index.set_output);
      impl.reset_cubes = cover.cube_count_for_output(index.reset_output);
      impl.delay = core::compute_delay_requirement(core::sop_levels(cover, index.set_output, lib),
                                                   core::sop_levels(cover, index.reset_output, lib),
                                                   lib);
      impl.init = core::analyze_initialization(sg, index.signal, cover, index);
      signals.push_back(impl);
    }
  }

  const Scope span(tracer, "nshot.architecture");
  std::vector<core::DelayRequirement> delays;
  for (const core::SignalImplementation& impl : signals) delays.push_back(impl.delay);
  core::ArchitectureOptions arch;
  arch.insert_delay_lines = options.insert_delay_lines;
  netlist::Netlist circuit = core::build_nshot_netlist(sg, derived, cover, delays, arch);
  core::SynthesisResult result{std::move(circuit), std::move(cover), std::move(derived),
                               std::move(signals), std::move(trigger), {}, true, false};
  result.stats = result.circuit.stats(lib);
  for (const core::SignalImplementation& impl : result.signals)
    if (impl.init.explicit_reset) result.stats.area += lib.area(gatelib::GateType::kAnd, 1);
  for (const sg::SignalRegions& signal_regions : regions)
    for (const sg::ExcitationRegion& er : signal_regions.regions)
      if (!er.single_traversal()) result.single_traversal = false;
  for (const core::SignalImplementation& impl : result.signals)
    if (options.insert_delay_lines && impl.delay.compensation_needed())
      result.delay_compensation_used = true;
  return result;
}

/// Record the classified failure of `stage`, as Pipeline::submit does.
void fail(RunOutcome& out, const char* stage) {
  try {
    throw;
  } catch (const Error& e) {
    out.code = e.code();
    out.message = e.what();
  } catch (const std::exception& e) {
    out.code = classify_exception(e);
    out.message = e.what();
  }
  out.stage = stage;
}

}  // namespace

std::string decompose(const Request& request, const PipelineOptions& base, Tracer* tracer,
                      CoverMemo& memo, LayerCounts& counts) {
  Response response;
  response.id = request.id;
  RunOutcome& out = response.outcome;

  // Spec resolution: failures here carry the "request <id>" frame and
  // stage "load"; stage failures below do not (run_with catches them).
  PipelineOptions options;
  std::optional<sg::StateGraph> graph;
  try {
    with_error_context("request " + request.id, [&] {
      options = request_options(base, request);
      if (!request.g_text.empty()) return;
      NSHOT_REQUIRE(request.spec.rfind("bench:", 0) == 0,
                    "decomposition supports bench:NAME and inline g_text specs");
      const Scope span(tracer, "stg.load");
      graph.emplace(bench_suite::build_benchmark(request.spec.substr(6)));
    });
  } catch (...) {
    fail(out, "load");
    return response.payload_json();
  }

  const char* stage = "parse";
  try {
    if (!graph) {
      const Scope span(tracer, "stg.load");
      const stg::Stg parsed =
          with_error_context("stage parse", [&] { return stg::parse_g(request.g_text); });
      out.stages_completed.emplace_back("parse");
      stage = "reachability";
      graph.emplace(with_error_context("stage reachability",
                                       [&] { return stg::build_state_graph(parsed); }));
      out.stages_completed.emplace_back("reachability");
    }
    counts.states += graph->num_states();

    stage = "synthesize";
    core::SynthesisResult synthesis = with_error_context("stage synthesize", [&] {
      return synthesize_layers(*graph, options.synthesis, tracer, memo, counts);
    });
    out.stages_completed.emplace_back("synthesize");

    PipelineRun run{graph->name(), std::move(*graph), std::move(synthesis), {}, false, {},
                    false, {}};
    if (options.verify_conformance) {
      stage = "conformance";
      const Scope span(tracer, "sim.conformance");
      run.conformance = with_error_context("stage conformance", [&] {
        return sim::check_conformance(run.graph, run.synthesis.circuit, options.conformance);
      });
      run.conformance_ran = true;
      out.stages_completed.emplace_back("conformance");
      counts.sim_events += run.conformance.external_transitions + run.conformance.internal_toggles;
    }
    if (options.stress_test) {
      stage = "stress";
      const Scope span(tracer, "faults.stress");
      run.stress = with_error_context("stage stress", [&] {
        return faults::run_stress(run.graph, run.synthesis.circuit, run.benchmark,
                                  options.stress);
      });
      run.stress_ran = true;
      out.stages_completed.emplace_back("stress");
      counts.fault_configs += static_cast<long>(run.stress.outcomes.size());
    }
    out.run.emplace(std::move(run));
  } catch (...) {
    fail(out, stage);
  }
  return response.payload_json();
}

}  // namespace perfbench
