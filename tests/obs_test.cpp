// Observability-layer tests: span nesting across thread-pool workers,
// counter determinism under different worker counts, the deterministic
// exporters' byte-stability (including golden files), the RunConfig
// extraction's source compatibility, and the nshot::Pipeline facade.
//
// Regenerate the golden exports after an INTENDED format change with:
//   NSHOT_UPDATE_GOLDEN=1 ./obs_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "csc/csc_solver.hpp"
#include "exec/thread_pool.hpp"
#include "faults/stress.hpp"
#include "logic/exact.hpp"
#include "nshot/pipeline.hpp"
#include "nshot/synthesis.hpp"
#include "obs/obs.hpp"
#include "sim/conformance.hpp"

namespace nshot {
namespace {

// ---------------------------------------------------------------------------
// Core span/counter mechanics
// ---------------------------------------------------------------------------

TEST(ObsTest, DisabledCallsAreNoOps) {
  ASSERT_FALSE(obs::session_active());
  ASSERT_FALSE(obs::enabled());
  // None of these may crash or allocate a session.
  obs::count(obs::Counter::kStatesVisited, 7);
  obs::gauge(obs::Gauge::kOmegaSlack, 1.5);
  { const obs::Span span("orphan"); }
  ASSERT_FALSE(obs::session_active());
}

TEST(ObsTest, SessionCollectsCountersAndGauges) {
  obs::Session session("test");
  ASSERT_TRUE(obs::session_active());
  ASSERT_TRUE(obs::enabled());
  obs::count(obs::Counter::kStatesVisited, 5);
  obs::count(obs::Counter::kStatesVisited, 3);
  obs::gauge(obs::Gauge::kOmegaSlack, 2.0);
  obs::gauge(obs::Gauge::kOmegaSlack, -1.0);
  obs::gauge(obs::Gauge::kOmegaSlack, 4.0);
  EXPECT_EQ(session.counter_total(obs::Counter::kStatesVisited), 8);
  const obs::GaugeStats stats = session.gauge_stats(obs::Gauge::kOmegaSlack);
  EXPECT_EQ(stats.count, 3);
  EXPECT_DOUBLE_EQ(stats.min, -1.0);
  EXPECT_DOUBLE_EQ(stats.max, 4.0);
  EXPECT_DOUBLE_EQ(stats.sum, 5.0);
}

TEST(ObsTest, SessionScopesTheEnabledFlag) {
  { obs::Session session("test"); }
  EXPECT_FALSE(obs::enabled());
  EXPECT_FALSE(obs::session_active());
  // A fresh session starts from zero even though the thread buffers are
  // reused.
  obs::Session session("test");
  EXPECT_EQ(session.counter_total(obs::Counter::kStatesVisited), 0);
  EXPECT_TRUE(session.canonical_spans().empty());
}

std::vector<obs::CanonicalSpan> spans_of_parallel_region(int jobs) {
  obs::Session session("test");
  {
    const obs::Span outer("outer");
    exec::parallel_for(
        6, [](int i) { const obs::Span span("item", i); }, jobs);
  }
  return session.canonical_spans();
}

TEST(ObsTest, WorkerSpansNestUnderSubmitterContext) {
  for (const int jobs : {1, 4}) {
    const std::vector<obs::CanonicalSpan> spans = spans_of_parallel_region(jobs);
    ASSERT_EQ(spans.size(), 7u) << "jobs=" << jobs;
    EXPECT_EQ(spans[0].path, "outer");
    EXPECT_EQ(spans[0].depth, 1);
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(spans[static_cast<std::size_t>(i + 1)].path, "outer/item") << "jobs=" << jobs;
      EXPECT_EQ(spans[static_cast<std::size_t>(i + 1)].index, i) << "jobs=" << jobs;
      EXPECT_EQ(spans[static_cast<std::size_t>(i + 1)].depth, 2) << "jobs=" << jobs;
    }
  }
}

TEST(ObsTest, TaskSpansAreHiddenFromCanonicalOrder) {
  obs::Session session("test");
  {
    const obs::Span outer("outer");
    {
      const obs::Span chunk = obs::Span::task("chunk", 0);
      const obs::Span inner("inner");
    }
  }
  // Task spans drop out; their children re-attach to the nearest kept
  // ancestor.
  const auto canonical = session.canonical_spans(/*include_tasks=*/false);
  ASSERT_EQ(canonical.size(), 2u);
  EXPECT_EQ(canonical[1].path, "outer/inner");
  const auto with_tasks = session.canonical_spans(/*include_tasks=*/true);
  ASSERT_EQ(with_tasks.size(), 3u);
  EXPECT_EQ(with_tasks[1].path, "outer/chunk");
  EXPECT_EQ(with_tasks[2].path, "outer/chunk/inner");
}

// ---------------------------------------------------------------------------
// Determinism across worker counts on the real pipeline
// ---------------------------------------------------------------------------

struct FlowCapture {
  std::string trace;
  std::string report;
  long counters[static_cast<int>(obs::Counter::kCount)] = {};
};

FlowCapture run_instrumented_flow(int jobs) {
  obs::Session session("obs_test", "chu133");
  const sg::StateGraph graph = bench_suite::build_benchmark("chu133");
  core::SynthesisOptions options;
  options.jobs = jobs;
  // The process-wide minimization memo would let a later call skip the
  // minimizer (and its counters) entirely; keep each capture self-contained.
  options.memoize_minimization = false;
  const core::SynthesisResult result = core::synthesize(graph, options);

  sim::ConformanceOptions copt;
  copt.runs = 6;
  copt.max_transitions = 60;
  copt.jobs = jobs;
  const sim::ConformanceReport report = sim::check_conformance(graph, result.circuit, copt);
  EXPECT_TRUE(report.clean());

  FlowCapture capture;
  obs::TraceOptions topt;
  topt.deterministic = true;
  capture.trace = session.trace_json(topt);
  obs::ReportOptions ropt;
  ropt.deterministic = true;
  capture.report = session.report_json(ropt);
  for (int i = 0; i < static_cast<int>(obs::Counter::kCount); ++i)
    capture.counters[i] = session.counter_total(static_cast<obs::Counter>(i));
  return capture;
}

TEST(ObsTest, DeterministicExportsAreByteIdenticalAcrossJobs) {
  const FlowCapture serial = run_instrumented_flow(1);
  const FlowCapture parallel = run_instrumented_flow(8);
  EXPECT_EQ(serial.trace, parallel.trace);
  EXPECT_EQ(serial.report, parallel.report);
  for (int i = 0; i < static_cast<int>(obs::Counter::kCount); ++i) {
    const obs::CounterInfo& info = obs::counter_info(static_cast<obs::Counter>(i));
    if (!info.deterministic) continue;
    EXPECT_EQ(serial.counters[i], parallel.counters[i]) << info.name;
  }
}

TEST(ObsTest, WallClockTraceParsesAndCoversAllSpans) {
  obs::Session session("obs_test");
  const sg::StateGraph graph = bench_suite::build_benchmark("chu133");
  const core::SynthesisResult result = core::synthesize(graph);
  (void)result;
  const std::string trace = session.trace_json();
  // Structural sanity without a JSON parser: the document is an object
  // with a traceEvents array holding one complete event per span.
  EXPECT_EQ(trace.find("{\"traceEvents\":["), 0u);
  const std::size_t events = [&] {
    std::size_t n = 0, pos = 0;
    while ((pos = trace.find("\"ph\":\"X\"", pos)) != std::string::npos) ++n, pos += 8;
    return n;
  }();
  EXPECT_EQ(events, session.canonical_spans(/*include_tasks=*/true).size());
}

// ---------------------------------------------------------------------------
// Golden exporter files
// ---------------------------------------------------------------------------

void compare_with_golden(const std::string& filename, const std::string& actual) {
  const std::string path = std::string(NSHOT_GOLDEN_DIR) + "/" + filename;
  if (std::getenv("NSHOT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(path) << actual;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " (run with NSHOT_UPDATE_GOLDEN=1 to create it)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << filename
      << " diverged from the golden file; if intended, regenerate with NSHOT_UPDATE_GOLDEN=1";
}

TEST(ObsGoldenTest, DeterministicTrace) {
  compare_with_golden("obs_trace.json", run_instrumented_flow(3).trace);
}

TEST(ObsGoldenTest, DeterministicReport) {
  compare_with_golden("obs_report.json", run_instrumented_flow(3).report);
}

// ---------------------------------------------------------------------------
// RunConfig extraction: source compatibility
// ---------------------------------------------------------------------------

TEST(RunConfigTest, SharedFieldsReachEveryOptionsStruct) {
  RunConfig shared;
  shared.seed = 99;
  shared.jobs = 3;
  shared.verify_kernels = true;
  shared.deadline_ms = 250;

  core::SynthesisOptions synthesis;
  sim::ConformanceOptions conformance;
  faults::StressOptions stress;
  faults::AdversarialOptions adversarial;
  logic::ExactOptions exact;
  synthesis.apply_run_config(shared);
  conformance.apply_run_config(shared);
  stress.apply_run_config(shared);
  adversarial.apply_run_config(shared);
  exact.apply_run_config(shared);
  for (const RunConfig& config :
       {static_cast<const RunConfig&>(synthesis), static_cast<const RunConfig&>(conformance),
        static_cast<const RunConfig&>(stress), static_cast<const RunConfig&>(adversarial),
        static_cast<const RunConfig&>(exact)}) {
    EXPECT_EQ(config.seed, 99u);
    EXPECT_EQ(config.jobs, 3);
    EXPECT_TRUE(config.verify_kernels);
    EXPECT_EQ(config.deadline_ms, 250);
  }
}

TEST(RunConfigTest, OldMemberSpellingsStillCompile) {
  // The pre-extraction code assigned these members directly on each struct;
  // inheritance keeps every spelling valid.
  sim::ConformanceOptions conformance;
  conformance.seed = 7;
  conformance.jobs = 2;
  conformance.verify_kernels = true;
  EXPECT_EQ(conformance.seed, 7u);

  faults::StressOptions stress;
  stress.seed = 11;
  stress.margin_runs = 3;
  EXPECT_EQ(stress.seed, 11u);

  core::SynthesisOptions synthesis;
  synthesis.jobs = 5;
  EXPECT_EQ(synthesis.jobs, 5);
}

// Every kernel has one production path, so the switches that selected a
// second one are gone: the per-struct aliases (ExactOptions::reference_sets,
// TriggerOptions::reference_membership, removed with TriggerOptions), then
// RunConfig::reference_kernels and CscSolveOptions::reference_kernels, and
// RunConfig::grain, which no caller set.  Member detection keeps them gone
// — re-adding one is a compile-time test failure.
template <typename T, typename = void>
struct has_reference_sets : std::false_type {};
template <typename T>
struct has_reference_sets<T, std::void_t<decltype(std::declval<T>().reference_sets)>>
    : std::true_type {};

template <typename T, typename = void>
struct has_reference_kernels : std::false_type {};
template <typename T>
struct has_reference_kernels<T, std::void_t<decltype(std::declval<T>().reference_kernels)>>
    : std::true_type {};

template <typename T, typename = void>
struct has_grain : std::false_type {};
template <typename T>
struct has_grain<T, std::void_t<decltype(std::declval<T>().grain)>> : std::true_type {};

TEST(RunConfigTest, DeprecatedReferenceAliasesAreGone) {
  static_assert(!has_reference_sets<logic::ExactOptions>::value,
                "ExactOptions::reference_sets was removed");
  static_assert(!has_reference_kernels<RunConfig>::value,
                "RunConfig::reference_kernels was removed");
  static_assert(!has_reference_kernels<csc::CscSolveOptions>::value,
                "CscSolveOptions::reference_kernels was removed");
  static_assert(!has_grain<RunConfig>::value, "RunConfig::grain was removed");
  for (const char* key : {"reference_kernels", "grain"})
    EXPECT_EQ(Request::known_override_keys().count(key), 0u) << key;
}

TEST(RunConfigTest, DefaultsAreUnchanged) {
  const RunConfig config;
  EXPECT_EQ(config.seed, 1u);
  EXPECT_EQ(config.jobs, 0);
  EXPECT_FALSE(config.verify_kernels);
  EXPECT_EQ(config.deadline_ms, 0);
  EXPECT_EQ(config.stage_deadline_ms, 0);
}

// ---------------------------------------------------------------------------
// The Pipeline facade
// ---------------------------------------------------------------------------

TEST(PipelineTest, RunsSynthesisAndConformanceWithOneCall) {
  PipelineOptions options;
  options.conformance.runs = 4;
  options.conformance.max_transitions = 60;
  Pipeline pipeline(std::move(options));
  const PipelineRun run = pipeline.run(bench_suite::build_benchmark("chu133"));
  EXPECT_EQ(run.benchmark, "chu133");
  EXPECT_TRUE(run.conformance_ran);
  EXPECT_FALSE(run.stress_ran);
  EXPECT_TRUE(run.ok());
  EXPECT_GT(run.synthesis.cover.size(), 0u);

  // The owned session saw the library spans.  Look passes up by name:
  // build_benchmark parses .g text inside the session, so "reachability"
  // precedes "synthesize" in first-appearance order.
  const obs::RunReport report = pipeline.report();
  const auto has_pass = [&](const char* name) {
    for (const obs::PassTime& pass : report.passes)
      if (pass.name == name) return true;
    return false;
  };
  ASSERT_GE(report.passes.size(), 2u);
  EXPECT_TRUE(has_pass("synthesize"));
  EXPECT_TRUE(has_pass("conformance"));
  EXPECT_GT(report.total_ms, 0.0);
}

TEST(PipelineTest, SharedRunConfigPropagatesToStages) {
  PipelineOptions options;
  options.run.jobs = 2;
  options.run.seed = 77;
  options.verify_conformance = false;
  options.collect_observability = false;
  Pipeline pipeline(std::move(options));
  EXPECT_EQ(pipeline.options().synthesis.jobs, 2);
  EXPECT_EQ(pipeline.options().conformance.seed, 77u);
  EXPECT_EQ(pipeline.options().stress.seed, 77u);
  EXPECT_EQ(pipeline.options().stress.adversarial.jobs, 2);
  EXPECT_EQ(pipeline.session(), nullptr);
  const std::string trace = pipeline.trace_json();
  EXPECT_EQ(trace.find("{\"traceEvents\":["), 0u);
}

TEST(PipelineTest, RunGBuildsTheStateGraphThroughReachability) {
  PipelineOptions options;
  options.conformance.runs = 2;
  options.conformance.max_transitions = 40;
  Pipeline pipeline(std::move(options));
  // Two-phase handshake: one input req, one output ack.
  const PipelineRun run = pipeline.run_g(
      ".model tiny\n"
      ".inputs req\n"
      ".outputs ack\n"
      ".graph\n"
      "req+ ack+\n"
      "ack+ req-\n"
      "req- ack-\n"
      "ack- req+\n"
      ".marking {<ack-,req+>}\n"
      ".end\n");
  EXPECT_EQ(run.graph.num_states(), 4);
  EXPECT_TRUE(run.ok());
  // run_g's reachability pass lands in the report ahead of synthesis.
  const obs::RunReport report = pipeline.report();
  ASSERT_GE(report.passes.size(), 2u);
  EXPECT_EQ(report.passes[0].name, "reachability");
}

TEST(PipelineTest, StaysUninstrumentedWhenASessionAlreadyExists) {
  obs::Session outer("outer");
  PipelineOptions options;
  options.verify_conformance = false;
  Pipeline pipeline(std::move(options));
  EXPECT_EQ(pipeline.session(), nullptr);  // refused to double-collect
  (void)pipeline.run(bench_suite::build_benchmark("chu133"));
  EXPECT_FALSE(outer.canonical_spans().empty());  // outer session got the spans
}

}  // namespace
}  // namespace nshot
