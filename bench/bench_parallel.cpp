// Parallel execution engine: speedup and determinism measurement.
//
// For each benchmark circuit, runs the Monte Carlo conformance sweep and
// the full stress campaign (margins + fault battery + adversarial search)
// twice — once with --jobs 1 and once with the parallel worker count — and
//   * asserts the two reports are byte-identical (the engine merges trial
//     results by index, so any divergence is a scheduling bug);
//   * records wall-clock times and the speedup in BENCH_parallel.json.
//
// The speedup number is only meaningful on a multi-core host; the JSON
// records `hardware_jobs` so CI (which regenerates this file on an 8-core
// runner) and a laptop run can be told apart.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_timer.hpp"
#include "bench_suite/benchmarks.hpp"
#include "exec/thread_pool.hpp"
#include "faults/stress.hpp"
#include "nshot/synthesis.hpp"
#include "sim/conformance.hpp"
#include "util/error.hpp"

namespace {

using namespace nshot;
using bench::MinTimer;

std::string conformance_fingerprint(const sim::ConformanceReport& r) {
  std::ostringstream out;
  out << r.runs << '/' << r.external_transitions << '/' << r.internal_toggles << '/'
      << r.absorbed_pulses << '/' << r.simulated_time << '/' << r.deadlocks << '/'
      << r.budget_exhausted << '/' << r.violations.size();
  for (const sim::ConformanceViolation& v : r.violations)
    out << '|' << v.seed << '@' << v.time << ':' << v.description;
  return out.str();
}

struct CaseTiming {
  std::string name;
  int states = 0, signals = 0;
  double conf_serial_ms = 0, conf_parallel_ms = 0;
  double conf_serial_sd = 0, conf_parallel_sd = 0;
  double stress_serial_ms = 0, stress_parallel_ms = 0;
  double stress_serial_sd = 0, stress_parallel_sd = 0;
  bool identical = false;
};

CaseTiming measure(const std::string& name, int parallel_jobs, bool smoke) {
  const sg::StateGraph g = bench_suite::build_benchmark(name);
  const core::SynthesisResult result = core::synthesize(g);

  sim::ConformanceOptions conf;
  conf.seed = 7;
  conf.runs = smoke ? 8 : 96;
  conf.max_transitions = 150;

  faults::StressOptions stress;
  stress.seed = 2026;
  stress.margin_runs = smoke ? 2 : 8;
  stress.run.max_transitions = 100;
  stress.adversarial.restarts = smoke ? 1 : 4;
  stress.adversarial.iterations = smoke ? 5 : 40;
  stress.adversarial.run.max_transitions = 100;

  CaseTiming timing;
  timing.name = name;
  timing.states = g.num_states();
  timing.signals = g.num_signals();

  const int reps = smoke ? 1 : 7;
  sim::ConformanceReport conf_serial, conf_parallel;
  faults::StressReport stress_serial, stress_parallel;
  MinTimer conf_s_t, conf_p_t, stress_s_t, stress_p_t;
  for (int i = 0; i < reps; ++i) {
    conf.jobs = 1;
    conf_s_t.sample([&] { conf_serial = sim::check_conformance(g, result.circuit, conf); });
    conf.jobs = parallel_jobs;
    conf_p_t.sample([&] { conf_parallel = sim::check_conformance(g, result.circuit, conf); });
    stress.jobs = 1;
    stress.adversarial.jobs = 1;
    stress_s_t.sample(
        [&] { stress_serial = faults::run_stress(g, result.circuit, name, stress); });
    stress.jobs = parallel_jobs;
    stress.adversarial.jobs = parallel_jobs;
    stress_p_t.sample(
        [&] { stress_parallel = faults::run_stress(g, result.circuit, name, stress); });
  }
  timing.conf_serial_ms = conf_s_t.best;
  timing.conf_parallel_ms = conf_p_t.best;
  timing.conf_serial_sd = conf_s_t.sd();
  timing.conf_parallel_sd = conf_p_t.sd();
  timing.stress_serial_ms = stress_s_t.best;
  timing.stress_parallel_ms = stress_p_t.best;
  timing.stress_serial_sd = stress_s_t.sd();
  timing.stress_parallel_sd = stress_p_t.sd();

  timing.identical =
      conformance_fingerprint(conf_serial) == conformance_fingerprint(conf_parallel) &&
      faults::stress_report_json(stress_serial) == faults::stress_report_json(stress_parallel);
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  const int hardware = exec::hardware_jobs();
  const int parallel_jobs = 8;  // fixed so the determinism claim is portable
  bool smoke = false;
  const char* out_path = "BENCH_parallel.json";
  const char* usage = "usage: bench_parallel [--smoke] [OUT.json]\n";
  bool have_out = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", usage);
      return 0;
    }
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.empty() || arg[0] == '-' || have_out) {
      std::fprintf(stderr, "error: unexpected argument '%s'\n%s", argv[i], usage);
      return 2;
    } else {
      out_path = argv[i];
      have_out = true;
    }
  }

  std::printf("Parallel engine bench: jobs=1 vs jobs=%d (hardware threads: %d)%s\n\n",
              parallel_jobs, hardware, smoke ? " (smoke)" : "");
  std::printf("%-12s %12s %12s %8s %12s %12s %8s %6s\n", "circuit", "conf j1", "conf jN", "x",
              "stress j1", "stress jN", "x", "same");

  std::vector<CaseTiming> timings;
  for (const char* name : {"chu133", "converta", "vbe5b", "read-write"}) {
    const CaseTiming t = measure(name, parallel_jobs, smoke);
    NSHOT_REQUIRE(t.identical, "parallel report diverged from serial on " + t.name);
    std::printf("%-12s %10.1fms %10.1fms %7.2fx %10.1fms %10.1fms %7.2fx %6s\n", t.name.c_str(),
                t.conf_serial_ms, t.conf_parallel_ms, t.conf_serial_ms / t.conf_parallel_ms,
                t.stress_serial_ms, t.stress_parallel_ms, t.stress_serial_ms / t.stress_parallel_ms,
                t.identical ? "yes" : "NO");
    timings.push_back(t);
  }

  double serial_total = 0, parallel_total = 0;
  for (const CaseTiming& t : timings) {
    serial_total += t.conf_serial_ms + t.stress_serial_ms;
    parallel_total += t.conf_parallel_ms + t.stress_parallel_ms;
  }
  const double speedup = parallel_total > 0 ? serial_total / parallel_total : 0;
  std::printf("\ntotal: %.1fms serial, %.1fms parallel (%.2fx on %d hardware threads)\n",
              serial_total, parallel_total, speedup, hardware);

  std::ostringstream json;
  json << "{\n  \"hardware_jobs\": " << hardware << ",\n  \"parallel_jobs\": " << parallel_jobs
       << ",\n  \"smoke\": " << (smoke ? "true" : "false")
       << ",\n  \"byte_identical\": true,\n  \"total_speedup\": " << speedup
       << ",\n  \"cases\": [\n";
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const CaseTiming& t = timings[i];
    json << "    {\"name\": \"" << t.name << "\", \"states\": " << t.states
         << ", \"signals\": " << t.signals << ", \"hardware_concurrency\": " << hardware
         << ", \"conformance_serial_ms\": " << t.conf_serial_ms
         << ", \"conformance_serial_sd\": " << t.conf_serial_sd
         << ", \"conformance_parallel_ms\": " << t.conf_parallel_ms
         << ", \"conformance_parallel_sd\": " << t.conf_parallel_sd
         << ", \"stress_serial_ms\": " << t.stress_serial_ms
         << ", \"stress_serial_sd\": " << t.stress_serial_sd
         << ", \"stress_parallel_ms\": " << t.stress_parallel_ms
         << ", \"stress_parallel_sd\": " << t.stress_parallel_sd << "}"
         << (i + 1 < timings.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::ofstream(out_path) << json.str();
  std::printf("wrote %s\n", out_path);
  return 0;
}
