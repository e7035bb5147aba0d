// assassin_cli — an end-to-end command-line driver mirroring the ASSASSIN
// compiler flow the paper automates [21]:
//
//   assassin_cli <file.g|file.sg>  synthesize an STG (.g) or state graph (.sg)
//   assassin_cli --benchmark NAME  synthesize a built-in Table 2 benchmark
//   assassin_cli --list            list the built-in benchmarks
//
// Every option lives in kFlags below — one table row carries the name, the
// value placeholder, the help line and the handler, and --help is generated
// from the same table, so the parser and its documentation cannot drift.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "baselines/baselines.hpp"
#include "bench_suite/benchmarks.hpp"
#include "csc/csc_solver.hpp"
#include "exec/thread_pool.hpp"
#include "faults/stress.hpp"
#include "logic/pla.hpp"
#include "netlist/verilog.hpp"
#include "nshot/batch.hpp"
#include "nshot/synthesis.hpp"
#include "serve/file_queue.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "obs/obs.hpp"
#include "sg/dot.hpp"
#include "sg/properties.hpp"
#include "sg/regions.hpp"
#include "sim/conformance.hpp"
#include "stg/g_format.hpp"
#include "stg/reachability.hpp"
#include "stg/sg_format.hpp"
#include "util/strings.hpp"

namespace {

using namespace nshot;

struct Cli {
  std::string input_file, benchmark, dot_signal, vcd_file;
  bool list = false, exact = false, no_share = false, solve_csc = false;
  bool print_netlist = false, print_pla = false, print_regions = false, run_baselines = false;
  bool print_verilog = false, print_dot = false;
  bool stress = false, stress_uncomp = false;
  int check_runs = 8, stress_runs = 5, stress_deepen = 2, jobs = 0;
  double stress_factor = 0.0;  // 0 = per-mode default (3.0 battery, 1.0 demo)
  std::string stress_out, stress_vcd = "stress_witness.vcd";
  std::string trace_file, report_file;
  bool trace_deterministic = false;
  // Batch / soak execution (nshot::BatchRunner).
  std::string batch_file, batch_journal, batch_summary, soak_params;
  int soak = 0, batch_retries = 1, batch_stop_after = 0;
  std::uint64_t soak_seed = 1;
  double deadline_ms = 0, stage_deadline_ms = 0;
  bool deadline_given = false;  // either deadline flag was on the command line
  // Serve mode (src/serve): socket or file-queue transport over a Server.
  std::string serve_socket, serve_dir, serve_journal, connect_path;
  int serve_max_inflight = 0, serve_queue = 256, serve_per_client = 2, serve_idle_exit = 0;
};

/// One command-line option: `metavar == nullptr` means a boolean flag, any
/// other value means the flag consumes the next argv entry (shown as the
/// placeholder in --help).  Handlers are capture-free lambdas so the table
/// is a plain static array.
struct FlagSpec {
  const char* name;
  const char* metavar;
  const char* help;
  void (*handler)(Cli&, const char*);
};

constexpr FlagSpec kFlags[] = {
    {"--list", nullptr, "list the built-in Table 2 benchmarks",
     [](Cli& c, const char*) { c.list = true; }},
    {"--benchmark", "NAME", "synthesize a built-in benchmark",
     [](Cli& c, const char* v) { c.benchmark = v; }},
    {"--exact", nullptr, "exact (Quine-McCluskey) minimization per output",
     [](Cli& c, const char*) { c.exact = true; }},
    {"--no-share", nullptr, "disable AND-gate sharing across outputs",
     [](Cli& c, const char*) { c.no_share = true; }},
    {"--solve-csc", nullptr,
     "resolve CSC violations by state-signal insertion (STG inputs only)",
     [](Cli& c, const char*) { c.solve_csc = true; }},
    {"--netlist", nullptr, "print the synthesized netlist",
     [](Cli& c, const char*) { c.print_netlist = true; }},
    {"--verilog", nullptr, "print the circuit as self-contained Verilog",
     [](Cli& c, const char*) { c.print_verilog = true; }},
    {"--dot", "SIGNAL", "print the SG as Graphviz DOT with SIGNAL's regions",
     [](Cli& c, const char* v) {
       c.print_dot = true;
       c.dot_signal = v;
     }},
    {"--pla", nullptr, "print the minimized cover in PLA format",
     [](Cli& c, const char*) { c.print_pla = true; }},
    {"--regions", nullptr, "print the region analysis per non-input signal",
     [](Cli& c, const char*) { c.print_regions = true; }},
    {"--check", "N", "closed-loop conformance simulations (default 8)",
     [](Cli& c, const char* v) { c.check_runs = parse_int(v, 0, 1'000'000, "--check"); }},
    {"--jobs", "N",
     "worker threads for every sweep; outputs are byte-identical to --jobs 1 "
     "(default: NSHOT_JOBS or 1)",
     [](Cli& c, const char* v) { c.jobs = parse_int(v, 1, 4096, "--jobs"); }},
    {"--vcd", "FILE", "write one closed-loop simulation trace as VCD",
     [](Cli& c, const char* v) { c.vcd_file = v; }},
    {"--baselines", nullptr, "also run the SIS-like / SYN-like / complex-gate flows",
     [](Cli& c, const char*) { c.run_baselines = true; }},
    {"--stress", nullptr, "fault battery + robustness-margin report (JSON)",
     [](Cli& c, const char*) { c.stress = true; }},
    {"--stress-runs", "N", "margin-measurement runs (default 5)",
     [](Cli& c, const char* v) { c.stress_runs = parse_int(v, 1, 1'000'000, "--stress-runs"); }},
    {"--stress-factor", "F",
     "delay-outlier stretch beyond the library interval (default: 3.0 for "
     "--stress, 1.0 for --stress-uncomp)",
     [](Cli& c, const char* v) { c.stress_factor = parse_double(v, 1.0, 100.0, "--stress-factor"); }},
    {"--stress-out", "FILE", "write the stress JSON report to FILE instead of stdout",
     [](Cli& c, const char* v) { c.stress_out = v; }},
    {"--stress-uncomp", nullptr,
     "under-compensation demo: Monte Carlo misses the Eq. 1 trespass the "
     "adversarial search finds; witness JSON and VCD are written to disk",
     [](Cli& c, const char*) { c.stress_uncomp = true; }},
    {"--stress-vcd", "FILE", "witness waveform path (default stress_witness.vcd)",
     [](Cli& c, const char* v) { c.stress_vcd = v; }},
    {"--stress-deepen", "N",
     "max buffer levels tried when picking the under-compensated signal (default 2)",
     [](Cli& c, const char* v) { c.stress_deepen = parse_int(v, 1, 64, "--stress-deepen"); }},
    {"--batch", "FILE", "run a batch manifest (<id> bench:N|file:P|gen:S [key=value ...])",
     [](Cli& c, const char* v) { c.batch_file = v; }},
    {"--soak", "N", "soak: run N seeded random semi-modular STGs as a batch",
     [](Cli& c, const char* v) { c.soak = parse_int(v, 1, 1'000'000, "--soak"); }},
    {"--soak-seed", "S", "base seed of the soak campaign (default 1)",
     [](Cli& c, const char* v) {
       c.soak_seed = static_cast<std::uint64_t>(parse_long(v, 0, LONG_MAX, "--soak-seed"));
     }},
    {"--soak-params", "KV", "extra key=value params appended to every soak run (space-separated)",
     [](Cli& c, const char* v) { c.soak_params = v; }},
    {"--batch-journal", "FILE",
     "crash-safe JSONL journal; an interrupted batch resumes by skipping journaled runs",
     [](Cli& c, const char* v) { c.batch_journal = v; }},
    {"--batch-summary", "FILE", "write the batch summary JSON to FILE instead of stdout",
     [](Cli& c, const char* v) { c.batch_summary = v; }},
    {"--batch-retries", "N", "retries for transient failures per run (default 1)",
     [](Cli& c, const char* v) { c.batch_retries = parse_int(v, 0, 100, "--batch-retries"); }},
    {"--batch-stop-after", "N", "stop after N executed runs (crash simulation for resume tests)",
     [](Cli& c, const char* v) {
       c.batch_stop_after = parse_int(v, 1, 1'000'000, "--batch-stop-after");
     }},
    {"--deadline-ms", "MS",
     "wall-clock budget per served request or batch run (--serve, --serve-dir, --batch, "
     "--soak only); overruns become clean deadline errors",
     [](Cli& c, const char* v) {
       c.deadline_ms = parse_double(v, 0, 1e9, "--deadline-ms");
       c.deadline_given = true;
     }},
    {"--stage-deadline-ms", "MS", "per-stage wall-clock budget (same modes as --deadline-ms)",
     [](Cli& c, const char* v) {
       c.stage_deadline_ms = parse_double(v, 0, 1e9, "--stage-deadline-ms");
       c.deadline_given = true;
     }},
    {"--serve", "SOCKET", "serve NDJSON synthesis requests on a Unix socket until SIGTERM",
     [](Cli& c, const char* v) { c.serve_socket = v; }},
    {"--serve-dir", "DIR",
     "serve a file queue (CI mode): DIR/*.req.json in, DIR/*.resp.json out",
     [](Cli& c, const char* v) { c.serve_dir = v; }},
    {"--serve-journal", "FILE",
     "serve journal (BatchRunner-compatible JSONL); journaled ids are answered as resumed",
     [](Cli& c, const char* v) { c.serve_journal = v; }},
    {"--serve-max-inflight", "N", "concurrent requests overall (default: half the pool)",
     [](Cli& c, const char* v) {
       c.serve_max_inflight = parse_int(v, 1, 4096, "--serve-max-inflight");
     }},
    {"--serve-per-client", "N", "concurrent requests per client (default 2)",
     [](Cli& c, const char* v) { c.serve_per_client = parse_int(v, 1, 4096, "--serve-per-client"); }},
    {"--serve-queue", "N", "admission backlog cap (default 256)",
     [](Cli& c, const char* v) { c.serve_queue = parse_int(v, 1, 1'000'000, "--serve-queue"); }},
    {"--serve-idle-exit", "N",
     "file-queue mode: drain and exit after N consecutive empty scans (default: run forever)",
     [](Cli& c, const char* v) { c.serve_idle_exit = parse_int(v, 1, 1'000'000, "--serve-idle-exit"); }},
    {"--connect", "SOCKET",
     "client mode: pipe NDJSON request lines from stdin to a --serve socket, print responses",
     [](Cli& c, const char* v) { c.connect_path = v; }},
    {"--trace", "FILE", "write a Chrome trace_event JSON of the run to FILE",
     [](Cli& c, const char* v) { c.trace_file = v; }},
    {"--report", "FILE", "write a flat run report JSON (passes, counters, RSS) to FILE",
     [](Cli& c, const char* v) { c.report_file = v; }},
    {"--trace-deterministic", nullptr,
     "canonical trace/report: logical timestamps, scheduling-dependent spans "
     "and counters dropped; byte-identical across --jobs values",
     [](Cli& c, const char*) { c.trace_deterministic = true; }},
};

void print_help() {
  std::printf("usage: assassin_cli (<file.g|file.sg> | --benchmark NAME | --list) [options]\n\n");
  std::printf("options:\n");
  for (const FlagSpec& flag : kFlags) {
    std::string left = flag.name;
    if (flag.metavar) left += std::string(" ") + flag.metavar;
    std::printf("  %-22s %s\n", left.c_str(), flag.help);
  }
}

const FlagSpec* find_flag(const char* name) {
  for (const FlagSpec& flag : kFlags)
    if (std::strcmp(flag.name, name) == 0) return &flag;
  return nullptr;
}

/// Returns 0 (parsed), 1 (help printed) or 2 (bad usage).
int parse_args(int argc, char** argv, Cli& cli) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      print_help();
      return 1;
    }
    if (const FlagSpec* flag = find_flag(arg)) {
      const char* value = nullptr;
      if (flag->metavar) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "error: %s requires a value (%s)\n", flag->name, flag->metavar);
          return 2;
        }
        value = argv[++i];
      }
      flag->handler(cli, value);
      continue;
    }
    if (arg[0] != '\0' && arg[0] != '-') {
      cli.input_file = arg;
      continue;
    }
    std::fprintf(stderr, "error: unknown option '%s' (see --help)\n", arg);
    return 2;
  }
  return 0;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw nshot::Error("cannot write " + path);
  out << content;
}

std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) { g_stop.store(true); }

/// `--serve SOCKET` / `--serve-dir DIR`: run the batch server until
/// SIGTERM/SIGINT (or, in file-queue mode, until --serve-idle-exit empty
/// scans), then drain gracefully and print the ServeStats JSON.
int run_serve(const Cli& cli) {
  serve::ServeOptions sopt;
  sopt.pipeline.run.deadline_ms = cli.deadline_ms;
  sopt.pipeline.run.stage_deadline_ms = cli.stage_deadline_ms;
  sopt.pipeline.run.jobs = cli.jobs;
  sopt.pipeline.conformance.runs = cli.check_runs;
  sopt.pipeline.synthesis.exact = cli.exact;
  sopt.pipeline.stress_test = cli.stress;
  sopt.pipeline.stress.margin_runs = cli.stress_runs;
  sopt.admission.max_inflight = cli.serve_max_inflight;
  sopt.admission.per_client_inflight = cli.serve_per_client;
  sopt.admission.max_queue = cli.serve_queue;
  sopt.journal_path = cli.serve_journal;
  // A session keeps every request's spans for the server's lifetime, so
  // the server observes itself only when an exporter asks for it.
  sopt.pipeline.collect_observability = !cli.trace_file.empty() || !cli.report_file.empty();
  serve::Server server(sopt);

  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  if (!cli.serve_dir.empty()) {
    serve::FileQueueOptions fq;
    fq.dir = cli.serve_dir;
    fq.idle_exit_scans = cli.serve_idle_exit;
    serve::FileQueueWorker worker(fq, server);
    std::fprintf(stderr, "serving file queue %s\n", cli.serve_dir.c_str());
    worker.run(g_stop);  // drains on exit
  } else {
    serve::SocketListener listener(cli.serve_socket, server);
    std::fprintf(stderr, "serving on %s\n", cli.serve_socket.c_str());
    while (!g_stop.load()) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    listener.stop();
    server.drain();
  }

  const serve::ServeStats stats = server.stats();
  std::fprintf(stderr,
               "serve: %ld accepted, %ld completed (%ld failed), %ld rejected, %ld resumed\n",
               stats.accepted, stats.completed, stats.failed, stats.rejected, stats.resumed);
  if (!cli.trace_file.empty()) write_file(cli.trace_file, server.trace_json());
  if (!cli.report_file.empty()) write_file(cli.report_file, server.report_json());
  std::printf("%s\n", stats.to_json().c_str());
  return 0;
}

/// `--connect SOCKET`: pipeline every stdin request line to the server
/// and print one response line per request as it arrives.  Responses
/// arrive in completion order; match them to requests by "id".
int run_connect(const Cli& cli) {
  serve::SocketClient client(cli.connect_path);
  client.pipeline(STDIN_FILENO,
                  [](const std::string& response) { std::printf("%s\n", response.c_str()); });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  try {
    const int parsed = parse_args(argc, argv, cli);
    if (parsed != 0) return parsed == 1 ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  // The deadlines are per-request knobs of the Pipeline the serve and
  // batch modes run; the single-run path calls the stages directly.
  const bool pipeline_mode = !cli.serve_socket.empty() || !cli.serve_dir.empty() ||
                             !cli.batch_file.empty() || cli.soak > 0;
  if (cli.deadline_given && !pipeline_mode) {
    std::fprintf(stderr,
                 "error: --deadline-ms/--stage-deadline-ms apply only to --serve, --serve-dir, "
                 "--batch and --soak\n");
    return 2;
  }
  if (cli.jobs > 0) exec::set_default_jobs(cli.jobs);

  if (cli.list) {
    std::printf("%-15s %8s %6s %s\n", "name", "states*", "distr", "(* state count in the paper)");
    for (const auto& info : bench_suite::all_benchmarks())
      std::printf("%-15s %8d %6s\n", info.name.c_str(), info.paper_states,
                  info.nondistributive ? "no" : "yes");
    return 0;
  }
  if (!cli.serve_socket.empty() || !cli.serve_dir.empty()) {
    try {
      return run_serve(cli);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  if (!cli.connect_path.empty()) {
    try {
      return run_connect(cli);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  if (!cli.batch_file.empty() || cli.soak > 0) {
    try {
      BatchOptions bopt;
      bopt.journal_path = cli.batch_journal;
      bopt.max_retries = cli.batch_retries;
      bopt.stop_after = cli.batch_stop_after;
      bopt.pipeline.run.deadline_ms = cli.deadline_ms;
      bopt.pipeline.run.stage_deadline_ms = cli.stage_deadline_ms;
      bopt.pipeline.run.jobs = cli.jobs;
      bopt.pipeline.conformance.runs = cli.check_runs;
      bopt.pipeline.synthesis.exact = cli.exact;
      bopt.pipeline.stress_test = cli.stress;
      bopt.pipeline.stress.margin_runs = cli.stress_runs;

      std::string manifest_text;
      if (cli.soak > 0) {
        manifest_text = BatchRunner::soak_manifest(cli.soak, cli.soak_seed, cli.soak_params);
      } else {
        std::ifstream stream(cli.batch_file);
        if (!stream) throw Error("cannot open batch manifest " + cli.batch_file);
        std::stringstream buffer;
        buffer << stream.rdbuf();
        manifest_text = buffer.str();
      }

      BatchRunner runner(bopt);
      const BatchSummary summary = runner.run(BatchRunner::parse_manifest(manifest_text));
      const std::string json = summary.to_json();
      if (cli.batch_summary.empty()) {
        std::printf("%s", json.c_str());
      } else {
        write_file(cli.batch_summary, json);
      }
      std::fprintf(stderr,
                   "batch: %d run(s) — %d ok, %d failed, %d resumed, %d retried%s\n",
                   summary.total, summary.succeeded, summary.failed, summary.resumed,
                   summary.retries, summary.stopped_early ? " (stopped early)" : "");
      for (const auto& [code, count] : summary.failures_by_code)
        std::fprintf(stderr, "  %-20s %d\n", code.c_str(), count);
      // Classified circuit failures are a finding, not a harness error; the
      // exit code flags only internal failures (bugs) and unfinished work.
      const bool internal_failure = summary.failures_by_code.count("internal") != 0;
      return internal_failure ? 1 : 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  if (cli.input_file.empty() && cli.benchmark.empty()) {
    print_help();
    return 2;
  }

  // Observe the run only when an exporter was requested: the session wraps
  // everything from specification load to the last verification sweep, and
  // the CLI-level spans below keep the report's pass list covering the
  // whole wall clock (library spans land nested beneath them).
  std::optional<obs::Session> session;
  if (!cli.trace_file.empty() || !cli.report_file.empty())
    session.emplace("assassin_cli",
                    cli.benchmark.empty() ? cli.input_file : cli.benchmark);

  try {
    sg::StateGraph graph = [&] {
      const obs::Span span("load");
      if (!cli.benchmark.empty()) return bench_suite::build_benchmark(cli.benchmark);
      std::ifstream stream(cli.input_file);
      if (!stream) throw Error("cannot open " + cli.input_file);
      std::stringstream buffer;
      buffer << stream.rdbuf();
      const bool is_sg_format =
          cli.input_file.size() >= 3 &&
          cli.input_file.compare(cli.input_file.size() - 3, 3, ".sg") == 0;
      if (is_sg_format) return stg::parse_sg(buffer.str());
      const stg::Stg net = stg::parse_g(buffer.str());
      if (cli.solve_csc) {
        const auto solved = csc::solve_csc(net);
        if (!solved) throw Error("CSC solving failed within the signal budget");
        std::printf("CSC solved with %d inserted state signal(s):\n", solved->signals_added);
        for (const std::string& note : solved->insertions) std::printf("  %s\n", note.c_str());
        return solved->graph;
      }
      return stg::build_state_graph(net);
    }();

    {
      const obs::Span span("analyze");
      std::printf("specification: %s — %d states, %zu input / %zu non-input signals\n",
                  graph.name().c_str(), graph.num_states(), graph.input_signals().size(),
                  graph.noninput_signals().size());
      std::printf("distributive: %s, single traversal: %s\n",
                  sg::is_distributive(graph) ? "yes" : "no",
                  sg::is_single_traversal(graph) ? "yes" : "no");
      if (cli.print_regions)
        for (const auto& regions : sg::compute_all_regions(graph))
          std::printf("%s", regions.to_string(graph).c_str());
    }

    core::SynthesisOptions options;
    options.exact = cli.exact;
    options.share_products = !cli.no_share;
    const core::SynthesisResult result = core::synthesize(graph, options);

    {
      const obs::Span span("output");
      std::printf("\n%s", core::describe(graph, result).c_str());
      if (cli.print_pla) std::printf("\n%s", logic::write_pla(result.cover).c_str());
      if (cli.print_netlist) std::printf("\n%s", result.circuit.to_string().c_str());
      if (cli.print_verilog)
        std::printf("\n%s",
                    netlist::write_verilog(result.circuit, gatelib::GateLibrary::standard())
                        .c_str());
      if (cli.print_dot) {
        sg::DotOptions dot_options;
        dot_options.highlight_signal = graph.find_signal(cli.dot_signal);
        std::printf("\n%s", sg::to_dot(graph, dot_options).c_str());
      }
      if (!cli.vcd_file.empty()) {
        const sim::TracedRun traced = sim::record_vcd_trace(graph, result.circuit);
        write_file(cli.vcd_file, traced.vcd);
        std::printf("\nwrote VCD trace (%ld transitions, %.1f time units) to %s\n",
                    traced.report.external_transitions, traced.report.simulated_time,
                    cli.vcd_file.c_str());
      }
    }

    if (cli.check_runs > 0) {
      sim::ConformanceOptions copt;
      copt.runs = cli.check_runs;
      const sim::ConformanceReport report = sim::check_conformance(graph, result.circuit, copt);
      std::printf("\nconformance: %s\n", report.summary().c_str());
      if (!report.clean()) return 1;
    }

    if (cli.stress) {
      faults::StressOptions sopt;
      sopt.margin_runs = cli.stress_runs;
      sopt.adversarial.stress_factor = cli.stress_factor > 0.0 ? cli.stress_factor : 3.0;
      const faults::StressReport report =
          faults::run_stress(graph, result.circuit, graph.name(), sopt);
      const std::string json = faults::stress_report_json(report);
      if (cli.stress_out.empty()) {
        std::printf("\n%s\n", json.c_str());
      } else {
        write_file(cli.stress_out, json);
        int failed = 0;
        for (const faults::FaultOutcome& outcome : report.outcomes)
          if (!outcome.survived) ++failed;
        std::printf(
            "\nstress: %zu signals, %zu faults (%d detected), min omega slack %.3f, "
            "min Eq.1 slack %.3f, adversarial best slack %.3f -> %s\n",
            report.signals.size(), report.outcomes.size(), failed, report.min_omega_slack,
            report.min_eq1_slack, report.adversarial.best_slack, cli.stress_out.c_str());
      }
    }

    if (cli.stress_uncomp) {
      // Deliberately break Eq. 1: deepen one signal's set SOP with buffers
      // (raising t_set0w) and install no compensating delay line, then show
      // that uniform Monte Carlo over stressed delay bounds misses the
      // trespass an adversarial search finds, minimizes and dumps.
      const obs::Span span("uncompensated");
      const auto noninputs = graph.noninput_signals();
      if (noninputs.empty()) throw Error("--stress-uncomp needs a non-input signal");
      const gatelib::GateLibrary& lib = gatelib::GateLibrary::standard();

      // Pick the tightest under-compensation available: the (signal, depth)
      // pair whose deepened set SOP makes Eq. 1 require the SMALLEST
      // positive t_del.  The violating delay region is then a thin sliver
      // at the corner of the delay box — exactly the kind of trespass a
      // uniform sweep misses and a guided search walks into.
      std::string target;
      int levels = 0;
      double required = faults::kNoMargin;
      for (const auto sid : noninputs) {
        const std::string& name = graph.signal(sid).name;
        for (int l = 1; l <= cli.stress_deepen; ++l) {
          const netlist::Netlist candidate =
              faults::deepen_set_path(result.circuit, name, l);
          double shortfall = 0.0;
          for (const faults::Eq1Requirement& req : faults::eq1_requirements(candidate, lib))
            if (req.signal == name) shortfall = req.required_set - req.installed_set;
          if (shortfall <= 0.0) continue;  // still compensated; go deeper
          if (shortfall < required) {
            required = shortfall;
            target = name;
            levels = l;
          }
          break;  // deeper levels only increase the shortfall
        }
      }
      if (target.empty())
        throw Error("--stress-uncomp: no under-compensated variant within " +
                    std::to_string(cli.stress_deepen) + " extra levels");
      const netlist::Netlist uncomp = faults::strip_delay_compensation(
          faults::deepen_set_path(result.circuit, target, levels));
      std::printf(
          "\nunder-compensated %s (+%d set levels): Eq.1 requires t_del_set >= %.2f, "
          "installed 0\n",
          target.c_str(), levels, required);

      // Default to the plain library interval: the deepened circuit's Eq. 1
      // shortfall makes a thin corner of the ordinary delay box hazardous,
      // which is the sharpest form of the demo.
      faults::AdversarialOptions aopt;
      aopt.stress_factor = cli.stress_factor > 0.0 ? cli.stress_factor : 1.0;
      const faults::MonteCarloResult mc =
          faults::stressed_monte_carlo(graph, uncomp, 200, aopt);
      std::printf("uniform Monte Carlo: %d/%d runs violate (min slack %.3f)\n",
                  mc.violating_runs, mc.runs, mc.min_slack);

      const faults::AdversarialResult adv = faults::adversarial_delay_search(graph, uncomp, aopt);
      std::printf("adversarial search: %s after %ld evaluations (best slack %.3f)\n",
                  adv.violation_found ? "violation found" : "no violation", adv.evaluations,
                  adv.best_slack);
      if (adv.violation_found) {
        faults::FaultScenario scenario;
        scenario.seed = adv.env_seed;
        scenario.delays = adv.delays;
        const faults::MinimizedWitness witness =
            faults::minimize_counterexample(graph, uncomp, scenario);
        const std::string json_path =
            cli.stress_out.empty() ? "stress_witness.json" : cli.stress_out;
        write_file(json_path, faults::witness_json(witness, uncomp));
        write_file(cli.stress_vcd, witness.vcd);
        std::printf(
            "minimized witness: %d off-nominal gate delays (%d reset to nominal, "
            "%ld replays) -> %s, %s\n",
            witness.off_nominal_gates, witness.delays_reset, witness.evaluations,
            json_path.c_str(), cli.stress_vcd.c_str());
        if (!witness.report.violations.empty())
          std::printf("  %s: %s\n",
                      sim::violation_kind_name(witness.report.violations.front().kind),
                      witness.report.violations.front().description.c_str());
      }
    }

    if (cli.run_baselines) {
      const obs::Span span("baselines");
      auto show = [&](const char* name, const baselines::BaselineOutcome& outcome) {
        if (outcome.ok())
          std::printf("%-13s area %7.0f  delay %4.1f\n", name, outcome.result->stats.area,
                      outcome.result->stats.delay);
        else
          std::printf("%-13s %s\n", name, baselines::failure_text(*outcome.failure).c_str());
      };
      std::printf("\nbaseline comparison:\n");
      std::printf("%-13s area %7.0f  delay %4.1f\n", "n-shot", result.stats.area,
                  result.stats.delay);
      show("sis-like", baselines::synthesize_sis_like(graph));
      show("syn-like", baselines::synthesize_syn_like(graph));
      show("complex-gate", baselines::synthesize_complex_gate(graph));
    }

    if (session) {
      obs::TraceOptions topt;
      topt.deterministic = cli.trace_deterministic;
      obs::ReportOptions ropt;
      ropt.deterministic = cli.trace_deterministic;
      // Render everything before touching the disk so the exporters' own
      // I/O does not count against the session's attributed time.
      const std::string trace = cli.trace_file.empty() ? "" : session->trace_json(topt);
      const std::string report_doc =
          cli.report_file.empty() ? "" : session->report_json(ropt);
      const obs::RunReport report = session->report();
      if (!cli.trace_file.empty()) write_file(cli.trace_file, trace);
      if (!cli.report_file.empty()) write_file(cli.report_file, report_doc);
      std::printf("\nobservability: %zu pass(es), %.1f of %.1f ms attributed -> %s%s%s\n",
                  report.passes.size(), report.attributed_ms(), report.total_ms,
                  cli.trace_file.c_str(), !cli.trace_file.empty() && !cli.report_file.empty()
                                              ? ", " : "",
                  cli.report_file.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
