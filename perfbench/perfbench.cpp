// perfbench — the repository benchmark: N-SHOT synthesis requests served by
// an in-process serve::Server over its Unix-socket transport, measured end
// to end (untraced) and, with --trace 1, broken down layer by layer.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--out-dir DIR] [--socket PATH] [--commit ID]
//
// Workloads (each in a fresh process; see README.md for the rationale):
//   table2_cold         the 25 Table 2 circuits, kind synthesis, memo off
//   table2_stress       the same corpus, kind stress, memo warmed in set-up
//   random_conformance  distinct random_semimodular_g draws as inline .g
//                       text, kind conformance
//
// Load: 4 closed-loop clients, one socket connection each, taking the next
// request of one shared seeded sequence until --seconds have passed.  Every
// response's timing-stripped payload is compared byte for byte with a
// serial Pipeline::submit reference computed after the timed phase.
//
// Output: human-readable lines, then as the LAST stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Exits 1 on
// any payload mismatch or count drift, 2 on bad arguments, 3 when built
// without optimization.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/benchmarks.hpp"
#include "bench_suite/generators.hpp"
#include "layers.hpp"
#include "nshot/synthesis.hpp"
#include "serve/server.hpp"
#include "serve/socket.hpp"
#include "util/json_value.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using namespace nshot;
using perfbench::CoverMemo;
using perfbench::LayerCounts;
using perfbench::Tracer;

constexpr int kClients = 4;
constexpr int kSetupProbes = 5;  // fresh-process set-ups per run (median reported)
constexpr int kTraceRounds = 5;  // traced-set repetitions (per-request minima)

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Workload {
  const char* name;
  const char* kind;
  bool random;     // inline random_semimodular_g draws instead of Table 2
  bool memoize;    // the server's base memoize_minimization
  bool warm_memo;  // set-up runs the corpus once as synthesis to fill the memo
  long rss_requests;  // peak_rss_mb is read at this response count (~half a run)
};

constexpr Workload kWorkloads[] = {
    {"table2_cold", "synthesis", false, false, false, 800},
    {"table2_stress", "stress", false, true, true, 800},
    {"random_conformance", "conformance", true, true, false, 16000},
};

struct Cli {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_build/perfbench-out";
  std::string socket = ".bench_build/perfbench.sock";
  std::string commit = "unknown";
  std::int64_t setup_only_t0_ns = -1;  // --setup-only: a set-up probe
};

// ------------------------------------------------------------ inputs

/// The seeded request stream.  Request i depends on (workload, seed, i)
/// only, so every client can build the request it takes.
class RequestSequence {
 public:
  RequestSequence(const Workload& workload, std::uint64_t seed)
      : workload_(workload), seed_(seed) {
    for (const auto& info : bench_suite::all_benchmarks()) names_.push_back(info.name);
  }

  /// Table 2: round i / 25 is a seeded permutation of the corpus.  Random:
  /// a distinct draw per index.
  Request at(long i) const {
    if (workload_.random)
      return draw("g" + std::to_string(i), mix(seed_ * 0x100000001b3ULL + static_cast<std::uint64_t>(i)));
    const long n = static_cast<long>(names_.size());
    std::vector<int> order(names_.size());
    for (int k = 0; k < n; ++k) order[static_cast<std::size_t>(k)] = k;
    Rng rng(mix(seed_ ^ mix(static_cast<std::uint64_t>(i / n) + 1)));
    for (long k = n - 1; k > 0; --k)
      std::swap(order[static_cast<std::size_t>(k)],
                order[rng.next_below(static_cast<std::uint64_t>(k + 1))]);
    return table2(names_[static_cast<std::size_t>(order[static_cast<std::size_t>(i % n)])]);
  }

  /// The traced set: the corpus in paper order, or the first
  /// `random_draws` requests of the timed stream.
  std::vector<Request> traced_set(int random_draws) const {
    std::vector<Request> set;
    if (workload_.random) {
      for (int j = 0; j < random_draws; ++j) set.push_back(at(j));
    } else {
      for (const std::string& name : names_) set.push_back(table2(name));
    }
    return set;
  }

  const std::vector<std::string>& corpus() const { return names_; }

 private:
  Request table2(const std::string& name) const {
    Request request;
    request.id = name;
    request.kind = workload_.kind;
    request.spec = "bench:" + name;
    return request;
  }

  Request draw(std::string id, std::uint64_t draw_seed) const {
    bench_suite::RandomStgOptions gen;
    gen.seed = draw_seed;
    Request request;
    request.id = std::move(id);
    request.kind = workload_.kind;
    request.g_text = bench_suite::random_semimodular_g(gen);
    return request;
  }

  const Workload& workload_;
  std::uint64_t seed_;
  std::vector<std::string> names_;
};

// ---------------------------------------------------------- serve path

serve::ServeOptions serve_options(bool memoize) {
  serve::ServeOptions options;
  options.pipeline.synthesis.memoize_minimization = memoize;
  options.label = "perfbench";
  return options;
}

/// A live server, its socket listener and one connection per client.
/// Members destroy in reverse order: clients, listener, then the server
/// (which drains).
struct Service {
  Service(const serve::ServeOptions& options, const std::string& socket)
      : server(std::make_unique<serve::Server>(options)),
        listener(std::make_unique<serve::SocketListener>(socket, *server)) {
    for (int c = 0; c < kClients; ++c)
      clients.push_back(std::make_unique<serve::SocketClient>(socket));
  }
  ~Service() {
    clients.clear();
    listener->stop();
    server->drain();
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::SocketListener> listener;
  std::vector<std::unique_ptr<serve::SocketClient>> clients;
};

/// VmHWM (peak resident set) in MiB, from /proc/self/status.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (starts_with(line, "VmHWM:")) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

struct Sample {
  long index = 0;
  std::string id;
  std::string payload;        // response minus elapsed_ms/attempts
  double roundtrip_ms = 0.0;  // client send -> response
  double server_ms = 0.0;     // the response's own elapsed_ms
  bool ok = false;
  double done_ms = 0.0;       // completion time (steady clock)
};

/// Cut the trailing "elapsed_ms"/"attempts" members off a wire response:
/// what remains is exactly Response::payload_json().
std::string strip_timing(const std::string& line) {
  const std::size_t pos = line.rfind(",\"elapsed_ms\":");
  return pos == std::string::npos ? line : line.substr(0, pos) + "}";
}

struct Loop {
  std::vector<Sample> samples;  // in sequence order
  double rss_mb = 0.0;          // VmHWM when the rss_after-th response arrived
};

/// Closed loop: every client takes the next index of the shared sequence
/// (from `first`), sends it and waits for the response, until `limit`
/// requests were taken (-1: no limit) or the clock passes `deadline_ms`.
Loop closed_loop(Service& service, const std::function<Request(long)>& make, long first,
                 long limit, double deadline_ms, long rss_after = -1) {
  std::atomic<long> next{0}, completed{0};
  Loop loop;
  std::vector<std::vector<Sample>> per_client(kClients);
  auto serve_client = [&](int c) {
    serve::SocketClient& client = *service.clients[static_cast<std::size_t>(c)];
    while (now_ms() < deadline_ms) {
      const long i = next.fetch_add(1);
      if (limit >= 0 && i >= limit) break;
      serve::WireRequest wire;
      wire.client = "client-" + std::to_string(c);
      wire.request = make(first + i);
      const double t0 = now_ms();
      const std::string line = client.roundtrip(wire);
      const double t1 = now_ms();
      if (completed.fetch_add(1) + 1 == rss_after) loop.rss_mb = peak_rss_mb();
      Sample sample;
      sample.index = first + i;
      sample.id = wire.request.id;
      sample.roundtrip_ms = t1 - t0;
      sample.done_ms = t1;
      sample.payload = strip_timing(line);
      const JsonValue doc = parse_json(line, "response line");
      sample.server_ms = doc.number_or("elapsed_ms", 0.0);
      sample.ok = doc.find("error") == nullptr;
      per_client[static_cast<std::size_t>(c)].push_back(std::move(sample));
    }
  };
  std::vector<std::exception_ptr> errors(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      try {
        serve_client(c);
      } catch (...) {
        errors[static_cast<std::size_t>(c)] = std::current_exception();
      }
    });
  for (std::thread& thread : threads) thread.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  for (auto& list : per_client)
    for (Sample& sample : list) loop.samples.push_back(std::move(sample));
  std::sort(loop.samples.begin(), loop.samples.end(),
            [](const Sample& a, const Sample& b) { return a.index < b.index; });
  return loop;
}

/// Start the service and, on table2_stress, fill the memo with one
/// synthesis pass over the corpus (4 clients, like the timed phase).
std::unique_ptr<Service> set_up(const Cli& cli, const RequestSequence& sequence) {
  auto service = std::make_unique<Service>(serve_options(cli.workload->memoize), cli.socket);
  if (cli.workload->warm_memo) {
    const std::vector<std::string>& corpus = sequence.corpus();
    const Loop warm = closed_loop(
        *service,
        [&](long i) {
          Request request;
          request.id = corpus[static_cast<std::size_t>(i)];
          request.kind = "synthesis";
          request.spec = "bench:" + request.id;
          return request;
        },
        0, static_cast<long>(corpus.size()), 1e300);
    for (const Sample& sample : warm.samples)
      if (!sample.ok) throw Error("memo warm-up request " + sample.id + " failed");
  }
  return service;
}

std::string self_exe() {
  char path[4096];
  const ssize_t n = readlink("/proc/self/exe", path, sizeof path - 1);
  NSHOT_REQUIRE(n > 0, "cannot resolve /proc/self/exe");
  return std::string(path, static_cast<std::size_t>(n));
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Set-up time of a fresh process: spawn this binary with --setup-only and
/// the spawn time; it sets up (process start, server, listener, clients,
/// memo warm-up) and prints the seconds elapsed since the spawn.
double probe_setup(const Cli& cli) {
  const std::string exe = self_exe();
  std::vector<std::string> args = {exe,           "--workload",
                                   cli.workload->name, "--seed",
                                   std::to_string(cli.seed), "--socket",
                                   cli.socket + ".probe", "--setup-only",
                                   std::to_string(now_ns())};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  int fds[2];
  NSHOT_REQUIRE(pipe(fds) == 0, "pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[256];
  for (ssize_t n; spawned == 0 && (n = read(fds[0], buf, sizeof buf)) > 0;)
    out.append(buf, static_cast<std::size_t>(n));
  close(fds[0]);
  NSHOT_REQUIRE(spawned == 0, "cannot spawn the set-up probe");
  int status = 0;
  waitpid(pid, &status, 0);
  NSHOT_REQUIRE(WIFEXITED(status) && WEXITSTATUS(status) == 0, "set-up probe failed");
  return std::stod(out);
}

// ------------------------------------------------------------ numbers

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// The latency tail: p99 (nearest rank) on every workload, a constant so
/// runs and commits always compare the same percentile.  Runs are sized so
/// that at least 10 samples lie beyond it (the count is printed with it).
/// Higher percentiles would qualify on random_conformance, but p99.9 there
/// is set by host scheduling hiccups and spreads 30% from run to run.
struct Tail {
  double value = 0.0;
  long beyond = 0;
};

Tail tail_p99(std::vector<double> values) {
  Tail t;
  if (values.empty()) return t;
  std::sort(values.begin(), values.end());
  const long n = static_cast<long>(values.size());
  const long rank = std::max(1L, static_cast<long>(std::ceil(0.99 * static_cast<double>(n))));
  t.value = values[static_cast<std::size_t>(rank - 1)];
  t.beyond = n - rank;
  return t;
}

double cpu_ms() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) { return tv.tv_sec * 1000.0 + tv.tv_usec / 1000.0; };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

void print_result(bool correct, long attempted, long failed, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("metric %-28s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------- exact counts

/// Counts must repeat exactly for a (workload, seed): the first run
/// records them under the output directory, later runs compare.
bool check_counts(const Cli& cli, const std::map<std::string, long>& counts) {
  std::string text = "{";
  for (const auto& [name, value] : counts)
    text += (text.size() > 1 ? ", \"" : "\"") + name + "\": " + std::to_string(value);
  text += "}\n";
  const std::string path = cli.out_dir + "/counts-" + cli.workload->name + "-seed" +
                           std::to_string(cli.seed) + (cli.smoke ? "-smoke" : "") + ".json";
  std::ifstream in(path);
  if (in) {
    std::stringstream recorded;
    recorded << in.rdbuf();
    if (recorded.str() != text) {
      std::fprintf(stderr, "error: counts differ from an earlier run of this seed\n  %s  %s",
                   recorded.str().c_str(), text.c_str());
      return false;
    }
    std::printf("counts match the earlier run of this seed (%s)\n", path.c_str());
    return true;
  }
  std::ofstream out(path);
  if (!out) throw Error("cannot write " + path);
  out << text;
  return true;
}

// ------------------------------------------------------------- main

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw Error(arg + " requires a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = next();
      for (const Workload& w : kWorkloads)
        if (name == w.name) cli.workload = &w;
      if (!cli.workload) throw Error("unknown workload '" + name + "'");
    } else if (arg == "--seed") {
      cli.seed = static_cast<std::uint64_t>(parse_long(next(), 0, 1L << 62, "--seed"));
    } else if (arg == "--seconds") {
      cli.seconds = parse_double(next(), 0.1, 600, "--seconds");
    } else if (arg == "--trace") {
      cli.trace = parse_int(next(), 0, 1, "--trace") == 1;
    } else if (arg == "--smoke") {
      cli.smoke = true;
    } else if (arg == "--out-dir") {
      cli.out_dir = next();
    } else if (arg == "--socket") {
      cli.socket = next();
    } else if (arg == "--commit") {
      cli.commit = next();
    } else if (arg == "--setup-only") {
      cli.setup_only_t0_ns = parse_long(next(), 0, std::numeric_limits<long>::max(), "--setup-only");
    } else {
      throw Error("unknown option " + arg);
    }
  }
  if (!cli.workload) throw Error("--workload is required");
  return cli;
}

int run(const Cli& cli) {
  const Workload& workload = *cli.workload;
  const RequestSequence sequence(workload, cli.seed);
  std::printf("host nproc=%u build_type=%s compiler=\"%s\" commit=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              cli.commit.c_str());
  std::printf("workload %s seed %llu: kind %s, closed loop, %d clients, %.3g s timed%s\n",
              workload.name, static_cast<unsigned long long>(cli.seed), workload.kind, kClients,
              cli.seconds, cli.trace ? ", traced decomposition after" : "");

  // ---- set-up time: fresh processes, each timed from its spawn to the
  // moment it could send the first timed request.
  std::vector<double> setup_s;
  for (int probe = 0; probe < (cli.smoke ? 1 : kSetupProbes); ++probe)
    setup_s.push_back(probe_setup(cli));

  // ---- this process's own set-up.
  const double t_setup = now_ms();
  const core::MinimizationCacheStats warm_before = core::minimization_cache_stats();
  auto service = set_up(cli, sequence);
  const core::MinimizationCacheStats warm_after = core::minimization_cache_stats();
  std::printf("set-up: %.4f s in this process; fresh processes:", (now_ms() - t_setup) / 1000.0);
  for (const double s : setup_s) std::printf(" %.4f", s);
  std::printf(" s\n");

  // ---- timed phase.  peak_rss_mb is read when the rss_requests-th
  // response arrives, so every run measures it at the same request count;
  // a run that has not got there by the deadline tops up, untimed.
  const long rss_requests = cli.smoke ? 50 : workload.rss_requests;
  const serve::ServeStats stats_before = service->server->stats();
  const core::MinimizationCacheStats memo_before = core::minimization_cache_stats();
  const double cpu_before = cpu_ms();
  const double t_timed = now_ms();
  Loop loop = closed_loop(*service, [&](long i) { return sequence.at(i); }, 0, -1,
                          t_timed + cli.seconds * 1000.0, rss_requests);
  const std::vector<Sample> samples = std::move(loop.samples);
  double t_end = t_timed;
  for (const Sample& sample : samples) t_end = std::max(t_end, sample.done_ms);
  const double cpu_used = cpu_ms() - cpu_before;
  const core::MinimizationCacheStats memo_after = core::minimization_cache_stats();
  const serve::ServeStats stats_after = service->server->stats();
  const long attempted = static_cast<long>(samples.size());
  NSHOT_REQUIRE(attempted > 0, "the timed phase completed no request");
  std::vector<Sample> top_up;
  double rss_mb = loop.rss_mb;
  if (attempted < rss_requests) {
    Loop more = closed_loop(*service, [&](long i) { return sequence.at(i); }, attempted,
                            rss_requests - attempted, 1e300, rss_requests - attempted);
    top_up = std::move(more.samples);
    rss_mb = more.rss_mb;
    std::printf("peak_rss_mb read after %ld untimed top-up requests\n", rss_requests - attempted);
  }
  service.reset();
  const double wall_s = (t_end - t_timed) / 1000.0;

  // ---- serial reference over the same inputs (outside the timed phase).
  PipelineOptions base = serve_options(workload.memoize).pipeline;
  base.collect_observability = false;
  base.label = "reference";
  std::map<std::string, std::string> reference;
  long failed = 0, unimplementable = 0;
  {
    Pipeline pipeline(base);
    for (const std::vector<Sample>* list : {&samples, const_cast<const std::vector<Sample>*>(&top_up)})
      for (const Sample& sample : *list) {
        std::string& expected = reference[sample.id];
        if (expected.empty()) expected = pipeline.submit(sequence.at(sample.index)).payload_json();
        if (sample.payload != expected && ++failed <= 3)
          std::fprintf(stderr, "payload mismatch for %s:\n  serial: %s\n  serve:  %s\n",
                       sample.id.c_str(), expected.c_str(), sample.payload.c_str());
        if (!sample.ok) ++unimplementable;
      }
  }
  bool correct = failed == 0;
  const long checked = attempted + static_cast<long>(top_up.size());

  std::vector<double> roundtrip, overhead;
  for (const Sample& sample : samples) {
    roundtrip.push_back(sample.roundtrip_ms);
    overhead.push_back(sample.roundtrip_ms - sample.server_ms);
  }
  const Tail latency_tail = tail_p99(roundtrip);
  std::printf("timed: %ld requests in %.3f s; %ld of %ld checked responses are correct "
              "unimplementable verdicts\n",
              attempted, wall_s, unimplementable, checked);
  std::printf("latency_tail_ms is p99 over %ld samples (%ld beyond it%s)\n", attempted,
              latency_tail.beyond, latency_tail.beyond < 10 ? "; too few for a steady tail" : "");
  std::printf("failed_share %.6f (%ld of %ld responses differ from the serial reference)\n",
              static_cast<double>(failed) / static_cast<double>(checked), failed, checked);

  if (!cli.trace) {
    print_result(correct, checked, failed,
                 {{"throughput_rps", static_cast<double>(attempted) / wall_s, "1/s"},
                  {"latency_p50_ms", median(roundtrip), "ms"},
                  {"latency_tail_ms", latency_tail.value, "ms"},
                  {"cpu_ms_per_req", cpu_used / static_cast<double>(attempted), "ms"},
                  {"peak_rss_mb", rss_mb, "MiB"},
                  {"setup_s", median(setup_s), "s"}});
    return correct ? 0 : 1;
  }

  // ---- traced decomposition.  Per request, interleaved so drift hits all
  // three alike: Pipeline::submit (the attribution base), the layer-by-layer
  // decomposition untraced, then traced.  Serial, no obs session.  Where
  // the server memoizes, the process memo already holds every traced spec
  // (the corpus, or the first timed requests), so `memo` is filled first
  // and the decomposition takes the same memo hits as submit.  Rounds
  // repeat the set and each request's times are minima over rounds,
  // because one slow host phase can stretch a single 0.5 s master-read
  // call by half.
  const std::vector<Request> traced = sequence.traced_set(cli.smoke ? 20 : 200);
  const int rounds = cli.smoke ? 1 : kTraceRounds;
  const long n_traced = static_cast<long>(traced.size());
  CoverMemo memo;
  if (workload.memoize) {
    LayerCounts discard;
    for (const Request& request : traced)
      perfbench::decompose(request, base, nullptr, memo, discard);
  }
  Pipeline pipeline(base);
  Tracer tracer;
  LayerCounts counts;  // from round 0 only
  std::vector<std::vector<double>> submit_ms(traced.size()), untraced_ms(traced.size()),
      traced_ms(traced.size());
  long trace_mismatches = 0;
  for (int round = 0; round < rounds; ++round) {
    for (long j = 0; j < n_traced; ++j) {
      const Request& request = traced[static_cast<std::size_t>(j)];
      const std::size_t at = static_cast<std::size_t>(j);
      std::string expected, payload;
      auto run_submit = [&] {
        const Response response = pipeline.submit(request);
        submit_ms[at].push_back(response.elapsed_ms);
        expected = response.payload_json();
      };
      auto run_untraced = [&] {
        LayerCounts discard;
        const double t0 = now_ms();
        perfbench::decompose(request, base, nullptr, memo, discard);
        untraced_ms[at].push_back(now_ms() - t0);
      };
      auto run_traced = [&] {
        LayerCounts discard;
        const double t0 = now_ms();
        tracer.begin_request(round * n_traced + j);
        {
          const Tracer::Scope root(&tracer, "request");
          payload = perfbench::decompose(request, base, &tracer, memo, round ? discard : counts);
        }
        traced_ms[at].push_back(now_ms() - t0);
      };
      // Rotate which variant runs first: position in the sequence costs
      // time of its own (allocator and cache state).
      const std::function<void()> variants[] = {run_submit, run_untraced, run_traced};
      for (int k = 0; k < 3; ++k) variants[(k + round) % 3]();
      if (payload != expected && ++trace_mismatches <= 3)
        std::fprintf(stderr, "decomposition differs from Pipeline::submit for %s:\n  %s\n  %s\n",
                     request.id.c_str(), expected.c_str(), payload.c_str());
    }
  }
  if (trace_mismatches) correct = false;

  const std::string trace_path = cli.out_dir + "/trace-" + workload.name + "-seed" +
                                 std::to_string(cli.seed) + ".json";
  std::ofstream(trace_path) << tracer.to_json();

  std::vector<std::vector<double>> attributed_ms(traced.size());
  for (const auto& [instance, ms] : tracer.attributed_ms())
    attributed_ms[static_cast<std::size_t>(instance % n_traced)].push_back(ms);
  double attributed = 0.0, submitted = 0.0, untraced_total = 0.0, traced_total = 0.0;
  for (std::size_t j = 0; j < traced.size(); ++j) {
    attributed += *std::min_element(attributed_ms[j].begin(), attributed_ms[j].end());
    submitted += *std::min_element(submit_ms[j].begin(), submit_ms[j].end());
    untraced_total += *std::min_element(untraced_ms[j].begin(), untraced_ms[j].end());
    traced_total += *std::min_element(traced_ms[j].begin(), traced_ms[j].end());
  }
  std::map<std::string, double> self = tracer.self_ms();
  self.erase("request");
  double layer_total = 0.0;
  for (const auto& [name, ms] : self) layer_total += ms;
  std::printf("traced %zu requests x %d rounds: %zu spans -> %s\n", traced.size(), rounds,
              tracer.spans().size(), trace_path.c_str());
  std::printf("attributed %.3f ms of %.3f ms serial Pipeline::submit (target: within 5%%)\n",
              attributed, submitted);
  for (const auto& [name, ms] : self)
    std::printf("layer %-22s self %10.3f ms per round  %5.1f%%\n", name.c_str(), ms / rounds,
                layer_total > 0 ? 100.0 * ms / layer_total : 0.0);

  const std::map<std::string, long> exact = [&] {
    std::map<std::string, long> c = {
        {"stg.states", counts.states},
        {"sg.unimplementable", counts.unimplementable},
        {"logic.spec_minterms", counts.spec_minterms},
        {"logic.cover_cubes", counts.cover_cubes},
        {"logic.cover_literals", counts.cover_literals},
        {"nshot.trigger_cubes_added", counts.trigger_cubes_added},
        {"sim.events", counts.sim_events},
        {"faults.fault_configs", counts.fault_configs},
    };
    if (workload.warm_memo) {
      c["exec.warmup_memo_misses"] = warm_after.misses - warm_before.misses;
      c["exec.warmup_memo_entries"] = static_cast<long>(warm_after.entries - warm_before.entries);
      c["exec.timed_memo_misses"] = memo_after.misses - memo_before.misses;
    }
    return c;
  }();
  for (const auto& [name, value] : exact) std::printf("count %-28s %ld\n", name.c_str(), value);
  if (!check_counts(cli, exact)) correct = false;

  auto layer_ms = [&](const char* name) {  // mean self time per traced request
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / static_cast<double>(n_traced * rounds);
  };
  const Tail overhead_tail = tail_p99(overhead);
  const long hits = memo_after.hits - memo_before.hits;
  const long misses = memo_after.misses - memo_before.misses;
  const double conformance_ms = layer_ms("sim.conformance") * static_cast<double>(n_traced);
  print_result(
      correct, checked, failed + trace_mismatches,
      {{"serve.overhead_ms_p50", median(overhead), "ms"},
       {"serve.overhead_ms_tail", overhead_tail.value, "ms"},
       {"serve.rejected", static_cast<double>(stats_after.rejected - stats_before.rejected), "count"},
       {"stg.load_ms", layer_ms("stg.load"), "ms"},
       {"stg.states", static_cast<double>(counts.states), "count"},
       {"sg.implementability_ms", layer_ms("sg.implementability"), "ms"},
       {"sg.regions_ms", layer_ms("sg.regions"), "ms"},
       {"sg.unimplementable", static_cast<double>(counts.unimplementable), "count"},
       {"nshot.derive_spec_ms", layer_ms("nshot.derive_spec"), "ms"},
       {"nshot.trigger_ms", layer_ms("nshot.trigger"), "ms"},
       {"nshot.signal_analysis_ms", layer_ms("nshot.signal_analysis"), "ms"},
       {"nshot.architecture_ms", layer_ms("nshot.architecture"), "ms"},
       {"nshot.trigger_cubes_added", static_cast<double>(counts.trigger_cubes_added), "count"},
       {"logic.espresso_ms", layer_ms("logic.espresso"), "ms"},
       {"logic.verify_ms", layer_ms("logic.verify"), "ms"},
       {"logic.spec_minterms", static_cast<double>(counts.spec_minterms), "count"},
       {"logic.cover_cubes", static_cast<double>(counts.cover_cubes), "count"},
       {"logic.cover_literals", static_cast<double>(counts.cover_literals), "count"},
       {"exec.memo_hits", static_cast<double>(hits), "count"},
       {"exec.memo_misses", static_cast<double>(misses), "count"},
       {"exec.memo_hit_ratio", hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0,
        "ratio"},
       {"exec.memo_entries", static_cast<double>(memo_after.entries), "count"},
       {"sim.conformance_ms", layer_ms("sim.conformance"), "ms"},
       {"sim.events", static_cast<double>(counts.sim_events), "count"},
       {"sim.events_per_s",
        conformance_ms > 0 ? static_cast<double>(counts.sim_events) / (conformance_ms / 1000.0) : 0.0,
        "1/s"},
       {"faults.stress_ms", layer_ms("faults.stress"), "ms"},
       {"faults.fault_configs", static_cast<double>(counts.fault_configs), "count"},
       {"trace.attributed_share", submitted > 0 ? attributed / submitted : 0.0, "ratio"},
       {"trace.overhead_share", untraced_total > 0 ? traced_total / untraced_total - 1.0 : 0.0,
        "ratio"}});
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "error: perfbench refuses an unoptimized build (%s)\n", PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  Cli cli;
  try {
    cli = parse_cli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  try {
    if (cli.setup_only_t0_ns >= 0) {  // a set-up probe: report and tear down
      const RequestSequence sequence(*cli.workload, cli.seed);
      const auto service = set_up(cli, sequence);
      std::printf("%.9f\n", static_cast<double>(now_ns() - cli.setup_only_t0_ns) / 1e9);
      std::fflush(stdout);
      return 0;
    }
    return run(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
