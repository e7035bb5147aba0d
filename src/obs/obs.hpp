// Observability layer: RAII trace spans, monotonic counters, gauge
// statistics and two exporters (Chrome trace_event JSON and a flat
// RunReport JSON) for the whole synthesis/verification pipeline.
//
// Design constraints, in priority order:
//
//  1. Disabled means free.  Every instrumentation call starts with one
//     relaxed load of a process-wide flag; no session active -> the call
//     returns immediately.  Defining NSHOT_OBS_DISABLE at build time
//     compiles the instrumentation out entirely (the flag becomes a
//     constant false and every call inlines to nothing).
//  2. Deterministic merge.  Spans and counters land in per-thread buffers;
//     Session::trace_json(deterministic) merges them into ONE canonical
//     tree ordered by (name, work-item index) — never by wall-clock or
//     scheduling order — so the exported trace is byte-identical across
//     worker counts, matching the parallel engine's by-index contract.
//     Scheduling-detail spans (Span::task) and counters whose value
//     depends on scheduling (memo hits/misses, discarded adversarial
//     restarts) are excluded from the deterministic export.
//  3. Thread-aware nesting.  A span opened inside an exec::ThreadPool
//     task attaches to the span that was active when the task was
//     SUBMITTED (the pool captures the context in submit()), so a
//     parallel_for's per-item spans nest under the caller's pass span
//     exactly as they would in a serial run.
//
// Lifecycle contract: at most one Session is active at a time; it must be
// created and destroyed on a thread that is not inside a parallel region,
// and all parallel work recorded into it must be joined before the session
// is read or destroyed (every sweep in this codebase joins before
// returning, so ordinary call sites satisfy this for free).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace nshot::obs {

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

/// Monotonic work counters, incremented from the instrumented passes.
/// Counters marked deterministic in counter_info() depend only on the
/// work performed, never on how it was scheduled.
enum class Counter : int {
  kStatesVisited = 0,        // stg::reachability marking-graph states
  kRegionsExtracted,         // sg ER/QR regions computed
  kCubesExpanded,            // espresso expand results over all iterations
  kPrimesGenerated,          // exact-minimizer prime implicants
  kTriggerCubesAdded,        // Theorem 1 repair cubes
  kTrialsRun,                // closed-loop simulation trials
  kFaultsInjected,           // fault-battery entries evaluated
  kAdversarialEvaluations,   // hill-climb objective evaluations (nondet:
                             // parallel restarts run past the serial early exit)
  kMemoHits,                 // MemoCache hits (nondet: races both-compute)
  kMemoMisses,               // MemoCache misses
  kCalendarResizes,          // calendar-queue re-bucketing passes (nondet:
                             // fires inside adversarial evaluations too)
  kServeAdmitted,            // serve requests admitted to the fair-share
                             // queue (nondet: traffic-dependent)
  kServeRejected,            // serve admission rejections (backlog full,
                             // deadline hopeless, draining)
  kServeCompleted,           // serve requests that reached a terminal
                             // Response (ok or classified failure)
  kExpandRaiseSteps,         // ESPRESSO EXPAND greedy raise steps
  kExpandValidityChecks,     // EXPAND candidate raises (literal or output)
                             // whose validity was decided
  kExpandOffWordsScanned,    // EXPAND off-set bit-plane words scanned
  kAdversarialSkipped,       // hill-climb proposals answered without a
                             // trial: no-op or already-scored vectors (nondet
                             // like kAdversarialEvaluations)
  kCount
};

/// Low-frequency scalar samples merged as (count, min, max, sum).
enum class Gauge : int {
  kOmegaSlack = 0,   // per-signal min ω slack from the margin sweep
  kEq1Slack,         // per-signal min Eq. 1 slack
  kCalendarFill,     // events per bucket at each calendar resize (nondet:
                     // sampled inside adversarial evaluations too)
  kCount
};

struct CounterInfo {
  const char* name;    // snake_case JSON key
  bool deterministic;  // stable across worker counts
};

/// Gauges carry the same determinism contract as counters: a gauge whose
/// samples depend on scheduling is dropped from deterministic exports.
struct GaugeInfo {
  const char* name;
  bool deterministic;
};

const CounterInfo& counter_info(Counter c);

// ---------------------------------------------------------------------------
// The enabled flag and the cheap call surface
// ---------------------------------------------------------------------------

namespace detail {
extern std::atomic<bool> g_enabled;
void count_slow(Counter c, long delta);
void gauge_slow(Gauge g, double value);

/// Reports exec::default_jobs() without obs depending on exec: the thread
/// pool registers its accessor here at static-init time, and RunReport
/// falls back to 0 ("library default") when no provider is linked in.
extern int (*g_default_jobs_provider)();

/// Span id of the innermost active span on this thread (0 = session root).
/// Captured by exec::ThreadPool::submit and re-established on the worker
/// through ContextScope, which is how worker spans attach to their parent
/// task.
std::int64_t current_context();

class ContextScope {
 public:
  explicit ContextScope(std::int64_t context);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  bool pushed_ = false;
};
}  // namespace detail

#ifdef NSHOT_OBS_DISABLE
inline constexpr bool enabled() { return false; }
#else
inline bool enabled() { return detail::g_enabled.load(std::memory_order_relaxed); }
#endif

/// Add `delta` to counter `c`.  One relaxed load + branch when disabled.
inline void count(Counter c, long delta = 1) {
  if (enabled()) detail::count_slow(c, delta);
}

/// Record one gauge sample.
inline void gauge(Gauge g, double value) {
  if (enabled()) detail::gauge_slow(g, value);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII trace span.  `name` must be a string literal (or otherwise outlive
/// the session) — spans store the pointer, not a copy.  `index` labels
/// work items fanned out by the parallel engine; sibling spans that can
/// run concurrently MUST carry distinct (name, index) pairs, which is what
/// makes the deterministic merge a total order.
class Span {
 public:
#ifdef NSHOT_OBS_DISABLE
  explicit Span(const char*, long = -1) {}
  static Span task(const char*, long = -1) { return Span(""); }
  ~Span() = default;
#else
  explicit Span(const char* name, long index = -1);
  ~Span();

  /// A scheduling-detail span (e.g. one worker chunk of a sweep): kept in
  /// the wall-clock trace so Perfetto shows the actual parallelism, but
  /// dropped from the deterministic export because chunk boundaries depend
  /// on the worker count.
  static Span task(const char* name, long index = -1);
#endif

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept;

 private:
#ifndef NSHOT_OBS_DISABLE
  Span(const char* name, long index, bool is_task);
#endif
  bool active_ = false;
  std::int64_t id_ = 0;
  double start_us_ = 0.0;
};

// ---------------------------------------------------------------------------
// Session, exporters and the flat run report
// ---------------------------------------------------------------------------

struct TraceOptions {
  /// Canonical export: logical preorder timestamps, canonical tids, task
  /// spans and nondeterministic counters dropped, gauges dropped.  The
  /// output is byte-identical across worker counts.
  bool deterministic = false;
};

struct ReportOptions {
  /// Omit every machine/wall-clock field (times, RSS, hardware) — used for
  /// golden-file tests; the structural content is deterministic.
  bool deterministic = false;
};

/// One aggregated top-level pass of the run (a depth-1 span name).
struct PassTime {
  std::string name;
  double wall_ms = 0.0;  // inclusive wall time summed over spans
  long spans = 0;        // number of spans aggregated
};

struct GaugeStats {
  long count = 0;
  double min = 0.0;
  double max = 0.0;
  double sum = 0.0;

  double mean() const { return count > 0 ? sum / count : 0.0; }
};

/// Flat summary of one session: per-pass wall time, work counters, gauge
/// statistics and peak RSS.
struct RunReport {
  std::string tool;
  std::string label;
  double total_ms = 0.0;    // session lifetime up to the report call
  long peak_rss_kb = 0;     // ru_maxrss (whole process high-water mark)
  int hardware_jobs = 0;
  int default_jobs = 0;
  std::vector<PassTime> passes;  // chronological first-appearance order
  long counters[static_cast<int>(Counter::kCount)] = {};
  GaugeStats gauges[static_cast<int>(Gauge::kCount)];

  /// Sum of the per-pass wall times (compare against total_ms to see how
  /// much of the run the instrumentation attributes).
  double attributed_ms() const;
};

/// Canonical view of one merged span — the unit the deterministic trace is
/// built from, exposed for tests.
struct CanonicalSpan {
  std::string path;  // "/"-joined names from the root, e.g. "synthesize/minimize"
  long index = -1;
  int depth = 1;
};

/// Collects spans/counters/gauges process-wide while alive.  Construction
/// enables the instrumentation (unless NSHOT_OBS_DISABLE is defined, in
/// which case the session stays empty); destruction disables it again.
class Session {
 public:
  explicit Session(std::string tool = "nshot", std::string label = "");
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& tool() const { return tool_; }
  const std::string& label() const { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

  /// Current value of one counter (all thread buffers summed).
  long counter_total(Counter c) const;
  GaugeStats gauge_stats(Gauge g) const;

  /// The merged span tree flattened in canonical (deterministic) order.
  std::vector<CanonicalSpan> canonical_spans(bool include_tasks = false) const;

  /// Chrome trace_event JSON (load in chrome://tracing or Perfetto).
  std::string trace_json(const TraceOptions& options = {}) const;

  RunReport report() const;
  std::string report_json(const ReportOptions& options = {}) const;

 private:
  std::string tool_;
  std::string label_;
  bool active_ = false;
};

/// Render an existing report (used by benches embedding per-pass
/// breakdowns into their own BENCH_*.json documents).
std::string report_json(const RunReport& report, const ReportOptions& options = {});

/// `"passes": [...]` JSON fragment of a report — the bench hook for
/// embedding a per-pass breakdown inside another JSON document.
std::string passes_json_fragment(const RunReport& report);

/// Process peak RSS in KB (ru_maxrss), 0 when unavailable.
long peak_rss_kb();

/// True while some Session object is alive.  Constructing a second Session
/// is a hard error, so owners that collect opportunistically (Pipeline)
/// check this first.  Always false under NSHOT_OBS_DISABLE.
bool session_active();

}  // namespace nshot::obs
