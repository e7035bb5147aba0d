#include "obs/obs.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "util/error.hpp"
#include "util/json.hpp"

namespace nshot::obs {

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kNumCounters = static_cast<int>(Counter::kCount);
constexpr int kNumGauges = static_cast<int>(Gauge::kCount);

constexpr CounterInfo kCounterTable[kNumCounters] = {
    {"states_visited", true},
    {"regions_extracted", true},
    {"cubes_expanded", true},
    {"primes_generated", true},
    {"trigger_cubes_added", true},
    {"trials_run", true},
    {"faults_injected", true},
    {"adversarial_evaluations", false},
    {"memo_hits", false},
    {"memo_misses", false},
    {"calendar_resizes", false},
    {"serve_admitted", false},
    {"serve_rejected", false},
    {"serve_completed", false},
    {"expand_raise_steps", true},
    {"expand_validity_checks", true},
    {"expand_off_words_scanned", true},
    {"adversarial_skipped", false},
};

constexpr GaugeInfo kGaugeTable[kNumGauges] = {
    {"omega_slack", true},
    {"eq1_slack", true},
    {"calendar_fill", false},
};

/// One completed span as recorded by its owning thread.
struct SpanRecord {
  const char* name = "";
  std::int64_t id = 0;
  std::int64_t parent = 0;  // 0 = session root
  long index = -1;
  bool task = false;
  double t0_us = 0.0;
  double t1_us = 0.0;
};

/// Per-thread collection buffer.  The owning thread appends under
/// `mutex`; the session reader locks the same mutex at snapshot time, so
/// reads are race-free even without an external join (the join is still
/// required for COMPLETENESS — see the lifecycle contract in obs.hpp).
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<SpanRecord> spans;
  std::atomic<long> counters[kNumCounters] = {};
  GaugeStats gauges[kNumGauges];  // guarded by mutex (low frequency)

  void clear() {
    std::lock_guard<std::mutex> lock(mutex);
    spans.clear();
    for (auto& c : counters) c.store(0, std::memory_order_relaxed);
    for (auto& g : gauges) g = GaugeStats{};
  }
};

/// Registry of every thread buffer ever created.  Buffers are leaked on
/// purpose: a thread's buffer pointer stays valid for the process
/// lifetime, so instrumentation can never dangle across session
/// boundaries; a new session simply clears the contents.
struct Registry {
  std::mutex mutex;
  std::vector<ThreadBuffer*> buffers;
  std::atomic<bool> session_active{false};
  Clock::time_point t0;
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

std::atomic<std::int64_t> g_next_span_id{1};

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local std::vector<std::int64_t> t_stack;  // innermost active span ids

ThreadBuffer& thread_buffer() {
  if (t_buffer == nullptr) {
    auto* buffer = new ThreadBuffer;  // leaked via the registry, see above
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.buffers.push_back(buffer);
    t_buffer = buffer;
  }
  return *t_buffer;
}

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - registry().t0).count();
}

}  // namespace

const CounterInfo& counter_info(Counter c) { return kCounterTable[static_cast<int>(c)]; }

namespace detail {

std::atomic<bool> g_enabled{false};
int (*g_default_jobs_provider)() = nullptr;

void count_slow(Counter c, long delta) {
  thread_buffer().counters[static_cast<int>(c)].fetch_add(delta, std::memory_order_relaxed);
}

void gauge_slow(Gauge g, double value) {
  ThreadBuffer& buffer = thread_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  GaugeStats& stats = buffer.gauges[static_cast<int>(g)];
  if (stats.count == 0 || value < stats.min) stats.min = value;
  if (stats.count == 0 || value > stats.max) stats.max = value;
  stats.sum += value;
  ++stats.count;
}

std::int64_t current_context() {
#ifdef NSHOT_OBS_DISABLE
  return 0;
#else
  if (!enabled()) return 0;
  return t_stack.empty() ? 0 : t_stack.back();
#endif
}

ContextScope::ContextScope(std::int64_t context) {
#ifndef NSHOT_OBS_DISABLE
  if (context != 0 && enabled()) {
    t_stack.push_back(context);
    pushed_ = true;
  }
#else
  (void)context;
#endif
}

ContextScope::~ContextScope() {
#ifndef NSHOT_OBS_DISABLE
  if (pushed_) t_stack.pop_back();
#endif
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Span
// ---------------------------------------------------------------------------

#ifndef NSHOT_OBS_DISABLE

Span::Span(const char* name, long index) : Span(name, index, /*is_task=*/false) {}

Span Span::task(const char* name, long index) { return Span(name, index, /*is_task=*/true); }

Span::Span(const char* name, long index, bool is_task) {
  if (!enabled()) return;
  active_ = true;
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  start_us_ = now_us();
  ThreadBuffer& buffer = thread_buffer();
  SpanRecord record;
  record.name = name;
  record.id = id_;
  record.parent = t_stack.empty() ? 0 : t_stack.back();
  record.index = index;
  record.task = is_task;
  record.t0_us = start_us_;
  record.t1_us = start_us_;  // finalized in the destructor
  {
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.spans.push_back(record);
  }
  t_stack.push_back(id_);
}

Span::~Span() {
  if (!active_) return;
  // Balanced by construction: the matching push happened on this thread.
  if (!t_stack.empty() && t_stack.back() == id_) t_stack.pop_back();
  const double end = now_us();
  ThreadBuffer& buffer = thread_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  for (auto it = buffer.spans.rbegin(); it != buffer.spans.rend(); ++it) {
    if (it->id == id_) {
      it->t1_us = end;
      break;
    }
  }
}

#endif  // NSHOT_OBS_DISABLE

Span::Span(Span&& other) noexcept
    : active_(other.active_), id_(other.id_), start_us_(other.start_us_) {
  other.active_ = false;
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(std::string tool, std::string label)
    : tool_(std::move(tool)), label_(std::move(label)) {
#ifndef NSHOT_OBS_DISABLE
  Registry& r = registry();
  NSHOT_ASSERT(!r.session_active.exchange(true), "an obs::Session is already active");
  active_ = true;
  {
    std::lock_guard<std::mutex> lock(r.mutex);
    for (ThreadBuffer* buffer : r.buffers) buffer->clear();
  }
  g_next_span_id.store(1, std::memory_order_relaxed);
  r.t0 = Clock::now();
  detail::g_enabled.store(true, std::memory_order_release);
#endif
}

Session::~Session() {
#ifndef NSHOT_OBS_DISABLE
  if (!active_) return;
  detail::g_enabled.store(false, std::memory_order_release);
  registry().session_active.store(false);
#endif
}

namespace {

/// Snapshot of every buffer, merged: all span records plus counter and
/// gauge totals.
struct Snapshot {
  std::vector<SpanRecord> spans;
  long counters[kNumCounters] = {};
  GaugeStats gauges[kNumGauges];
  double elapsed_ms = 0.0;
};

Snapshot take_snapshot() {
  Snapshot snap;
  Registry& r = registry();
  std::lock_guard<std::mutex> registry_lock(r.mutex);
  for (ThreadBuffer* buffer : r.buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    snap.spans.insert(snap.spans.end(), buffer->spans.begin(), buffer->spans.end());
    for (int i = 0; i < kNumCounters; ++i)
      snap.counters[i] += buffer->counters[i].load(std::memory_order_relaxed);
    for (int i = 0; i < kNumGauges; ++i) {
      const GaugeStats& g = buffer->gauges[i];
      if (g.count == 0) continue;
      GaugeStats& total = snap.gauges[i];
      if (total.count == 0 || g.min < total.min) total.min = g.min;
      if (total.count == 0 || g.max > total.max) total.max = g.max;
      total.sum += g.sum;
      total.count += g.count;
    }
  }
  snap.elapsed_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - r.t0).count();
  return snap;
}

/// The merged span tree.  Children are kept in canonical order: sorted by
/// (name, index, id).  Name/index are the caller-chosen stable identity;
/// the id tiebreak only orders same-key siblings, which by the
/// instrumentation contract are created serially on one thread, where id
/// allocation order IS program order.
struct TreeNode {
  const SpanRecord* record = nullptr;  // null for the root
  std::vector<TreeNode*> children;
};

struct Tree {
  std::vector<std::unique_ptr<TreeNode>> storage;
  TreeNode* root = nullptr;

  explicit Tree(const std::vector<SpanRecord>& spans, bool include_tasks) {
    storage.push_back(std::make_unique<TreeNode>());
    root = storage.back().get();
    std::unordered_map<std::int64_t, const SpanRecord*> record_of;
    std::unordered_map<std::int64_t, TreeNode*> by_id;
    record_of.reserve(spans.size());
    by_id.reserve(spans.size());
    for (const SpanRecord& record : spans) record_of.emplace(record.id, &record);
    for (const SpanRecord& record : spans) {
      if (record.task && !include_tasks) continue;
      storage.push_back(std::make_unique<TreeNode>());
      storage.back()->record = &record;
      by_id.emplace(record.id, storage.back().get());
    }
    for (const auto& node : storage) {
      if (node->record == nullptr) continue;
      // A dropped task span hoists its children to the nearest kept
      // ancestor (walking up through any chain of task spans).
      std::int64_t parent = node->record->parent;
      while (parent != 0 && by_id.find(parent) == by_id.end()) {
        const auto up = record_of.find(parent);
        parent = up != record_of.end() ? up->second->parent : 0;
      }
      const auto it = by_id.find(parent);
      (it != by_id.end() ? it->second : root)->children.push_back(node.get());
    }
    for (const auto& node : storage) {
      std::sort(node->children.begin(), node->children.end(),
                [](const TreeNode* a, const TreeNode* b) {
                  const int cmp = std::strcmp(a->record->name, b->record->name);
                  if (cmp != 0) return cmp < 0;
                  if (a->record->index != b->record->index)
                    return a->record->index < b->record->index;
                  return a->record->id < b->record->id;
                });
    }
  }
};

void flatten(const TreeNode* node, const std::string& prefix, int depth,
             std::vector<CanonicalSpan>& out) {
  for (const TreeNode* child : node->children) {
    // Local copy: recursing with a reference into `out` would dangle when
    // the vector reallocates.
    const std::string path =
        prefix.empty() ? child->record->name : prefix + "/" + child->record->name;
    CanonicalSpan span;
    span.path = path;
    span.index = child->record->index;
    span.depth = depth;
    out.push_back(std::move(span));
    flatten(child, path, depth + 1, out);
  }
}

}  // namespace

long Session::counter_total(Counter c) const {
  return take_snapshot().counters[static_cast<int>(c)];
}

GaugeStats Session::gauge_stats(Gauge g) const {
  return take_snapshot().gauges[static_cast<int>(g)];
}

std::vector<CanonicalSpan> Session::canonical_spans(bool include_tasks) const {
  const Snapshot snap = take_snapshot();
  const Tree tree(snap.spans, include_tasks);
  std::vector<CanonicalSpan> out;
  flatten(tree.root, "", 1, out);
  return out;
}

namespace {

/// Emit one span subtree as Chrome "complete" (ph:X) events.  In
/// deterministic mode timestamps are logical: ts is the preorder tick at
/// entry and dur spans the subtree's ticks, so nesting is preserved
/// without any wall-clock content.
void write_span_events(JsonWriter& json, const TreeNode* node,
                       const std::unordered_map<const SpanRecord*, int>& tids,
                       bool deterministic, long& tick) {
  for (const TreeNode* child : node->children) {
    const SpanRecord& record = *child->record;
    json.begin_object();
    json.key("name").value(record.name);
    json.key("cat").value(record.task ? "task" : "pass");
    json.key("ph").value("X");
    if (deterministic) {
      const long ts = tick++;
      // Children consume ticks; dur is assigned after they are emitted,
      // so compute the subtree first into the same writer via recursion
      // ordering: emit ts now, recurse, then we know the exit tick.
      // JsonWriter is append-only, so instead pre-count the subtree size.
      long subtree = 0;
      std::vector<const TreeNode*> stack(child->children.begin(), child->children.end());
      while (!stack.empty()) {
        const TreeNode* n = stack.back();
        stack.pop_back();
        ++subtree;
        stack.insert(stack.end(), n->children.begin(), n->children.end());
      }
      json.key("ts").value(ts);
      json.key("dur").value(subtree * 2 + 1);
      json.key("pid").value(1);
      json.key("tid").value(0);
    } else {
      json.key("ts").value(record.t0_us);
      json.key("dur").value(record.t1_us - record.t0_us);
      json.key("pid").value(1);
      json.key("tid").value(tids.at(&record));
    }
    if (record.index >= 0) {
      json.key("args").begin_object();
      json.key("index").value(record.index);
      json.end_object();
    }
    json.end_object();
    write_span_events(json, child, tids, deterministic, tick);
    if (deterministic) ++tick;  // exit tick keeps sibling intervals disjoint
  }
}

}  // namespace

std::string Session::trace_json(const TraceOptions& options) const {
  const Snapshot snap = take_snapshot();

  // Wall-clock mode: tid = the buffer ordinal the span was recorded on.
  // Rebuild that mapping from record pointers (records were concatenated
  // buffer by buffer in take_snapshot, but pointers into snap.spans do not
  // say which buffer — so recompute by re-walking the registry order).
  std::unordered_map<const SpanRecord*, int> tids;
  if (!options.deterministic) {
    // take_snapshot concatenated buffers in registry order; recover the
    // boundaries by matching span ids per buffer.
    std::unordered_map<std::int64_t, int> tid_of_id;
    {
      Registry& r = registry();
      std::lock_guard<std::mutex> registry_lock(r.mutex);
      int tid = 0;
      for (ThreadBuffer* buffer : r.buffers) {
        std::lock_guard<std::mutex> lock(buffer->mutex);
        for (const SpanRecord& record : buffer->spans) tid_of_id[record.id] = tid;
        ++tid;
      }
    }
    for (const SpanRecord& record : snap.spans) tids[&record] = tid_of_id[record.id];
  }

  const Tree tree(snap.spans, /*include_tasks=*/!options.deterministic);

  JsonWriter json;
  json.begin_object();
  json.key("traceEvents").begin_array();
  long tick = 0;
  write_span_events(json, tree.root, tids, options.deterministic, tick);

  // Counter totals as one Chrome counter event at the end of the trace.
  json.begin_object();
  json.key("name").value("counters");
  json.key("ph").value("C");
  json.key("ts").value(options.deterministic ? static_cast<double>(tick) : snap.elapsed_ms * 1e3);
  json.key("pid").value(1);
  json.key("args").begin_object();
  for (int i = 0; i < kNumCounters; ++i) {
    if (options.deterministic && !kCounterTable[i].deterministic) continue;
    json.key(kCounterTable[i].name).value(snap.counters[i]);
  }
  json.end_object();
  json.end_object();

  json.end_array();
  json.key("displayTimeUnit").value("ms");
  json.key("otherData").begin_object();
  json.key("tool").value(tool_);
  json.key("label").value(label_);
  json.key("deterministic").value(options.deterministic);
  json.end_object();
  json.end_object();
  return json.str() + "\n";
}

RunReport Session::report() const {
  const Snapshot snap = take_snapshot();
  const Tree tree(snap.spans, /*include_tasks=*/false);

  RunReport report;
  report.tool = tool_;
  report.label = label_;
  report.total_ms = snap.elapsed_ms;
  report.peak_rss_kb = peak_rss_kb();
  report.hardware_jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (detail::g_default_jobs_provider) report.default_jobs = detail::g_default_jobs_provider();
  for (int i = 0; i < kNumCounters; ++i) report.counters[i] = snap.counters[i];
  for (int i = 0; i < kNumGauges; ++i) report.gauges[i] = snap.gauges[i];

  // Depth-1 spans aggregated by name, ordered by first start time: these
  // are the pipeline passes.
  std::vector<const TreeNode*> top(tree.root->children.begin(), tree.root->children.end());
  std::sort(top.begin(), top.end(), [](const TreeNode* a, const TreeNode* b) {
    return a->record->t0_us < b->record->t0_us;
  });
  std::map<std::string, std::size_t> slot;
  for (const TreeNode* node : top) {
    const SpanRecord& record = *node->record;
    const auto it = slot.find(record.name);
    if (it == slot.end()) {
      slot.emplace(record.name, report.passes.size());
      report.passes.push_back({record.name, (record.t1_us - record.t0_us) / 1e3, 1});
    } else {
      PassTime& pass = report.passes[it->second];
      pass.wall_ms += (record.t1_us - record.t0_us) / 1e3;
      ++pass.spans;
    }
  }
  return report;
}

double RunReport::attributed_ms() const {
  double total = 0.0;
  for (const PassTime& pass : passes) total += pass.wall_ms;
  return total;
}

std::string Session::report_json(const ReportOptions& options) const {
  return obs::report_json(report(), options);
}

std::string report_json(const RunReport& report, const ReportOptions& options) {
  JsonWriter json;
  json.begin_object();
  json.key("tool").value(report.tool);
  json.key("label").value(report.label);
  if (!options.deterministic) {
    json.key("total_ms").value(report.total_ms);
    json.key("attributed_ms").value(report.attributed_ms());
    json.key("peak_rss_kb").value(report.peak_rss_kb);
    json.key("hardware_jobs").value(report.hardware_jobs);
    json.key("jobs").value(report.default_jobs);
  }
  json.key("passes").begin_array();
  for (const PassTime& pass : report.passes) {
    json.begin_object();
    json.key("name").value(pass.name);
    if (!options.deterministic) json.key("wall_ms").value(pass.wall_ms);
    json.key("spans").value(pass.spans);
    json.end_object();
  }
  json.end_array();
  json.key("counters").begin_object();
  for (int i = 0; i < kNumCounters; ++i) {
    if (options.deterministic && !kCounterTable[i].deterministic) continue;
    json.key(kCounterTable[i].name).value(report.counters[i]);
  }
  json.end_object();
  json.key("gauges").begin_object();
  for (int i = 0; i < kNumGauges; ++i) {
    if (options.deterministic && !kGaugeTable[i].deterministic) continue;
    const GaugeStats& stats = report.gauges[i];
    json.key(kGaugeTable[i].name).begin_object();
    json.key("count").value(stats.count);
    if (stats.count > 0) {
      json.key("min").value(stats.min);
      json.key("max").value(stats.max);
      if (!options.deterministic) json.key("mean").value(stats.mean());
    }
    json.end_object();
  }
  json.end_object();
  json.end_object();
  return json.str() + "\n";
}

std::string passes_json_fragment(const RunReport& report) {
  JsonWriter json;
  json.begin_array();
  for (const PassTime& pass : report.passes) {
    json.begin_object();
    json.key("name").value(pass.name);
    json.key("wall_ms").value(pass.wall_ms);
    json.key("spans").value(pass.spans);
    json.end_object();
  }
  json.end_array();
  return "\"passes\": " + json.str();
}

long peak_rss_kb() {
  struct rusage usage = {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<long>(usage.ru_maxrss);  // KB on Linux
}

bool session_active() {
#ifdef NSHOT_OBS_DISABLE
  return false;
#else
  return registry().session_active.load();
#endif
}

}  // namespace nshot::obs
