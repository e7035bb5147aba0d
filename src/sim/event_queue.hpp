// Event queues for the gate-level simulator.
//
// Pop order is a TOTAL order on (time, seq): seq is unique per event, so
// every queue implementation that honors the comparator pops the exact
// same sequence — which is what lets the calendar queue replace the
// binary heap without moving a single byte of any simulation artifact
// (fingerprints, violation text, VCD witnesses all stay identical).
//
//  * BinaryHeapQueue — the arena-backed binary min-heap the simulator
//    shipped with (PR 3).  O(log n) per operation; kept compiled in as
//    the reference queue and as the engine of the reference trial
//    (run_closed_loop).
//  * SortedArrayQueue — one flat array in ascending (time, seq) order;
//    the adaptive queue's small-population engine (below).
//  * CalendarQueue — R. Brown's calendar queue (CACM 1988): buckets of
//    width `w` (a "day"), `nb` buckets to a "year"; an event lands in
//    bucket floor(t/w) mod nb and pops by scanning the current day
//    forward.  O(1) amortized per operation when the geometry tracks the
//    event population, which resize() maintains by doubling/halving nb
//    and re-deriving w from sampled inter-event gaps.  Buckets are
//    arena-backed vectors (the cache-decay caveat from the prs repo's
//    README: linked-list buckets decay into pointer-chasing; flat arrays
//    do not) and clear() keeps their capacity across trials.
//
// Geometry is reset to the defaults by clear() so a trial's resize
// trajectory depends only on the trial itself, never on what an earlier
// trial in the same chunk left behind — that keeps the obs counters
// deterministic across --jobs values.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace nshot::sim {

enum class EventKind : std::uint8_t { kNetChange, kMhsProbe };

// 32 bytes — both queues move events by value, so layout is throughput.
// `generation` wraps mod 2^32: a stale inertial event could alias the live
// generation only after 2^32 cancellations of one gate while it sits
// queued, which needs a >4-billion-event trial.
struct Event {
  double time;
  std::uint64_t seq;  // FIFO tie-break
  std::int32_t target;       // net id, or gate id for probes
  std::uint32_t generation;  // for cancellable inertial events
  EventKind kind;
  bool value;  // net change value

  friend bool operator>(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Arena-backed binary min-heap on (time, seq).  The comparator is total
/// (seq is unique), so pop order — and therefore every simulation — is
/// identical to the std::priority_queue it replaced; clear() keeps the
/// arena's capacity across reset().
class BinaryHeapQueue {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  const Event& top() const { return heap_.front(); }
  void push(const Event& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
  }
  void pop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Event>{});
    heap_.pop_back();
  }
  void clear() { heap_.clear(); }

 private:
  std::vector<Event> heap_;
};

/// Sorted-array queue: the pending events in ascending (time, seq) order
/// in one flat arena, the minimum at head_.  Pop advances head_.  Push
/// appends when the event sorts last — the common case, a new event being
/// now + a gate delay — and otherwise binary-searches its slot and shifts
/// the later events up with one block move, so a backlog of far-future
/// events (a preloaded input schedule) costs a memmove, not a compare per
/// element.  At the adaptive queue's populations (under kAdaptiveUp) this
/// beats the heap's sift-down on every pop.  The arena rewinds whenever
/// it drains and compacts once the consumed prefix outgrows the live
/// suffix, so it stays O(population); clear() keeps its capacity across
/// trials.
class SortedArrayQueue {
 public:
  bool empty() const { return head_ == events_.size(); }
  std::size_t size() const { return events_.size() - head_; }
  const Event& top() const { return events_[head_]; }
  void push(const Event& e) {
    if (empty() || !(events_.back() > e)) {
      events_.push_back(e);
      return;
    }
    const auto later = std::upper_bound(
        events_.begin() + static_cast<std::ptrdiff_t>(head_), events_.end(), e,
        [](const Event& a, const Event& b) { return b > a; });
    events_.insert(later, e);
  }
  void pop() {
    if (++head_ == events_.size()) {
      clear();
    } else if (head_ >= kCompactAt && head_ > events_.size() - head_) {
      events_.erase(events_.begin(), events_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }
  void clear() {
    events_.clear();
    head_ = 0;
  }

  /// Hand every queued event to `fn` (in pop order) and empty the queue —
  /// the adaptive queue's migration path.
  template <typename Fn>
  void consume_all(Fn&& fn) {
    for (std::size_t i = head_; i < events_.size(); ++i) fn(events_[i]);
    clear();
  }

 private:
  static constexpr std::size_t kCompactAt = 64;

  std::vector<Event> events_;
  std::size_t head_ = 0;
};

/// Calendar queue with arena-backed buckets.  See the file comment for
/// the geometry; the interface matches BinaryHeapQueue exactly.
///
/// Invariants:
///  * cursor_day_ <= day_of(e.time) for every queued event (a push behind
///    the cursor — legal, set_input allows t >= now - eps — lowers it);
///  * each bucket is sorted DESCENDING on (time, seq), so bucket.back()
///    is that bucket's minimum: pop is a pop_back and find_min compares
///    one element per occupied bucket instead of scanning contents;
///  * the cached minimum bucket (min_bucket_) is valid iff min_valid_;
///  * occupancy_ has bit b set iff bucket b is non-empty (summary_ has
///    bit w set iff occupancy word w is non-zero), so find_min touches
///    only occupied buckets — the simulator's queues are nearly empty
///    almost always, and a day-by-day year scan would pay O(nb) per pop
///    for a handful of events.
class CalendarQueue {
 public:
  CalendarQueue() { reset_geometry(); }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  const Event& top() const {
    if (!min_valid_) find_min();
    return buckets_[min_bucket_].back();
  }

  void push(const Event& e) {
    const std::int64_t day = day_of(e.time);
    if (day < cursor_day_) cursor_day_ = day;
    const std::size_t b = index_of(day);
    std::vector<Event>& bucket = buckets_[b];
    if (bucket.empty()) mark_occupied(b);
    // Insertion keeping descending (time, seq) order; with the geometry
    // tracking the population, buckets hold ~2 events, so the shift is a
    // couple of element moves at most.
    bucket.push_back(e);
    std::size_t i = bucket.size() - 1;
    while (i > 0 && e > bucket[i - 1]) {
      bucket[i] = bucket[i - 1];
      --i;
    }
    bucket[i] = e;
    if (min_valid_ && (min_time_ > e.time || (min_time_ == e.time && min_seq_ > e.seq)))
      cache_min(b, e);
    ++size_;
    if (size_ > buckets_.size() * 2 && buckets_.size() < kMaxBuckets) resize(buckets_.size() * 2);
  }

  void pop() {
    if (!min_valid_) find_min();
    std::vector<Event>& bucket = buckets_[min_bucket_];
    bucket.pop_back();
    --size_;
    if (bucket.empty()) {
      mark_vacant(min_bucket_);
      min_valid_ = false;
    } else if (day_of(bucket.back().time) == cursor_day_) {
      // Every queued event has day >= cursor_day_ and all cursor-day
      // events map to this bucket, so a new back still on the cursor day
      // is the next global minimum — no rescan needed.
      cache_min(min_bucket_, bucket.back());
    } else {
      min_valid_ = false;
    }
    if (size_ * 4 < buckets_.size() && buckets_.size() > kMinBuckets) resize(buckets_.size() / 2);
  }

  /// Drop every event and return to the default geometry; bucket arenas
  /// keep their capacity.  Buckets beyond the default count are stashed
  /// in spare_ (not destroyed) so a later grow re-uses their storage —
  /// per-trial clears must not turn calendar growth into malloc churn.
  void clear() {
    for (std::vector<Event>& bucket : buckets_) bucket.clear();
    while (buckets_.size() > kMinBuckets) {
      spare_.push_back(std::move(buckets_.back()));
      buckets_.pop_back();
    }
    reset_geometry();
  }

  /// Hand every queued event to `fn` in UNSPECIFIED order, then clear()
  /// back to the default geometry — the adaptive queue's migration path.
  template <typename Fn>
  void consume_all(Fn&& fn) {
    for (const std::vector<Event>& bucket : buckets_)
      for (const Event& e : bucket) fn(e);
    clear();
  }

  /// Number of resize (re-bucketing) passes since construction/clear —
  /// exposed for the property tests; the obs counter aggregates the same
  /// quantity across trials.
  std::uint64_t resizes() const { return resizes_; }
  std::size_t num_buckets() const { return buckets_.size(); }
  double day_width() const { return width_; }

 private:
  static constexpr std::size_t kMinBuckets = 16;    // power of two
  static constexpr std::size_t kMaxBuckets = 1u << 12;  // 64 occupancy words
  static constexpr double kDefaultWidth = 1.0;
  static constexpr double kMinWidth = 1e-9;

  std::int64_t day_of(double t) const { return static_cast<std::int64_t>(t * inv_width_); }
  std::size_t index_of(std::int64_t day) const {
    return static_cast<std::size_t>(day) & (buckets_.size() - 1);
  }

  void reset_geometry() {
    if (buckets_.empty()) buckets_.resize(kMinBuckets);
    occupancy_.assign((buckets_.size() + 63) / 64, 0);
    summary_ = 0;
    width_ = kDefaultWidth;
    inv_width_ = 1.0 / width_;
    cursor_day_ = 0;
    size_ = 0;
    min_valid_ = false;
    resizes_ = 0;
  }

  // kMaxBuckets = 4096 keeps the occupancy map at <= 64 words, so the
  // summary is exactly one word and both marks are O(1).
  void mark_occupied(std::size_t b) {
    occupancy_[b >> 6] |= std::uint64_t{1} << (b & 63);
    summary_ |= std::uint64_t{1} << (b >> 6);
  }
  void mark_vacant(std::size_t b) {
    const std::size_t w = b >> 6;
    occupancy_[w] &= ~(std::uint64_t{1} << (b & 63));
    if (occupancy_[w] == 0) summary_ &= ~(std::uint64_t{1} << w);
  }

  void cache_min(std::size_t b, const Event& e) const {
    min_bucket_ = b;
    min_time_ = e.time;
    min_seq_ = e.seq;
    min_valid_ = true;
  }

  void find_min() const;
  void resize(std::size_t new_buckets);
  double sampled_width() const;

  std::vector<std::vector<Event>> buckets_;
  std::vector<std::vector<Event>> spare_;  // empty buckets kept for their capacity
  std::vector<Event> scratch_;             // resize staging arena
  std::vector<std::uint64_t> occupancy_;  // bit per bucket: non-empty
  std::uint64_t summary_ = 0;  // bit per occupancy word (mod 64): non-zero
  double width_ = kDefaultWidth;
  double inv_width_ = 1.0;
  std::size_t size_ = 0;
  std::uint64_t resizes_ = 0;
  // Lazily maintained read state; top() is const like the heap's.  The
  // minimum's (time, seq) is mirrored in scalars so push's cached-min
  // compare stays out of the bucket arrays.
  mutable std::int64_t cursor_day_ = 0;
  mutable std::size_t min_bucket_ = 0;
  mutable double min_time_ = 0.0;
  mutable std::uint64_t min_seq_ = 0;
  mutable bool min_valid_ = false;
};

enum class QueueKind : std::uint8_t { kBinaryHeap, kCalendar, kAdaptive };

/// The simulator's queue: one of the implementations above behind a branch
/// (predictable; all members are cheap when empty).  The kind is fixed at
/// construction — it is an engine choice, not per-trial state, so
/// Simulator::reset never flips it.
///
/// kAdaptive picks the engine by the live event population: a handful of
/// pending events lives in the sorted array (a couple of hot cache lines,
/// an O(1) pop and a mostly-append push beat both the heap's sift-down
/// and the calendar's day arithmetic at Table-2 scale — DESIGN §13), and
/// when the population crosses kAdaptiveUp the whole queue migrates into
/// the calendar, whose O(1) push/pop wins at the populations
/// bench_queue_scaling measures.  Migration is order-safe by construction:
/// the comparator is a TOTAL order on (time, seq), so any queue holding
/// the same event set pops the same sequence — switching engines mid-trial
/// cannot move a byte of any simulation artifact.  The down threshold
/// leaves a wide hysteresis band so a population oscillating around the
/// crossover does not thrash.
class EventQueue {
 public:
  /// Population at which the adaptive queue migrates to the calendar.
  /// Chosen from the BENCH_queue_scaling ladder: the calendar's in-run
  /// events/sec overtakes the small engine's between the ~200 and ~800
  /// pending tiers on the reference container.
  static constexpr std::size_t kAdaptiveUp = 256;
  /// Population at which it migrates back (kAdaptiveUp / 8: re-migration
  /// only pays once the population is unambiguously small again).
  static constexpr std::size_t kAdaptiveDown = 32;

  explicit EventQueue(QueueKind kind = QueueKind::kBinaryHeap)
      : kind_(kind), engine_(initial_engine(kind)) {}

  QueueKind kind() const { return kind_; }
  bool empty() const {
    if (engine_ == Engine::kSorted) return sorted_.empty();
    return engine_ == Engine::kCalendar ? calendar_.empty() : heap_.empty();
  }
  std::size_t size() const {
    if (engine_ == Engine::kSorted) return sorted_.size();
    return engine_ == Engine::kCalendar ? calendar_.size() : heap_.size();
  }
  const Event& top() const {
    if (engine_ == Engine::kSorted) return sorted_.top();
    return engine_ == Engine::kCalendar ? calendar_.top() : heap_.top();
  }
  void push(const Event& e) {
    if (engine_ == Engine::kSorted) {
      sorted_.push(e);
      if (sorted_.size() >= kAdaptiveUp) {
        sorted_.consume_all([this](const Event& ev) { calendar_.push(ev); });
        engine_ = Engine::kCalendar;
        ++migrations_;
      }
    } else if (engine_ == Engine::kCalendar) {
      calendar_.push(e);
    } else {
      heap_.push(e);
    }
  }
  void pop() {
    if (engine_ == Engine::kSorted) {
      sorted_.pop();
    } else if (engine_ == Engine::kCalendar) {
      calendar_.pop();
      if (kind_ == QueueKind::kAdaptive && calendar_.size() <= kAdaptiveDown) {
        calendar_.consume_all([this](const Event& ev) { sorted_.push(ev); });
        engine_ = Engine::kSorted;
        ++migrations_;
      }
    } else {
      heap_.pop();
    }
  }
  void clear();

  /// Engine migrations since construction/clear (kAdaptive only) — for the
  /// property tests and the queue-scaling bench.
  std::uint64_t migrations() const { return migrations_; }

 private:
  /// The engine holding the events right now: fixed for kBinaryHeap and
  /// kCalendar, the sorted array or the calendar for kAdaptive.
  enum class Engine : std::uint8_t { kHeap, kSorted, kCalendar };

  static Engine initial_engine(QueueKind kind) {
    switch (kind) {
      case QueueKind::kCalendar:
        return Engine::kCalendar;
      case QueueKind::kAdaptive:
        return Engine::kSorted;
      case QueueKind::kBinaryHeap:
        break;
    }
    return Engine::kHeap;
  }

  QueueKind kind_;
  Engine engine_;
  std::uint64_t migrations_ = 0;
  SortedArrayQueue sorted_;
  BinaryHeapQueue heap_;
  CalendarQueue calendar_;
};

}  // namespace nshot::sim
