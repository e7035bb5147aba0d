// The gate-level simulator's event queue.
//
// Pop order is a TOTAL order on (time, seq): seq is unique per event, so
// any queue that honours the comparator pops the exact same sequence as
// a std::priority_queue ordered by Event::operator> — which is what
// tests/event_queue_test.cpp checks the queue against.
//
// One engine: a sorted array.  The simulator's queues hold a handful of
// events at a time (peak pending ≤ 15 on every Table 2 circuit, random
// draw and served workload measured — EXPERIMENTS.md), where a couple of
// hot cache lines, an O(1) pop and a mostly-append push beat both a
// binary heap's sift-down and a calendar queue's day arithmetic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace nshot::sim {

enum class EventKind : std::uint8_t { kNetChange, kMhsProbe };

// 32 bytes — the queue moves events by value, so layout is throughput.
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

/// The pending events in ascending (time, seq) order in one flat arena,
/// the minimum at head_.  Pop advances head_.  Push appends when the
/// event sorts last — the common case, a new event being now + a gate
/// delay — and otherwise binary-searches its slot and shifts the later
/// events up with one block move, so a backlog of far-future events (a
/// preloaded input schedule) costs a memmove, not a compare per element.
/// The arena rewinds whenever it drains and compacts once the consumed
/// prefix outgrows the live suffix, so it stays O(population); clear()
/// keeps its capacity across trials.
class EventQueue {
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

 private:
  static constexpr std::size_t kCompactAt = 64;

  std::vector<Event> events_;
  std::size_t head_ = 0;
};

}  // namespace nshot::sim
