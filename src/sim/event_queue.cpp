#include "sim/event_queue.hpp"

#include <bit>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace nshot::sim {

// Scan forward from cursor_day_, visiting only OCCUPIED buckets (the
// occupancy bitmap, walked in ring order, enumerates the same days the
// classic day-by-day year scan would — minus the empty ones).  Buckets
// are sorted descending, so bucket.back() IS the bucket minimum; if its
// day is the bucket's day for this year, no unvisited bucket can hold an
// earlier day (days between the cursor and this one map to already-
// visited ring positions) and back() is the global minimum.  Within one
// year every bucket is visited at most once, so the same pass doubles as
// a global scan: if no bucket minimum lands on its in-year day, the
// overall minimum (tracked as `fallback` over the bucket minima) is
// beyond a year out — jump the cursor straight to its day.  Either way
// the element selected is the global (time, seq) minimum, which is what
// the pop-order contract needs.
void CalendarQueue::find_min() const {
  NSHOT_REQUIRE(size_ > 0, "CalendarQueue::find_min on empty queue");
  const std::size_t nb = buckets_.size();
  const std::size_t start = index_of(cursor_day_);
  const Event* fallback = nullptr;
  std::size_t fallback_bucket = 0;

  // Check one occupied bucket sitting `offset` days past the cursor; true
  // when its minimum lies on that exact day, which makes it the global
  // minimum.
  auto scan_bucket = [&](std::size_t b, std::size_t offset) -> bool {
    const Event& e = buckets_[b].back();
    if (day_of(e.time) == cursor_day_ + static_cast<std::int64_t>(offset)) {
      cursor_day_ += static_cast<std::int64_t>(offset);
      cache_min(b, e);
      return true;
    }
    if (fallback == nullptr || *fallback > e) {
      fallback = &e;
      fallback_bucket = b;
    }
    return false;
  };

  const std::size_t wstart = start >> 6;
  const std::size_t bstart = start & 63;
  // Buckets at index >= start (offset = b - start), in ascending order.
  for (std::uint64_t words = summary_ >> wstart; words != 0; words &= words - 1) {
    const std::size_t w = wstart + static_cast<std::size_t>(std::countr_zero(words));
    std::uint64_t bits = occupancy_[w];
    if (w == wstart) bits &= ~std::uint64_t{0} << bstart;
    for (; bits != 0; bits &= bits - 1) {
      const std::size_t b = (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      if (scan_bucket(b, b - start)) return;
    }
  }
  // Wrapped buckets at index < start (offset = nb - start + b).
  const std::uint64_t low_words =
      wstart + 1 < 64 ? (std::uint64_t{1} << (wstart + 1)) - 1 : ~std::uint64_t{0};
  for (std::uint64_t words = summary_ & low_words; words != 0; words &= words - 1) {
    const std::size_t w = static_cast<std::size_t>(std::countr_zero(words));
    std::uint64_t bits = occupancy_[w];
    if (w == wstart) bits &= bstart != 0 ? (std::uint64_t{1} << bstart) - 1 : 0;
    for (; bits != 0; bits &= bits - 1) {
      const std::size_t b = (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      if (scan_bucket(b, nb - start + b)) return;
    }
  }
  // All events live more than a year past the cursor.
  NSHOT_ASSERT(fallback != nullptr, "CalendarQueue::find_min lost events");
  cursor_day_ = day_of(fallback->time);
  cache_min(fallback_bucket, *fallback);
}

// Re-derive the day width from the inter-event gaps of up to 32 events
// staged in scratch_ (Brown's rule: width tracks the average gap so
// roughly one event lands per day).  scratch_ is sorted descending by the
// time resize() runs this, so the tail holds the events nearest the
// cursor — the ones about to be popped, whose spacing is the density the
// day width must match.  Sampling from the front instead would let a few
// far-future stragglers (a preloaded input schedule, say) inflate the
// width until the entire near-term wave lands in one bucket and every
// push pays a linear sorted insert.  Falls back to the current width
// when there are too few distinct times to measure.
double CalendarQueue::sampled_width() const {
  constexpr std::size_t kSamples = 32;
  double times[kSamples];
  const std::size_t n = std::min(kSamples, scratch_.size());
  for (std::size_t i = 0; i < n; ++i) times[i] = scratch_[scratch_.size() - n + i].time;
  if (n < 2) return width_;
  std::sort(times, times + n);
  double gap_sum = 0.0;
  std::size_t gaps = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const double gap = times[i] - times[i - 1];
    if (gap > 0.0) {
      gap_sum += gap;
      ++gaps;
    }
  }
  if (gaps == 0) return width_;
  return std::max(kMinWidth, 2.0 * gap_sum / static_cast<double>(gaps));
}

void CalendarQueue::resize(std::size_t new_buckets) {
  obs::count(obs::Counter::kCalendarResizes);
  obs::gauge(obs::Gauge::kCalendarFill,
             static_cast<double>(size_) / static_cast<double>(buckets_.size()));
  scratch_.clear();
  for (std::vector<Event>& bucket : buckets_) {
    scratch_.insert(scratch_.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }
  NSHOT_ASSERT(scratch_.size() == size_, "CalendarQueue::resize lost events");
  while (buckets_.size() < new_buckets && !spare_.empty()) {
    buckets_.push_back(std::move(spare_.back()));
    spare_.pop_back();
  }
  while (buckets_.size() > new_buckets) {
    spare_.push_back(std::move(buckets_.back()));
    buckets_.pop_back();
  }
  buckets_.resize(new_buckets);
  occupancy_.assign((new_buckets + 63) / 64, 0);
  summary_ = 0;
  // Distribute in descending (time, seq) order so every bucket comes out
  // sorted by construction (appends preserve the global order); the sort
  // runs before the width sample so sampled_width() sees the near-term
  // tail.
  std::sort(scratch_.begin(), scratch_.end(), [](const Event& a, const Event& b) { return a > b; });
  width_ = sampled_width();
  inv_width_ = 1.0 / width_;
  for (const Event& e : scratch_) {
    const std::size_t b = index_of(day_of(e.time));
    if (buckets_[b].empty()) mark_occupied(b);
    buckets_[b].push_back(e);
  }
  cursor_day_ = size_ > 0 ? day_of(scratch_.back().time) : 0;
  min_valid_ = false;
  ++resizes_;
}

void EventQueue::clear() {
  sorted_.clear();
  heap_.clear();
  calendar_.clear();
  // Adaptive state is per-trial: a fresh trial starts back on the sorted
  // array with a zeroed migration count, so its engine trajectory depends
  // only on the trial itself (the determinism contract clear() already
  // keeps for the calendar geometry).
  engine_ = initial_engine(kind_);
  migrations_ = 0;
}

}  // namespace nshot::sim
