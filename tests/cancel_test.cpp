// Cooperative-cancellation tests: CancelToken/CancelScope semantics,
// checkpoint() behavior with and without deadlines, parallel_for draining
// under a fired token with identical observable state at every --jobs
// value, cross-thread token propagation through the pool, and the
// Watchdog converting a wall-clock overrun into a prompt cancellation for
// work that never reads the clock itself.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "exec/cancel.hpp"
#include "exec/thread_pool.hpp"
#include "util/error.hpp"

namespace nshot::exec {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Token mechanics
// ---------------------------------------------------------------------------

TEST(CancelTokenTest, DefaultTokenNeverFires) {
  const CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.reason().empty());
  token.checkpoint();  // must not throw
  // No token installed on this thread either.
  EXPECT_FALSE(cancel_requested());
  checkpoint();  // must not throw
}

TEST(CancelTokenTest, CancelFiresOnceWithFirstReason) {
  const CancelToken token;
  token.cancel("first");
  token.cancel("second");  // later calls no-op
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "first");
  try {
    token.checkpoint();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded);
  }
}

TEST(CancelTokenTest, ScopeInstallsAndRestoresTheThreadToken) {
  const CancelToken token;
  {
    const CancelScope scope(token);
    EXPECT_TRUE(current_token().same_as(token));
    token.cancel("stop");
    EXPECT_TRUE(cancel_requested());
    EXPECT_THROW(checkpoint(), Error);
  }
  // Restored: the fired token is no longer current.
  EXPECT_FALSE(cancel_requested());
  checkpoint();
}

TEST(CancelTokenTest, ScopesNest) {
  const CancelToken outer;
  const CancelToken inner;
  const CancelScope outer_scope(outer);
  {
    const CancelScope inner_scope(inner);
    EXPECT_TRUE(current_token().same_as(inner));
  }
  EXPECT_TRUE(current_token().same_as(outer));
}

TEST(CancelTokenTest, DeadlineTokenFiresAfterBudget) {
  const CancelToken token = CancelToken::with_deadline(1.0);
  const auto start = Clock::now();
  while (!token.cancelled() && ms_since(start) < 2000.0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(token.cancelled());
  EXPECT_DOUBLE_EQ(token.remaining_ms(), 0.0);
}

TEST(CancelTokenTest, NoDeadlineMeansInfiniteRemaining) {
  const CancelToken token;
  EXPECT_GT(token.remaining_ms(), 1e12);
}

// ---------------------------------------------------------------------------
// parallel_for under cancellation
// ---------------------------------------------------------------------------

// A fired token stops a sweep before any item runs — at every jobs value
// the observable state is identical (zero items executed, one clean
// deadline-exceeded error), which is the cancellation exception to the
// engine's "every item runs" contract.
TEST(CancelParallelForTest, FiredTokenDrainsIdenticallyAtAnyJobs) {
  for (const int jobs : {1, 2, 8}) {
    const CancelToken token;
    token.cancel("batch aborted");
    const CancelScope scope(token);
    std::atomic<int> ran{0};
    try {
      parallel_for(64, [&](int) { ran.fetch_add(1); }, jobs);
      FAIL() << "expected Error at jobs=" << jobs;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded) << "jobs=" << jobs;
    }
    EXPECT_EQ(ran.load(), 0) << "jobs=" << jobs;
  }
}

// A deadline that fires mid-sweep cancels the remaining chunks promptly:
// the sweep throws kDeadlineExceeded and does not run to completion.
TEST(CancelParallelForTest, MidFlightDeadlineCancelsTheSweep) {
  for (const int jobs : {1, 8}) {
    const CancelToken token = CancelToken::with_deadline(5.0);
    const CancelScope scope(token);
    std::atomic<int> ran{0};
    try {
      parallel_for(
          100000,
          [&](int) {
            ran.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            checkpoint();
          },
          jobs);
      FAIL() << "expected Error at jobs=" << jobs;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kDeadlineExceeded) << "jobs=" << jobs;
    }
    EXPECT_LT(ran.load(), 100000) << "jobs=" << jobs;
  }
}

// ThreadPool::submit captures the submitting thread's token, so a
// parallel_for under a deadline is covered on worker threads too.
TEST(CancelParallelForTest, TokenPropagatesToPoolWorkers) {
  const CancelToken token;
  const CancelScope scope(token);
  std::atomic<int> covered{0};
  parallel_for(
      8,
      [&](int) {
        if (current_token().same_as(token)) covered.fetch_add(1);
      },
      8);
  EXPECT_EQ(covered.load(), 8);
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

// Work that only polls the atomic flag (never the clock) still observes an
// overrun promptly, because the watchdog thread fires the token.
TEST(WatchdogTest, FiresNonClockPollingWorkWithinBudget) {
  const CancelToken token;  // deliberately no deadline of its own
  const auto start = Clock::now();
  {
    const Watchdog watchdog(token, 10.0, "stage 'test' exceeded its deadline budget");
    while (!token.cancelled() && ms_since(start) < 5000.0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "stage 'test' exceeded its deadline budget");
  // Acceptance bound: cancelled well within 2x the budget (generous slack
  // for a loaded CI host; the point is milliseconds, not seconds).
  EXPECT_LT(ms_since(start), 2000.0);
}

TEST(WatchdogTest, DisarmsOnDestruction) {
  const CancelToken token;
  { const Watchdog watchdog(token, 10000.0, "never fires"); }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(token.cancelled());
}

TEST(WatchdogTest, AlreadyFiredTokenKeepsItsReason) {
  const CancelToken token;
  token.cancel("earlier");
  { const Watchdog watchdog(token, 1.0, "later"); }
  EXPECT_EQ(token.reason(), "earlier");
}

}  // namespace
}  // namespace nshot::exec
