// Property tests of the calendar queue (sim/event_queue.hpp) against the
// binary heap it replaced.  The simulator's determinism contract only
// needs the queue to pop in (time, seq) order — any conforming queue
// produces byte-identical simulations — so the battery drives both
// structures through the same operation sequences and demands identical
// pop streams, while also pinning the calendar-specific machinery:
// same-tick FIFO stability, day/year geometry resizing under load, the
// behind-cursor push the simulator's now()-epsilon scheduling permits,
// and clear()'s arena-reuse + geometry-reset semantics (per-trial resize
// trajectories must not depend on what earlier trials scheduled).  The
// adaptive queue and its sorted-array small side are held to the same
// pop order against std::priority_queue over random interleavings that
// cross the migration thresholds both ways.
//
// The CI matrix runs this binary under ASan and TSan.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <queue>
#include <string>
#include <vector>

#include "gatelib/gate_library.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled_netlist.hpp"
#include "sim/event_queue.hpp"
#include "sim/event_sim.hpp"
#include "util/rng.hpp"

namespace nshot::sim {
namespace {

Event make_event(double time, std::uint64_t seq) {
  Event e;
  e.time = time;
  e.seq = seq;
  e.kind = (seq % 3 == 0) ? EventKind::kMhsProbe : EventKind::kNetChange;
  e.target = static_cast<int>(seq % 17);
  e.value = (seq % 2) != 0;
  e.generation = seq * 7;
  return e;
}

void expect_same_event(const Event& a, const Event& b) {
  EXPECT_EQ(a.time, b.time);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.target, b.target);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.generation, b.generation);
}

/// Drive both queues through the same pushes, then drain both and compare
/// the full pop streams.
void expect_same_drain(const std::vector<Event>& events) {
  BinaryHeapQueue heap;
  CalendarQueue calendar;
  for (const Event& e : events) {
    heap.push(e);
    calendar.push(e);
  }
  EXPECT_EQ(heap.size(), calendar.size());
  std::uint64_t last_seq = 0;
  double last_time = 0.0;
  bool first = true;
  while (!heap.empty()) {
    ASSERT_FALSE(calendar.empty());
    const Event want = heap.top();
    const Event got = calendar.top();
    expect_same_event(got, want);
    // The stream itself must be sorted by (time, seq).
    if (!first) {
      EXPECT_TRUE(got.time > last_time || (got.time == last_time && got.seq > last_seq));
    }
    first = false;
    last_time = got.time;
    last_seq = got.seq;
    heap.pop();
    calendar.pop();
  }
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(calendar.size(), 0u);
}

TEST(CalendarQueueTest, DrainMatchesBinaryHeapOnUniformTimes) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<Event> events;
    const int n = 50 + static_cast<int>(rng.next_below(2000));
    for (int i = 0; i < n; ++i)
      events.push_back(make_event(rng.next_double(0.0, 1000.0), static_cast<std::uint64_t>(i)));
    expect_same_drain(events);
  }
}

TEST(CalendarQueueTest, DrainMatchesBinaryHeapOnClusteredTimes) {
  // Simulator-shaped schedules: bursts of near-simultaneous events
  // separated by long idle gaps, which stress the width estimate (tiny
  // intra-burst gaps) and the year-wrap scan (inter-burst jumps).
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<Event> events;
    std::uint64_t seq = 0;
    double base = 0.0;
    const int bursts = 5 + static_cast<int>(rng.next_below(40));
    for (int b = 0; b < bursts; ++b) {
      base += rng.next_double(0.1, 5000.0);
      const int burst = 1 + static_cast<int>(rng.next_below(40));
      for (int i = 0; i < burst; ++i)
        events.push_back(make_event(base + rng.next_double(0.0, 0.01), seq++));
    }
    expect_same_drain(events);
  }
}

TEST(CalendarQueueTest, DrainMatchesBinaryHeapAcrossTimeScales) {
  // Mixed magnitudes (1e-6 .. 1e6) force events far outside the current
  // year, exercising find_min's fallback cursor jump.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<Event> events;
    for (std::uint64_t i = 0; i < 600; ++i) {
      const double scale = std::pow(10.0, static_cast<double>(rng.next_below(13)) - 6.0);
      events.push_back(make_event(rng.next_double(0.0, 1.0) * scale, i));
    }
    expect_same_drain(events);
  }
}

TEST(CalendarQueueTest, InterleavedPushPopMatchesBinaryHeap) {
  // The simulator's actual access pattern: pops advance a clock and new
  // events land at clock + delay, occasionally at clock - 1e-9 (the
  // set_input epsilon), which pushes BEHIND the calendar cursor.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    BinaryHeapQueue heap;
    CalendarQueue calendar;
    std::uint64_t seq = 0;
    double now = 0.0;
    for (int op = 0; op < 5000; ++op) {
      const bool push = heap.empty() || rng.next_bool(0.55);
      if (push) {
        const double t = rng.next_bool(0.05) ? now - 1e-9 : now + rng.next_double(0.0, 20.0);
        const Event e = make_event(t, seq++);
        heap.push(e);
        calendar.push(e);
      } else {
        const Event want = heap.top();
        ASSERT_FALSE(calendar.empty());
        expect_same_event(calendar.top(), want);
        now = want.time;
        heap.pop();
        calendar.pop();
      }
      ASSERT_EQ(heap.size(), calendar.size());
    }
    while (!heap.empty()) {
      expect_same_event(calendar.top(), heap.top());
      heap.pop();
      calendar.pop();
    }
    EXPECT_TRUE(calendar.empty());
  }
}

TEST(CalendarQueueTest, SameTickEventsPopInFifoOrder) {
  // Every event on one tick: pop order must be exactly seq order (the
  // swap-remove storage must never leak into the observable order).
  CalendarQueue calendar;
  constexpr std::uint64_t kEvents = 500;
  for (std::uint64_t i = 0; i < kEvents; ++i) calendar.push(make_event(42.0, i));
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    ASSERT_FALSE(calendar.empty());
    expect_same_event(calendar.top(), make_event(42.0, i));
    calendar.pop();
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(CalendarQueueTest, SameTickFifoSurvivesInterleavedTicks) {
  Rng rng(7);
  std::vector<Event> events;
  std::uint64_t seq = 0;
  for (int tick = 0; tick < 60; ++tick) {
    const double t = static_cast<double>(rng.next_below(10));  // heavy collisions
    for (std::uint64_t i = 0; i < 1 + rng.next_below(8); ++i)
      events.push_back(make_event(t, seq++));
  }
  expect_same_drain(events);
}

TEST(CalendarQueueTest, ResizesUnderLoadAndStaysOrdered) {
  Rng rng(11);
  CalendarQueue calendar;
  BinaryHeapQueue heap;
  // Fill far past the grow threshold (2 events per bucket from 16
  // buckets), then drain past the shrink threshold, checking order
  // throughout.
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const Event e = make_event(rng.next_double(0.0, 100.0), i);
    calendar.push(e);
    heap.push(e);
  }
  EXPECT_GT(calendar.resizes(), 0u);
  EXPECT_GT(calendar.num_buckets(), std::size_t{16});
  const std::size_t grown = calendar.num_buckets();
  while (!heap.empty()) {
    expect_same_event(calendar.top(), heap.top());
    calendar.pop();
    heap.pop();
  }
  EXPECT_LT(calendar.num_buckets(), grown);  // shrank on the way down
}

TEST(CalendarQueueTest, ClearResetsGeometryForArenaReuse) {
  CalendarQueue calendar;
  const std::size_t virgin_buckets = calendar.num_buckets();
  const double virgin_width = calendar.day_width();

  Rng rng(13);
  for (std::uint64_t i = 0; i < 5000; ++i)
    calendar.push(make_event(rng.next_double(0.0, 1e-3), i));  // tiny widths
  EXPECT_GT(calendar.resizes(), 0u);

  calendar.clear();
  EXPECT_TRUE(calendar.empty());
  EXPECT_EQ(calendar.size(), 0u);
  // Geometry must be back at the defaults: a reused queue's resize
  // trajectory depends only on what THIS trial schedules.
  EXPECT_EQ(calendar.num_buckets(), virgin_buckets);
  EXPECT_EQ(calendar.day_width(), virgin_width);

  // Reuse at a completely different time scale still matches the heap.
  BinaryHeapQueue heap;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const Event e = make_event(rng.next_double(0.0, 1e6), i);
    calendar.push(e);
    heap.push(e);
  }
  while (!heap.empty()) {
    expect_same_event(calendar.top(), heap.top());
    calendar.pop();
    heap.pop();
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(CalendarQueueTest, ThousandPendingBattleWithYearWrapAndResize) {
  // Sustained 1k+ pending populations — the bench_queue_scaling regime —
  // with ramp/drain cycles that cross the resize thresholds repeatedly
  // and occasional far-future pushes that land outside the current year.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    BinaryHeapQueue heap;
    CalendarQueue calendar;
    std::uint64_t seq = 0;
    double now = 0.0;
    for (int cycle = 0; cycle < 3; ++cycle) {
      while (heap.size() < 1500) {
        // Mostly near-term events with tiny gaps; 2% land a year-scale
        // jump out, so find_min's fallback path runs mid-battle.
        const double t = rng.next_bool(0.02) ? now + rng.next_double(1e5, 1e6)
                                             : now + rng.next_double(0.0, 2.0);
        const Event e = make_event(t, seq++);
        heap.push(e);
        calendar.push(e);
      }
      EXPECT_GT(calendar.num_buckets(), std::size_t{16}) << "seed " << seed;
      while (heap.size() > 100) {
        ASSERT_FALSE(calendar.empty());
        const Event want = heap.top();
        expect_same_event(calendar.top(), want);
        now = want.time;
        heap.pop();
        calendar.pop();
        // Keep churn alive during the drain, like a settling circuit.
        if (rng.next_bool(0.3)) {
          const Event e = make_event(now + rng.next_double(0.0, 5.0), seq++);
          heap.push(e);
          calendar.push(e);
        }
        ASSERT_EQ(heap.size(), calendar.size());
      }
    }
    while (!heap.empty()) {
      expect_same_event(calendar.top(), heap.top());
      heap.pop();
      calendar.pop();
    }
    EXPECT_TRUE(calendar.empty());
  }
}

TEST(AdaptiveQueueTest, MigratesAtThresholdsAndPreservesPopOrder) {
  // The adaptive engine starts on its sorted array, migrates to the
  // calendar when the population crosses the up-threshold, and back when
  // it drains past the down-threshold.  Every migration moves the full pending set, so
  // the pop stream must stay the (time, seq) total order throughout.
  Rng rng(23);
  EventQueue adaptive(QueueKind::kAdaptive);
  BinaryHeapQueue ref;
  EXPECT_EQ(adaptive.kind(), QueueKind::kAdaptive);
  std::uint64_t seq = 0;
  double now = 0.0;
  for (int cycle = 0; cycle < 4; ++cycle) {
    while (adaptive.size() < 600) {  // well past kAdaptiveUp = 256
      const Event e = make_event(now + rng.next_double(0.0, 10.0), seq++);
      adaptive.push(e);
      ref.push(e);
    }
    while (adaptive.size() > 8) {  // well past kAdaptiveDown = 32
      ASSERT_FALSE(ref.empty());
      const Event want = ref.top();
      expect_same_event(adaptive.top(), want);
      now = want.time;
      adaptive.pop();
      ref.pop();
    }
  }
  // Four ramp/drain cycles cross each threshold once per cycle.
  EXPECT_GE(adaptive.migrations(), std::uint64_t{8});
  while (!ref.empty()) {
    expect_same_event(adaptive.top(), ref.top());
    adaptive.pop();
    ref.pop();
  }
  EXPECT_TRUE(adaptive.empty());
}

TEST(AdaptiveQueueTest, ClearResetsMigrationStateForTrialReuse) {
  Rng rng(29);
  EventQueue adaptive(QueueKind::kAdaptive);
  for (std::uint64_t i = 0; i < 500; ++i)
    adaptive.push(make_event(rng.next_double(0.0, 10.0), i));
  EXPECT_GE(adaptive.migrations(), std::uint64_t{1});
  adaptive.clear();
  EXPECT_TRUE(adaptive.empty());
  // A reused queue's engine trajectory depends only on this trial.
  EXPECT_EQ(adaptive.migrations(), std::uint64_t{0});
  adaptive.push(make_event(1.0, 0));
  EXPECT_EQ(adaptive.migrations(), std::uint64_t{0});  // small again: back on the sorted array
}

TEST(AdaptiveQueueTest, RandomInterleavingsPopLikeAPriorityQueue) {
  // Seeded push/pop interleavings whose population ramps past kAdaptiveUp
  // and drains past kAdaptiveDown again, several times, with times drawn
  // from a coarse grid so many events tie on time (seq breaks the tie).
  // Every engine kind must pop exactly the sequence a std::priority_queue
  // ordered by Event::operator> pops.
  for (const QueueKind kind : {QueueKind::kAdaptive, QueueKind::kBinaryHeap, QueueKind::kCalendar}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      Rng rng(seed * 131 + static_cast<std::uint64_t>(kind));
      EventQueue queue(kind);
      std::priority_queue<Event, std::vector<Event>, std::greater<Event>> ref;
      std::uint64_t seq = 0;
      double now = 0.0;
      bool filling = true;
      int crossings = 0;
      for (int op = 0; op < 20000 && crossings < 8; ++op) {
        if (filling && queue.size() > EventQueue::kAdaptiveUp + 40) {
          filling = false;
          ++crossings;
        } else if (!filling && queue.size() < EventQueue::kAdaptiveDown / 2) {
          filling = true;
          ++crossings;
        }
        const bool push = ref.empty() || rng.next_bool(filling ? 0.7 : 0.3);
        if (push) {
          // Grid times (ties galore), with the odd same-tick push.
          const double t = rng.next_bool(0.1)
                               ? now
                               : now + 0.25 * static_cast<double>(rng.next_below(12));
          const Event e = make_event(t, seq++);
          queue.push(e);
          ref.push(e);
        } else {
          ASSERT_FALSE(queue.empty());
          const Event want = ref.top();
          expect_same_event(queue.top(), want);
          now = want.time;
          queue.pop();
          ref.pop();
        }
        ASSERT_EQ(queue.size(), ref.size());
      }
      EXPECT_EQ(crossings, 8) << "seed " << seed;
      if (kind == QueueKind::kAdaptive) {
        EXPECT_GE(queue.migrations(), std::uint64_t{8}) << "seed " << seed;
      }
      while (!ref.empty()) {
        expect_same_event(queue.top(), ref.top());
        queue.pop();
        ref.pop();
      }
      EXPECT_TRUE(queue.empty());
    }
  }
}

TEST(SortedArrayQueueTest, SteadyPopulationCompactsAndKeepsPopOrder) {
  // A population hovering well under kAdaptiveUp for thousands of
  // operations: the consumed prefix outgrows the live suffix again and
  // again (compaction), and every full drain rewinds the arena.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 7919);
    SortedArrayQueue queue;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> ref;
    std::uint64_t seq = 0;
    double now = 0.0;
    for (int op = 0; op < 8000; ++op) {
      const bool drain_phase = (op / 1000) % 4 == 3;
      const double p_push = drain_phase ? 0.2 : (ref.size() < 60 ? 0.6 : 0.45);
      if (ref.empty() || rng.next_bool(p_push)) {
        const Event e = make_event(now + 0.5 * static_cast<double>(rng.next_below(6)), seq++);
        queue.push(e);
        ref.push(e);
      } else {
        const Event want = ref.top();
        expect_same_event(queue.top(), want);
        now = want.time;
        queue.pop();
        ref.pop();
      }
      ASSERT_EQ(queue.size(), ref.size());
      ASSERT_EQ(queue.empty(), ref.empty());
    }
  }
}

/// Two unequal combinational chains from one input, converging on an AND
/// and an OR: the inner chain links are fanout-of-1 (fused by the
/// compiled walk), and the midpoint delay model makes chain commits
/// collide on the same tick, so any FIFO violation in the fused hold
/// register reorders the commit stream.
netlist::Netlist converging_chains() {
  netlist::Netlist nl("fifo-fusion");
  const netlist::NetId a = nl.add_net("a");
  nl.add_primary_input(a);
  auto chain = [&nl](netlist::NetId from, gatelib::GateType type, int length,
                     const std::string& prefix) {
    netlist::NetId prev = from;
    for (int i = 0; i < length; ++i) {
      const netlist::NetId out = nl.add_net(prefix + std::to_string(i));
      netlist::Gate g;
      g.type = type;
      g.name = prefix + "g" + std::to_string(i);
      g.inputs = {prev};
      g.outputs = {out};
      nl.add_gate(std::move(g));
      prev = out;
    }
    return prev;
  };
  const netlist::NetId left = chain(a, gatelib::GateType::kBuf, 3, "p");
  const netlist::NetId right = chain(a, gatelib::GateType::kInv, 5, "q");
  const netlist::NetId and_out = nl.add_net("and_out");
  const netlist::NetId or_out = nl.add_net("or_out");
  netlist::Gate and_gate;
  and_gate.type = gatelib::GateType::kAnd;
  and_gate.name = "and0";
  and_gate.inputs = {left, right};
  and_gate.outputs = {and_out};
  nl.add_gate(std::move(and_gate));
  netlist::Gate or_gate;
  or_gate.type = gatelib::GateType::kOr;
  or_gate.name = "or0";
  or_gate.inputs = {left, right};
  or_gate.outputs = {or_out};
  nl.add_gate(std::move(or_gate));
  nl.add_primary_output(and_out);
  nl.add_primary_output(or_out);
  nl.check_well_formed();
  return nl;
}

TEST(FusedChainFifoTest, SameTickCommitsMatchTheStepDriver) {
  const netlist::Netlist nl = converging_chains();
  const CompiledNetlist compiled(nl, gatelib::GateLibrary::standard());
  ASSERT_GT(compiled.num_fused_nets(), std::size_t{0});

  SimulatorOptions options;
  options.randomize_delays = false;  // midpoint delays: maximal tick collisions

  const netlist::NetId a = *nl.find_net("a");
  auto drive = [&](Simulator& simulator) {
    simulator.initialize({{a, false}});
    simulator.set_input(a, true, 1.0);
    simulator.set_input(a, false, 50.0);
    simulator.set_input(a, true, 50.0 + 1e-12);  // near-tie across external edges
  };

  // One committed change, as either driver reports it.
  struct Commit {
    netlist::NetId net;
    bool value;
    double time;
  };

  // Reference: the unfused step() driver (step never engages the hold
  // register), commits captured in commit order by the observer.
  Simulator reference(compiled, options);
  std::vector<Commit> reference_log;
  drive(reference);
  reference.set_observer([&reference_log](netlist::NetId net, bool value, double time) {
    reference_log.push_back({net, value, time});
  });
  while (reference.step()) {
  }

  // Fused: the run_burst walk on the same schedule, commits captured via
  // the pre_check observer (run_burst's per-commit hook).
  Simulator fused(compiled, options);
  std::vector<Commit> fused_log;
  const NetObserver capture = [&fused_log](netlist::NetId net, bool value, double time) {
    fused_log.push_back({net, value, time});
  };
  drive(fused);
  const std::vector<int> no_observables(static_cast<std::size_t>(nl.num_nets()), -1);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  while (fused.run_burst(no_observables.data(), kInf, kInf, &capture).stop ==
         Simulator::BurstStop::kObservable) {
  }

  ASSERT_EQ(fused_log.size(), reference_log.size());
  for (std::size_t i = 0; i < reference_log.size(); ++i) {
    EXPECT_EQ(fused_log[i].net, reference_log[i].net) << "commit " << i;
    EXPECT_EQ(fused_log[i].value, reference_log[i].value) << "commit " << i;
    EXPECT_EQ(fused_log[i].time, reference_log[i].time) << "commit " << i;
  }
  EXPECT_EQ(fused.events_processed(), reference.events_processed());
  EXPECT_EQ(fused.now(), reference.now());
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    EXPECT_EQ(fused.value(n), reference.value(n)) << "net " << nl.net_name(n);
    EXPECT_EQ(fused.toggle_count(n), reference.toggle_count(n)) << "net " << nl.net_name(n);
  }
}

TEST(CalendarQueueTest, EventQueueDispatchesByKind) {
  EventQueue heap_backed;  // default
  EventQueue calendar_backed(QueueKind::kCalendar);
  EXPECT_EQ(heap_backed.kind(), QueueKind::kBinaryHeap);
  EXPECT_EQ(calendar_backed.kind(), QueueKind::kCalendar);

  Rng rng(17);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const Event e = make_event(rng.next_double(0.0, 50.0), i);
    heap_backed.push(e);
    calendar_backed.push(e);
  }
  while (!heap_backed.empty()) {
    ASSERT_FALSE(calendar_backed.empty());
    expect_same_event(calendar_backed.top(), heap_backed.top());
    heap_backed.pop();
    calendar_backed.pop();
  }
  EXPECT_TRUE(calendar_backed.empty());

  heap_backed.clear();
  calendar_backed.clear();
  EXPECT_TRUE(heap_backed.empty());
  EXPECT_TRUE(calendar_backed.empty());
}

}  // namespace
}  // namespace nshot::sim
