// Property tests of the simulator's event queue (sim/event_queue.hpp)
// against std::priority_queue ordered by Event::operator>.  The
// simulator's determinism contract only needs the queue to pop in
// (time, seq) order, so every case drives both structures through the same
// operation sequence and demands identical pop streams: seeded push/pop
// interleavings with tied times, same-tick FIFO stability, pushes behind
// the last pop (the simulator's now()-epsilon scheduling permits them),
// compaction under a steady population, a thousand-event backlog inserted
// in front of a preloaded far-future schedule, and clear()'s arena reuse.
// The fused-chain case then checks the simulator's hold register against
// the step driver on the same queue.
//
// The CI matrix runs this binary under ASan, UBSan and TSan.
#include <gtest/gtest.h>

#include <algorithm>
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

/// The reference every case drains the queue against.
using ReferenceQueue = std::priority_queue<Event, std::vector<Event>, std::greater<Event>>;

Event make_event(double time, std::uint64_t seq) {
  Event e;
  e.time = time;
  e.seq = seq;
  e.kind = (seq % 3 == 0) ? EventKind::kMhsProbe : EventKind::kNetChange;
  e.target = static_cast<int>(seq % 17);
  e.value = (seq % 2) != 0;
  e.generation = static_cast<std::uint32_t>(seq * 7);
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

/// Push `e` into both queues.
void push_both(EventQueue& queue, ReferenceQueue& ref, const Event& e) {
  queue.push(e);
  ref.push(e);
}

/// Pop one event from both queues, checking they agree; returns it.
Event pop_both(EventQueue& queue, ReferenceQueue& ref) {
  EXPECT_FALSE(queue.empty());
  const Event want = ref.top();
  expect_same_event(queue.top(), want);
  queue.pop();
  ref.pop();
  return want;
}

/// Drain both queues to empty, checking every pop and that the stream is
/// sorted by (time, seq).
void drain_both(EventQueue& queue, ReferenceQueue& ref) {
  EXPECT_EQ(queue.size(), ref.size());
  bool first = true;
  Event last{};
  while (!ref.empty()) {
    const Event got = pop_both(queue, ref);
    if (!first) {
      EXPECT_TRUE(got > last);
    }
    first = false;
    last = got;
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

/// Push every event into a fresh queue and the reference, then drain both.
void expect_same_drain(const std::vector<Event>& events) {
  EventQueue queue;
  ReferenceQueue ref;
  for (const Event& e : events) push_both(queue, ref, e);
  drain_both(queue, ref);
}

TEST(EventQueueTest, DrainMatchesPriorityQueueOnUniformTimes) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    std::vector<Event> events;
    const int n = 50 + static_cast<int>(rng.next_below(2000));
    for (int i = 0; i < n; ++i)
      events.push_back(make_event(rng.next_double(0.0, 1000.0), static_cast<std::uint64_t>(i)));
    expect_same_drain(events);
  }
}

TEST(EventQueueTest, DrainMatchesPriorityQueueOnClusteredTimes) {
  // Simulator-shaped schedules: bursts of near-simultaneous events
  // separated by long idle gaps.
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

TEST(EventQueueTest, DrainMatchesPriorityQueueAcrossTimeScales) {
  // Mixed magnitudes (1e-6 .. 1e6), pushed in random order.
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

TEST(EventQueueTest, InterleavedPushPopMatchesPriorityQueue) {
  // The simulator's access pattern: pops advance a clock and new events
  // land at clock + delay, occasionally at clock - 1e-9 (the set_input
  // epsilon), which sorts BEFORE events already popped past.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    EventQueue queue;
    ReferenceQueue ref;
    std::uint64_t seq = 0;
    double now = 0.0;
    for (int op = 0; op < 5000; ++op) {
      if (ref.empty() || rng.next_bool(0.55)) {
        const double t = rng.next_bool(0.05) ? now - 1e-9 : now + rng.next_double(0.0, 20.0);
        push_both(queue, ref, make_event(t, seq++));
      } else {
        now = pop_both(queue, ref).time;
      }
      ASSERT_EQ(queue.size(), ref.size());
    }
    drain_both(queue, ref);
  }
}

TEST(EventQueueTest, SameTickEventsPopInFifoOrder) {
  // Every event on one tick: pop order must be exactly seq order.
  EventQueue queue;
  constexpr std::uint64_t kEvents = 500;
  for (std::uint64_t i = 0; i < kEvents; ++i) queue.push(make_event(42.0, i));
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    ASSERT_FALSE(queue.empty());
    expect_same_event(queue.top(), make_event(42.0, i));
    queue.pop();
  }
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, SameTickFifoSurvivesInterleavedTicks) {
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

TEST(EventQueueTest, RandomInterleavingsPopLikeAPriorityQueue) {
  // Seeded push/pop interleavings whose population ramps to a few hundred
  // events and drains to a handful again, several times, with times drawn
  // from a coarse grid so many events tie on time (seq breaks the tie).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 131);
    EventQueue queue;
    ReferenceQueue ref;
    std::uint64_t seq = 0;
    double now = 0.0;
    bool filling = true;
    int crossings = 0;
    for (int op = 0; op < 20000 && crossings < 8; ++op) {
      if (filling && queue.size() > 300) {
        filling = false;
        ++crossings;
      } else if (!filling && queue.size() < 16) {
        filling = true;
        ++crossings;
      }
      if (ref.empty() || rng.next_bool(filling ? 0.7 : 0.3)) {
        // Grid times (ties galore), with the odd same-tick push.
        const double t =
            rng.next_bool(0.1) ? now : now + 0.25 * static_cast<double>(rng.next_below(12));
        push_both(queue, ref, make_event(t, seq++));
      } else {
        now = pop_both(queue, ref).time;
      }
      ASSERT_EQ(queue.size(), ref.size());
    }
    EXPECT_EQ(crossings, 8) << "seed " << seed;
    drain_both(queue, ref);
  }
}

TEST(EventQueueTest, SteadyPopulationCompactsAndKeepsPopOrder) {
  // A small population held for thousands of operations: the consumed
  // prefix outgrows the live suffix again and again (compaction), and
  // every full drain rewinds the arena.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 7919);
    EventQueue queue;
    ReferenceQueue ref;
    std::uint64_t seq = 0;
    double now = 0.0;
    for (int op = 0; op < 8000; ++op) {
      const bool drain_phase = (op / 1000) % 4 == 3;
      const double p_push = drain_phase ? 0.2 : (ref.size() < 60 ? 0.6 : 0.45);
      if (ref.empty() || rng.next_bool(p_push)) {
        push_both(queue, ref,
                  make_event(now + 0.5 * static_cast<double>(rng.next_below(6)), seq++));
      } else {
        now = pop_both(queue, ref).time;
      }
      ASSERT_EQ(queue.size(), ref.size());
      ASSERT_EQ(queue.empty(), ref.empty());
    }
  }
}

TEST(EventQueueTest, ThousandPendingOverAPreloadedFarFutureSchedule) {
  // A preloaded input schedule far in the future sits at the back of the
  // array while a wave of over a thousand near-term events builds up in
  // front of it: every near-term push lands before the schedule, so it
  // takes the binary-search + block-move insert, never the append.  The
  // wave then drains with churn, past the schedule's first entries.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    EventQueue queue;
    ReferenceQueue ref;
    std::uint64_t seq = 0;
    for (int i = 0; i < 200; ++i)
      push_both(queue, ref, make_event(1e5 + rng.next_double(0.0, 1e6), seq++));
    double now = 0.0;
    std::size_t peak = 0;
    for (int cycle = 0; cycle < 3; ++cycle) {
      while (ref.size() < 1500) {
        push_both(queue, ref, make_event(now + rng.next_double(0.0, 2.0), seq++));
        ASSERT_EQ(queue.size(), ref.size());
      }
      peak = std::max(peak, queue.size());
      while (ref.size() > 300) {
        now = pop_both(queue, ref).time;
        // Keep churn alive during the drain, like a settling circuit.
        if (rng.next_bool(0.3))
          push_both(queue, ref, make_event(now + rng.next_double(0.0, 5.0), seq++));
        ASSERT_EQ(queue.size(), ref.size());
      }
    }
    EXPECT_GE(peak - 200, std::size_t{1000}) << "seed " << seed;
    drain_both(queue, ref);
  }
}

TEST(EventQueueTest, ClearDropsEverythingForTrialReuse) {
  // clear() mid-use — a consumed prefix and a live suffix in the arena —
  // leaves an empty queue whose next trial, at a different time scale,
  // still pops like a fresh one.
  Rng rng(13);
  EventQueue queue;
  for (std::uint64_t i = 0; i < 5000; ++i) queue.push(make_event(rng.next_double(0.0, 1e-3), i));
  for (int i = 0; i < 40; ++i) queue.pop();
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);

  ReferenceQueue ref;
  for (std::uint64_t i = 0; i < 3000; ++i)
    push_both(queue, ref, make_event(rng.next_double(0.0, 1e6), i));
  drain_both(queue, ref);
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

}  // namespace
}  // namespace nshot::sim
