#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "sim/deferrable_server.h"
#include "sim/network.h"
#include "sim/processor.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "util/rng.h"

namespace rtcm::sim {
namespace {

// --- Simulator ---------------------------------------------------------------

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(Time(300), [&] { order.push_back(3); });
  sim.schedule_at(Time(100), [&] { order.push_back(1); });
  sim.schedule_at(Time(200), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Time(300));
  EXPECT_EQ(sim.executed(), 3u);
}

TEST(SimulatorTest, TiesRunInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(Time(50), [&order, i] { order.push_back(i); });
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  Time seen;
  sim.schedule_at(Time(100), [&] {
    sim.schedule_after(Duration(50), [&] { seen = sim.now(); });
  });
  sim.run_all();
  EXPECT_EQ(seen, Time(150));
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventHandle h = sim.schedule_at(Time(10), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.cancel(h));  // second cancel is a no-op
  sim.run_all();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.executed(), 0u);
}

TEST(SimulatorTest, CancelInertHandle) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventHandle()));
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(Time(100), [&] { order.push_back(1); });
  sim.schedule_at(Time(200), [&] { order.push_back(2); });
  sim.schedule_at(Time(300), [&] { order.push_back(3); });
  sim.run_until(Time(200));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), Time(200));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(Time(1000));
  EXPECT_EQ(order.size(), 3u);
  EXPECT_EQ(sim.now(), Time(1000));  // clock advances to the horizon
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(Duration(10), recurse);
  };
  sim.schedule_at(Time(0), recurse);
  sim.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), Time(40));
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, CancelAfterRunReturnsFalse) {
  Simulator sim;
  int runs = 0;
  const EventHandle h = sim.schedule_at(Time(10), [&] { ++runs; });
  sim.run_all();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(sim.cancel(h));  // the event already ran
}

TEST(SimulatorTest, StaleHandleAfterSlotReuseDoesNotCancelNewEvent) {
  Simulator sim;
  bool a_ran = false;
  bool b_ran = false;
  // Cancel A, freeing its slab slot; B recycles the slot (LIFO free list).
  // A's stale handle carries the old generation and must not touch B.
  const EventHandle a = sim.schedule_at(Time(10), [&] { a_ran = true; });
  EXPECT_TRUE(sim.cancel(a));
  const EventHandle b = sim.schedule_at(Time(20), [&] { b_ran = true; });
  EXPECT_FALSE(sim.cancel(a));  // stale: generation moved on
  sim.run_all();
  EXPECT_FALSE(a_ran);
  EXPECT_TRUE(b_ran);
  EXPECT_FALSE(sim.cancel(b));  // already ran
}

TEST(SimulatorTest, CancelCurrentlyDispatchingEventReturnsFalse) {
  Simulator sim;
  EventHandle h;
  bool checked = false;
  h = sim.schedule_at(Time(10), [&] {
    checked = true;
    EXPECT_FALSE(sim.cancel(h));  // we are already running
  });
  sim.run_all();
  EXPECT_TRUE(checked);
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(SimulatorTest, PendingCountsLiveEventsOnly) {
  Simulator sim;
  const EventHandle a = sim.schedule_at(Time(10), [] {});
  sim.schedule_at(Time(20), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), 1u);
}

TEST(SimulatorTest, RescheduleMovesEventKeepingCallback) {
  Simulator sim;
  Time fired;
  EventHandle h = sim.schedule_at(Time(100), [&] { fired = sim.now(); });
  EXPECT_TRUE(sim.reschedule(h, Time(250)));
  sim.run_all();
  EXPECT_EQ(fired, Time(250));
  EXPECT_EQ(sim.executed(), 1u);  // the original instant never fired
}

TEST(SimulatorTest, RescheduleDeadHandleReturnsFalse) {
  Simulator sim;
  EventHandle inert;
  EXPECT_FALSE(sim.reschedule(inert, Time(10)));
  EventHandle h = sim.schedule_at(Time(10), [] {});
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_FALSE(sim.reschedule(h, Time(20)));  // cancelled
  EventHandle ran = sim.schedule_at(Time(30), [] {});
  sim.run_all();
  EXPECT_FALSE(sim.reschedule(ran, Time(40)));  // already ran
}

TEST(SimulatorTest, RescheduleOrdersAsFreshlyScheduled) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(Time(50), [&] { order.push_back(1); });
  EventHandle h = sim.schedule_at(Time(10), [&] { order.push_back(2); });
  // Moving the earlier event onto t=50 puts it AFTER the event already
  // there: rescheduling consumes a fresh sequence number, exactly as the
  // old cancel + schedule_at pair did.
  EXPECT_TRUE(sim.reschedule(h, Time(50)));
  sim.schedule_at(Time(50), [&] { order.push_back(3); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, RescheduledHandleCancelsAtNewInstant) {
  Simulator sim;
  bool ran = false;
  EventHandle h = sim.schedule_at(Time(10), [&] { ran = true; });
  EXPECT_TRUE(sim.reschedule(h, Time(20)));
  EXPECT_TRUE(sim.cancel(h));  // the revalidated handle controls the event
  EXPECT_FALSE(sim.cancel(h));
  sim.run_all();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.executed(), 0u);
}

// --- Fed events --------------------------------------------------------------

TEST(SimulatorFeedTest, PendingAndExecutedCountFedEvents) {
  Simulator sim;
  std::vector<std::uint64_t> ran;
  sim.set_feed_sink([&](std::uint64_t tag) { ran.push_back(tag); });
  sim.schedule_at(Time(10), [] {});
  sim.reserve_feed(3);
  sim.feed(Time(5), 1);
  sim.feed(Time(20), 2);
  sim.feed(Time(30), 3);
  EXPECT_EQ(sim.pending(), 4u);
  EXPECT_EQ(sim.queue_entries(), 1u);  // fed records are not wheel entries
  sim.run_until(Time(20));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.executed(), 3u);
  sim.run_all();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.executed(), 4u);
  EXPECT_EQ(ran, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(SimulatorFeedTest, RunUntilRunsRecordsAtExactlyTheDeadline) {
  Simulator sim;
  std::vector<std::uint64_t> ran;
  sim.set_feed_sink([&](std::uint64_t tag) { ran.push_back(tag); });
  sim.feed(Time(100), 1);
  sim.feed(Time(101), 2);
  sim.run_until(Time(99));
  EXPECT_TRUE(ran.empty());
  EXPECT_EQ(sim.now(), Time(99));
  sim.run_until(Time(100));
  EXPECT_EQ(ran, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(sim.now(), Time(100));
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimulatorFeedTest, SameInstantTiesFollowScheduleOrder) {
  // A fed record sits where a schedule_at at the same moment would have:
  // after wheel events scheduled before it, before those scheduled after.
  Simulator sim;
  std::vector<int> order;
  sim.set_feed_sink([&](std::uint64_t tag) {
    order.push_back(static_cast<int>(tag));
  });
  sim.schedule_at(Time(50), [&] { order.push_back(1); });
  sim.feed(Time(50), 2);
  sim.feed(Time(50), 3);
  sim.schedule_at(Time(50), [&] { order.push_back(4); });
  sim.feed(Time(50), 5);
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(SimulatorFeedTest, StepAndRunAllMergeBothSources) {
  Simulator sim;
  std::vector<int> order;
  sim.set_feed_sink([&](std::uint64_t tag) {
    order.push_back(static_cast<int>(tag));
    // A fed event may schedule onto the wheel and feed more records.
    if (tag == 20) sim.schedule_at(sim.now(), [&] { order.push_back(21); });
    if (tag == 40) sim.feed(sim.now() + Duration(5), 45);
  });
  sim.schedule_at(Time(30), [&] { order.push_back(30); });
  sim.feed(Time(40), 40);  // an unsorted batch: sorted on first dispatch
  sim.feed(Time(20), 20);
  sim.feed(Time(60), 60);
  sim.schedule_at(Time(10), [&] { order.push_back(10); });
  EXPECT_TRUE(sim.step());
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(order, (std::vector<int>{10, 20}));
  EXPECT_EQ(sim.now(), Time(20));
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{10, 20, 21, 30, 40, 45, 60}));
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.executed(), 7u);
}

TEST(SimulatorFeedTest, LaterBatchMergesIntoPartlyConsumedFeed) {
  Simulator sim;
  std::vector<std::uint64_t> ran;
  sim.set_feed_sink([&](std::uint64_t tag) { ran.push_back(tag); });
  for (std::uint64_t t = 1; t <= 6; ++t) sim.feed(Time(10 * t), t);
  sim.run_until(Time(25));  // consumes 10 and 20
  sim.reserve_feed(3);
  sim.feed(Time(35), 35);
  sim.feed(Time(30), 31);  // ties with the first batch's 30: runs after it
  sim.feed(Time(70), 70);
  sim.run_all();
  EXPECT_EQ(ran, (std::vector<std::uint64_t>{1, 2, 3, 31, 35, 4, 5, 6, 70}));
}

// --- Processor ---------------------------------------------------------------

TEST(ProcessorTest, RunsSingleItem) {
  Simulator sim;
  Processor cpu(sim, ProcessorId(0));
  bool done = false;
  cpu.submit({1, Priority(1), Duration(100),
              [&](std::uint64_t id) {
                done = true;
                EXPECT_EQ(id, 1u);
              }});
  EXPECT_FALSE(cpu.idle());
  sim.run_all();
  EXPECT_TRUE(done);
  EXPECT_TRUE(cpu.idle());
  EXPECT_EQ(sim.now(), Time(100));
  EXPECT_EQ(cpu.stats().items_completed, 1u);
  EXPECT_EQ(cpu.stats().busy_time, Duration(100));
}

TEST(ProcessorTest, HigherPriorityPreempts) {
  Simulator sim;
  Processor cpu(sim, ProcessorId(0));
  std::vector<std::pair<std::uint64_t, std::int64_t>> completions;
  auto on_complete = [&](std::uint64_t id) {
    completions.push_back({id, sim.now().usec()});
  };
  cpu.submit({1, Priority(5), Duration(100), on_complete});
  // At t=30, a more urgent item arrives and preempts.
  sim.schedule_at(Time(30), [&] {
    cpu.submit({2, Priority(1), Duration(50), on_complete});
  });
  sim.run_all();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0].first, 2u);
  EXPECT_EQ(completions[0].second, 80);   // 30 + 50
  EXPECT_EQ(completions[1].first, 1u);
  EXPECT_EQ(completions[1].second, 150);  // 100 total demand + 50 preemption
  EXPECT_EQ(cpu.stats().preemptions, 1u);
}

TEST(ProcessorTest, EqualPriorityDoesNotPreempt) {
  Simulator sim;
  Processor cpu(sim, ProcessorId(0));
  std::vector<std::uint64_t> order;
  auto on_complete = [&](std::uint64_t id) { order.push_back(id); };
  cpu.submit({1, Priority(3), Duration(100), on_complete});
  sim.schedule_at(Time(10), [&] {
    cpu.submit({2, Priority(3), Duration(10), on_complete});
  });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(cpu.stats().preemptions, 0u);
}

TEST(ProcessorTest, FifoWithinPriorityLevel) {
  Simulator sim;
  Processor cpu(sim, ProcessorId(0));
  std::vector<std::uint64_t> order;
  auto on_complete = [&](std::uint64_t id) { order.push_back(id); };
  cpu.submit({1, Priority(1), Duration(10), on_complete});
  cpu.submit({2, Priority(2), Duration(10), on_complete});
  cpu.submit({3, Priority(2), Duration(10), on_complete});
  cpu.submit({4, Priority(0), Duration(10), on_complete});
  sim.run_all();
  // 1 started immediately (was idle); 4 is most urgent next; 2 and 3 FIFO.
  // But 4 preempts 1 on submission.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{4, 1, 2, 3}));
}

TEST(ProcessorTest, PreemptedItemResumesWithRemainingTime) {
  Simulator sim;
  Processor cpu(sim, ProcessorId(0));
  std::int64_t item1_done = 0;
  cpu.submit({1, Priority(5), Duration(100),
              [&](std::uint64_t) { item1_done = sim.now().usec(); }});
  sim.schedule_at(Time(60), [&] {
    cpu.submit({2, Priority(1), Duration(200), [](std::uint64_t) {}});
  });
  sim.run_all();
  // Item 1 ran 60, was preempted for 200, then finished its remaining 40.
  EXPECT_EQ(item1_done, 300);
}

TEST(ProcessorTest, IdleCallbackFiresOnTransition) {
  Simulator sim;
  Processor cpu(sim, ProcessorId(0));
  int idle_count = 0;
  cpu.set_idle_callback([&] { ++idle_count; });
  cpu.submit({1, Priority(1), Duration(10), nullptr});
  cpu.submit({2, Priority(1), Duration(10), nullptr});
  sim.run_all();
  EXPECT_EQ(idle_count, 1);  // only when the queue fully drains
  cpu.submit({3, Priority(1), Duration(10), nullptr});
  sim.run_all();
  EXPECT_EQ(idle_count, 2);
}

TEST(ProcessorTest, CompletionCallbackCanSubmitNextWork) {
  Simulator sim;
  Processor cpu(sim, ProcessorId(0));
  int idle_count = 0;
  cpu.set_idle_callback([&] { ++idle_count; });
  bool chained = false;
  cpu.submit({1, Priority(1), Duration(10), [&](std::uint64_t) {
                cpu.submit({2, Priority(1), Duration(10),
                            [&](std::uint64_t) { chained = true; }});
              }});
  sim.run_all();
  EXPECT_TRUE(chained);
  EXPECT_EQ(idle_count, 1);  // no idle between chained items
  EXPECT_EQ(sim.now(), Time(20));
}

TEST(ProcessorTest, BusyFraction) {
  Simulator sim;
  Processor cpu(sim, ProcessorId(0));
  cpu.submit({1, Priority(1), Duration(50), nullptr});
  sim.run_all();
  sim.schedule_at(Time(100), [] {});
  sim.run_all();
  EXPECT_NEAR(cpu.busy_fraction(), 0.5, 1e-9);
}

TEST(ProcessorTest, ManyPreemptionsAccounting) {
  Simulator sim;
  Processor cpu(sim, ProcessorId(0));
  std::uint64_t completed = 0;
  auto count = [&](std::uint64_t) { ++completed; };
  cpu.submit({0, Priority(10), Duration(1000), count});
  for (int i = 1; i <= 5; ++i) {
    sim.schedule_at(Time(i * 100), [&cpu, i, count] {
      cpu.submit({static_cast<std::uint64_t>(i),
                  Priority(10 - i), Duration(20), count});
    });
  }
  sim.run_all();
  EXPECT_EQ(completed, 6u);
  EXPECT_EQ(cpu.stats().preemptions, 5u);
  // Total busy time equals total demand.
  EXPECT_EQ(cpu.stats().busy_time, Duration(1100));
}

// --- Network -----------------------------------------------------------------

TEST(NetworkTest, RemoteLatencyApplied) {
  Simulator sim;
  Network net(sim, std::make_unique<ConstantLatency>(Duration(322)));
  Time delivered;
  net.send(ProcessorId(0), ProcessorId(1), [&] { delivered = sim.now(); });
  sim.run_all();
  EXPECT_EQ(delivered, Time(322));
  EXPECT_EQ(net.stats().messages_sent, 1u);
  EXPECT_EQ(net.stats().remote_messages, 1u);
}

TEST(NetworkTest, LoopbackLatencySeparate) {
  Simulator sim;
  Network net(sim,
              std::make_unique<ConstantLatency>(Duration(322), Duration(5)));
  Time delivered;
  net.send(ProcessorId(2), ProcessorId(2), [&] { delivered = sim.now(); });
  sim.run_all();
  EXPECT_EQ(delivered, Time(5));
  EXPECT_EQ(net.stats().remote_messages, 0u);
}

TEST(NetworkTest, FifoPerLink) {
  Simulator sim;
  Network net(sim, std::make_unique<ConstantLatency>(Duration(100)));
  std::vector<int> order;
  net.send(ProcessorId(0), ProcessorId(1), [&] { order.push_back(1); });
  net.send(ProcessorId(0), ProcessorId(1), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(NetworkTest, PaperConstantValue) {
  EXPECT_EQ(Network::kPaperOneWayDelay, Duration::microseconds(322));
}

TEST(JitterLatencyTest, StaysWithinBounds) {
  UniformJitterLatency model(Duration(300), Duration(100), /*seed=*/7);
  for (int i = 0; i < 1000; ++i) {
    const Duration d = model.latency(ProcessorId(0), ProcessorId(1));
    EXPECT_GE(d, Duration(300));
    EXPECT_LE(d, Duration(400));
  }
}

TEST(JitterLatencyTest, LoopbackUnjittered) {
  UniformJitterLatency model(Duration(300), Duration(100), 7, Duration(5));
  EXPECT_EQ(model.latency(ProcessorId(2), ProcessorId(2)), Duration(5));
}

TEST(JitterLatencyTest, DeterministicPerSeed) {
  UniformJitterLatency a(Duration(300), Duration(100), 42);
  UniformJitterLatency b(Duration(300), Duration(100), 42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.latency(ProcessorId(0), ProcessorId(1)),
              b.latency(ProcessorId(0), ProcessorId(1)));
  }
}

TEST(JitterLatencyTest, ActuallyVaries) {
  UniformJitterLatency model(Duration(300), Duration(100), 9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(model.latency(ProcessorId(0), ProcessorId(1)).usec());
  }
  EXPECT_GT(seen.size(), 20u);
}

TEST(JitterLatencyTest, ZeroJitterIsConstant) {
  UniformJitterLatency model(Duration(300), Duration::zero(), 9);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(model.latency(ProcessorId(0), ProcessorId(1)), Duration(300));
  }
}

// --- Trace -------------------------------------------------------------------

TEST(TraceTest, DisabledByDefault) {
  Trace trace;
  trace.record(
      {Time(1), TraceKind::kIdle, ProcessorId(0), TaskId(), JobId(), ""});
  EXPECT_TRUE(trace.records().empty());
}

TEST(TraceTest, RecordsAndFilters) {
  Trace trace;
  trace.enable();
  trace.record({Time(1), TraceKind::kJobArrival, ProcessorId(0), TaskId(1),
                JobId(1), ""});
  trace.record({Time(2), TraceKind::kJobReleased, ProcessorId(0), TaskId(1),
                JobId(1), ""});
  trace.record({Time(3), TraceKind::kJobArrival, ProcessorId(1), TaskId(2),
                JobId(2), "x"});
  EXPECT_EQ(trace.count(TraceKind::kJobArrival), 2u);
  EXPECT_EQ(trace.count(TraceKind::kDeadlineMiss), 0u);
  const auto arrivals = trace.of_kind(TraceKind::kJobArrival);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1].detail, "x");
  EXPECT_NE(trace.render().find("released"), std::string::npos);
  trace.clear();
  EXPECT_TRUE(trace.records().empty());
}

// --- Determinism property ----------------------------------------------------

TEST(DeterminismTest, SameProgramSameTrace) {
  auto run = [] {
    Simulator sim;
    Processor cpu(sim, ProcessorId(0));
    Network net(sim, std::make_unique<ConstantLatency>(Duration(10)));
    std::vector<std::int64_t> signature;
    for (int i = 0; i < 20; ++i) {
      sim.schedule_at(Time(i * 7), [&, i] {
        cpu.submit({static_cast<std::uint64_t>(i), Priority(i % 3),
                    Duration(5 + i % 4), [&](std::uint64_t id) {
                      signature.push_back(static_cast<std::int64_t>(id) * 1000 +
                                          sim.now().usec() % 1000);
                    }});
      });
    }
    sim.run_all();
    return signature;
  };
  EXPECT_EQ(run(), run());
}

TEST(DeterminismTest, SameRngSeedByteIdenticalTraceRender) {
  // Full sim-layer pipeline — jittered network, preemptive processors, a
  // deferrable server, Rng-driven submissions — rendered to text: the same
  // seed must reproduce the trace byte for byte across two runs.  This is
  // the contract future parallelization work must preserve.
  auto run = [](std::uint64_t seed) {
    Simulator sim;
    Trace trace;
    trace.enable();
    Processor cpu0(sim, ProcessorId(0));
    Processor cpu1(sim, ProcessorId(1));
    Network net(sim,
                std::make_unique<UniformJitterLatency>(Duration(300),
                                                       Duration(120), seed));
    DeferrableServer server(sim, cpu1,
                            {Duration::milliseconds(5),
                             Duration::milliseconds(20), Priority(-1)});
    server.start();

    cpu0.set_idle_callback([&] {
      trace.record({sim.now(), TraceKind::kIdle, ProcessorId(0), TaskId(),
                    JobId(), ""});
    });

    Rng rng(seed);
    for (int i = 0; i < 40; ++i) {
      const Time at(rng.uniform_int(0, 50000));
      const Duration exec(rng.uniform_int(100, 4000));
      const auto priority = Priority(static_cast<std::int32_t>(rng.index(3)));
      const auto id = static_cast<std::uint64_t>(i);
      sim.schedule_at(at, [&, id, exec, priority] {
        // Remote hand-off, then either direct execution on cpu0 or served
        // execution through the deferrable server on cpu1.
        net.send(ProcessorId(0), ProcessorId(1), [&, id, exec, priority] {
          if (id % 3 == 0) {
            server.submit(id, exec, [&](std::uint64_t done) {
              trace.record({sim.now(), TraceKind::kSubjobComplete,
                            ProcessorId(1), TaskId(), JobId(),
                            "served-" + std::to_string(done)});
            });
          } else {
            cpu0.submit({id, priority, exec, [&](std::uint64_t done) {
                           trace.record({sim.now(), TraceKind::kSubjobComplete,
                                         ProcessorId(0), TaskId(), JobId(),
                                         "direct-" + std::to_string(done)});
                         }});
          }
        });
      });
    }
    // run_until, not run_all: the server's replenishment timer reschedules
    // itself forever.
    sim.run_until(Time(Duration::seconds(2).usec()));
    return trace.render();
  };
  const std::string first = run(101);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run(101));       // byte-identical replay
  EXPECT_NE(first, run(102));       // seed actually drives the run
}

}  // namespace
}  // namespace rtcm::sim
