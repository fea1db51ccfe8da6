// Allocation-count tests for the simulation kernel's event path.
//
// The kernel's contract is that scheduling, feeding, cancelling,
// rescheduling and dispatching events performs ZERO heap allocations once
// the slab, the feed and the timer wheel's buckets are warm, for any
// capture within EventFn's inline capacity.  The event channel's
// push-to-delivery path, the admission book and a whole AUB cell's
// middleware decision path are held to the same contract.  This binary overrides global operator new/delete with counting
// pass-throughs and asserts exact deltas around the hot paths — if someone
// reintroduces a std::function (16-byte inline capacity on libstdc++) or an
// allocating container on the event path, these tests fail with a nonzero
// delta.
//
// Warming is rehearse-then-measure: the workload runs once to grow the
// slab, free list and wheel buckets it needs, then runs again and the
// second pass must allocate nothing.  Between passes the simulator is
// advanced to the next multiple of the wheel's level-3 granularity (64^3
// usec): bucket placement depends only on event times modulo that phase
// while relative offsets stay below it, so both passes of a now()-relative
// workload target exactly the same buckets.
//
// The operator overrides are binary-global, which is why these tests live
// in their own test executable instead of sim_test.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "core/runtime.h"
#include "core/scheduling_state.h"
#include "events/federated_channel.h"
#include "scenario/library.h"
#include "sim/network.h"
#include "sim/processor.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/inline_fn.h"
#include "util/rng.h"
#include "util/time.h"
#include "workload/arrival.h"
#include "workload/generator.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// left to the runtime, their blocks would be freed by the free() below,
// which a sanitizer build reports as an alloc-dealloc mismatch.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rtcm::sim {
namespace {

// The middleware's largest hot-path captures must stay inline: the
// federated channel ships (pointer + 80-byte event) per destination
// and the subtask components capture (this + 48-byte trigger payload).
static_assert(EventFn::fits_inline<std::array<std::byte, 88>>);
static_assert(CompletionFn::fits_inline<std::array<std::byte, 64>>);

/// Wheel level-3 bucket granularity: runs whose start times are congruent
/// modulo this (and whose offsets stay below it) place every event in the
/// same bucket, so a rehearsal pass warms exactly what the measured pass
/// touches.
constexpr std::int64_t kPhase = 64LL * 64 * 64;

/// Advance (without dispatching anything new) to the next kPhase multiple.
void align(Simulator& sim) {
  sim.run_until(Time((sim.now().usec() / kPhase + 1) * kPhase));
}

/// Run `workload` twice — rehearsal, then phase-aligned measured pass — and
/// return the measured pass's allocation count.
template <typename Workload>
std::uint64_t measured_allocations(Simulator& sim, Workload&& workload) {
  align(sim);
  workload();  // rehearsal: grows slab, free list, buckets, due batch
  sim.run_all();
  align(sim);
  const std::uint64_t before = allocation_count();
  workload();
  sim.run_all();
  return allocation_count() - before;
}

TEST(SimAllocTest, InlineCaptureScheduleAndDispatchAllocationFree) {
  Simulator sim;
  std::uint64_t sink = 0;
  struct Payload {
    std::uint64_t a, b, c;
  } payload{1, 2, 3};  // 24-byte capture — typical core-layer size

  const std::uint64_t allocs = measured_allocations(sim, [&] {
    for (int i = 0; i < 2048; ++i) {
      sim.schedule_at(sim.now() + Duration(1 + i),
                      [&sink, payload] { sink += payload.a + payload.c; });
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(sink, 2u * 2048u * 4u);  // both passes dispatched everything
}

TEST(SimAllocTest, CapacityEdgeCaptureStaysInline) {
  Simulator sim;
  std::uint64_t sink = 0;
  // Exactly EventFn::kCapacity bytes of capture.
  struct Edge {
    std::uint64_t* sink;
    std::byte pad[EventFn::kCapacity - sizeof(std::uint64_t*)];
  } edge{&sink, {}};
  static_assert(sizeof(Edge) == EventFn::kCapacity);

  const std::uint64_t allocs = measured_allocations(sim, [&] {
    for (int i = 0; i < 128; ++i) {
      sim.schedule_at(sim.now() + Duration(1 + i), [edge] { ++*edge.sink; });
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(sink, 2u * 128u);
}

TEST(SimAllocTest, OversizedCaptureFallsBackToOneHeapAllocation) {
  Simulator sim;
  std::uint64_t sink = 0;
  struct Oversized {
    std::uint64_t* sink;
    std::byte pad[EventFn::kCapacity];  // one pointer past the capacity
  } big{&sink, {}};

  const std::uint64_t allocs = measured_allocations(sim, [&] {
    sim.schedule_at(sim.now() + Duration(1), [big] { ++*big.sink; });
  });
  EXPECT_EQ(allocs, 1u);  // the capture box; dispatch adds nothing
  EXPECT_EQ(sink, 2u);
}

TEST(SimAllocTest, FeedIntoWarmedCapacityAndFedDispatchAllocationFree) {
  Simulator sim;
  std::uint64_t sink = 0;
  sim.set_feed_sink([&sim, &sink](std::uint64_t tag) {
    sink += tag;
    // A fed event schedules onto the wheel, as the task effector does.
    if (tag % 4 == 0) {
      sim.schedule_at(sim.now() + Duration(3), [&sink] { ++sink; });
    }
  });
  const std::uint64_t allocs = measured_allocations(sim, [&] {
    // An unsorted batch, then a second one merged into its remainder.
    sim.reserve_feed(2048);
    for (std::uint64_t i = 0; i < 2048; ++i) {
      sim.feed(sim.now() + Duration(static_cast<std::int64_t>(
                               1 + (i * 37) % 4096)),
               i);
    }
    sim.run_until(sim.now() + Duration(1000));
    for (std::uint64_t i = 0; i < 256; ++i) {
      sim.feed(sim.now() + Duration(static_cast<std::int64_t>(1 + i * 5)),
               i);
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_GT(sink, 0u);
}

TEST(SimAllocTest, CancelAndLazyDrainAllocationFree) {
  Simulator sim;
  std::uint64_t sink = 0;
  std::array<EventHandle, 1024> handles;
  std::size_t cancelled = 0;

  // The cancel storm leaves 1024 dead entries behind (more than live), so
  // this also drives the compaction sweep — which must be in-place.
  const std::uint64_t allocs = measured_allocations(sim, [&] {
    for (std::size_t i = 0; i < handles.size(); ++i) {
      handles[i] = sim.schedule_at(
          sim.now() + Duration(1 + static_cast<std::int64_t>(i)),
          [&sink] { ++sink; });
    }
    for (const EventHandle h : handles) {
      if (sim.cancel(h)) ++cancelled;
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(cancelled, 2u * handles.size());
  EXPECT_EQ(sink, 0u);
}

TEST(SimAllocTest, RescheduleChurnAllocationFree) {
  Simulator sim;
  std::uint64_t sink = 0;
  int rescheduled = 0;

  // Every reschedule leaves a dead entry at the event's (far-future) old
  // position until compaction reaps it, so this pins both the churn path
  // and the sweep as allocation-free at steady state.
  const std::uint64_t allocs = measured_allocations(sim, [&] {
    EventHandle h =
        sim.schedule_at(sim.now() + Duration(10000), [&sink] { ++sink; });
    for (int i = 0; i < 2048; ++i) {
      if (sim.reschedule(h, sim.now() + Duration(10000 + i))) ++rescheduled;
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(rescheduled, 2 * 2048);
  EXPECT_EQ(sink, 2u);
}

TEST(SimAllocTest, ProcessorCompletionPathAllocationFree) {
  Simulator sim;
  Processor cpu(sim, ProcessorId(0));
  std::uint64_t sink = 0;

  // The same preempt/resume wave pattern both passes, so the ready deque,
  // slab, and wheel buckets reach their steady-state footprints in
  // the rehearsal.
  const std::uint64_t allocs = measured_allocations(sim, [&] {
    const std::int64_t start = sim.now().usec();
    for (int w = 0; w < 64; ++w) {
      const std::int64_t base = start + w * 100;
      sim.schedule_at(Time(base), [&cpu, &sink] {
        cpu.submit({1, Priority(5), Duration(40),
                    [&sink](std::uint64_t id) { sink += id; }});
      });
      sim.schedule_at(Time(base + 10), [&cpu, &sink] {
        cpu.submit({2, Priority(1), Duration(20),
                    [&sink](std::uint64_t id) { sink += id; }});
      });
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(sink, 2u * 3u * 64u);  // ids 1 + 2 completed per wave, twice
}

TEST(SimAllocTest, KeyedEventPushToDeliveryAllocationFree) {
  // The federated channel's hot path: a Trigger addressed to one stage and
  // an Accept whose arrival and first-stage processors coincide each reach
  // one channel.  Their payloads are built before the measured window; from
  // push through routing, the network hop and delivery to the consumer,
  // nothing may allocate: the event moves into the delivery delegate
  // instead of being copied, and the channel walks its subscriptions in
  // place.
  Simulator sim;
  Network network(sim, std::make_unique<ConstantLatency>(Duration(322)));
  events::FederatedEventChannel federation(sim, network);
  std::uint64_t triggers = 0;
  std::uint64_t accepts = 0;
  // Other stages and types on the same channels, so routing has to pick.
  for (std::int32_t p = 0; p < 8; ++p) {
    auto& channel = federation.channel(ProcessorId(p));
    for (std::size_t stage = 0; stage < 3; ++stage) {
      channel.subscribe(events::RouteKey::trigger(TaskId(p), stage),
                        [&triggers](const events::Event&) { ++triggers; });
    }
    channel.subscribe(events::RouteKey::of(events::EventType::kAccept),
                      [&accepts](const events::Event&) { ++accepts; });
  }
  constexpr int kPushes = 256;
  const auto make_batch = [] {
    std::vector<events::EventPayload> batch;
    for (int i = 0; i < kPushes; ++i) {
      const JobId job(i);
      batch.emplace_back(events::TriggerPayload{
          TaskId(1), job, 1,
          rtcm::testing::placed({ProcessorId(0), ProcessorId(1), ProcessorId(2)}),
          Time(1000000), Time(0)});
      batch.emplace_back(events::AcceptPayload{
          TaskId(2), job, ProcessorId(2),
          rtcm::testing::placed({ProcessorId(2), ProcessorId(3)}), Time(1000000),
          false});
    }
    return batch;
  };
  const auto push_all = [&](std::vector<events::EventPayload>& batch) {
    for (events::EventPayload& payload : batch) {
      federation.push(ProcessorId(0), std::move(payload));
    }
    sim.run_all();
  };

  std::vector<events::EventPayload> rehearsal = make_batch();
  std::vector<events::EventPayload> measured = make_batch();
  align(sim);
  push_all(rehearsal);
  align(sim);
  const std::uint64_t before = allocation_count();
  push_all(measured);
  EXPECT_EQ(allocation_count() - before, 0u);
  EXPECT_EQ(triggers, 2u * kPushes);
  EXPECT_EQ(accepts, 2u * kPushes);
  EXPECT_EQ(network.stats().messages_sent, 4u * kPushes);
}

}  // namespace
}  // namespace rtcm::sim

namespace rtcm::core {
namespace {

// The admission book of record makes the same contract as the event path:
// admit/expire/reset churn at fixed resident capacity allocates nothing
// once the slabs, id tables and arena spill are warm
// (core/scheduling_state.h).  Same rehearse-then-measure discipline — the
// first churn pass grows every structure to its steady-state footprint,
// the second must not touch the heap.
TEST(AdmissionAllocTest, AdmitExpireResetChurnAllocationFree) {
  SchedulingState state;

  // Specs are prebuilt: TaskSpec construction allocates and is not part of
  // the churn contract.
  std::vector<sched::TaskSpec> specs;
  for (std::int32_t t = 0; t < 8; ++t) {
    specs.push_back(rtcm::testing::make_periodic(
        t, Duration::milliseconds(100),
        {{t % 4, 2000}, {(t + 1) % 4, 1000}}));
  }

  constexpr std::size_t kResident = 64;
  std::array<JobId, kResident> live{};
  std::array<ProcessorId, 2> placement{};
  std::int32_t next_job = 0;
  const auto admit_one = [&](std::size_t i) {
    const sched::TaskSpec& spec =
        specs[static_cast<std::size_t>(next_job) % specs.size()];
    placement = {spec.subtasks[0].primary, spec.subtasks[1].primary};
    const JobId job(next_job++);
    state.admit_job(spec, job, std::span<const ProcessorId>(placement),
                    Time(100000 + next_job));
    live[i] = job;
  };
  for (std::size_t i = 0; i < kResident; ++i) admit_one(i);

  std::size_t head = 0;
  const auto churn = [&] {
    for (int cycle = 0; cycle < 2048; ++cycle) {
      // Every 4th cycle exercises idle resetting before the expiry, so the
      // partial-removal path is part of the steady state too.
      if (cycle % 4 == 3) (void)state.reset_subjob(live[head], 0);
      state.expire_job(live[head]);
      admit_one(head);
      head = (head + 1) % kResident;
    }
  };
  churn();  // rehearsal: slabs, id tables and spill reach steady state

  const std::uint64_t before = allocation_count();
  churn();
  EXPECT_EQ(allocation_count() - before, 0u);
  EXPECT_EQ(state.active_jobs(), kResident);
}

// Reservations (AC per Task) ride the same slabs; reserve/release churn at
// fixed capacity must be allocation-free as well.
TEST(AdmissionAllocTest, ReserveReleaseChurnAllocationFree) {
  SchedulingState state;
  std::vector<sched::TaskSpec> specs;
  for (std::int32_t t = 0; t < 16; ++t) {
    specs.push_back(rtcm::testing::make_periodic(
        t, Duration::milliseconds(100),
        {{t % 4, 2000}, {(t + 2) % 4, 1000}}));
  }

  std::array<ProcessorId, 2> placement{};
  const auto churn = [&] {
    for (int round = 0; round < 64; ++round) {
      for (const sched::TaskSpec& spec : specs) {
        placement = {spec.subtasks[0].primary, spec.subtasks[1].primary};
        state.reserve_task(spec, std::span<const ProcessorId>(placement));
      }
      for (const sched::TaskSpec& spec : specs) {
        (void)state.release_reservation(spec);
      }
    }
  };
  churn();

  const std::uint64_t before = allocation_count();
  // release_reservation returns the placement by value, which is the one
  // unavoidable allocation per call; everything else must be silent.
  constexpr std::uint64_t kReturnedPlacements = 64ull * 16ull;
  churn();
  EXPECT_LE(allocation_count() - before, kReturnedPlacements);
  EXPECT_EQ(state.reservation_count(), 0u);
}

// The whole middleware decision path of an AUB cell — TE arrival, AC
// decision (LB placement + aUB test), Accept, TE release, the Trigger chain
// and the Last-subtask completion — allocates nothing at steady state:
// placements are interned once per distinct placement, per-decision
// scratch is owned by its component, and no per-job map nodes remain.
// Cells are the Figure 5 library grid's (random shape), for one
// per-job-admission and one per-task-admission combination, with idle
// resetting off (its completion batches are not covered).  The first half
// of the horizon is the rehearsal; the second half is counted.
//
// The bound is 1 allocation per 1000 dispatched events, not zero, because
// the timer wheel's buckets keep growing long after the middleware is
// warm: a bucket grows when it first holds more entries than ever before,
// and events scheduled just below a 64^k-microsecond boundary (a network
// hop, a completion) land in a level-k bucket that may never have been
// used.  How many such high-water marks fall in the counted half depends
// on the seed; a counting probe put them at 50-80 per cell whatever the
// horizon, every one of them in the kernel (20-45 while injected arrivals
// still sat in the wheel and pre-grew its buckets).  The cells are sparse (a few
// dozen events per simulated second), so the horizon is stretched to
// 10^4 s to make the count per event meaningful.  Before the middleware's
// decision path was made allocation-free, it made about 2 per event.
TEST(SimAllocTest, AubCellSteadyStateAllocationFree) {
  const scenario::NamedGrid fig5 = scenario::find_grid("fig5").value();
  const workload::WorkloadShape& shape = fig5.grid.shapes.front().shape;
  for (const char* combo : {"J_N_J", "T_N_N"}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string(combo) + " seed " + std::to_string(seed));
      const sweep::Cell cell{combo, fig5.grid.shapes.front().name, "", seed};
      scenario::ScenarioSpec spec =
          sweep::cell_spec(cell, shape, fig5.params).value();
      spec.horizon = Duration::seconds(10000);
      Rng rng(spec.seed);
      SystemRuntime runtime(spec.config,
                            workload::generate_workload(spec.workload.shape,
                                                        rng));
      ASSERT_TRUE(runtime.assemble().is_ok());
      Rng arrival_rng = rng.fork(1);
      const Time horizon = Time::epoch() + spec.horizon;
      ASSERT_TRUE(runtime
                      .inject_arrivals(workload::generate_arrivals(
                          runtime.tasks(), horizon, arrival_rng))
                      .is_ok());

      runtime.run_until(Time(spec.horizon.usec() / 2));  // rehearsal
      const std::uint64_t events_before = runtime.simulator().executed();
      const std::uint64_t completions_before =
          runtime.metrics().total().completions;
      const std::uint64_t before = allocation_count();
      runtime.run_until(horizon);
      const std::uint64_t allocs = allocation_count() - before;
      const std::uint64_t events =
          runtime.simulator().executed() - events_before;

      // The counted half did real middleware work.
      EXPECT_GT(runtime.metrics().total().completions, completions_before);
      EXPECT_GT(events, 1000u);
      EXPECT_LT(allocs * 1000, events) << allocs << " allocations over "
                                       << events << " events";
    }
  }
}

}  // namespace
}  // namespace rtcm::core
