// Dispatch-order suite: the timer-wheel Simulator against a reference queue.
//
// ReferenceQueue below is a deliberately naive event queue — a std::set
// ordered on (time, seq) — written against the Simulator's documented
// contract and sharing no code with src/sim/.  These tests drive both
// through identical randomized schedule / cancel / reschedule / run churn —
// including same-instant ties, events scheduled from inside callbacks, and
// horizons far past 64^6 usec (the wheel's levels 6 and up) — and require
// identical dispatch sequences, cancel/reschedule results and now()
// trajectories.  A full-middleware run's rendered trace is pinned by
// digest, so any change to dispatch order fails here too.
//
// Also here: the dead-entry regression tests.  cancel()/reschedule() used
// to leave dead entries queued until they surfaced at the front, so a
// reschedule storm against a far-future event grew queue memory with
// *total* churn; the wheel now compacts once dead entries outnumber live
// ones, and these tests pin the O(live) bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/runtime.h"
#include "sim/simulator.h"
#include "test_helpers.h"
#include "util/rng.h"
#include "util/time.h"
#include "workload/arrival.h"
#include "workload/generator.h"

namespace rtcm::sim {
namespace {

/// 64^6 usec (~19 simulated hours): events further out than this from now
/// are filed on the wheel's levels 6 and up.
constexpr std::int64_t kFarUsec = 64LL * 64 * 64 * 64 * 64 * 64;

/// The Simulator's ordering contract, implemented the obvious way: events
/// dispatch in (time, seq) order, seq is consumed once per schedule and
/// once per successful reschedule, a dispatching event is no longer
/// pending when its callback runs, and run_until leaves now() at the later
/// of the last dispatch and the deadline.
class ReferenceQueue {
 public:
  using Handle = std::size_t;

  [[nodiscard]] std::int64_t now() const { return now_; }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

  Handle schedule_at(std::int64_t at, std::function<void()> fn) {
    events_.push_back({at, next_seq_++, std::move(fn), true});
    queue_.insert({at, events_.back().seq, events_.size() - 1});
    return events_.size() - 1;
  }
  bool cancel(Handle h) {
    Event& e = events_[h];
    if (!e.pending) return false;
    queue_.erase({e.at, e.seq, h});
    e.pending = false;
    return true;
  }
  bool reschedule(Handle h, std::int64_t at) {
    Event& e = events_[h];
    if (!e.pending) return false;
    queue_.erase({e.at, e.seq, h});
    e.at = at;
    e.seq = next_seq_++;
    queue_.insert({e.at, e.seq, h});
    return true;
  }
  bool step() {
    if (queue_.empty()) return false;
    const Key front = *queue_.begin();
    queue_.erase(queue_.begin());
    Event& e = events_[front.id];
    e.pending = false;
    now_ = front.at;
    ++executed_;
    std::function<void()> fn = std::move(e.fn);
    fn();
    return true;
  }
  void run_until(std::int64_t deadline) {
    while (!queue_.empty() && queue_.begin()->at <= deadline) step();
    now_ = std::max(now_, deadline);
  }
  void run_all() {
    while (step()) {
    }
  }

 private:
  struct Key {
    std::int64_t at;
    std::uint64_t seq;
    std::size_t id;
    bool operator<(const Key& o) const {
      return at != o.at ? at < o.at : seq < o.seq;
    }
  };
  struct Event {
    std::int64_t at;
    std::uint64_t seq;
    std::function<void()> fn;
    bool pending;
  };
  std::int64_t now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::vector<Event> events_;  // indexed by handle; never recycled
  std::set<Key> queue_;
};

/// The Simulator behind ReferenceQueue's interface, so one replay routine
/// drives both.
class WheelQueue {
 public:
  using Handle = EventHandle;

  [[nodiscard]] std::int64_t now() const { return sim_.now().usec(); }
  [[nodiscard]] std::uint64_t executed() const { return sim_.executed(); }
  [[nodiscard]] std::size_t pending() const { return sim_.pending(); }

  template <typename Fn>
  Handle schedule_at(std::int64_t at, Fn fn) {
    return sim_.schedule_at(Time(at), std::move(fn));
  }
  bool cancel(Handle h) { return sim_.cancel(h); }
  bool reschedule(Handle& h, std::int64_t at) {
    return sim_.reschedule(h, Time(at));
  }
  bool step() { return sim_.step(); }
  void run_until(std::int64_t deadline) { sim_.run_until(Time(deadline)); }
  void run_all() { sim_.run_all(); }

 private:
  Simulator sim_;
};

/// One externally-applied operation of the churn script.  Scripts are
/// generated once per seed and replayed verbatim against each queue, so
/// both see exactly the same call sequence.
struct Op {
  enum Kind { kSchedule, kCancel, kReschedule, kRunUntil, kStep } kind;
  std::int64_t a = 0;  // schedule/reschedule/run_until: time offset
  std::size_t target = 0;  // cancel/reschedule: index into issued handles
  std::uint64_t id = 0;    // schedule: event identity for the dispatch log
};

std::vector<Op> make_script(std::uint64_t seed, int ops) {
  Rng rng(seed);
  std::vector<Op> script;
  script.reserve(static_cast<std::size_t>(ops));
  std::uint64_t next_id = 1;
  std::size_t handles = 0;
  for (int i = 0; i < ops; ++i) {
    const std::int64_t roll = rng.uniform_int(0, 99);
    if (roll < 55 || handles == 0) {
      // Offsets span the low wheel levels and (rarely) levels 6 and up, and
      // land on few enough distinct values to force same-time ties.
      static constexpr std::int64_t kSpans[] = {
          63, 4095, 262143, 16777215, kFarUsec * 2};
      const auto span =
          kSpans[static_cast<std::size_t>(rng.uniform_int(0, 4)) %
                 (rng.uniform_int(0, 9) == 0 ? 5 : 4)];
      script.push_back({Op::kSchedule, rng.uniform_int(0, span) & ~3LL, 0,
                        next_id++});
      ++handles;
    } else if (roll < 70) {
      script.push_back(
          {Op::kCancel, 0,
           static_cast<std::size_t>(rng.uniform_int(
               0, static_cast<std::int64_t>(handles) - 1))});
    } else if (roll < 85) {
      script.push_back(
          {Op::kReschedule, rng.uniform_int(0, 262143),
           static_cast<std::size_t>(rng.uniform_int(
               0, static_cast<std::int64_t>(handles) - 1))});
    } else if (roll < 95) {
      script.push_back({Op::kRunUntil, rng.uniform_int(0, 100000)});
    } else {
      script.push_back({Op::kStep, rng.uniform_int(1, 16)});
    }
  }
  return script;
}

using Log = std::vector<std::pair<std::int64_t, std::uint64_t>>;

/// Replay a script and return the log: (time, id) per executed event, the
/// result of every cancel/reschedule, and a now() sample after every run
/// op.  Callbacks for ids divisible by 7 schedule a child event
/// mid-dispatch, exercising the schedule-at-current-instant path.
template <typename Queue>
Log replay(const std::vector<Op>& script) {
  Queue queue;
  Log log;
  std::vector<typename Queue::Handle> handles;
  struct Recorder {
    Queue* queue;
    Log* log;
    std::uint64_t id;
    void operator()() const {
      log->emplace_back(queue->now(), id);
      if (id % 7 == 0) {
        queue->schedule_at(
            queue->now() + static_cast<std::int64_t>(id % 977),
            Recorder{queue, log, id + 1000000});
      }
    }
  };
  for (const Op& op : script) {
    switch (op.kind) {
      case Op::kSchedule:
        handles.push_back(queue.schedule_at(queue.now() + op.a,
                                            Recorder{&queue, &log, op.id}));
        break;
      case Op::kCancel:
        log.emplace_back(-1, queue.cancel(handles[op.target]) ? 1 : 0);
        break;
      case Op::kReschedule: {
        const bool moved =
            queue.reschedule(handles[op.target], queue.now() + op.a);
        log.emplace_back(-2, moved ? 1 : 0);
        break;
      }
      case Op::kRunUntil:
        queue.run_until(queue.now() + op.a);
        log.emplace_back(queue.now(), 0);  // pin the now() trajectory
        break;
      case Op::kStep:
        for (std::int64_t n = 0; n < op.a; ++n) {
          if (!queue.step()) break;
        }
        break;
    }
  }
  queue.run_all();
  log.emplace_back(queue.now(), queue.executed());  // totals must agree too
  EXPECT_EQ(queue.pending(), 0u);
  return log;
}

TEST(CrossKernelOracleTest, RandomChurnDispatchesByteIdentically) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const std::vector<Op> script = make_script(seed, 600);
    const Log reference = replay<ReferenceQueue>(script);
    const Log wheel = replay<WheelQueue>(script);
    ASSERT_EQ(reference, wheel) << "seed " << seed;
    ASSERT_GT(reference.size(), 100u) << "seed " << seed;
  }
}

TEST(CrossKernelOracleTest, OverflowHorizonChurnMatches) {
  // Concentrate on the wheel's upper levels and multi-level jumps: every
  // event starts at least 64^6 usec out, a few reach 2^62 usec (levels 7 to
  // 10), and two sit on the largest representable instants (level 10).
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    Rng rng(seed);
    // Ids 1 and 2 schedule no child (only multiples of 7 do), so nothing
    // is placed past kMax.
    std::vector<Op> script = {{Op::kSchedule, kMax, 0, 1},
                              {Op::kSchedule, kMax - 1, 0, 2}};
    std::uint64_t id = 3;
    for (int i = 0; i < 64; ++i) {
      script.push_back({Op::kSchedule,
                        kFarUsec + rng.uniform_int(0, kFarUsec * 3), 0,
                        id++});
    }
    for (int i = 0; i < 8; ++i) {
      script.push_back({Op::kSchedule,
                        rng.uniform_int(kFarUsec * 64, std::int64_t{1} << 62),
                        0, id++});
    }
    script.push_back({Op::kRunUntil, kFarUsec * 2});
    for (int i = 0; i < 64; ++i) {
      script.push_back({Op::kSchedule, rng.uniform_int(0, kFarUsec * 2), 0,
                        id++});
      script.push_back(
          {Op::kReschedule, rng.uniform_int(0, kFarUsec * 2),
           static_cast<std::size_t>(rng.uniform_int(0, 73))});
    }
    const Log reference = replay<ReferenceQueue>(script);
    const Log wheel = replay<WheelQueue>(script);
    ASSERT_EQ(reference, wheel) << "seed " << seed;
  }
}

TEST(CrossKernelOracleTest, CascadedAndDirectSameInstantEntriesKeepSeqOrder) {
  // Two instants, 100 and 5000 usec, each reached by entries filed on level
  // 1 or 2 from afar and cascaded down, then by entries placed straight on
  // level 0 once now() shares the instant's 64 usec window, and by a
  // reschedule that moves an early-seq entry behind them.  The wheel
  // dispatches a level-0 bucket in filing order without sorting it, so
  // seq order has to come from the filing order alone.
  const std::vector<Op> script = {
      {Op::kSchedule, 100, 0, 1},   // t=100 on level 1
      {Op::kSchedule, 5000, 0, 2},  // t=5000 on level 2
      {Op::kSchedule, 100, 0, 3},   // level 1, with id 1
      {Op::kSchedule, 5000, 0, 4},  // level 2, with id 2
      {Op::kRunUntil, 70},          // now=70: ids 1 and 3 cascade to level 0
      {Op::kSchedule, 30, 0, 5},    // t=100, straight onto level 0
      {Op::kReschedule, 30, 0},     // id 1 re-filed behind id 5
      {Op::kSchedule, 4930, 0, 6},  // t=5000 on level 2, with ids 2 and 4
      {Op::kRunUntil, 4030},        // now=4100: ids 2, 4, 6 cascade to level 1
      {Op::kSchedule, 900, 0, 7},   // t=5000 on level 1, behind them
      {Op::kRunUntil, 895},         // now=4995: all four cascade to level 0
      {Op::kSchedule, 5, 0, 8},     // t=5000, straight onto level 0
      {Op::kReschedule, 5, 1},      // id 2 re-filed behind id 8
  };
  const Log reference = replay<ReferenceQueue>(script);
  const Log wheel = replay<WheelQueue>(script);
  ASSERT_EQ(reference, wheel);
  const auto dispatched_at = [&](std::int64_t t) {
    std::vector<std::uint64_t> ids;
    for (const auto& [time, id] : wheel) {
      if (time == t && id != 0) ids.push_back(id);
    }
    return ids;
  };
  EXPECT_EQ(dispatched_at(100), (std::vector<std::uint64_t>{3, 5, 1}));
  EXPECT_EQ(dispatched_at(5000), (std::vector<std::uint64_t>{4, 6, 7, 8, 2}));
}

TEST(CrossKernelOracleTest, RunUntilLeavesIdenticalNowWithEmptyQueue) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(Time(50), [&] { ++fired; });
  sim.run_until(Time(49));
  EXPECT_EQ(sim.now(), Time(49));
  EXPECT_EQ(fired, 0);
  sim.run_until(Time(50));  // deadline-inclusive dispatch
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Time(50));
  sim.run_until(Time(123456789));  // idle horizon advance, multi-level
  EXPECT_EQ(sim.now(), Time(123456789));
  // Scheduling relative to the advanced instant must still dispatch in
  // order — the wheel's digit path has to be consistent after the jump.
  std::vector<int> order;
  sim.schedule_at(sim.now() + Duration(3), [&] { order.push_back(3); });
  sim.schedule_at(sim.now() + Duration(1), [&] { order.push_back(1); });
  sim.schedule_at(sim.now() + Duration(2), [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// --- full-middleware dispatch-order pin --------------------------------------

/// FNV-1a, 64-bit: a dependency-free digest for pinning rendered output.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(CrossKernelOracleTest, EndToEndRenderedTraceMatchesPinnedDigest) {
  Rng rng(31);
  auto tasks =
      workload::generate_workload(workload::random_workload_shape(), rng);
  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse("J_J_J").value();
  config.comm_jitter = Duration::microseconds(200);
  config.comm_jitter_seed = 9;
  config.lb_policy = "random";
  config.lb_seed = 4;
  config.enable_trace = true;
  core::SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());
  Rng arrival_rng = rng.fork(1);
  const Time horizon(Duration::seconds(8).usec());
  RTCM_EXPECT_OK(runtime.inject_arrivals(
      workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
  runtime.run_until(horizon + Duration::seconds(11));
  const std::string trace = runtime.trace().render();
  // Captured when a 4-ary heap kernel and this wheel still ran side by side
  // and rendered this trace byte-identically.  A change here means the
  // middleware's event dispatch order changed.
  EXPECT_EQ(trace.size(), 7355u);
  EXPECT_EQ(fnv1a(trace), 0x1fd9d2346796dcbaULL);
}

// --- dead-entry compaction regression ----------------------------------------

TEST(CompactionRegressionTest, RescheduleStormKeepsQueueMemoryBounded) {
  // Without compaction every dead entry stayed queued until it surfaced:
  // 10^6 reschedules of one far-future event stored ~10^6 entries.  With
  // it, stored entries stay O(live) — here live is 1, so the queue may
  // never hold more than the sweep threshold plus one storm's worth of dead
  // entries between sweeps.
  Simulator sim;
  int fired = 0;
  EventHandle h =
      sim.schedule_at(sim.now() + Duration(1 << 30), [&] { ++fired; });
  std::size_t max_entries = 0;
  for (int i = 0; i < 1000000; ++i) {
    ASSERT_TRUE(sim.reschedule(h, sim.now() + Duration((1 << 30) + i)));
    max_entries = std::max(max_entries, sim.queue_entries());
  }
  EXPECT_LE(max_entries, 1024u);  // vs ~10^6 without compaction
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.queue_entries(), 0u);
}

TEST(CompactionRegressionTest, CancelStormKeepsQueueMemoryBounded) {
  Simulator sim;
  std::size_t max_entries = 0;
  for (int round = 0; round < 64; ++round) {
    std::vector<EventHandle> handles;
    for (int i = 0; i < 1024; ++i) {
      handles.push_back(sim.schedule_at(sim.now() + Duration(1 + i), [] {}));
    }
    for (EventHandle& h : handles) EXPECT_TRUE(sim.cancel(h));
    max_entries = std::max(max_entries, sim.queue_entries());
  }
  // 64 rounds x 1024 cancels must not accumulate: the bound is one round's
  // storm plus the sweep threshold, not 65536.
  EXPECT_LE(max_entries, 4096u);
  EXPECT_EQ(sim.pending(), 0u);
  sim.run_all();
  EXPECT_EQ(sim.queue_entries(), 0u);
}

// The compacted front must still dispatch in exact (time, seq) order: churn
// a mix of survivors and cancelled events past the sweep threshold, then
// check the survivors fire in schedule order.
TEST(CompactionRegressionTest, CompactionPreservesDispatchOrder) {
  Simulator sim;
  std::vector<std::uint64_t> fired;
  std::vector<EventHandle> doomed;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const Time at = sim.now() + Duration(static_cast<std::int64_t>(
                                    1000 + (i * 37) % 5000));
    if (i % 3 == 0) {
      sim.schedule_at(at, [&fired, i] { fired.push_back(i); });
    } else {
      doomed.push_back(sim.schedule_at(at, [] { ADD_FAILURE(); }));
    }
  }
  for (EventHandle& h : doomed) EXPECT_TRUE(sim.cancel(h));
  sim.run_all();
  EXPECT_EQ(fired.size(), 667u);
  // The (time, seq) contract: time ascending, then insertion order.
  EXPECT_TRUE(std::is_sorted(
      fired.begin(), fired.end(), [](std::uint64_t a, std::uint64_t b) {
        const auto ta = 1000 + (a * 37) % 5000;
        const auto tb = 1000 + (b * 37) % 5000;
        return ta != tb ? ta < tb : a < b;
      }));
}

}  // namespace
}  // namespace rtcm::sim
