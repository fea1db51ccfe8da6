// Discrete-event simulation engine.
//
// The engine owns virtual time.  Work is expressed as closures scheduled at
// absolute instants; the engine runs them in (time, insertion order) so a
// given program is fully deterministic.
//
// The queue is built for throughput — every paper figure and sweep cell is
// produced through it, so event dispatch is the hottest path in the
// codebase.  Events are ordered by a hierarchical timer wheel: 11 levels of
// 64 buckets (level l buckets span 64^l microseconds; 66 bits cover every
// non-negative int64 instant, so no event ever falls outside the wheel) and
// a 64-bit occupancy bitmap per level, so advancing to the next event skips
// empty buckets with a count-trailing-zeros.  Scheduling appends to the
// bucket of the highest base-64 digit where the event time differs from
// now (O(1)); as time advances, buckets on the new instant's digit path
// cascade down one level at a time, so each event is touched at most once
// per level before it reaches a level-0 bucket, whose entries share a
// single microsecond and dispatch in sequence order.  Bulk drains stay
// O(1) amortized per event.
//
// Around the wheel:
//   - callbacks live in a slab of generation-counted slots recycled through
//     a free list, stored as small-buffer `EventFn` delegates: scheduling
//     performs zero heap allocations for captures within the inline
//     capacity,
//   - cancellation is O(1) and lazy: the slot is released (and its
//     generation bumped) immediately, and the dead queue entry is skipped
//     when it surfaces,
//   - `reschedule` moves a pending event to a new instant while keeping its
//     slot and callback — the preemptive processor model re-times its
//     completion event this way instead of cancel + re-allocate,
//   - cancel/reschedule storms cannot grow queue memory without bound:
//     when dead entries outnumber live ones the buckets are swept in place,
//     keeping stored entries O(live) at O(1) amortized cost.
//
// Dispatch order is exactly the historical (time, seq) contract: seq is
// consumed once per schedule/reschedule, so traces stay byte-identical.
// tests/sim_kernel_test.cpp replays randomized churn against an
// independent reference queue to hold the wheel to that contract.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/inline_fn.h"
#include "util/time.h"

namespace rtcm::sim {

/// Event callback.  The inline capacity covers every capture the middleware
/// schedules on the hot path (the largest is the federated channel's
/// per-destination event copy, 88 bytes); larger captures fall back to one
/// heap allocation.
using EventFn = InlineFunction<void(), 88>;

/// Identifies one scheduled event for cancellation or rescheduling.  A
/// handle is a (slot, generation) pair: the slot's generation moves on when
/// the event fires, is cancelled, or is rescheduled, so stale handles —
/// including handles to a slot since recycled for another event — are
/// detected in O(1).  Default-constructed handles are inert.
class EventHandle {
 public:
  constexpr EventHandle() = default;
  [[nodiscard]] constexpr bool valid() const { return slot_ != kNone; }
  constexpr void reset() {
    slot_ = kNone;
    gen_ = 0;
  }

 private:
  friend class Simulator;
  static constexpr std::uint32_t kNone = 0xffffffffu;
  constexpr EventHandle(std::uint32_t slot, std::uint32_t gen)
      : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = kNone;
  std::uint32_t gen_ = 0;
};

class Simulator {
 public:
  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedule `fn` at absolute time `at` (>= now).
  EventHandle schedule_at(Time at, EventFn fn);

  /// Schedule `fn` after a relative delay (>= 0).
  EventHandle schedule_after(Duration delay, EventFn fn);

  /// Cancel a pending event.  Returns false if it already ran, was already
  /// cancelled, or the handle is inert or stale.  O(1): the callback is
  /// destroyed and the slot recycled now; the queue entry dies lazily.
  bool cancel(EventHandle handle);

  /// Move a still-pending event to `at` (>= now), keeping its callback and
  /// slot.  The event is ordered as if freshly scheduled (it consumes a new
  /// sequence number) and `handle` is revalidated in place.  Returns false
  /// — scheduling nothing — when the handle is dead, so callers fall back
  /// to schedule_at.
  bool reschedule(EventHandle& handle, Time at);

  /// Run a single event; returns false if the queue is empty.
  bool step();

  /// Run events until the queue is empty or `deadline` is passed.  Events
  /// scheduled exactly at `deadline` still run.  Time is left at the later
  /// of the last event time and `deadline` (when the horizon was reached).
  void run_until(Time deadline);

  /// Run until the event queue drains completely.
  void run_all();

  /// Number of pending (scheduled and not cancelled) events.
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Entries currently stored in the ordering structure (live + lazily
  /// dead).  Exposed so tests can pin the compaction bound: cancel or
  /// reschedule storms must keep this O(pending()), not O(total churn).
  [[nodiscard]] std::size_t queue_entries() const {
    return live_ + wheel_dead_;
  }

 private:
  /// One queue entry: the ordering key plus the slot the callback lives in.
  /// `gen` snapshots the slot generation at (re)schedule time; a mismatch
  /// when the entry surfaces means the event was cancelled or rescheduled.
  struct Entry {
    std::int64_t time_usec;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };

  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;
  };

  // Wheel geometry: 11 levels of 64 buckets.  Level l holds events whose
  // time first differs from now in base-64 digit l, i.e. between 64^l and
  // 64^(l+1) microseconds of shared-prefix distance.  11 * 6 = 66 bits
  // cover every non-negative int64 instant, so every event has a level.
  static constexpr int kSlotBits = 6;
  static constexpr std::uint64_t kWheelSlots = 1u << kSlotBits;
  static constexpr int kWheelLevels = 11;
  static constexpr std::uint64_t kSlotMask = kWheelSlots - 1;
  static_assert(kSlotBits * kWheelLevels >= 63,
                "the wheel must span every non-negative int64 instant");

  [[nodiscard]] static bool before(const Entry& a, const Entry& b) {
    return a.time_usec != b.time_usec ? a.time_usec < b.time_usec
                                      : a.seq < b.seq;
  }
  [[nodiscard]] bool entry_dead(const Entry& e) const {
    return slots_[e.slot].gen != e.gen;
  }

  [[nodiscard]] static std::uint64_t digit(std::int64_t usec, int level) {
    return (static_cast<std::uint64_t>(usec) >> (kSlotBits * level)) &
           kSlotMask;
  }
  [[nodiscard]] std::vector<Entry>& bucket(int level, std::uint64_t slot) {
    return wheel_[static_cast<std::size_t>(level) * kWheelSlots + slot];
  }
  /// File an entry by the highest base-64 digit where its time differs from
  /// now_ (level 0 when equal).
  void wheel_place(const Entry& entry);
  /// Commit virtual time to `t` (>= now_): advances now_ and cascades the
  /// buckets on the new instant's digit path down to level 0.  Every now_
  /// change goes through here so placements are never stale *below* the
  /// digit path (only ever filed too high, which the path cascade heals).
  void wheel_advance(Time t);
  /// Discard an entire bucket of dead entries.
  void wheel_purge_bucket(int level, std::uint64_t slot);
  /// Settle the wheel on its earliest live event: skips dead entries and
  /// leaves the front's time in wheel_front_time_.  Returns false when no
  /// live event remains.
  bool wheel_settle();
  /// Run the (settled, live) front event; advances now_ to it first.
  void wheel_dispatch_front();

  std::uint32_t acquire_slot(EventFn fn);
  void release_slot(std::uint32_t slot);
  /// New dead entry just created by cancel/reschedule: count it and sweep
  /// the buckets if dead entries now dominate.
  void note_dead_entry();

  Time now_ = Time::epoch();
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::vector<Slot> slots_;                // slab of callbacks
  std::vector<std::uint32_t> free_slots_;  // LIFO recycler (deterministic)

  // wheel_ is level-major: level l's buckets occupy [l * 64, (l + 1) * 64).
  // occupied_[l] has bit s set iff bucket (l, s) is non-empty (live or dead
  // entries).
  std::vector<std::vector<Entry>> wheel_;
  std::array<std::uint64_t, kWheelLevels> occupied_{};
  /// The level-0 bucket currently being dispatched, sorted by (time, seq);
  /// due_idx_ is the dispatch cursor.  Kept as a member so its capacity is
  /// reused and so callbacks scheduling at the current instant append to
  /// the (now empty) level-0 bucket, which is re-pulled when due_ drains.
  std::vector<Entry> due_;
  std::size_t due_idx_ = 0;
  /// Dead entries currently stored across buckets and the due_ tail.
  std::size_t wheel_dead_ = 0;
  /// Time of the live front event found by wheel_settle().
  std::int64_t wheel_front_time_ = 0;
};

}  // namespace rtcm::sim
