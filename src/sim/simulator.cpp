#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <utility>

namespace rtcm::sim {

namespace {
/// Below this many stored entries, compaction is never worth the sweep.
constexpr std::size_t kCompactMinEntries = 256;
}  // namespace

Simulator::Simulator() {
  wheel_.resize(static_cast<std::size_t>(kWheelLevels) * kWheelSlots);
}

std::uint32_t Simulator::acquire_slot(EventFn fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].fn = std::move(fn);
  return slot;
}

void Simulator::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  // Stale handles and lazy queue entries both die on this bump.
  ++s.gen;
  free_slots_.push_back(slot);
  --live_;
}

void Simulator::wheel_place(const Entry& entry) {
  // Level = most significant base-64 digit where the event time differs
  // from now.  Because now only grows, a stored level is only ever too
  // *high* for a later reference instant, never too low — wheel_advance's
  // path cascade re-files such entries before they can be missed.
  const std::uint64_t u = static_cast<std::uint64_t>(entry.time_usec);
  const std::uint64_t diff = u ^ static_cast<std::uint64_t>(now_.usec());
  const int level =
      diff == 0 ? 0 : (std::bit_width(diff) - 1) / kSlotBits;
  const std::uint64_t slot = digit(entry.time_usec, level);
  bucket(level, slot).push_back(entry);
  occupied_[level] |= std::uint64_t{1} << slot;
}

void Simulator::wheel_purge_bucket(int level, std::uint64_t slot) {
  std::vector<Entry>& b = bucket(level, slot);
  assert(wheel_dead_ >= b.size());
  wheel_dead_ -= b.size();
  b.clear();
  occupied_[level] &= ~(std::uint64_t{1} << slot);
}

void Simulator::wheel_advance(Time t) {
  const std::uint64_t oldu = static_cast<std::uint64_t>(now_.usec());
  const std::uint64_t newu = static_cast<std::uint64_t>(t.usec());
  assert(newu >= oldu && "time cannot move backwards");
  now_ = t;
  const std::uint64_t diff = oldu ^ newu;
  if (diff == 0) return;
  const int top = (std::bit_width(diff) - 1) / kSlotBits;
  // Cascade the new instant's digit path top-down.  Entries here match
  // now_ at their bucket's digit, so re-placing files them strictly below
  // their source level (level 0 for events at exactly now_) and never onto
  // another path bucket — each entry is touched once per advance, and at
  // most kWheelLevels times over its whole life.
  for (int l = top; l >= 1; --l) {
    const std::uint64_t slot = digit(t.usec(), l);
    if ((occupied_[l] & (std::uint64_t{1} << slot)) == 0) continue;
    std::vector<Entry>& b = bucket(l, slot);
    occupied_[l] &= ~(std::uint64_t{1} << slot);
    for (const Entry& e : b) {
      if (entry_dead(e)) {
        --wheel_dead_;
        continue;
      }
      wheel_place(e);
    }
    b.clear();
  }
}

bool Simulator::wheel_settle() {
  // Fast path: a live entry already at the head of the sorted due batch.
  while (due_idx_ < due_.size()) {
    if (!entry_dead(due_[due_idx_])) {
      wheel_front_ = {due_[due_idx_].time_usec, due_[due_idx_].seq};
      return true;
    }
    ++due_idx_;
    --wheel_dead_;
  }
  if (!due_.empty()) {
    due_.clear();  // keeps capacity for the next bucket pull
    due_idx_ = 0;
  }
  if (live_ == 0) {
    // Everything stored is dead — reap it now so an emptied-out simulator
    // leaves no residue behind (and the next workload's buckets start at
    // their warmed capacity, not warmed-capacity-minus-leftover-dead).
    if (wheel_dead_ != 0) {
      for (int l = 0; l < kWheelLevels; ++l) {
        std::uint64_t mask = occupied_[l];
        while (mask != 0) {
          wheel_purge_bucket(
              l, static_cast<std::uint64_t>(std::countr_zero(mask)));
          mask &= mask - 1;
        }
      }
      assert(wheel_dead_ == 0);
    }
    return false;
  }
  // Scan levels bottom-up.  A live entry stored at level l matches now_ on
  // every digit above l and exceeds now_'s digit at l, so (a) within a
  // level, lower slots hold earlier events, and (b) any live entry at a
  // lower level beats every live entry at a higher one — the first bucket
  // with a live entry wins, and it is dismantled by the dispatch that
  // follows (pulled into due_ or cascaded by wheel_advance), so its
  // content scan is not repeated.
  for (int l = 0; l < kWheelLevels; ++l) {
    const std::uint64_t p = digit(now_.usec(), l);
    // Level 0's path bucket holds events at exactly now_; path buckets at
    // higher levels are always empty (wheel_advance cascades them and a
    // fresh placement's slot digit differs from now_'s by construction),
    // so levels >= 1 scan strictly above the path.
    std::uint64_t mask =
        l == 0 ? occupied_[0] & (~std::uint64_t{0} << p)
        : p >= kSlotMask
            ? 0
            : occupied_[l] & (~std::uint64_t{0} << (p + 1));
    while (mask != 0) {
      const auto slot = static_cast<std::uint64_t>(std::countr_zero(mask));
      const std::vector<Entry>& b = bucket(l, slot);
      const Entry* best = nullptr;
      for (const Entry& e : b) {
        if (!entry_dead(e) && (best == nullptr || before(e, *best))) {
          best = &e;
        }
      }
      if (best != nullptr) {
        wheel_front_ = {best->time_usec, best->seq};
        return true;
      }
      wheel_purge_bucket(l, slot);
      mask &= mask - 1;
    }
  }
  // Unreachable: every live entry sits at or above now_'s digit path, and
  // the 11 levels cover every instant, so the scan above always finds it.
  assert(false && "live_ > 0 implies a reachable live entry");
  return false;
}

void Simulator::wheel_dispatch_front() {
  // wheel_settle() has already run: the earliest live event is at
  // wheel_front_.  Commit time first; the cascade then guarantees the front
  // sits either at the head of due_ or in level 0's path bucket.
  if (wheel_front_.time_usec != now_.usec()) {
    wheel_advance(Time(wheel_front_.time_usec));
  }
  for (;;) {
    if (due_idx_ < due_.size()) {
      const Entry e = due_[due_idx_];
      ++due_idx_;
      if (entry_dead(e)) {
        --wheel_dead_;
        continue;
      }
      assert(e.time_usec == now_.usec());
      EventFn fn = std::move(slots_[e.slot].fn);
      release_slot(e.slot);
      ++executed_;
      fn();
      return;
    }
    due_.clear();
    due_idx_ = 0;
    const std::uint64_t slot = digit(now_.usec(), 0);
    std::vector<Entry>& b = bucket(0, slot);
    assert(!b.empty() && "settled front must be reachable");
    // Copy rather than swap: due_ keeps its high-water capacity and the
    // bucket keeps its own, so steady-state dispatch allocates nothing (a
    // swap would leave the bucket with due_'s *previous* capacity, one pull
    // behind what it needs).
    due_.insert(due_.end(), b.begin(), b.end());
    b.clear();
    occupied_[0] &= ~(std::uint64_t{1} << slot);
    // The bucket is already in (time, seq) order, so it needs no sort.
    // Its live entries share one instant; take two of them, a before b in
    // seq order.  reschedule() files a new entry with a fresh seq instead
    // of editing one in place, so a was filed before b.  When b was filed,
    // a sat in the very bucket b went to: the cascade is eager (every
    // advance empties the path buckets above level 0), so a stored entry
    // is always filed at its time's exact level relative to now_, and that
    // level and slot depend only on the shared time.  a was therefore
    // appended first, and every cascade since moved the pair together, in
    // bucket order.  In particular an entry cascaded down from level >= 1
    // reaches level 0 before any later-seq entry for its instant can be
    // placed there directly.  Dead entries keep that order too, and those
    // left from older laps carry earlier times and earlier seqs.
    assert(std::is_sorted(due_.begin(), due_.end(), before<Entry, Entry>));
  }
}

void Simulator::note_dead_entry() {
  ++wheel_dead_;
  // Sweep every bucket once dead entries outnumber live ones, so
  // cancel/reschedule storms keep queue memory O(live) at O(1) amortized
  // cost: a sweep discards more dead entries than it keeps live ones, and
  // each dead entry paid for itself when it was created.  The sweep also
  // reaps buckets the scan window has moved past (slots below now_'s digit
  // path hold only dead entries).
  if (wheel_dead_ <= kCompactMinEntries || wheel_dead_ <= live_) return;
  for (int l = 0; l < kWheelLevels; ++l) {
    std::uint64_t mask = occupied_[l];
    while (mask != 0) {
      const auto slot = static_cast<std::uint64_t>(std::countr_zero(mask));
      mask &= mask - 1;
      std::vector<Entry>& b = bucket(l, slot);
      std::erase_if(b, [this](const Entry& e) { return entry_dead(e); });
      if (b.empty()) occupied_[l] &= ~(std::uint64_t{1} << slot);
    }
  }
  // Drop due_'s consumed prefix, then its dead entries; the live tail keeps
  // its (already sorted) order.
  due_.erase(due_.begin(), due_.begin() + static_cast<std::ptrdiff_t>(due_idx_));
  due_idx_ = 0;
  std::erase_if(due_, [this](const Entry& e) { return entry_dead(e); });
  wheel_dead_ = 0;
}

EventHandle Simulator::schedule_at(Time at, EventFn fn) {
  assert(at >= now_ && "cannot schedule in the past");
  assert(fn && "null event callback");
  const std::uint32_t slot = acquire_slot(std::move(fn));
  const std::uint32_t gen = slots_[slot].gen;
  const Entry entry{at.usec(), next_seq_++, slot, gen};
  wheel_place(entry);
  ++live_;
  return EventHandle(slot, gen);
}

EventHandle Simulator::schedule_after(Duration delay, EventFn fn) {
  assert(!delay.is_negative());
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::cancel(EventHandle handle) {
  if (!handle.valid() || handle.slot_ >= slots_.size()) return false;
  if (slots_[handle.slot_].gen != handle.gen_) return false;
  assert(slots_[handle.slot_].fn && "live generation implies armed slot");
  release_slot(handle.slot_);
  note_dead_entry();
  return true;
}

bool Simulator::reschedule(EventHandle& handle, Time at) {
  assert(at >= now_ && "cannot reschedule into the past");
  if (!handle.valid() || handle.slot_ >= slots_.size()) return false;
  Slot& s = slots_[handle.slot_];
  if (s.gen != handle.gen_) return false;
  assert(s.fn && "live generation implies armed slot");
  ++s.gen;  // the currently-queued entry is now dead
  const Entry entry{at.usec(), next_seq_++, handle.slot_, s.gen};
  wheel_place(entry);
  handle.gen_ = s.gen;
  note_dead_entry();
  return true;
}

void Simulator::set_feed_sink(FeedSink sink) { feed_sink_ = std::move(sink); }

void Simulator::reclaim_feed() {
  feed_.erase(feed_.begin(),
              feed_.begin() + static_cast<std::ptrdiff_t>(feed_idx_));
  feed_idx_ = 0;
}

void Simulator::reserve_feed(std::size_t n) {
  reclaim_feed();
  feed_.reserve(feed_.size() + n);
}

void Simulator::feed(Time at, std::uint64_t tag) {
  assert(at >= now_ && "cannot feed an event in the past");
  // A full vector drops its consumed prefix before it regrows.
  if (feed_.size() == feed_.capacity() && feed_idx_ != 0) reclaim_feed();
  const FeedRecord record{at.usec(), next_seq_++, tag};
  // The new seq is the largest, so only an earlier time breaks the order.
  if (feed_idx_ < feed_.size() && record.time_usec < feed_.back().time_usec) {
    feed_sorted_ = false;
  }
  feed_.push_back(record);
}

void Simulator::feed_dispatch_front() {
  const FeedRecord record = feed_[feed_idx_];
  if (++feed_idx_ == feed_.size()) {
    feed_.clear();  // keeps capacity for the next batch
    feed_idx_ = 0;
  }
  if (record.time_usec != now_.usec()) wheel_advance(Time(record.time_usec));
  assert(feed_sink_ && "fed event without a feed sink");
  ++executed_;
  feed_sink_(record.tag);
}

bool Simulator::dispatch_next(std::int64_t deadline) {
  // Settle once per dispatch: wheel_dispatch_front assumes a settled front,
  // so the dead-entry scan runs exactly once per event.
  const bool wheel = wheel_settle();
  if (feed_idx_ < feed_.size()) {
    if (!feed_sorted_) {
      // Seqs are unique, so sorting the remainder by (time, seq) merges
      // the out-of-order appends into it exactly.
      reclaim_feed();
      std::sort(feed_.begin(), feed_.end(), before<FeedRecord, FeedRecord>);
      feed_sorted_ = true;
    }
    const FeedRecord& front = feed_[feed_idx_];
    if (!wheel || before(front, wheel_front_)) {
      if (front.time_usec > deadline) return false;
      feed_dispatch_front();
      return true;
    }
  }
  if (!wheel || wheel_front_.time_usec > deadline) return false;
  wheel_dispatch_front();
  return true;
}

bool Simulator::step() {
  return dispatch_next(std::numeric_limits<std::int64_t>::max());
}

void Simulator::run_until(Time deadline) {
  while (dispatch_next(deadline.usec())) {
  }
  // Commit the horizon through wheel_advance, not a bare assignment: the
  // digit path must stay cascaded for every observable now_.
  if (now_ < deadline) wheel_advance(deadline);
}

void Simulator::run_all() {
  while (step()) {
  }
}

}  // namespace rtcm::sim
