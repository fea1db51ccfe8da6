// Interned per-stage placements carried by Accept and Trigger events.
//
// A placement (one processor per stage) is decided by the AC once per
// admission and then travels with the job: Accept -> TE release -> Trigger
// -> Trigger -> ... -> Last Subtask.  Carrying it as an owning vector made
// every hop copy it onto the heap.  Instead the AC interns each placement
// here, and events carry a std::span into the table: copying a payload is
// copying a pointer and a length.
//
// The table is append-only and deduplicated: equal placements share one
// entry (intern() returns the identical span), so its size is bounded by
// the number of distinct placements the run produces, not by the number of
// jobs.  Entries are never moved or freed before the table dies, so a span
// stays valid while the table grows; the federated channel owns the table,
// which makes every in-flight event's placement outlive its delivery.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/arena.h"
#include "util/ids.h"

namespace rtcm::events {

/// A placement as events carry it: a view into a PlacementTable (or, in
/// tests and standalone callers, into any storage that outlives the event).
using Placement = std::span<const ProcessorId>;

class PlacementTable {
 public:
  PlacementTable() = default;
  PlacementTable(const PlacementTable&) = delete;
  PlacementTable& operator=(const PlacementTable&) = delete;

  /// The table's copy of `placement`, added on first sight.  Equal
  /// placements get the identical span; an empty placement stays empty.
  /// Allocation-free once the placement has been interned before.
  [[nodiscard]] Placement intern(std::span<const ProcessorId> placement);

  /// Distinct non-empty placements interned so far.
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  static constexpr std::uint32_t kEmpty = 0;  // buckets_ hold entry + 1

  [[nodiscard]] static std::uint64_t hash(std::span<const ProcessorId> p);
  void grow();

  /// Entry storage: small blocks, so an idle table costs next to nothing.
  util::MonotonicArena arena_{1024};
  std::vector<Placement> entries_;
  std::vector<std::uint64_t> hashes_;  // hash of entries_[i]
  /// Open-addressing index over entries_ (linear probing, power-of-two).
  std::vector<std::uint32_t> buckets_;
};

}  // namespace rtcm::events
