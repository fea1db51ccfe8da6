#include "events/placement_table.h"

#include <algorithm>
#include <memory>

namespace rtcm::events {

std::uint64_t PlacementTable::hash(std::span<const ProcessorId> p) {
  // FNV-1a over the processor ids; placements are a handful of stages.
  std::uint64_t h = 14695981039346656037ull ^ p.size();
  for (const ProcessorId proc : p) {
    h ^= static_cast<std::uint32_t>(proc.value());
    h *= 1099511628211ull;
  }
  return h;
}

Placement PlacementTable::intern(std::span<const ProcessorId> placement) {
  if (placement.empty()) return {};
  const std::uint64_t h = hash(placement);
  if (!buckets_.empty()) {
    const std::size_t mask = buckets_.size() - 1;
    for (std::size_t i = h & mask; buckets_[i] != kEmpty;
         i = (i + 1) & mask) {
      const std::uint32_t e = buckets_[i] - 1;
      if (hashes_[e] == h && std::ranges::equal(entries_[e], placement)) {
        return entries_[e];
      }
    }
  }

  // Grow at 50% load, before placing the new entry.
  if ((entries_.size() + 1) * 2 > buckets_.size()) grow();
  ProcessorId* stored = arena_.allocate_array<ProcessorId>(placement.size());
  std::uninitialized_copy(placement.begin(), placement.end(), stored);
  const Placement entry(stored, placement.size());
  entries_.push_back(entry);
  hashes_.push_back(h);
  const std::size_t mask = buckets_.size() - 1;
  std::size_t i = h & mask;
  while (buckets_[i] != kEmpty) i = (i + 1) & mask;
  buckets_[i] = static_cast<std::uint32_t>(entries_.size());
  return entry;
}

void PlacementTable::grow() {
  buckets_.assign(buckets_.empty() ? 16 : buckets_.size() * 2, kEmpty);
  const std::size_t mask = buckets_.size() - 1;
  for (std::size_t e = 0; e < entries_.size(); ++e) {
    std::size_t i = hashes_[e] & mask;
    while (buckets_[i] != kEmpty) i = (i + 1) & mask;
    buckets_[i] = static_cast<std::uint32_t>(e + 1);
  }
}

}  // namespace rtcm::events
