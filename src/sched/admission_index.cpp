#include "sched/admission_index.h"

#include <cassert>

namespace rtcm::sched {

namespace {

/// Cached-term form of the lhs_with_overlay() saturation guard: a processor
/// at (or numerically beyond) full utilization carries the sentinel.
bool is_saturated(double total) { return total >= 1.0 - kAubEpsilon; }

double term_of(double total) {
  return is_saturated(total) ? kAubUnsatisfiable : aub_term(total);
}

/// The overlay entry for `proc` (by processor, or by resolved proc-entry
/// index), or null.  Every registered visit has an entry index, so an
/// overlay entry resolved to kNoEntry — a processor the index has never
/// seen — can never match by index.
template <typename Entry>
const Entry* find_proc(const std::vector<Entry>& overlay, ProcessorId proc) {
  for (const Entry& e : overlay) {
    if (e.proc == proc) return &e;
  }
  return nullptr;
}
template <typename Entry>
const Entry* find_index(const std::vector<Entry>& overlay,
                        std::uint32_t index) {
  for (const Entry& e : overlay) {
    if (e.index == index) return &e;
  }
  return nullptr;
}

}  // namespace

AdmissionIndex::AdmissionIndex(util::MonotonicArena* arena)
    : own_arena_(arena == nullptr ? std::make_unique<util::MonotonicArena>()
                                  : nullptr),
      arena_(arena == nullptr ? own_arena_.get() : arena) {}

std::uint32_t AdmissionIndex::intern(ProcessorId proc) {
  const std::uint32_t found = proc_index_.lookup(proc.value());
  if (found != kNoEntry) return found;
  const auto entry = static_cast<std::uint32_t>(proc_ids_.size());
  proc_index_.insert(proc.value(), entry);
  proc_ids_.push_back(proc);
  term_.push_back(0.0);
  proc_saturated_.push_back(0);
  members_.emplace_back();
  return entry;
}

FootprintId AdmissionIndex::add_footprint(
    TaskId task, std::span<const ProcessorId> processors,
    const UtilizationLedger& ledger) {
  const auto [slot, fresh] = slots_.acquire();
  if (fresh) {
    task_.push_back(task);
    round_.push_back(0);
    visits_.emplace_back();
  } else {
    task_[slot] = task;
    round_[slot] = 0;
    visits_[slot].clear();  // keeps any spill buffer for reuse
  }
  util::SmallVec<Visit, 4>& visits = visits_[slot];
  for (const ProcessorId proc : processors) {
    assert(proc.valid());
    const std::uint32_t entry = intern(proc);
    bool merged = false;
    for (Visit& v : visits) {
      if (v.entry == entry) {
        ++v.count;
        merged = true;
        break;
      }
    }
    if (!merged) visits.push_back({entry, 1, 0}, *arena_);
  }
  for (Visit& v : visits) {
    std::vector<std::uint32_t>& members = members_[v.entry];
    if (members.empty()) {
      // First member (again): sync the entry's term from the ledger.  A
      // memberless entry skips refresh(), so its term may be stale.
      const double total = ledger.total(proc_ids_[v.entry]);
      term_[v.entry] = term_of(total);
      proc_saturated_[v.entry] = is_saturated(total) ? 1 : 0;
    }
    v.member_slot = static_cast<std::uint32_t>(members.size());
    members.push_back(slot);
  }
  return FootprintId(slots_.handle(slot));
}

void AdmissionIndex::remove_footprint(FootprintId id) {
  const std::uint32_t slot = slots_.slot_of(id.v_);
  if (slot == util::SlotAllocator::kNoSlot) return;
  for (const Visit& v : visits_[slot]) {
    std::vector<std::uint32_t>& members = members_[v.entry];
    assert(v.member_slot < members.size() && members[v.member_slot] == slot);
    const std::uint32_t moved = members.back();
    members[v.member_slot] = moved;
    members.pop_back();
    if (moved != slot) {
      // Fix the swapped-in footprint's back-pointer for this processor.
      for (Visit& ov : visits_[moved]) {
        if (ov.entry == v.entry) {
          ov.member_slot = v.member_slot;
          break;
        }
      }
    }
    // The proc entry stays (members vector capacity and all); its term is
    // re-synced from the ledger when the next footprint joins it.
  }
  slots_.release(slot);
}

void AdmissionIndex::refresh(ProcessorId proc,
                             const UtilizationLedger& ledger) {
  const std::uint32_t entry = proc_index_.lookup(proc.value());
  if (entry == kNoEntry) return;
  if (members_[entry].empty()) return;  // re-synced on the next join
  const double total = ledger.total(proc);
  term_[entry] = term_of(total);
  proc_saturated_[entry] = is_saturated(total) ? 1 : 0;
}

double AdmissionIndex::cached_lhs(FootprintId id) const {
  const std::uint32_t slot = slots_.slot_of(id.v_);
  assert(slot != util::SlotAllocator::kNoSlot);
  if (slot == util::SlotAllocator::kNoSlot) return 0.0;
  double lhs = 0.0;
  for (const Visit& v : visits_[slot]) {
    if (proc_saturated_[v.entry] != 0) return kAubUnsatisfiable;
    lhs += v.count * term_[v.entry];
  }
  return lhs;
}

std::size_t AdmissionIndex::fanout(ProcessorId proc) const {
  const std::uint32_t entry = proc_index_.lookup(proc.value());
  return entry == kNoEntry ? 0 : members_[entry].size();
}

std::size_t AdmissionIndex::footprint_bytes() const {
  std::size_t bytes =
      slots_.footprint_bytes() + task_.capacity() * sizeof(TaskId) +
      round_.capacity() * sizeof(std::uint64_t) +
      visits_.capacity() * sizeof(util::SmallVec<Visit, 4>) +
      proc_index_.footprint_bytes() +
      proc_ids_.capacity() * sizeof(ProcessorId) +
      term_.capacity() * sizeof(double) + proc_saturated_.capacity() +
      members_.capacity() * sizeof(std::vector<std::uint32_t>);
  for (const std::vector<std::uint32_t>& m : members_) {
    bytes += m.capacity() * sizeof(std::uint32_t);
  }
  return bytes;
}

AdmissionDecision AdmissionIndex::admission_test(
    const UtilizationLedger& ledger, TaskId candidate,
    std::span<const CandidateStage> stages) const {
  AdmissionDecision decision;

  overlay_.clear();
  for (const CandidateStage& s : stages) {
    assert(s.processor.valid());
    assert(s.utilization >= 0.0);
    bool merged = false;
    for (OverlayEntry& e : overlay_) {
      if (e.proc == s.processor) {
        e.amount += s.utilization;
        merged = true;
        break;
      }
    }
    if (!merged) overlay_.push_back({s.processor, s.utilization, 0});
  }
  for (OverlayEntry& o : overlay_) {
    o.index = proc_index_.lookup(o.proc.value());
  }

  // The candidate itself, with the same per-stage arithmetic as the
  // reference aub_admission_test (so candidate_lhs is bit-identical).
  double candidate_lhs = 0.0;
  for (const CandidateStage& s : stages) {
    const double u =
        ledger.total(s.processor) + find_proc(overlay_, s.processor)->amount;
    if (u >= 1.0 - kAubEpsilon) {
      candidate_lhs = kAubUnsatisfiable;
      break;
    }
    candidate_lhs += aub_term(u);
  }
  decision.candidate_lhs = candidate_lhs;
  if (candidate_lhs > 1.0 + kAubEpsilon) {
    decision.admitted = false;
    decision.blocking_task = candidate;
    return decision;
  }

  // Only footprints sharing a processor with the candidate can change LHS;
  // everything else passed when it was last affected and is bitwise
  // unchanged by this overlay.  Each affected footprint's LHS is summed
  // from its visit list — overlaid processors at their tentative terms,
  // the rest at their (always current) cached terms.
  ++round_counter_;
  for (const OverlayEntry& o : overlay_) {
    if (o.index == kNoEntry) continue;
    for (const std::uint32_t slot : members_[o.index]) {
      if (round_[slot] == round_counter_) continue;
      round_[slot] = round_counter_;
      double lhs = 0.0;
      for (const Visit& v : visits_[slot]) {
        const OverlayEntry* a = find_index(overlay_, v.entry);
        if (a != nullptr) {
          const double u = ledger.total(a->proc) + a->amount;
          if (u >= 1.0 - kAubEpsilon) {
            lhs = kAubUnsatisfiable;
            break;
          }
          lhs += v.count * aub_term(u);
        } else if (proc_saturated_[v.entry] != 0) {
          lhs = kAubUnsatisfiable;
          break;
        } else {
          lhs += v.count * term_[v.entry];
        }
      }
      if (lhs > 1.0 + kAubEpsilon) {
        decision.admitted = false;
        decision.failed_on_existing = true;
        decision.blocking_task = task_[slot];
        return decision;
      }
    }
  }

  decision.admitted = true;
  return decision;
}

}  // namespace rtcm::sched
