// Incremental AUB admission aggregates.
//
// The reference admission test (sched/aub.h) re-evaluates Equation (1) for
// *every* admitted footprint on *every* arrival, so per-arrival cost grows
// O(task set x footprint) and a cell stalls long before 10^5 resident
// tasks.  The condition only depends on per-processor synthetic-utilization
// totals, so almost all of that rescan is redundant: a candidate can only
// change the LHS of footprints that share a processor with it.
//
// This index maintains, on top of the ledger's totals:
//   - per-processor aUB-term aggregates: aub_term(U_p), recomputed exactly
//     once — in O(1) — whenever a processor's total changes;
//   - an inverted processor -> footprints index, so the footprints affected
//     by a candidate are found in O(candidate footprint), not O(task set);
//   - per-footprint visit lists (distinct processor, visit count), from
//     which a footprint's LHS is summed on demand: at most a handful of
//     count x term products per affected footprint, read against terms that
//     are always current.
//
// Terms are *lazy*: a ledger change costs O(1) per touched processor
// (refresh just stores the new term), and the O(fan-out) work of judging
// the footprints on that processor is deferred to the admission tests that
// actually need it — whose member loop walks each affected footprint's
// visit list anyway to resolve the candidate overlay, so summing the LHS
// there adds no extra memory traffic.  This is what makes admit/expire
// churn O(stages) per job instead of O(stages x fan-out).
//
// admission_test() then evaluates Equation (1) for the candidate plus only
// the affected footprints.  Skipping the rest is sound because the book of
// record preserves the invariant "every registered footprint satisfies
// Equation (1)": admissions re-check every footprint they affect, removals
// only lower totals (aub_term is monotone), and an untouched footprint's
// LHS is bitwise unchanged by a candidate that shares no processor with it.
// The reference test remains available as a cross-check oracle
// (RTCM_CHECK_ADMISSION_ORACLE in core/admission_control.cpp).
//
// Storage is struct-of-arrays: footprints live in a generation-counted
// slab (parallel task / lhs / saturation / visit columns; FootprintId is
// the packed slab handle), processors in dense entries addressed by an
// id -> slot table, and each footprint's visit list sits inline in its row
// (<= 4 distinct processors) spilling into the owning cell's
// MonotonicArena beyond that.  Admit/expire churn at fixed capacity is
// allocation-free once the slab is warm.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "sched/aub.h"
#include "sched/utilization_ledger.h"
#include "util/arena.h"
#include "util/ids.h"
#include "util/slab.h"
#include "util/small_vec.h"

namespace rtcm::sched {

/// Opaque handle for one registered footprint.  Default-constructed handles
/// are inert.
class FootprintId {
 public:
  constexpr FootprintId() = default;
  [[nodiscard]] constexpr bool valid() const { return v_ != 0; }
  constexpr auto operator<=>(const FootprintId&) const = default;

 private:
  friend class AdmissionIndex;
  constexpr explicit FootprintId(std::uint64_t v) : v_(v) {}
  std::uint64_t v_ = 0;
};

class AdmissionIndex {
 public:
  /// Spill storage for visit lists longer than the inline capacity comes
  /// from `arena` (a cell-lifetime bump allocator); when null, the index
  /// owns a private arena — convenient for standalone unit-test use.
  explicit AdmissionIndex(util::MonotonicArena* arena = nullptr);

  /// Register an admitted footprint (the ledger contributions for it must
  /// already be in place and refresh()ed, so its processors' cached terms
  /// are current).  Repeated processors are allowed and weigh the per-visit
  /// terms accordingly, exactly like aub_lhs().
  [[nodiscard]] FootprintId add_footprint(
      TaskId task, std::span<const ProcessorId> processors,
      const UtilizationLedger& ledger);

  /// Unregister a footprint (idempotent for inert or stale handles).
  void remove_footprint(FootprintId id);

  /// Re-sync the cached aUB term of `proc` after its ledger total changed.
  /// O(1); a no-op for processors no footprint currently visits (their
  /// terms are re-synced when the next footprint joins them).
  void refresh(ProcessorId proc, const UtilizationLedger& ledger);

  /// Equation (1) for `candidate` placed per `stages`, re-checked only for
  /// the footprints whose processors intersect the candidate's.  Decision-
  /// equivalent to aub_admission_test() over all registered footprints
  /// (blocking_task may name a different witness when several would fail).
  /// Allocation-free once the overlay scratch has seen as many distinct
  /// processors as the longest candidate.
  [[nodiscard]] AdmissionDecision admission_test(
      const UtilizationLedger& ledger, TaskId candidate,
      std::span<const CandidateStage> stages) const;
  [[nodiscard]] AdmissionDecision admission_test(
      const UtilizationLedger& ledger, TaskId candidate,
      std::initializer_list<CandidateStage> stages) const {
    return admission_test(
        ledger, candidate,
        std::span<const CandidateStage>(stages.begin(), stages.size()));
  }

  /// LHS of a registered footprint at the current ledger totals, summed
  /// from its visit list and the cached per-processor terms
  /// (kAubUnsatisfiable when it visits a saturated processor).  The
  /// property tests compare this against a fresh aub_lhs() recompute.
  [[nodiscard]] double cached_lhs(FootprintId id) const;

  /// Number of registered footprints.
  [[nodiscard]] std::size_t footprint_count() const { return slots_.live(); }

  /// Footprints registered on one processor (the inverted-index fan-out a
  /// candidate stage there would have to re-test).
  [[nodiscard]] std::size_t fanout(ProcessorId proc) const;

  /// Heap bytes held by the index's slab columns and proc entries (the
  /// bench's bytes-per-resident-task accounting; arena spill is counted by
  /// the arena's owner).
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  struct Visit {
    std::uint32_t entry = 0;        // dense proc-entry index
    std::uint32_t count = 0;        // visits of this footprint to the proc
    std::uint32_t member_slot = 0;  // position in members_[entry]
  };
  static constexpr std::uint32_t kNoEntry = util::IdSlotMap::kNoSlot;
  /// One processor of the candidate under test, with its tentative
  /// addition summed over the candidate's stages there.
  struct OverlayEntry {
    ProcessorId proc;
    double amount = 0.0;
    std::uint32_t index = 0;  // dense proc-entry index, or kNoEntry
  };

  /// Dense proc entry of `proc`, created (term unset) on first sight.
  std::uint32_t intern(ProcessorId proc);

  // Footprint slab: parallel columns indexed by slot (FootprintId packs
  // slot + generation; released rows are reused via slots_).
  util::SlotAllocator slots_;
  std::vector<TaskId> task_;
  /// admission_test() round markers, so a footprint spanning several of
  /// the candidate's processors is tested once per arrival.
  mutable std::vector<std::uint64_t> round_;
  /// One Visit per distinct processor, inline up to 4, arena spill beyond.
  std::vector<util::SmallVec<Visit, 4>> visits_;

  // Dense proc entries (persistent: a processor keeps its entry — and its
  // members vector's grown capacity — after its last member leaves, so
  // steady-state churn never reallocates).  term is recomputed from the
  // ledger whenever a footprint joins an empty entry, exactly like the
  // map-backed index recomputed it on (re)insert.
  util::IdSlotMap proc_index_;
  std::vector<ProcessorId> proc_ids_;
  std::vector<double> term_;  // aub_term(total), or kAubUnsatisfiable
  std::vector<std::uint8_t> proc_saturated_;
  std::vector<std::vector<std::uint32_t>> members_;  // footprint slots

  mutable std::uint64_t round_counter_ = 0;
  /// admission_test() scratch: the candidate's additions, deduplicated by
  /// processor (stage counts are single digits, so linear scans beat
  /// hashing).  Reused across calls so a test allocates nothing.
  mutable std::vector<OverlayEntry> overlay_;
  std::unique_ptr<util::MonotonicArena> own_arena_;
  util::MonotonicArena* arena_;
};

}  // namespace rtcm::sched
