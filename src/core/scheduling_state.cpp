#include "core/scheduling_state.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <map>

namespace rtcm::core {

// --- Shadow book (oracle mode) ----------------------------------------------
//
// The pre-slab, map-backed book kept as a cross-check: every mutation is
// mirrored with the exact arithmetic (same operations, same order, same
// snap-to-zero rules) the node-based implementation performed, then the
// slab state is compared field by field.  Totals must match *bitwise* —
// both sides run identical double sequences — so any layout bug that
// perturbs accounting aborts immediately instead of drifting a trace.
struct SchedulingState::ShadowBook {
  struct Contribution {
    ProcessorId proc;
    double amount;
  };
  struct JobRec {
    TaskId task;
    std::vector<ProcessorId> placement;
    Time deadline;
    std::vector<sched::ContributionId> contributions;
    sched::FootprintId footprint;
  };
  struct ResRec {
    TaskId task;
    std::vector<ProcessorId> placement;
    std::vector<sched::ContributionId> contributions;
    sched::FootprintId footprint;
  };

  std::map<sched::ContributionId, Contribution> contributions;
  std::map<std::int32_t, double> totals;        // by ProcessorId::value
  std::map<std::int32_t, std::size_t> live;     // by ProcessorId::value
  std::map<std::int32_t, JobRec> jobs;          // by JobId::value
  std::map<std::int32_t, ResRec> reservations;  // by TaskId::value

  void ledger_add(sched::ContributionId id, ProcessorId proc, double amount) {
    contributions.emplace(id, Contribution{proc, amount});
    totals[proc.value()] += amount;
    ++live[proc.value()];
  }

  bool ledger_remove(sched::ContributionId id) {
    const auto it = contributions.find(id);
    if (it == contributions.end()) return false;
    const std::int32_t proc = it->second.proc.value();
    double& total = totals[proc];
    total -= it->second.amount;
    const std::size_t remaining = --live[proc];
    if (remaining == 0) {
      total = 0.0;
    } else if (total < 0.0) {
      total = 0.0;
    }
    contributions.erase(it);
    return true;
  }

  [[noreturn]] static void fail(const char* what) {
    std::fprintf(stderr,
                 "RTCM_CHECK_BOOK_ORACLE: slab book diverged from the "
                 "map-backed shadow: %s\n",
                 what);
    std::abort();
  }

  void verify(const SchedulingState& state) const {
    if (contributions.size() != state.ledger_.live()) {
      fail("live contribution count");
    }
    for (const auto& [proc, total] : totals) {
      if (state.ledger_.total(ProcessorId(proc)) != total) {
        fail("processor total (bitwise)");
      }
    }
    if (jobs.size() != state.job_ids_.size()) fail("active job count");
    for (const auto& [id, rec] : jobs) {
      const std::uint32_t row = state.job_index_.lookup(id);
      if (row == util::IdSlotMap::kNoSlot) fail("job missing from slab");
      if (state.job_task_[row] != rec.task) fail("job task");
      if (state.job_deadline_[row] != rec.deadline) fail("job deadline");
      if (state.job_footprint_[row] != rec.footprint) {
        fail("job footprint handle");
      }
      if (!std::ranges::equal(state.job_placement_[row].span(),
                              rec.placement)) {
        fail("job placement");
      }
      if (!std::ranges::equal(state.job_contrib_[row].span(),
                              rec.contributions)) {
        fail("job contributions");
      }
    }
    if (reservations.size() != state.res_ids_.size()) {
      fail("reservation count");
    }
    for (const auto& [id, rec] : reservations) {
      const std::uint32_t row = state.res_index_.lookup(id);
      if (row == util::IdSlotMap::kNoSlot) {
        fail("reservation missing from slab");
      }
      if (state.res_ids_[row] != rec.task) fail("reservation task");
      if (state.res_footprint_[row] != rec.footprint) {
        fail("reservation footprint handle");
      }
      if (!std::ranges::equal(state.res_placement_[row].span(),
                              rec.placement)) {
        fail("reservation placement");
      }
      if (!std::ranges::equal(state.res_contrib_[row].span(),
                              rec.contributions)) {
        fail("reservation contributions");
      }
    }
  }
};

// --- SchedulingState ---------------------------------------------------------

bool SchedulingState::book_oracle_from_env() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): startup-time read
  return std::getenv("RTCM_CHECK_BOOK_ORACLE") != nullptr;
}

SchedulingState::SchedulingState(util::MonotonicArena* arena, bool book_oracle)
    : own_arena_(arena == nullptr ? std::make_unique<util::MonotonicArena>()
                                  : nullptr),
      arena_(arena == nullptr ? own_arena_.get() : arena),
      index_(arena_) {
  if (book_oracle) shadow_ = std::make_unique<ShadowBook>();
}

SchedulingState::~SchedulingState() = default;

std::vector<sched::TaskFootprint> SchedulingState::current_footprints() const {
  std::vector<sched::TaskFootprint> out;
  out.reserve(job_ids_.size() + res_ids_.size());
  for (std::uint32_t row = 0; row < job_ids_.size(); ++row) {
    out.push_back({job_task_[row],
                   {job_placement_[row].begin(), job_placement_[row].end()}});
  }
  for (std::uint32_t row = 0; row < res_ids_.size(); ++row) {
    out.push_back({res_ids_[row],
                   {res_placement_[row].begin(), res_placement_[row].end()}});
  }
  return out;
}

void SchedulingState::refresh_placement(
    std::span<const ProcessorId> placement) {
  // Placements are short chains; a linear first-occurrence scan keeps each
  // distinct processor refreshed exactly once without allocating.
  for (std::size_t j = 0; j < placement.size(); ++j) {
    bool seen = false;
    for (std::size_t i = 0; i < j; ++i) {
      if (placement[i] == placement[j]) {
        seen = true;
        break;
      }
    }
    if (!seen) index_.refresh(placement[j], ledger_);
  }
}

void SchedulingState::link_job_procs(std::uint32_t row) {
  const std::span<const ProcessorId> placement = job_placement_[row].span();
  for (std::size_t j = 0; j < placement.size(); ++j) {
    bool seen = false;
    for (std::size_t i = 0; i < j; ++i) {
      if (placement[i] == placement[j]) {
        seen = true;
        break;
      }
    }
    if (seen) continue;
    // The admit path just added this processor's contributions, so it has
    // a dense ledger slot.
    const std::uint32_t slot = ledger_.proc_slot(placement[j]);
    assert(slot != sched::UtilizationLedger::kNoSlot);
    if (slot >= proc_jobs_.size()) proc_jobs_.resize(slot + 1);
    job_proc_refs_[row].push_back(
        {slot, static_cast<std::uint32_t>(proc_jobs_[slot].size())}, *arena_);
    proc_jobs_[slot].push_back(row);
  }
}

void SchedulingState::unlink_job_procs(std::uint32_t row) {
  for (const ProcRef& ref : job_proc_refs_[row]) {
    std::vector<std::uint32_t>& members = proc_jobs_[ref.proc_slot];
    assert(ref.member_slot < members.size() &&
           members[ref.member_slot] == row);
    const std::uint32_t moved = members.back();
    members[ref.member_slot] = moved;
    members.pop_back();
    if (moved != row) {
      // Fix the swapped-in job's back-pointer for this processor.
      for (ProcRef& other : job_proc_refs_[moved]) {
        if (other.proc_slot == ref.proc_slot) {
          other.member_slot = ref.member_slot;
          break;
        }
      }
    }
  }
  job_proc_refs_[row].clear();
}

void SchedulingState::admit_job(const sched::TaskSpec& spec, JobId job,
                                std::span<const ProcessorId> placement,
                                Time absolute_deadline) {
  assert(placement.size() == spec.stage_count());
  assert(!has_job(job) && "job admitted twice");
  const auto row = static_cast<std::uint32_t>(job_ids_.size());
  job_ids_.push_back(job);
  job_task_.push_back(spec.id);
  job_deadline_.push_back(absolute_deadline);
  job_footprint_.emplace_back();
  job_placement_.emplace_back();
  job_contrib_.emplace_back();
  job_proc_refs_.emplace_back();
  job_placement_[row].assign(placement, *arena_);
  for (std::size_t j = 0; j < placement.size(); ++j) {
    const sched::ContributionId c =
        ledger_.add(placement[j], spec.subtask_utilization(j));
    job_contrib_[row].push_back(c, *arena_);
    if (shadow_) {
      shadow_->ledger_add(c, placement[j], spec.subtask_utilization(j));
    }
  }
  refresh_placement(placement);
  job_footprint_[row] = index_.add_footprint(spec.id, placement, ledger_);
  job_index_.insert(job.value(), row);
  link_job_procs(row);
  if (shadow_) {
    ShadowBook::JobRec rec;
    rec.task = spec.id;
    rec.placement.assign(placement.begin(), placement.end());
    rec.deadline = absolute_deadline;
    rec.contributions.assign(job_contrib_[row].begin(),
                             job_contrib_[row].end());
    rec.footprint = job_footprint_[row];
    shadow_->jobs.emplace(job.value(), std::move(rec));
    shadow_->verify(*this);
  }
}

std::optional<SchedulingState::JobView> SchedulingState::job(
    JobId job) const {
  const std::uint32_t row = job_index_.lookup(job.value());
  if (row == util::IdSlotMap::kNoSlot) return std::nullopt;
  return job_view(row);
}

SchedulingState::JobView SchedulingState::job_view(std::uint32_t row) const {
  return {job_task_[row],          job_ids_[row],
          job_deadline_[row],      job_footprint_[row],
          job_placement_[row].span(), job_contrib_[row].span()};
}

SchedulingState::ReservationView SchedulingState::reservation_view(
    std::uint32_t row) const {
  return {res_ids_[row], res_footprint_[row], res_placement_[row].span(),
          res_contrib_[row].span()};
}

void SchedulingState::expire_job(JobId job) {
  const std::uint32_t row = job_index_.lookup(job.value());
  if (row == util::IdSlotMap::kNoSlot) return;
  index_.remove_footprint(job_footprint_[row]);
  for (const sched::ContributionId c : job_contrib_[row]) {
    const bool removed = ledger_.remove(c);  // reset stages already gone
    if (shadow_ && shadow_->ledger_remove(c) != removed) {
      ShadowBook::fail("remove() outcome");
    }
  }
  refresh_placement(job_placement_[row].span());
  unlink_job_procs(row);
  job_index_.erase(job.value());
  const auto last = static_cast<std::uint32_t>(job_ids_.size() - 1);
  if (row != last) {
    job_ids_[row] = job_ids_[last];
    job_task_[row] = job_task_[last];
    job_deadline_[row] = job_deadline_[last];
    job_footprint_[row] = job_footprint_[last];
    job_placement_[row] = std::move(job_placement_[last]);
    job_contrib_[row] = std::move(job_contrib_[last]);
    job_proc_refs_[row] = std::move(job_proc_refs_[last]);
    job_index_.update(job_ids_[row].value(), row);
    for (const ProcRef& ref : job_proc_refs_[row]) {
      proc_jobs_[ref.proc_slot][ref.member_slot] = row;
    }
  }
  job_ids_.pop_back();
  job_task_.pop_back();
  job_deadline_.pop_back();
  job_footprint_.pop_back();
  job_placement_.pop_back();
  job_contrib_.pop_back();
  job_proc_refs_.pop_back();
  if (shadow_) {
    shadow_->jobs.erase(job.value());
    shadow_->verify(*this);
  }
}

Time SchedulingState::latest_deadline_touching(
    const std::set<ProcessorId>& nodes) const {
  Time latest = Time::epoch();
  for (const ProcessorId p : nodes) {
    const std::uint32_t slot = ledger_.proc_slot(p);
    if (slot == sched::UtilizationLedger::kNoSlot ||
        slot >= proc_jobs_.size()) {
      continue;
    }
    // max() is idempotent, so a job spanning several queried nodes may be
    // visited once per node without changing the answer.
    for (const std::uint32_t row : proc_jobs_[slot]) {
      latest = std::max(latest, job_deadline_[row]);
    }
  }
  return latest;
}

bool SchedulingState::reset_subjob(JobId job, std::size_t stage) {
  const std::uint32_t row = job_index_.lookup(job.value());
  if (row == util::IdSlotMap::kNoSlot) return false;
  util::SmallVec<sched::ContributionId, 4>& contributions = job_contrib_[row];
  if (stage >= contributions.size()) return false;
  const bool removed = ledger_.remove(contributions[stage]);
  if (shadow_ && shadow_->ledger_remove(contributions[stage]) != removed) {
    ShadowBook::fail("remove() outcome");
  }
  contributions[stage] = sched::ContributionId();
  // The job's footprint stays registered in full (matching the reference
  // test, which re-checks the whole placement until expiry); only the
  // stage's processor total — and so its cached term — changed.
  if (removed) index_.refresh(job_placement_[row][stage], ledger_);
  if (shadow_) {
    shadow_->jobs.at(job.value()).contributions[stage] =
        sched::ContributionId();
    shadow_->verify(*this);
  }
  return removed;
}

void SchedulingState::add_background(ProcessorId proc, double utilization) {
  const sched::ContributionId c = ledger_.add(proc, utilization);
  if (shadow_) shadow_->ledger_add(c, proc, utilization);
  index_.refresh(proc, ledger_);
  if (shadow_) shadow_->verify(*this);
}

void SchedulingState::reserve_task(const sched::TaskSpec& spec,
                                   std::span<const ProcessorId> placement) {
  assert(placement.size() == spec.stage_count());
  assert(!is_reserved(spec.id) && "task reserved twice");
  const auto row = static_cast<std::uint32_t>(res_ids_.size());
  res_ids_.push_back(spec.id);
  res_footprint_.emplace_back();
  res_placement_.emplace_back();
  res_contrib_.emplace_back();
  res_placement_[row].assign(placement, *arena_);
  for (std::size_t j = 0; j < placement.size(); ++j) {
    const sched::ContributionId c =
        ledger_.add(placement[j], spec.subtask_utilization(j));
    res_contrib_[row].push_back(c, *arena_);
    if (shadow_) {
      shadow_->ledger_add(c, placement[j], spec.subtask_utilization(j));
    }
  }
  refresh_placement(placement);
  res_footprint_[row] = index_.add_footprint(spec.id, placement, ledger_);
  res_index_.insert(spec.id.value(), row);
  if (shadow_) {
    ShadowBook::ResRec rec;
    rec.task = spec.id;
    rec.placement.assign(placement.begin(), placement.end());
    rec.contributions.assign(res_contrib_[row].begin(),
                             res_contrib_[row].end());
    rec.footprint = res_footprint_[row];
    shadow_->reservations.emplace(spec.id.value(), std::move(rec));
    shadow_->verify(*this);
  }
}

std::optional<SchedulingState::ReservationView> SchedulingState::reservation(
    TaskId task) const {
  const std::uint32_t row = res_index_.lookup(task.value());
  if (row == util::IdSlotMap::kNoSlot) return std::nullopt;
  return reservation_view(row);
}

std::vector<ProcessorId> SchedulingState::release_reservation(
    const sched::TaskSpec& spec) {
  const std::uint32_t row = res_index_.lookup(spec.id.value());
  assert(row != util::IdSlotMap::kNoSlot &&
         "releasing a reservation that is not held");
  index_.remove_footprint(res_footprint_[row]);
  for (const sched::ContributionId c : res_contrib_[row]) {
    const bool removed = ledger_.remove(c);
    if (shadow_ && shadow_->ledger_remove(c) != removed) {
      ShadowBook::fail("remove() outcome");
    }
  }
  std::vector<ProcessorId> placement(res_placement_[row].begin(),
                                     res_placement_[row].end());
  refresh_placement(placement);
  res_index_.erase(spec.id.value());
  const auto last = static_cast<std::uint32_t>(res_ids_.size() - 1);
  if (row != last) {
    res_ids_[row] = res_ids_[last];
    res_footprint_[row] = res_footprint_[last];
    res_placement_[row] = std::move(res_placement_[last]);
    res_contrib_[row] = std::move(res_contrib_[last]);
    res_index_.update(res_ids_[row].value(), row);
  }
  res_ids_.pop_back();
  res_footprint_.pop_back();
  res_placement_.pop_back();
  res_contrib_.pop_back();
  if (shadow_) {
    shadow_->reservations.erase(spec.id.value());
    shadow_->verify(*this);
  }
  return placement;
}

std::size_t SchedulingState::footprint_bytes() const {
  std::size_t bytes =
      ledger_.footprint_bytes() + index_.footprint_bytes() +
      job_index_.footprint_bytes() + res_index_.footprint_bytes() +
      job_ids_.capacity() * sizeof(JobId) +
      job_task_.capacity() * sizeof(TaskId) +
      job_deadline_.capacity() * sizeof(Time) +
      job_footprint_.capacity() * sizeof(sched::FootprintId) +
      job_placement_.capacity() * sizeof(util::SmallVec<ProcessorId, 4>) +
      job_contrib_.capacity() *
          sizeof(util::SmallVec<sched::ContributionId, 4>) +
      job_proc_refs_.capacity() * sizeof(util::SmallVec<ProcRef, 4>) +
      proc_jobs_.capacity() * sizeof(std::vector<std::uint32_t>) +
      res_ids_.capacity() * sizeof(TaskId) +
      res_footprint_.capacity() * sizeof(sched::FootprintId) +
      res_placement_.capacity() * sizeof(util::SmallVec<ProcessorId, 4>) +
      res_contrib_.capacity() *
          sizeof(util::SmallVec<sched::ContributionId, 4>);
  for (const std::vector<std::uint32_t>& m : proc_jobs_) {
    bytes += m.capacity() * sizeof(std::uint32_t);
  }
  return bytes;
}

}  // namespace rtcm::core
