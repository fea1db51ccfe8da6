#include "core/admission_control.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <utility>

#include "ccm/container.h"
#include "sim/trace.h"
#include "util/strings.h"

namespace rtcm::core {

using events::AcceptPayload;
using events::EventType;
using events::IdleResetPayload;
using events::RejectPayload;
using events::TaskArrivePayload;

AdmissionControl::AdmissionControl(const sched::TaskSet& tasks,
                                   MetricsCollector* metrics,
                                   util::MonotonicArena* arena)
    : Component(kTypeName),
      tasks_(tasks),
      metrics_(metrics),
      // NOLINTNEXTLINE(concurrency-mt-unsafe): startup-time read
      check_oracle_(std::getenv("RTCM_CHECK_ADMISSION_ORACLE") != nullptr),
      state_(arena) {
  declare_event_sink("TaskArrive", EventType::kTaskArrive);
  declare_event_sink("IdleReset", EventType::kIdleReset);
  declare_event_source("Accept", EventType::kAccept);
  declare_event_source("Reject", EventType::kReject);
  declare_receptacle("Location", [this](std::any iface) {
    auto* service = std::any_cast<LocationService*>(&iface);
    if (service == nullptr || *service == nullptr) {
      return Status::error(
          "AC 'Location' receptacle expects a LocationService*");
    }
    location_ = *service;
    return Status::ok();
  });
}

Status AdmissionControl::on_configure(const ccm::AttributeMap& attributes) {
  const std::string ac = attributes.get_string_or(kAcStrategyAttr, "PT");
  if (ac == "PT") {
    ac_ = AcStrategy::kPerTask;
  } else if (ac == "PJ") {
    ac_ = AcStrategy::kPerJob;
  } else {
    return Status::error("AC_Strategy must be 'PT' or 'PJ', got '" + ac + "'");
  }
  const std::string lb = attributes.get_string_or(kLbStrategyAttr, "N");
  if (lb == "N") {
    lb_ = LbStrategy::kNone;
  } else if (lb == "PT") {
    lb_ = LbStrategy::kPerTask;
  } else if (lb == "PJ") {
    lb_ = LbStrategy::kPerJob;
  } else {
    return Status::error("LB_Strategy must be 'N', 'PT' or 'PJ', got '" + lb +
                         "'");
  }
  // Runtime reconfiguration may swap the strategy attributes freely, but the
  // analysis (and a live DS server's parameters) carry admission state that
  // cannot be rebuilt mid-run; switching them on a live AC is refused.
  const bool live =
      ccm::Component::state() == ccm::LifecycleState::kActive ||
      ccm::Component::state() == ccm::LifecycleState::kPassivated;
  const std::string analysis = attributes.get_string_or(kAnalysisAttr, "AUB");
  if (analysis == "AUB") {
    if (live && analysis_ != AperiodicAnalysis::kAub) {
      return Status::error(
          "cannot switch a live AC from DS to AUB analysis");
    }
    analysis_ = AperiodicAnalysis::kAub;
    ds_.reset();
  } else if (analysis == "DS") {
    sched::DsServerConfig ds_config;
    ds_config.budget =
        Duration(attributes.get_int_or(kDsBudgetAttr, 25000));
    ds_config.period =
        Duration(attributes.get_int_or(kDsPeriodAttr, 100000));
    ds_config.hop_overhead =
        Duration(attributes.get_int_or(kDsHopOverheadAttr, 0));
    if (ds_config.budget <= Duration::zero() ||
        ds_config.period < ds_config.budget ||
        ds_config.hop_overhead.is_negative()) {
      return Status::error("DS server needs 0 < DS_Budget <= DS_Period and "
                           "DS_HopOverhead >= 0");
    }
    if (live) {
      if (analysis_ != AperiodicAnalysis::kDeferrableServer) {
        return Status::error(
            "cannot switch a live AC from AUB to DS analysis");
      }
      const sched::DsServerConfig& current = ds_->config();
      if (current.budget != ds_config.budget ||
          current.period != ds_config.period ||
          current.hop_overhead != ds_config.hop_overhead) {
        return Status::error(
            "cannot retune a live AC's DS server parameters");
      }
      // Keep ds_ (it holds the live backlog).
    } else {
      analysis_ = AperiodicAnalysis::kDeferrableServer;
      ds_.emplace(ds_config);
    }
  } else {
    return Status::error("Analysis must be 'AUB' or 'DS', got '" + analysis +
                         "'");
  }
  return Status::ok();
}

Status AdmissionControl::on_activate() {
  if (lb_ != LbStrategy::kNone && location_ == nullptr) {
    return Status::error(
        "AC configured with load balancing but the 'Location' receptacle is "
        "not connected");
  }
  if (analysis_ == AperiodicAnalysis::kDeferrableServer) {
    // The servers' worst-case interference on periodic work is reserved as
    // permanent background utilization on every application processor (the
    // servers themselves are not subject to Equation 1).
    const double interference = ds_->config().periodic_interference();
    if (interference >= 1.0) {
      return Status::error(
          "DS server interference (2*B/P) saturates the processors");
    }
    for (const ProcessorId proc : tasks_.processors()) {
      state_.add_background(proc, interference);
    }
  }
  auto& channel = context().local_channel();
  channel.subscribe(
      events::RouteKey::of(EventType::kTaskArrive),
      [this](const events::Event& e) {
        handle_task_arrive(events::payload_as<TaskArrivePayload>(e));
      });
  channel.subscribe(
      events::RouteKey::of(EventType::kIdleReset),
      [this](const events::Event& e) {
        handle_idle_reset(events::payload_as<IdleResetPayload>(e));
      });
  return Status::ok();
}

void AdmissionControl::primaries(const sched::TaskSpec& spec) {
  placement_.clear();
  for (const auto& st : spec.subtasks) placement_.push_back(st.primary);
}

void AdmissionControl::propose(const sched::TaskSpec& spec) {
  if (location_ == nullptr) {
    primaries(spec);
    return;
  }
  location_->propose_placement(spec, state_.ledger(), placement_);
}

bool AdmissionControl::drain_adjust(
    const sched::TaskSpec& spec, std::vector<ProcessorId>& placement) const {
  if (drained_.empty()) return true;
  for (std::size_t j = 0; j < placement.size(); ++j) {
    if (drained_.count(placement[j]) == 0) continue;
    ProcessorId best;
    double best_util = 0.0;
    const sched::SubtaskSpec& st = spec.subtasks[j];
    for (std::size_t c = 0; c < st.candidate_count(); ++c) {
      const ProcessorId cand = st.candidate(c);
      if (drained_.count(cand) > 0) continue;
      const double u = state_.ledger().total(cand);
      if (!best.valid() || u < best_util) {
        best = cand;
        best_util = u;
      }
    }
    if (!best.valid()) return false;  // stage has no live candidate
    placement[j] = best;
  }
  return true;
}

events::Placement AdmissionControl::intern(
    std::span<const ProcessorId> placement) const {
  return context().federation.placements().intern(placement);
}

events::Placement AdmissionControl::placement_for(
    const sched::TaskSpec& spec) {
  switch (lb_) {
    case LbStrategy::kNone:
      primaries(spec);
      break;
    case LbStrategy::kPerTask: {
      // Periodic tasks are assigned once, at first arrival; aperiodic jobs
      // are placed at their single job arrival time (paper §4.4/§5).
      if (spec.kind != sched::TaskKind::kPeriodic) {
        propose(spec);
        break;
      }
      const auto it = plans_.find(spec.id);
      if (it != plans_.end()) return it->second;
      propose(spec);
      if (!drain_adjust(spec, placement_)) return {};
      // An unplaceable arrival (every candidate of some stage drained) is
      // not frozen: the task gets a fresh placement once nodes return.
      const events::Placement frozen = intern(placement_);
      plans_.emplace(spec.id, frozen);
      return frozen;
    }
    case LbStrategy::kPerJob:
      propose(spec);
      break;
  }
  if (!drain_adjust(spec, placement_)) return {};
  return placement_;
}

sched::AdmissionDecision AdmissionControl::test(
    const sched::TaskSpec& spec, std::span<const ProcessorId> placement) {
  stages_.clear();
  for (std::size_t j = 0; j < placement.size(); ++j) {
    stages_.push_back({placement[j], spec.subtask_utilization(j)});
  }
  ++counters_.admission_tests;
  const auto decision = state_.admission_index().admission_test(
      state_.ledger(), spec.id, stages_);
  if (check_oracle_) {
    // Reference oracle: the pre-index full-task-set rescan must agree on
    // the decision and on the candidate's own LHS.  (The blocking witness
    // may legitimately differ when several footprints would fail.)
    const auto oracle = sched::aub_admission_test(
        state_.ledger(), spec.id, stages_, state_.current_footprints());
    if (oracle.admitted != decision.admitted ||
        oracle.candidate_lhs != decision.candidate_lhs) {
      std::fprintf(stderr,
                   "RTCM_CHECK_ADMISSION_ORACLE: incremental admission "
                   "diverged for %s: admitted %d vs %d, lhs %.17g vs %.17g\n",
                   spec.id.to_string().c_str(), decision.admitted ? 1 : 0,
                   oracle.admitted ? 1 : 0, decision.candidate_lhs,
                   oracle.candidate_lhs);
      std::abort();
    }
  }
  context().trace.record_lazy(
      context().sim.now(), sim::TraceKind::kAdmissionTest,
      context().processor, spec.id, JobId(), [&decision] {
        return strfmt("lhs=%.3f %s", decision.candidate_lhs,
                      decision.admitted ? "pass" : "fail");
      });
  return decision;
}

void AdmissionControl::maybe_move_reservation(const sched::TaskSpec& spec) {
  const auto reservation = state_.reservation(spec.id);
  assert(reservation.has_value());
  propose(spec);
  if (!drain_adjust(spec, placement_) ||
      std::ranges::equal(placement_, reservation->placement)) {
    return;
  }
  // Release, test the new placement against the remaining load, and keep
  // whichever placement is admissible (the old one always is: removing and
  // re-adding it restores the exact prior state).
  const std::vector<ProcessorId> old_placement =
      state_.release_reservation(spec);
  if (test(spec, placement_).admitted) {
    state_.reserve_task(spec, placement_);
    ++counters_.reservation_moves;
  } else {
    state_.reserve_task(spec, old_placement);
  }
}

void AdmissionControl::accept(const sched::TaskSpec& spec,
                              const TaskArrivePayload& a,
                              std::span<const ProcessorId> placement,
                              bool task_admitted) {
  ++counters_.admits;
  const Time absolute_deadline = a.arrival_time + spec.deadline;
  context().trace.record({context().sim.now(), sim::TraceKind::kJobAdmitted,
                          context().processor, spec.id, a.job, ""});
  context().federation.push(
      context().processor,
      AcceptPayload{spec.id, a.job, a.arrival_processor, intern(placement),
                    absolute_deadline, task_admitted, a.arrival_time});
}

void AdmissionControl::reject(const TaskArrivePayload& a) {
  ++counters_.rejects;
  context().federation.push(
      context().processor,
      RejectPayload{a.task, a.job, a.arrival_processor});
}

void AdmissionControl::handle_ds_aperiodic(const sched::TaskSpec& spec,
                                           const TaskArrivePayload& a) {
  const events::Placement placed = placement_for(spec);
  if (placed.empty()) {
    ++counters_.drain_unplaceable;
    reject(a);
    return;
  }
  const std::vector<ProcessorId> placement(placed.begin(), placed.end());
  ++counters_.admission_tests;
  const std::vector<Duration> bounds = ds_->stage_bounds(spec, placement);
  const Duration round_trip = ds_->config().hop_overhead * 2;
  const Duration bound = bounds.back() + round_trip;
  const bool admitted = bound <= spec.deadline;
  context().trace.record_lazy(
      context().sim.now(), sim::TraceKind::kAdmissionTest,
      context().processor, spec.id, JobId(), [&bound, admitted] {
        return strfmt("ds-bound=%s %s", bound.to_string().c_str(),
                      admitted ? "pass" : "fail");
      });
  if (!admitted) {
    reject(a);
    return;
  }

  ds_jobs_.emplace(a.job, ds_->add_backlog(spec, placement));
  const JobId job = a.job;
  // Each stage's backlog is released at its predicted completion bound —
  // never earlier than the real completion, so later admission tests stay
  // sound while shedding finished work far before the deadline backstop.
  for (std::size_t j = 0; j < bounds.size(); ++j) {
    context().sim.schedule_at(
        a.arrival_time + round_trip + bounds[j], [this, job, j] {
          const auto it = ds_jobs_.find(job);
          if (it == ds_jobs_.end() || j >= it->second.size()) return;
          if (ds_->remove_backlog(it->second[j])) {
            it->second[j] = sched::ContributionId();
          }
        });
  }
  // Deadline backstop: drop whatever remains and forget the job.
  context().sim.schedule_at(a.arrival_time + spec.deadline, [this, job] {
    const auto it = ds_jobs_.find(job);
    if (it == ds_jobs_.end()) return;
    for (const sched::ContributionId c : it->second) {
      (void)ds_->remove_backlog(c);
    }
    ds_jobs_.erase(it);
  });
  accept(spec, a, placement, /*task_admitted=*/false);
}

void AdmissionControl::handle_task_arrive(const TaskArrivePayload& a) {
  const sched::TaskSpec* spec = tasks_.find(a.task);
  assert(spec && "arrival for unknown task");
  const bool periodic = spec->kind == sched::TaskKind::kPeriodic;

  // DS analysis: aperiodic tasks go through the delay-bound test against
  // the servers; periodic tasks fall through to the AUB paths below (with
  // the servers' interference already reserved in the ledger).
  if (!periodic && analysis_ == AperiodicAnalysis::kDeferrableServer) {
    handle_ds_aperiodic(*spec, a);
    return;
  }

  if (periodic && ac_ == AcStrategy::kPerTask) {
    if (state_.is_reserved(a.task)) {
      // Already admitted wholesale: the job is auto-accepted.  (The TE only
      // forwards such arrivals when it must hold every job, i.e. LB per
      // Job — which is exactly when the reservation may move.)
      if (lb_ == LbStrategy::kPerJob) maybe_move_reservation(*spec);
      ++counters_.auto_accepts;
      accept(*spec, a, state_.reservation(a.task)->placement,
             /*task_admitted=*/true);
      return;
    }
    if (rejected_tasks_.count(a.task) > 0) {
      reject(a);
      return;
    }
    // First arrival: test once, reserve forever.  A drain-unplaceable
    // arrival is rejected without condemning the task: once the drained
    // processors return, a later first arrival may still admit it.
    const events::Placement placement = placement_for(*spec);
    if (placement.empty()) {
      ++counters_.drain_unplaceable;
      reject(a);
      return;
    }
    if (test(*spec, placement).admitted) {
      state_.reserve_task(*spec, placement);
      accept(*spec, a, placement, /*task_admitted=*/true);
    } else {
      rejected_tasks_.insert(a.task);
      reject(a);
    }
    return;
  }

  // Per-job admission: aperiodic jobs always, periodic jobs under AC=PJ.
  const events::Placement placement = placement_for(*spec);
  if (placement.empty()) {
    ++counters_.drain_unplaceable;
    reject(a);
    return;
  }
  if (!test(*spec, placement).admitted) {
    reject(a);
    return;
  }
  const Time absolute_deadline = a.arrival_time + spec->deadline;
  state_.admit_job(*spec, a.job, placement, absolute_deadline);
  // The contribution of a job is removed when its deadline expires (§2),
  // unless idle resetting already removed parts of it.
  const JobId job = a.job;
  context().sim.schedule_at(absolute_deadline,
                            [this, job] { state_.expire_job(job); });
  accept(*spec, a, placement, /*task_admitted=*/false);
}

namespace {

std::string placement_string(const std::vector<ProcessorId>& placement) {
  std::string out;
  for (const ProcessorId p : placement) {
    if (!out.empty()) out += ',';
    out += p.to_string();
  }
  return out;
}

bool touches(std::span<const ProcessorId> placement,
             const std::set<ProcessorId>& nodes) {
  for (const ProcessorId p : placement) {
    if (nodes.count(p) > 0) return true;
  }
  return false;
}

}  // namespace

Result<AdmissionControl::TransitionSummary> AdmissionControl::apply_drain(
    const std::set<ProcessorId>& drained) {
  using R = Result<TransitionSummary>;
  const std::set<ProcessorId> previous = std::exchange(drained_, drained);
  TransitionSummary summary;

  // Standing reservations touching a drained processor must migrate.
  // Sorted by TaskId so migration (and trace) order is canonical, not the
  // reservation slab's churn-dependent row order.
  std::vector<TaskId> affected;
  state_.for_each_reservation(
      [&](const SchedulingState::ReservationView& r) {
        if (touches(r.placement, drained_)) affected.push_back(r.task);
      });
  std::sort(affected.begin(), affected.end());

  // Undo log: (task, original placement), in migration order.
  std::vector<std::pair<TaskId, std::vector<ProcessorId>>> undo;
  for (const TaskId task : affected) {
    const sched::TaskSpec* spec = tasks_.find(task);
    assert(spec != nullptr);
    std::vector<ProcessorId> old_placement = state_.release_reservation(*spec);
    // Minimal disruption: only stages on a drained processor move (to the
    // lowest-utilization live candidate); the rest stay where they are.
    std::vector<ProcessorId> fresh = old_placement;
    if (!drain_adjust(*spec, fresh) || !test(*spec, fresh).admitted) {
      // Roll everything back: re-adding the exact old contributions restores
      // the ledger byte-for-byte (same stages, same amounts).
      state_.reserve_task(*spec, old_placement);
      for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
        const sched::TaskSpec* undone = tasks_.find(it->first);
        assert(undone != nullptr);
        (void)state_.release_reservation(*undone);
        if (plans_.count(it->first) > 0) {
          plans_[it->first] = intern(it->second);
        }
        state_.reserve_task(*undone, it->second);
      }
      drained_ = previous;
      return R::error("reconfiguration rejected: admitted task " +
                      task.to_string() +
                      " cannot keep its deadline guarantee off the drained "
                      "processors");
    }
    state_.reserve_task(*spec, fresh);
    if (plans_.count(task) > 0) plans_[task] = intern(fresh);
    summary.migrated.push_back({task, old_placement, fresh});
    undo.emplace_back(task, std::move(old_placement));
  }
  // Counters and trace records are emitted only once the whole transition
  // is known to succeed — a rolled-back migration never happened.
  for (const MigrationRecord& m : summary.migrated) {
    ++counters_.migrations;
    context().trace.record_lazy(
        context().sim.now(), sim::TraceKind::kTaskMigrated,
        context().processor, m.task, JobId(), [&m] {
          return placement_string(m.from) + " -> " + placement_string(m.to);
        });
  }

  // Frozen LB-per-Task plans of non-reserved (per-job admitted) tasks are
  // re-frozen off the drained processors; each future job is admission
  // tested at arrival, so no re-check (or rollback) is needed here.
  std::vector<TaskId> unfreeze;
  for (auto& [task, placement] : plans_) {
    if (state_.is_reserved(task) || !touches(placement, drained_)) continue;
    const sched::TaskSpec* spec = tasks_.find(task);
    assert(spec != nullptr);
    std::vector<ProcessorId> fresh(placement.begin(), placement.end());
    if (drain_adjust(*spec, fresh)) {
      placement = intern(fresh);
    } else {
      unfreeze.push_back(task);  // re-placed (or rejected) at next arrival
    }
  }
  for (const TaskId task : unfreeze) plans_.erase(task);

  return summary;
}

Time AdmissionControl::quiesce_horizon(
    const std::set<ProcessorId>& nodes) const {
  const Time now = context().sim.now();
  Time horizon = std::max(now, state_.latest_deadline_touching(nodes));
  for (const sched::TaskSpec& task : tasks_.tasks()) {
    bool reaches = false;
    for (const sched::SubtaskSpec& st : task.subtasks) {
      for (const ProcessorId cand : st.candidates()) {
        if (nodes.count(cand) > 0) {
          reaches = true;
          break;
        }
      }
      if (reaches) break;
    }
    if (reaches) horizon = std::max(horizon, now + task.deadline);
  }
  return horizon;
}

void AdmissionControl::handle_idle_reset(const IdleResetPayload& payload) {
  std::size_t applied = 0;
  for (const events::SubjobRef& ref : payload.completed) {
    if (state_.reset_subjob(ref.job, ref.stage)) {
      ++applied;
      continue;
    }
    // DS-admitted jobs keep their backlog in the DS book instead.
    const auto it = ds_jobs_.find(ref.job);
    if (it != ds_jobs_.end() && ref.stage < it->second.size() &&
        ds_->remove_backlog(it->second[ref.stage])) {
      it->second[ref.stage] = sched::ContributionId();
      ++applied;
    }
  }
  counters_.subjobs_reset += applied;
  if (metrics_) metrics_->on_idle_reset(applied);
  context().trace.record_lazy(
      context().sim.now(), sim::TraceKind::kIdleReset, payload.processor,
      TaskId(), JobId(), [applied, &payload] {
        return strfmt("%zu applied of %zu reported", applied,
                      payload.completed.size());
      });
}

}  // namespace rtcm::core
