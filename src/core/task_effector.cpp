#include "core/task_effector.h"

#include <cassert>

#include "ccm/container.h"
#include "sim/trace.h"

namespace rtcm::core {

using events::AcceptPayload;
using events::EventType;
using events::RejectPayload;
using events::TaskArrivePayload;
using events::TriggerPayload;

TaskEffector::TaskEffector(const sched::TaskSet& tasks,
                           MetricsCollector* metrics)
    : Component(kTypeName), tasks_(tasks), metrics_(metrics) {
  declare_event_source("TaskArrive", EventType::kTaskArrive);
  declare_event_sink("Accept", EventType::kAccept);
  declare_event_sink("Reject", EventType::kReject);
  declare_event_source("ReleaseTrigger", EventType::kTrigger);
}

Status TaskEffector::on_configure(const ccm::AttributeMap& attributes) {
  const std::string mode = attributes.get_string_or(kModeAttr, "PJ");
  if (mode == "PT") {
    hold_every_job_ = false;
  } else if (mode == "PJ") {
    hold_every_job_ = true;
  } else {
    return Status::error("TE_Mode must be 'PT' or 'PJ', got '" + mode + "'");
  }
  return Status::ok();
}

Status TaskEffector::on_activate() {
  // The federated channel addresses Accepts to the arrival processor and
  // to placement.front(), and Rejects to the arrival processor, so every
  // one reaching this channel is for this TE.
  auto& channel = context().local_channel();
  channel.subscribe(events::RouteKey::of(EventType::kAccept),
                    [this](const events::Event& e) {
                      handle_accept(events::payload_as<AcceptPayload>(e));
                    });
  channel.subscribe(events::RouteKey::of(EventType::kReject),
                    [this](const events::Event& e) {
                      handle_reject(events::payload_as<RejectPayload>(e));
                    });
  return Status::ok();
}

void TaskEffector::job_arrived(TaskId task, JobId job) {
  const sched::TaskSpec* spec = tasks_.find(task);
  assert(spec && "job arrived for unknown task");
  const Time now = context().sim.now();
  if (metrics_) metrics_->on_arrival(*spec, job, now);
  context().trace.record({now, sim::TraceKind::kJobArrival,
                          context().processor, task, job, ""});

  // Fast path: jobs of a wholesale-admitted periodic task release
  // immediately (the paper's Per-task TE attribute).
  if (!hold_every_job_ && spec->kind == sched::TaskKind::kPeriodic) {
    const auto it = admitted_tasks_.find(task);
    if (it != admitted_tasks_.end()) {
      ++immediate_releases_;
      release(*spec, job, now, it->second, now + spec->deadline);
      return;
    }
  }

  held_.insert(job.value(), 0);
  const bool first = seen_tasks_.insert(task).second;
  context().federation.push(
      context().processor,
      TaskArrivePayload{task, job, context().processor, now, first});
}

void TaskEffector::rebind_admitted_placement(
    TaskId task, std::span<const ProcessorId> placement) {
  const auto it = admitted_tasks_.find(task);
  if (it != admitted_tasks_.end()) {
    it->second = context().federation.placements().intern(placement);
  }
}

void TaskEffector::handle_accept(const AcceptPayload& payload) {
  const ProcessorId me = context().processor;
  const sched::TaskSpec* spec = tasks_.find(payload.task);
  assert(spec);

  if (payload.arrival_processor == me) {
    // The job may be unknown if this TE restarted or the Accept was for an
    // immediate-release task; ignore quietly.
    (void)held_.erase(payload.job.value());
    if (payload.task_admitted && !hold_every_job_) {
      admitted_tasks_[payload.task] = payload.placement;
    }
  }

  // Whoever hosts the first stage performs the release; on re-allocation
  // that is the duplicate's processor (paper Figure 7, operation 6).
  if (!payload.placement.empty() && payload.placement.front() == me) {
    const Time now = context().sim.now();
    if (payload.placement.front() != payload.arrival_processor) {
      context().trace.record_lazy(
          now, sim::TraceKind::kReallocation, me, payload.task, payload.job,
          [&payload] {
            return "stage0 re-allocated from " +
                   payload.arrival_processor.to_string();
          });
    }
    release(*spec, payload.job, payload.arrival_time, payload.placement,
            payload.absolute_deadline);
  }
}

void TaskEffector::handle_reject(const RejectPayload& payload) {
  if (!held_.erase(payload.job.value())) return;
  const sched::TaskSpec* spec = tasks_.find(payload.task);
  assert(spec);
  if (metrics_) {
    metrics_->on_rejection(*spec, payload.job, context().sim.now());
  }
  context().trace.record({context().sim.now(), sim::TraceKind::kJobRejected,
                          context().processor, payload.task, payload.job, ""});
}

void TaskEffector::release(const sched::TaskSpec& spec, JobId job,
                           Time arrival, events::Placement placement,
                           Time absolute_deadline) {
  const Time now = context().sim.now();
  if (metrics_) metrics_->on_release(spec, job, now);
  context().trace.record({now, sim::TraceKind::kJobReleased,
                          context().processor, spec.id, job, ""});
  context().federation.push(
      context().processor,
      TriggerPayload{spec.id, job, /*stage=*/0, placement, absolute_deadline,
                     arrival});
}

}  // namespace rtcm::core
