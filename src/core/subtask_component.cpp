#include "core/subtask_component.h"

#include <cassert>

#include "ccm/container.h"
#include "sim/deferrable_server.h"
#include "sim/trace.h"

namespace rtcm::core {

using events::EventType;
using events::TriggerPayload;

SubtaskComponentBase::SubtaskComponentBase(std::string type_name,
                                           const sched::TaskSet& tasks)
    : Component(std::move(type_name)), tasks_(tasks) {
  declare_event_sink("Trigger", EventType::kTrigger);
  declare_receptacle("Complete", [this](std::any iface) {
    auto* sink = std::any_cast<CompletionSink*>(&iface);
    if (sink == nullptr || *sink == nullptr) {
      return Status::error(
          "subtask 'Complete' receptacle expects a CompletionSink*");
    }
    completion_sink_ = *sink;
    return Status::ok();
  });
}

Status SubtaskComponentBase::on_configure(
    const ccm::AttributeMap& attributes) {
  auto task = attributes.get_int(kTaskAttr);
  if (!task.is_ok()) return Status::error(task.message());
  task_ = TaskId(static_cast<std::int32_t>(task.value()));

  auto stage = attributes.get_int(kStageAttr);
  if (!stage.is_ok()) return Status::error(stage.message());
  if (stage.value() < 0) return Status::error("Stage must be >= 0");
  stage_ = static_cast<std::size_t>(stage.value());

  auto execution = attributes.get_duration(kExecutionAttr);
  if (!execution.is_ok()) return Status::error(execution.message());
  if (execution.value() <= Duration::zero()) {
    return Status::error("ExecutionTime must be positive");
  }
  execution_ = execution.value();

  auto priority = attributes.get_int(kPriorityAttr);
  if (!priority.is_ok()) return Status::error(priority.message());
  priority_ = Priority(static_cast<std::int32_t>(priority.value()));

  const std::string ir = attributes.get_string_or(kIrModeAttr, "N");
  if (ir == "N") {
    ir_mode_ = IrStrategy::kNone;
  } else if (ir == "PT") {
    ir_mode_ = IrStrategy::kPerTask;
  } else if (ir == "PJ") {
    ir_mode_ = IrStrategy::kPerJob;
  } else {
    return Status::error("IR_Mode must be 'N', 'PT' or 'PJ', got '" + ir +
                         "'");
  }
  return Status::ok();
}

Status SubtaskComponentBase::on_activate() {
  if (!task_.valid()) {
    return Status::error("subtask component activated before configuration");
  }
  // Triggers are addressed to placement[stage], so this instance receives
  // exactly the triggers that place its stage on its processor.
  context().local_channel().subscribe(
      events::RouteKey::trigger(task_, stage_),
      [this](const events::Event& e) {
        handle_trigger(events::payload_as<TriggerPayload>(e));
      });
  return Status::ok();
}

void SubtaskComponentBase::handle_trigger(const TriggerPayload& payload) {
  // A quiesced (passivated) instance keeps its channel subscription but must
  // not execute work.  The reconfiguration protocol never routes triggers to
  // a drained host, so a drop here would surface as a conservation failure
  // (releases != completions) in the property tests rather than a crash.
  if (state() != ccm::LifecycleState::kActive) {
    ++triggers_dropped_;
    return;
  }
  const std::uint64_t id =
      (static_cast<std::uint64_t>(payload.job.value()) << 8) |
      static_cast<std::uint64_t>(stage_ & 0xff);
  // Non-const on purpose: a const by-copy capture would make the lambda's
  // member const, forcing delegate moves through the allocating copy
  // constructor and failing CompletionFn's inline-storage requirements.
  TriggerPayload captured = payload;

  // Under DS analysis, aperiodic subjobs execute through this processor's
  // deferrable server (budget-limited, above all EDMS priorities).
  const sched::TaskSpec* spec = tasks_.find(task_);
  assert(spec);
  auto on_done = [this, captured](std::uint64_t) { finish(captured); };
  // The per-subjob completion delegate; growing events::TriggerPayload past
  // CompletionFn's inline capacity would silently put a heap allocation
  // back on every dispatched subjob.
  static_assert(sim::CompletionFn::fits_inline<decltype(on_done)>);
  if (spec->kind == sched::TaskKind::kAperiodic &&
      context().aperiodic_server != nullptr) {
    context().aperiodic_server->submit(id, execution_, std::move(on_done));
    return;
  }

  // One dispatching thread per component, at the configured EDMS priority.
  sim::WorkItem item;
  item.id = id;
  item.priority = priority_;
  item.execution = execution_;
  item.on_complete = std::move(on_done);
  context().cpu.submit(std::move(item));
}

void SubtaskComponentBase::finish(const TriggerPayload& payload) {
  ++subjobs_executed_;
  const Time now = context().sim.now();
  context().trace.record_lazy(now, sim::TraceKind::kSubjobComplete,
                              context().processor, task_, payload.job,
                              [this] {
                                return "stage " + std::to_string(stage_);
                              });

  const sched::TaskSpec* spec = tasks_.find(task_);
  assert(spec);
  const bool notify_ir =
      completion_sink_ != nullptr &&
      (ir_mode_ == IrStrategy::kPerJob ||
       (ir_mode_ == IrStrategy::kPerTask &&
        spec->kind == sched::TaskKind::kAperiodic));
  if (notify_ir) {
    completion_sink_->subjob_complete(
        events::SubjobRef{task_, payload.job, stage_}, spec->kind,
        payload.absolute_deadline);
  }

  on_subjob_finished(payload);
}

FirstIntermediateSubtask::FirstIntermediateSubtask(const sched::TaskSet& tasks)
    : SubtaskComponentBase(kTypeName, tasks) {
  declare_event_source("Trigger", EventType::kTrigger);
}

void FirstIntermediateSubtask::on_subjob_finished(
    const TriggerPayload& payload) {
  assert(stage() + 1 < payload.placement.size() &&
         "F/I subtask must not be the last stage");
  TriggerPayload next = payload;
  next.stage = stage() + 1;
  context().federation.push(context().processor, std::move(next));
}

LastSubtask::LastSubtask(const sched::TaskSet& tasks)
    : SubtaskComponentBase(kTypeName, tasks) {}

void LastSubtask::on_subjob_finished(const TriggerPayload& payload) {
  const Time now = context().sim.now();
  context().trace.record({now, sim::TraceKind::kJobComplete,
                          context().processor, task(), payload.job, ""});
  if (now > payload.absolute_deadline) {
    context().trace.record_lazy(
        now, sim::TraceKind::kDeadlineMiss, context().processor, task(),
        payload.job, [&] {
          return "late by " + (now - payload.absolute_deadline).to_string();
        });
  }
  if (listener_ != nullptr) {
    listener_->job_completed(task(), payload.job, payload.arrival_time, now,
                             payload.absolute_deadline);
  }
}

}  // namespace rtcm::core
