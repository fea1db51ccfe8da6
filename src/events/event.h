// Typed middleware events (paper Figure 3).
//
// The service components talk to each other by pushing events through the
// federated event channel: "Task Arrive" (TE -> AC), "Accept" / "Reject"
// (AC -> TE), "Trigger" (F/I Subtask -> next Subtask) and "Idle Resetting"
// (IR -> AC).  Each event carries a typed payload, and the payload names
// where the event goes; consumers subscribe by address (local_channel.h).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/ids.h"
#include "util/time.h"

namespace rtcm::events {

enum class EventType : std::uint8_t {
  kTaskArrive,
  kAccept,
  kReject,
  kTrigger,
  kIdleReset,
};

[[nodiscard]] const char* to_string(EventType type);

/// Reference to one subjob's stage, used in idle-reset reports.
struct SubjobRef {
  TaskId task;
  JobId job;
  std::size_t stage = 0;

  [[nodiscard]] bool operator==(const SubjobRef&) const = default;
};

/// TE -> AC: a job arrived and is being held pending admission.
struct TaskArrivePayload {
  TaskId task;
  JobId job;
  /// Processor where the job arrived (hosting the TE).
  ProcessorId arrival_processor;
  Time arrival_time;
  /// True when this is the first arrival of the task (AC-per-Task tests
  /// admission only here).
  bool first_arrival = false;
};

/// AC -> TE: release the held job, executing each stage on placement[j].
/// Routed to the arrival TE (which clears its hold queue) and, when the
/// first stage was re-allocated, also to the TE hosting placement[0]
/// (which releases the duplicate — paper Figure 7, operation 6).
struct AcceptPayload {
  TaskId task;
  JobId job;
  ProcessorId arrival_processor;
  std::vector<ProcessorId> placement;
  Time absolute_deadline;
  /// True when AC-per-Task admitted the whole periodic task: the TE may
  /// release all subsequent jobs immediately (paper §5, TE attribute).
  bool task_admitted = false;
};

/// AC -> TE: drop the held job (admission failed / task not admitted).
struct RejectPayload {
  TaskId task;
  JobId job;
  ProcessorId arrival_processor;
};

/// F/I Subtask -> next Subtask component: start stage `stage`.
struct TriggerPayload {
  TaskId task;
  JobId job;
  /// Index of the stage to execute now.
  std::size_t stage = 0;
  std::vector<ProcessorId> placement;
  Time absolute_deadline;
  Time release_time;  // when the job was released by the TE
};

/// IR -> AC: processor went idle; these completed subjobs' contributions can
/// be removed (the resetting rule).
struct IdleResetPayload {
  ProcessorId processor;
  std::vector<SubjobRef> completed;
};

using EventPayload = std::variant<TaskArrivePayload, AcceptPayload,
                                  RejectPayload, TriggerPayload,
                                  IdleResetPayload>;

struct Event {
  ProcessorId source;  // processor that pushed the event
  Time published;      // set by the channel at push time
  EventPayload payload;

  [[nodiscard]] EventType type() const {
    return static_cast<EventType>(payload.index());
  }
  [[nodiscard]] std::string to_string() const;
};

/// Helper: the payload of type T, asserting the event holds one.
template <typename T>
[[nodiscard]] const T& payload_as(const Event& e) {
  return std::get<T>(e.payload);
}

}  // namespace rtcm::events
