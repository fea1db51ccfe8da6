// Priority-preemptive processor model.
//
// Each simulated application processor executes "work items" (subjobs) under
// fixed-priority preemptive scheduling, exactly the dispatching model the
// paper's F/I and Last Subtask components implement with prioritized
// dispatching threads.  The processor reports:
//   - completion of each work item (callback), and
//   - transitions to idle (callback), which is where the paper's lowest-
//     priority "idle detector" thread gets to run and the Idle Resetter
//     reports completed subjobs.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/simulator.h"
#include "util/ids.h"
#include "util/inline_fn.h"
#include "util/priority.h"
#include "util/time.h"

namespace rtcm::sim {

/// Completion callback for served/dispatched subjobs.  The inline capacity
/// covers the subtask components' capture (this + a TriggerPayload copy, 56
/// bytes); larger captures fall back to one heap allocation.
using CompletionFn = InlineFunction<void(std::uint64_t), 64>;

/// One schedulable unit of execution (a subjob).  Move-only: the completion
/// delegate owns its capture.
struct WorkItem {
  /// Caller-assigned identifier passed back on completion.
  std::uint64_t id = 0;
  Priority priority;
  /// Remaining execution demand.
  Duration execution = Duration::zero();
  /// Invoked (in simulator context) at the instant the item finishes.
  CompletionFn on_complete;
};

/// Aggregate counters exposed for tests and metrics.
struct ProcessorStats {
  std::uint64_t items_completed = 0;
  std::uint64_t preemptions = 0;
  Duration busy_time = Duration::zero();
};

class Processor {
 public:
  Processor(Simulator& sim, ProcessorId id);
  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  [[nodiscard]] ProcessorId id() const { return id_; }

  /// Submit a work item; it runs when it is the highest-priority ready item,
  /// preempting lower-priority work immediately.
  void submit(WorkItem item);

  /// Called every time the processor transitions from busy to idle.
  void set_idle_callback(EventFn fn) { idle_callback_ = std::move(fn); }

  [[nodiscard]] bool idle() const { return !running_.has_value(); }
  /// Ready items excluding the running one.
  [[nodiscard]] std::size_t ready_count() const { return ready_.size(); }
  [[nodiscard]] const ProcessorStats& stats() const { return stats_; }

  /// Fraction of time busy since construction (needs now > epoch).
  [[nodiscard]] double busy_fraction() const;

 private:
  struct Running {
    WorkItem item;
    Time started;            // when the current execution burst began
    EventHandle completion;  // pending completion event
  };

  /// Begin executing `item` now.  When `reuse` is the live handle of a
  /// superseded completion event (the preemption path), it is re-timed in
  /// place — no cancel, no slot churn; otherwise a fresh event is scheduled.
  void start(WorkItem item, EventHandle reuse = EventHandle());
  void on_completion_event();
  /// Pull the most urgent ready item (FIFO within a priority level).
  std::optional<WorkItem> pop_ready();

  Simulator& sim_;
  ProcessorId id_;
  std::optional<Running> running_;
  // Ready items (seq, item), unordered: pop_ready scans for the most urgent
  // and fills the hole with the last item.  A vector keeps its capacity, so
  // steady-state submit/pop churn allocates nothing.
  std::vector<std::pair<std::uint64_t, WorkItem>> ready_;
  std::uint64_t next_seq_ = 0;
  EventFn idle_callback_;
  ProcessorStats stats_;
};

}  // namespace rtcm::sim
