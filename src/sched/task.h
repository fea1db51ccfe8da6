// End-to-end task model (paper §2).
//
// A task T_i is a chain of subtasks T_i,1 .. T_i,n located on different
// processors; the completion of T_i,j-1 triggers the release of T_i,j.  One
// release of the whole chain is a job; one release of a subtask is a subjob.
// Periodic tasks release jobs every `period`; aperiodic tasks release jobs
// with arbitrary interarrival times (modelled as a Poisson process by the
// workload generators).  Every task has an end-to-end deadline D_i, and a
// subtask's synthetic utilization on its processor is C_i,j / D_i.
#pragma once

#include <string>
#include <vector>

#include "util/ids.h"
#include "util/result.h"
#include "util/slab.h"
#include "util/time.h"

namespace rtcm::sched {

enum class TaskKind { kPeriodic, kAperiodic };

[[nodiscard]] inline const char* to_string(TaskKind kind) {
  return kind == TaskKind::kPeriodic ? "periodic" : "aperiodic";
}

/// One stage of an end-to-end task.
struct SubtaskSpec {
  /// Worst-case execution time C_i,j of every subjob of this subtask.
  Duration execution = Duration::zero();
  /// Processor holding the original component instance.
  ProcessorId primary;
  /// Processors holding duplicate component instances (criterion C3);
  /// excludes the primary.  Empty when the component is not replicated.
  std::vector<ProcessorId> replicas;

  /// primary + replicas: every processor this subtask may be assigned to.
  [[nodiscard]] std::vector<ProcessorId> candidates() const;
  /// The same candidates walked in place (hot paths): candidate(0) is the
  /// primary, candidate(i) the (i-1)-th replica.
  [[nodiscard]] std::size_t candidate_count() const {
    return 1 + replicas.size();
  }
  [[nodiscard]] ProcessorId candidate(std::size_t i) const {
    return i == 0 ? primary : replicas[i - 1];
  }
};

/// One end-to-end task.
struct TaskSpec {
  TaskId id;
  std::string name;
  TaskKind kind = TaskKind::kPeriodic;
  /// End-to-end deadline D_i (relative to each job's arrival).
  Duration deadline = Duration::zero();
  /// Interarrival time of jobs; required for periodic tasks.
  Duration period = Duration::zero();
  /// Mean interarrival used by Poisson arrival generators; aperiodic only.
  Duration mean_interarrival = Duration::zero();
  std::vector<SubtaskSpec> subtasks;

  [[nodiscard]] std::size_t stage_count() const { return subtasks.size(); }
  /// Synthetic utilization of subtask j on its processor: C_i,j / D_i.
  [[nodiscard]] double subtask_utilization(std::size_t j) const;
  /// Sum of subtask utilizations (the job's total contribution).
  [[nodiscard]] double total_utilization() const;
};

/// An immutable collection of task specs with validity checking.
class TaskSet {
 public:
  TaskSet() = default;

  /// Append a task.  Returns an error (and leaves the set unchanged) if the
  /// spec is malformed or the id duplicates an existing task.
  [[nodiscard]] Status add(TaskSpec spec);

  [[nodiscard]] std::size_t size() const { return tasks_.size(); }
  [[nodiscard]] bool empty() const { return tasks_.empty(); }
  [[nodiscard]] const std::vector<TaskSpec>& tasks() const { return tasks_; }
  /// The task with `id`, or null; O(1).
  [[nodiscard]] const TaskSpec* find(TaskId id) const;

  /// Every processor referenced by any subtask (primaries and replicas),
  /// sorted ascending.
  [[nodiscard]] std::vector<ProcessorId> processors() const;

  [[nodiscard]] std::size_t periodic_count() const;
  [[nodiscard]] std::size_t aperiodic_count() const;

  /// Validate a single spec without adding it anywhere.
  [[nodiscard]] static Status validate(const TaskSpec& spec);

 private:
  std::vector<TaskSpec> tasks_;
  /// Task id -> index into tasks_, filled by add().
  util::IdSlotMap index_;
};

}  // namespace rtcm::sched
