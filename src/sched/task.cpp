#include "sched/task.h"

#include <algorithm>
#include <set>

namespace rtcm::sched {

std::vector<ProcessorId> SubtaskSpec::candidates() const {
  std::vector<ProcessorId> out;
  out.reserve(1 + replicas.size());
  out.push_back(primary);
  out.insert(out.end(), replicas.begin(), replicas.end());
  return out;
}

double TaskSpec::subtask_utilization(std::size_t j) const {
  return subtasks[j].execution.ratio(deadline);
}

double TaskSpec::total_utilization() const {
  double u = 0;
  for (std::size_t j = 0; j < subtasks.size(); ++j) {
    u += subtask_utilization(j);
  }
  return u;
}

Status TaskSet::validate(const TaskSpec& spec) {
  const std::string tag = "task " + spec.id.to_string() +
                          (spec.name.empty() ? "" : " (" + spec.name + ")");
  if (!spec.id.valid()) return Status::error(tag + ": invalid id");
  if (spec.deadline <= Duration::zero()) {
    return Status::error(tag + ": deadline must be positive");
  }
  if (spec.kind == TaskKind::kPeriodic && spec.period <= Duration::zero()) {
    return Status::error(tag + ": periodic task needs a positive period");
  }
  if (spec.subtasks.empty()) {
    return Status::error(tag + ": needs at least one subtask");
  }
  for (std::size_t j = 0; j < spec.subtasks.size(); ++j) {
    const SubtaskSpec& st = spec.subtasks[j];
    const std::string stage = tag + " subtask " + std::to_string(j);
    if (st.execution <= Duration::zero()) {
      return Status::error(stage + ": execution time must be positive");
    }
    if (st.execution > spec.deadline) {
      return Status::error(stage + ": execution time exceeds the deadline");
    }
    if (!st.primary.valid()) {
      return Status::error(stage + ": invalid primary processor");
    }
    std::set<ProcessorId> seen{st.primary};
    for (const ProcessorId r : st.replicas) {
      if (!r.valid()) return Status::error(stage + ": invalid replica");
      if (!seen.insert(r).second) {
        return Status::error(stage + ": duplicate replica processor " +
                             r.to_string());
      }
    }
  }
  return Status::ok();
}

Status TaskSet::add(TaskSpec spec) {
  if (Status s = validate(spec); !s.is_ok()) return s;
  if (find(spec.id) != nullptr) {
    return Status::error("duplicate task id " + spec.id.to_string());
  }
  tasks_.push_back(std::move(spec));
  index_.insert(tasks_.back().id.value(),
                static_cast<std::uint32_t>(tasks_.size() - 1));
  return Status::ok();
}

const TaskSpec* TaskSet::find(TaskId id) const {
  const std::uint32_t index = index_.lookup(id.value());
  return index == util::IdSlotMap::kNoSlot ? nullptr : &tasks_[index];
}

std::vector<ProcessorId> TaskSet::processors() const {
  std::set<ProcessorId> procs;
  for (const auto& t : tasks_) {
    for (const auto& st : t.subtasks) {
      procs.insert(st.primary);
      procs.insert(st.replicas.begin(), st.replicas.end());
    }
  }
  return {procs.begin(), procs.end()};
}

std::size_t TaskSet::periodic_count() const {
  return static_cast<std::size_t>(
      std::count_if(tasks_.begin(), tasks_.end(), [](const TaskSpec& t) {
        return t.kind == TaskKind::kPeriodic;
      }));
}

std::size_t TaskSet::aperiodic_count() const {
  return tasks_.size() - periodic_count();
}

}  // namespace rtcm::sched
