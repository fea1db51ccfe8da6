#include "sched/load_balancer.h"

#include <cassert>
#include <limits>

namespace rtcm::sched {

void LoadBalancer::place(const TaskSpec& task, const UtilizationLedger& ledger,
                         std::vector<ProcessorId>& out) const {
  out.clear();
  for (std::size_t j = 0; j < task.subtasks.size(); ++j) {
    const SubtaskSpec& st = task.subtasks[j];
    ProcessorId chosen = st.primary;

    switch (policy_) {
      case PlacementPolicy::kPrimaryOnly:
        break;
      case PlacementPolicy::kRandomReplica: {
        const std::size_t n = st.candidate_count();
        if (n > 1 && random_pick_) chosen = st.candidate(random_pick_(n));
        break;
      }
      case PlacementPolicy::kLowestUtilization: {
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t c = 0; c < st.candidate_count(); ++c) {
          const ProcessorId p = st.candidate(c);
          double u = ledger.total(p);
          // Utilization the earlier stages of this same candidate would
          // add: summed from 0.0 in stage order, then added once, exactly
          // as a per-processor running total would be.
          double pending = 0.0;
          bool earlier = false;
          for (std::size_t k = 0; k < j; ++k) {
            if (out[k] == p) {
              pending += task.subtask_utilization(k);
              earlier = true;
            }
          }
          if (earlier) u += pending;
          // Strict < keeps the earliest candidate (the primary) on ties,
          // avoiding gratuitous re-allocations.
          if (u < best) {
            best = u;
            chosen = p;
          }
        }
        break;
      }
    }
    out.push_back(chosen);
  }
}

std::vector<ProcessorId> LoadBalancer::place(
    const TaskSpec& task, const UtilizationLedger& ledger) const {
  std::vector<ProcessorId> placement;
  placement.reserve(task.subtasks.size());
  place(task, ledger, placement);
  return placement;
}

double utilization_spread(const UtilizationLedger& ledger,
                          const std::vector<ProcessorId>& procs) {
  assert(!procs.empty());
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const ProcessorId p : procs) {
    const double u = ledger.total(p);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
  }
  return hi - lo;
}

}  // namespace rtcm::sched
