// Load balancing heuristic (paper §4.4).
//
// When a task (or job, under LB per Job) is about to be admitted, each of its
// subtasks is assigned to the processor with the lowest synthetic utilization
// among the processors holding a replica of the corresponding application
// component (criterion C3).  The assignment is greedy per stage and accounts
// for the utilization the earlier stages of the same candidate would add, so
// two stages of one task spread out instead of piling onto the same
// lightly-loaded processor.  Already-admitted tasks are never migrated.
#pragma once

#include <vector>

#include "sched/task.h"
#include "sched/utilization_ledger.h"
#include "util/inline_fn.h"

namespace rtcm::sched {

/// Assignment policies, used by the ablation bench alongside the paper's
/// heuristic.
enum class PlacementPolicy {
  kLowestUtilization,  // the paper's heuristic
  kPrimaryOnly,        // no balancing: always the primary processor
  kRandomReplica,      // uniform choice among candidates (ablation baseline)
};

/// Produces one processor per stage of `task`.  For kRandomReplica the
/// caller provides a pick function (index in [0, n)) so determinism stays
/// with the caller's RNG.
class LoadBalancer {
 public:
  /// Index in [0, n); captures up to a pointer or two stay inline.
  using PickFn = InlineFunction<std::size_t(std::size_t), 16>;

  explicit LoadBalancer(
      PlacementPolicy policy = PlacementPolicy::kLowestUtilization)
      : policy_(policy) {}

  void set_random_pick(PickFn pick) { random_pick_ = std::move(pick); }

  [[nodiscard]] PlacementPolicy policy() const { return policy_; }

  /// Compute a placement for every stage of `task` given current ledger
  /// state into `out` (resized to the stage count; its capacity is reused,
  /// so a warm caller-owned buffer makes this allocation-free).  Never
  /// fails: there is always at least the primary processor.  (Whether the
  /// placement is *admissible* is the admission test's call.)
  void place(const TaskSpec& task, const UtilizationLedger& ledger,
             std::vector<ProcessorId>& out) const;
  /// Convenience form returning a fresh vector.
  [[nodiscard]] std::vector<ProcessorId> place(
      const TaskSpec& task, const UtilizationLedger& ledger) const;

 private:
  PlacementPolicy policy_;
  /// Mutable: picking advances the caller's RNG, not the balancer's state.
  mutable PickFn random_pick_;
};

/// Spread of synthetic utilization across `procs` (max - min); the heuristic
/// aims to keep this small.  Used by tests and the ablation bench.
[[nodiscard]] double utilization_spread(const UtilizationLedger& ledger,
                                        const std::vector<ProcessorId>& procs);

}  // namespace rtcm::sched
