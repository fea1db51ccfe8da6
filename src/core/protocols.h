// Facet interfaces between the middleware components (paper Figure 3).
//
// These are the "receptacle/facet" contracts: the AC component calls the LB
// component's Location facet; subtask components call the local IR
// component's Complete facet; the Last Subtask component reports end-to-end
// completions to whoever observes jobs (the metrics collector in this
// implementation).
#pragma once

#include <vector>

#include "events/event.h"
#include "sched/task.h"
#include "sched/utilization_ledger.h"
#include "util/ids.h"
#include "util/time.h"

namespace rtcm::core {

/// LB facet ("Location"): propose a per-stage processor assignment for a
/// task against the current synthetic utilization, written into the
/// caller's `out` (one processor per stage; its capacity is reused).
class LocationService {
 public:
  virtual ~LocationService() = default;
  virtual void propose_placement(const sched::TaskSpec& task,
                                 const sched::UtilizationLedger& ledger,
                                 std::vector<ProcessorId>& out) = 0;
};

/// IR facet ("Complete"): a subtask component finished one subjob on this
/// processor.
class CompletionSink {
 public:
  virtual ~CompletionSink() = default;
  virtual void subjob_complete(const events::SubjobRef& ref,
                               sched::TaskKind kind,
                               Time absolute_deadline) = 0;
};

/// End-to-end completion observer (wired into every Last Subtask component).
class JobCompletionListener {
 public:
  virtual ~JobCompletionListener() = default;
  /// `arrived` is when the job arrived at its TE (the Trigger chain carries
  /// it), so completed - arrived is the end-to-end response time.
  virtual void job_completed(TaskId task, JobId job, Time arrived,
                             Time completed, Time absolute_deadline) = 0;
};

}  // namespace rtcm::core
