#include "scenario/scenario.h"

#include <chrono>
#include <string>
#include <utility>

#include "workload/arrival.h"

namespace rtcm::scenario {

WorkloadSpec WorkloadSpec::generated(workload::WorkloadShape s) {
  WorkloadSpec spec;
  spec.kind = Kind::kGenerated;
  spec.shape = std::move(s);
  return spec;
}

WorkloadSpec WorkloadSpec::explicit_tasks(sched::TaskSet t) {
  WorkloadSpec spec;
  spec.kind = Kind::kExplicit;
  spec.tasks = std::move(t);
  return spec;
}

ArrivalModel ArrivalModel::poisson() { return ArrivalModel{}; }

ArrivalModel ArrivalModel::bursty(workload::BurstShape shape) {
  ArrivalModel model;
  model.kind = Kind::kBursty;
  model.burst = shape;
  return model;
}

ArrivalModel ArrivalModel::explicit_trace(std::vector<core::Arrival> trace) {
  ArrivalModel model;
  model.kind = Kind::kTrace;
  model.trace = std::move(trace);
  return model;
}

ArrivalModel ArrivalModel::none() {
  ArrivalModel model;
  model.kind = Kind::kNone;
  return model;
}

namespace {

/// The generator's preconditions as clean errors, so a bad generated-shape
/// spec is refused up front instead of tripping an assert mid-run.
Status validate_shape(const workload::WorkloadShape& shape) {
  if (shape.primary_processors.empty()) {
    return Status::error("workload shape needs at least 1 primary processor");
  }
  if (shape.periodic_tasks + shape.aperiodic_tasks == 0) {
    return Status::error("workload shape generates no tasks");
  }
  if (shape.min_subtasks < 1 || shape.max_subtasks < shape.min_subtasks) {
    return Status::error("workload shape subtask range is empty");
  }
  if (shape.min_deadline <= Duration::zero() ||
      shape.max_deadline < shape.min_deadline) {
    return Status::error("workload shape deadline range is empty");
  }
  if (shape.per_processor_utilization <= 0.0 ||
      shape.per_processor_utilization >= 1.0) {
    return Status::error(
        "per_processor_utilization must be in (0, 1), got " +
        json::number_to_string(shape.per_processor_utilization));
  }
  if (shape.aperiodic_interarrival_factor <= 0.0) {
    return Status::error("aperiodic_interarrival_factor must be positive");
  }
  return Status::ok();
}

/// Largest integer the JSON number form (IEEE double) represents exactly;
/// seeds beyond it would come back changed from a round trip.
constexpr std::uint64_t kMaxJsonExactInt = 1ull << 53;

Status validate_seed(std::uint64_t seed, const char* field) {
  if (seed > kMaxJsonExactInt) {
    return Status::error(std::string(field) +
                         " exceeds 2^53 and would not survive the JSON "
                         "round trip");
  }
  return Status::ok();
}

}  // namespace

Status validate(const ScenarioSpec& spec) {
  if (spec.name.empty()) {
    return Status::error("scenario name must not be empty");
  }
  if (Status s = validate_seed(spec.seed, "seed"); !s.is_ok()) return s;
  if (Status s = validate_seed(spec.config.comm_jitter_seed,
                               "comm_jitter_seed");
      !s.is_ok()) {
    return s;
  }
  if (Status s = validate_seed(spec.config.lb_seed, "lb_seed"); !s.is_ok()) {
    return s;
  }
  if (spec.horizon <= Duration::zero()) {
    return Status::error("scenario horizon must be positive, got " +
                         spec.horizon.to_string());
  }
  if (spec.drain.is_negative()) {
    return Status::error("scenario drain must be non-negative, got " +
                         spec.drain.to_string());
  }
  // run_scenario runs to horizon + drain; that sum must stay an int64.
  if (spec.drain > Duration::max() - spec.horizon) {
    return Status::error("scenario drain_us " +
                         std::to_string(spec.drain.usec()) +
                         " plus horizon_us " +
                         std::to_string(spec.horizon.usec()) +
                         " overflows the int64 microsecond range");
  }
  if (Status s = core::validate_config(spec.config); !s.is_ok()) return s;
  if (spec.workload.kind == WorkloadSpec::Kind::kGenerated) {
    if (Status s = validate_shape(spec.workload.shape); !s.is_ok()) return s;
  } else if (spec.workload.tasks.empty()) {
    return Status::error("explicit workload has no tasks");
  }
  // The run starts at the epoch; an earlier arrival cannot be simulated.
  if (spec.arrivals.kind == ArrivalModel::Kind::kBursty) {
    const workload::BurstShape& burst = spec.arrivals.burst;
    const std::pair<const char*, std::int64_t> fields[] = {
        {"start_us", burst.start.usec()},
        {"intra_gap_us", burst.intra_gap.usec()},
        {"inter_gap_us", burst.inter_gap.usec()}};
    for (const auto& [field, value] : fields) {
      if (value < 0) {
        return Status::error(std::string("arrivals.") + field +
                             " is negative (" + std::to_string(value) + ")");
      }
    }
  }
  if (spec.arrivals.kind == ArrivalModel::Kind::kTrace) {
    for (std::size_t i = 0; i < spec.arrivals.trace.size(); ++i) {
      const Time at = spec.arrivals.trace[i].time;
      if (at < Time::epoch()) {
        return Status::error("arrivals.trace[" + std::to_string(i) +
                             "].at_us is negative (" +
                             std::to_string(at.usec()) + ")");
      }
    }
  }
  for (const config::ModeChange& change : spec.reconfig) {
    if (change.strategies.has_value() && !change.strategies->valid()) {
      return Status::error("reconfig step '" + change.label +
                           "' swaps to invalid strategy combination " +
                           change.strategies->label() + ": " +
                           change.strategies->invalid_reason());
    }
  }
  return Status::ok();
}

Result<ScenarioResult> run_scenario(const ScenarioSpec& spec) {
  const auto started = std::chrono::steady_clock::now();
  if (Status s = validate(spec); !s.is_ok()) {
    return Result<ScenarioResult>::error(s.message());
  }

  // One seed, forked per concern: the workload consumes the root stream, the
  // arrival trace gets fork(1) — the exact discipline the sweep engine has
  // used since PR 2, so spec-driven runs are byte-identical to it.
  Rng rng(spec.seed);
  sched::TaskSet tasks = spec.workload.kind == WorkloadSpec::Kind::kGenerated
                             ? workload::generate_workload(spec.workload.shape,
                                                           rng)
                             : spec.workload.tasks;

  ScenarioResult result;
  result.runtime =
      std::make_unique<core::SystemRuntime>(spec.config, std::move(tasks));
  core::SystemRuntime& runtime = *result.runtime;
  if (Status s = runtime.assemble(); !s.is_ok()) {
    return Result<ScenarioResult>::error(s.message());
  }

  // The reconfiguration axis: scripts are scheduled before the arrivals so
  // same-instant ties resolve identically on every run.  The manager lands
  // in the result: steps past the horizon and deferred quiesce events stay
  // valid if the caller keeps driving the returned runtime.
  if (!spec.reconfig.empty()) {
    result.reconfig_manager =
        std::make_unique<reconfig::ReconfigurationManager>(runtime);
    if (Status s = result.reconfig_manager->schedule_script(spec.reconfig);
        !s.is_ok()) {
      return Result<ScenarioResult>::error(s.message());
    }
  }

  Rng arrival_rng = rng.fork(1);
  const Time horizon = Time::epoch() + spec.horizon;
  std::vector<core::Arrival> arrivals;
  switch (spec.arrivals.kind) {
    case ArrivalModel::Kind::kPoisson:
      arrivals =
          workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng);
      break;
    case ArrivalModel::Kind::kBursty:
      arrivals = workload::generate_bursty_arrivals(
          runtime.tasks(), horizon, spec.arrivals.burst, arrival_rng);
      break;
    case ArrivalModel::Kind::kTrace:
      arrivals = spec.arrivals.trace;
      break;
    case ArrivalModel::Kind::kNone:
      break;
  }
  if (Status s = runtime.inject_arrivals(arrivals); !s.is_ok()) {
    return Result<ScenarioResult>::error(s.message());
  }
  runtime.run_until(horizon + spec.drain);

  if (result.reconfig_manager) {
    result.reconfig_applied = result.reconfig_manager->applied_count();
    result.reconfig_rejected = result.reconfig_manager->rejected_count();
    result.reconfig_history = result.reconfig_manager->history();
  }
  const core::MetricsCollector& metrics = runtime.metrics();
  result.accept_ratio = metrics.accepted_utilization_ratio();
  result.deadline_misses = metrics.total().deadline_misses;
  result.arrivals = metrics.total().arrivals;
  result.releases = metrics.total().releases;
  result.completions = metrics.total().completions;
  result.rejections = metrics.total().rejections;
  result.undecided = metrics.total().arrivals - metrics.total().releases -
                     metrics.total().rejections;
  OnlineStats response;
  for (const auto& [task, tm] : metrics.per_task()) {
    if (runtime.tasks().find(task)->kind == sched::TaskKind::kAperiodic) {
      response.merge(tm.response_ms);
    }
  }
  result.aperiodic_response_ms = response.count() > 0 ? response.mean() : 0.0;
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - started)
                       .count();
  return result;
}

}  // namespace rtcm::scenario
