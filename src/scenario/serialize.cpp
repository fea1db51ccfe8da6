// Deterministic JSON round trip for ScenarioSpec.
//
// Canonical form: every field is always emitted, in a fixed key order, with
// util/json's shortest-round-trip number rendering — so equal specs
// serialize to equal bytes and serialize -> parse -> serialize is a fixed
// point (the property scenario_test pins).  Parsing is strict about types
// but tolerant of absent optional sections, so hand-written specs stay
// short.
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "scenario/scenario.h"

namespace rtcm::scenario {

namespace {

/// `v` as an integer, or `def` when it is not a number.  A JSON number is a
/// double, and one outside [lo, hi] (or not finite) is refused by field
/// name: casting it would be undefined, or wrap a 32-bit id.
Result<std::int64_t> int_from_json(
    const json::Value& v, const std::string& field, std::int64_t def = 0,
    std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
    std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  if (!v.is_number()) return def;
  const std::int64_t out = v.as_int();
  if (!v.is_int64() || out < lo || out > hi) {
    return Result<std::int64_t>::error(field + " is out of range (" +
                                       json::number_to_string(v.as_double()) +
                                       ")");
  }
  return out;
}

/// The integer fields of one JSON object, read through int_from_json.  The
/// first refusal is kept and later reads return their defaults, so a parser
/// checks ok() once after its reads.
class IntFields {
 public:
  IntFields(const json::Value& object, std::string prefix)
      : object_(object), prefix_(std::move(prefix)) {}

  std::int64_t get(const char* key, std::int64_t def = 0) {
    return read(key, def, std::numeric_limits<std::int64_t>::min(),
                std::numeric_limits<std::int64_t>::max());
  }
  /// A processor or task id, which must fit its int32.
  std::int32_t id(const char* key) {
    return static_cast<std::int32_t>(
        read(key, 0, std::numeric_limits<std::int32_t>::min(),
             std::numeric_limits<std::int32_t>::max()));
  }

  [[nodiscard]] bool ok() const { return error_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  std::int64_t read(const char* key, std::int64_t def, std::int64_t lo,
                    std::int64_t hi) {
    const auto r = int_from_json(object_.get(key), prefix_ + key, def, lo, hi);
    if (r.is_ok()) return r.value();
    if (error_.empty()) error_ = r.message();
    return def;
  }

  const json::Value& object_;
  std::string prefix_;
  std::string error_;
};

json::Value ids_to_json(const std::vector<ProcessorId>& ids) {
  json::Value out = json::Value::array();
  for (const ProcessorId id : ids) out.push_back(id.value());
  return out;
}

Result<std::vector<ProcessorId>> ids_from_json(const json::Value& v,
                                               const char* field) {
  using R = Result<std::vector<ProcessorId>>;
  if (!v.is_array()) return R::error(std::string(field) + ": expected array");
  std::vector<ProcessorId> out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!v.at(i).is_number()) {
      return R::error(std::string(field) + ": expected processor ids");
    }
    const auto id = int_from_json(
        v.at(i), std::string(field) + "[" + std::to_string(i) + "]", 0,
        std::numeric_limits<std::int32_t>::min(),
        std::numeric_limits<std::int32_t>::max());
    if (!id.is_ok()) return R::error(id.message());
    out.push_back(ProcessorId(static_cast<std::int32_t>(id.value())));
  }
  return out;
}

/// Seeds are unsigned: a negative number is refused here, by name, instead
/// of wrapping to a huge value that validate() would misreport as past 2^53.
Result<std::uint64_t> seed_from_json(const json::Value& parent,
                                     const char* key, const char* field) {
  const auto read = int_from_json(parent.get(key), field, 1);
  if (!read.is_ok()) return Result<std::uint64_t>::error(read.message());
  const std::int64_t seed = read.value();
  if (seed < 0) {
    return Result<std::uint64_t>::error(std::string(field) +
                                        " is negative (" +
                                        std::to_string(seed) + ")");
  }
  return static_cast<std::uint64_t>(seed);
}

json::Value config_to_json(const core::SystemConfig& config) {
  json::Value out = json::Value::object();
  out.set("strategies", config.strategies.label());
  out.set("comm_latency_us", config.comm_latency.usec());
  out.set("comm_jitter_us", config.comm_jitter.usec());
  out.set("comm_jitter_seed", config.comm_jitter_seed);
  out.set("loopback_latency_us", config.loopback_latency.usec());
  out.set("lb_policy", config.lb_policy);
  out.set("lb_seed", config.lb_seed);
  out.set("enable_trace", config.enable_trace);
  out.set("task_manager", config.task_manager.has_value()
                              ? json::Value(config.task_manager->value())
                              : json::Value());
  out.set("analysis",
          config.analysis == core::AperiodicAnalysis::kAub ? "AUB" : "DS");
  out.set("ds_budget_us", config.ds_server.budget.usec());
  out.set("ds_period_us", config.ds_server.period.usec());
  out.set("ds_hop_overhead_us", config.ds_server.hop_overhead.usec());
  return out;
}

Result<core::SystemConfig> config_from_json(const json::Value& v) {
  using R = Result<core::SystemConfig>;
  if (!v.is_object()) return R::error("config: expected object");
  core::SystemConfig config;
  const auto combo =
      core::StrategyCombination::parse(v.get("strategies").as_string());
  if (!combo.is_ok()) return R::error("config.strategies: " + combo.message());
  config.strategies = combo.value();
  IntFields ints(v, "config.");
  config.comm_latency =
      Duration(ints.get("comm_latency_us", config.comm_latency.usec()));
  config.comm_jitter = Duration(ints.get("comm_jitter_us"));
  const auto jitter_seed =
      seed_from_json(v, "comm_jitter_seed", "config.comm_jitter_seed");
  if (!jitter_seed.is_ok()) return R::error(jitter_seed.message());
  config.comm_jitter_seed = jitter_seed.value();
  config.loopback_latency = Duration(ints.get("loopback_latency_us"));
  if (v.get("lb_policy").is_string()) {
    config.lb_policy = v.get("lb_policy").as_string();
  }
  const auto lb_seed = seed_from_json(v, "lb_seed", "config.lb_seed");
  if (!lb_seed.is_ok()) return R::error(lb_seed.message());
  config.lb_seed = lb_seed.value();
  config.enable_trace = v.get("enable_trace").as_bool();
  if (v.get("task_manager").is_number()) {
    config.task_manager = ProcessorId(ints.id("task_manager"));
  }
  const std::string& analysis = v.get("analysis").as_string();
  if (analysis == "DS") {
    config.analysis = core::AperiodicAnalysis::kDeferrableServer;
  } else if (analysis == "AUB" || analysis.empty()) {
    config.analysis = core::AperiodicAnalysis::kAub;
  } else {
    return R::error("config.analysis: expected AUB or DS, got '" + analysis +
                    "'");
  }
  config.ds_server.budget =
      Duration(ints.get("ds_budget_us", config.ds_server.budget.usec()));
  config.ds_server.period =
      Duration(ints.get("ds_period_us", config.ds_server.period.usec()));
  config.ds_server.hop_overhead = Duration(ints.get("ds_hop_overhead_us"));
  if (!ints.ok()) return R::error(ints.error());
  return config;
}

json::Value shape_to_json(const workload::WorkloadShape& shape) {
  json::Value out = json::Value::object();
  out.set("primary_processors", ids_to_json(shape.primary_processors));
  out.set("replica_processors", ids_to_json(shape.replica_processors));
  out.set("periodic_tasks", static_cast<std::int64_t>(shape.periodic_tasks));
  out.set("aperiodic_tasks",
          static_cast<std::int64_t>(shape.aperiodic_tasks));
  out.set("min_subtasks", static_cast<std::int64_t>(shape.min_subtasks));
  out.set("max_subtasks", static_cast<std::int64_t>(shape.max_subtasks));
  out.set("min_deadline_us", shape.min_deadline.usec());
  out.set("max_deadline_us", shape.max_deadline.usec());
  out.set("per_processor_utilization", shape.per_processor_utilization);
  out.set("replicate", shape.replicate);
  out.set("aperiodic_interarrival_factor",
          shape.aperiodic_interarrival_factor);
  return out;
}

Result<workload::WorkloadShape> shape_from_json(const json::Value& v) {
  using R = Result<workload::WorkloadShape>;
  if (!v.is_object()) return R::error("workload.shape: expected object");
  workload::WorkloadShape shape;
  auto primaries =
      ids_from_json(v.get("primary_processors"), "primary_processors");
  if (!primaries.is_ok()) return R::error(primaries.message());
  shape.primary_processors = std::move(primaries).value();
  auto replicas =
      ids_from_json(v.get("replica_processors"), "replica_processors");
  if (!replicas.is_ok()) return R::error(replicas.message());
  shape.replica_processors = std::move(replicas).value();
  IntFields ints(v, "workload.shape.");
  shape.periodic_tasks =
      static_cast<std::size_t>(ints.get("periodic_tasks", 5));
  shape.aperiodic_tasks =
      static_cast<std::size_t>(ints.get("aperiodic_tasks", 4));
  shape.min_subtasks = static_cast<std::size_t>(ints.get("min_subtasks", 1));
  shape.max_subtasks = static_cast<std::size_t>(ints.get("max_subtasks", 5));
  shape.min_deadline =
      Duration(ints.get("min_deadline_us", shape.min_deadline.usec()));
  shape.max_deadline =
      Duration(ints.get("max_deadline_us", shape.max_deadline.usec()));
  if (!ints.ok()) return R::error(ints.error());
  shape.per_processor_utilization =
      v.get("per_processor_utilization").as_double(0.5);
  shape.replicate = v.get("replicate").as_bool(true);
  shape.aperiodic_interarrival_factor =
      v.get("aperiodic_interarrival_factor").as_double(1.0);
  return shape;
}

json::Value task_to_json(const sched::TaskSpec& task) {
  json::Value out = json::Value::object();
  out.set("id", task.id.value());
  out.set("name", task.name);
  out.set("kind", sched::to_string(task.kind));
  out.set("deadline_us", task.deadline.usec());
  out.set("period_us", task.period.usec());
  out.set("mean_interarrival_us", task.mean_interarrival.usec());
  json::Value subtasks = json::Value::array();
  for (const sched::SubtaskSpec& st : task.subtasks) {
    json::Value stage = json::Value::object();
    stage.set("execution_us", st.execution.usec());
    stage.set("primary", st.primary.value());
    stage.set("replicas", ids_to_json(st.replicas));
    subtasks.push_back(std::move(stage));
  }
  out.set("subtasks", std::move(subtasks));
  return out;
}

Result<sched::TaskSpec> task_from_json(const json::Value& v) {
  using R = Result<sched::TaskSpec>;
  if (!v.is_object()) return R::error("task: expected object");
  sched::TaskSpec task;
  IntFields ints(v, "task.");
  task.id = TaskId(ints.id("id"));
  task.name = v.get("name").as_string();
  const std::string& kind = v.get("kind").as_string();
  if (kind == "periodic") {
    task.kind = sched::TaskKind::kPeriodic;
  } else if (kind == "aperiodic") {
    task.kind = sched::TaskKind::kAperiodic;
  } else {
    return R::error("task.kind: expected periodic or aperiodic, got '" +
                    kind + "'");
  }
  task.deadline = Duration(ints.get("deadline_us"));
  task.period = Duration(ints.get("period_us"));
  task.mean_interarrival = Duration(ints.get("mean_interarrival_us"));
  if (!ints.ok()) return R::error(ints.error());
  const json::Value& subtasks = v.get("subtasks");
  if (!subtasks.is_array()) return R::error("task.subtasks: expected array");
  for (std::size_t i = 0; i < subtasks.size(); ++i) {
    const json::Value& stage = subtasks.at(i);
    sched::SubtaskSpec st;
    IntFields stage_ints(stage, "task.subtasks[" + std::to_string(i) + "].");
    st.execution = Duration(stage_ints.get("execution_us"));
    st.primary = ProcessorId(stage_ints.id("primary"));
    if (!stage_ints.ok()) return R::error(stage_ints.error());
    auto replicas = ids_from_json(stage.get("replicas"), "replicas");
    if (!replicas.is_ok()) return R::error(replicas.message());
    st.replicas = std::move(replicas).value();
    task.subtasks.push_back(std::move(st));
  }
  return task;
}

json::Value workload_to_json(const WorkloadSpec& workload) {
  json::Value out = json::Value::object();
  if (workload.kind == WorkloadSpec::Kind::kGenerated) {
    out.set("kind", "generated");
    out.set("shape", shape_to_json(workload.shape));
  } else {
    out.set("kind", "explicit");
    json::Value tasks = json::Value::array();
    for (const sched::TaskSpec& task : workload.tasks.tasks()) {
      tasks.push_back(task_to_json(task));
    }
    out.set("tasks", std::move(tasks));
  }
  return out;
}

Result<WorkloadSpec> workload_from_json(const json::Value& v) {
  using R = Result<WorkloadSpec>;
  if (!v.is_object()) return R::error("workload: expected object");
  const std::string& kind = v.get("kind").as_string();
  if (kind == "generated") {
    auto shape = shape_from_json(v.get("shape"));
    if (!shape.is_ok()) return R::error(shape.message());
    return WorkloadSpec::generated(std::move(shape).value());
  }
  if (kind == "explicit") {
    const json::Value& tasks = v.get("tasks");
    if (!tasks.is_array()) return R::error("workload.tasks: expected array");
    sched::TaskSet set;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      auto task = task_from_json(tasks.at(i));
      if (!task.is_ok()) return R::error(task.message());
      if (Status s = set.add(std::move(task).value()); !s.is_ok()) {
        return R::error("workload.tasks[" + std::to_string(i) +
                        "]: " + s.message());
      }
    }
    return WorkloadSpec::explicit_tasks(std::move(set));
  }
  return R::error("workload.kind: expected generated or explicit, got '" +
                  kind + "'");
}

json::Value arrivals_to_json(const ArrivalModel& model) {
  json::Value out = json::Value::object();
  switch (model.kind) {
    case ArrivalModel::Kind::kPoisson:
      out.set("kind", "poisson");
      break;
    case ArrivalModel::Kind::kBursty:
      out.set("kind", "bursty");
      out.set("bursts", static_cast<std::int64_t>(model.burst.bursts));
      out.set("jobs_per_burst",
              static_cast<std::int64_t>(model.burst.jobs_per_burst));
      out.set("intra_gap_us", model.burst.intra_gap.usec());
      out.set("inter_gap_us", model.burst.inter_gap.usec());
      out.set("start_us", model.burst.start.usec());
      break;
    case ArrivalModel::Kind::kTrace: {
      out.set("kind", "trace");
      json::Value trace = json::Value::array();
      for (const core::Arrival& a : model.trace) {
        json::Value entry = json::Value::object();
        entry.set("task", a.task.value());
        entry.set("at_us", a.time.usec());
        trace.push_back(std::move(entry));
      }
      out.set("trace", std::move(trace));
      break;
    }
    case ArrivalModel::Kind::kNone:
      out.set("kind", "none");
      break;
  }
  return out;
}

Result<ArrivalModel> arrivals_from_json(const json::Value& v) {
  using R = Result<ArrivalModel>;
  if (v.is_null()) return ArrivalModel::poisson();
  if (!v.is_object()) return R::error("arrivals: expected object");
  const std::string& kind = v.get("kind").as_string();
  if (kind == "poisson" || kind.empty()) return ArrivalModel::poisson();
  if (kind == "none") return ArrivalModel::none();
  if (kind == "bursty") {
    workload::BurstShape burst;
    IntFields ints(v, "arrivals.");
    burst.bursts = static_cast<std::size_t>(
        ints.get("bursts", static_cast<std::int64_t>(burst.bursts)));
    burst.jobs_per_burst = static_cast<std::size_t>(ints.get(
        "jobs_per_burst", static_cast<std::int64_t>(burst.jobs_per_burst)));
    burst.intra_gap =
        Duration(ints.get("intra_gap_us", burst.intra_gap.usec()));
    burst.inter_gap =
        Duration(ints.get("inter_gap_us", burst.inter_gap.usec()));
    burst.start = Time(ints.get("start_us"));
    if (!ints.ok()) return R::error(ints.error());
    return ArrivalModel::bursty(burst);
  }
  if (kind == "trace") {
    const json::Value& trace = v.get("trace");
    if (!trace.is_array()) return R::error("arrivals.trace: expected array");
    std::vector<core::Arrival> out;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      IntFields ints(trace.at(i),
                     "arrivals.trace[" + std::to_string(i) + "].");
      out.push_back(core::Arrival{TaskId(ints.id("task")),
                                  Time(ints.get("at_us"))});
      if (!ints.ok()) return R::error(ints.error());
    }
    return ArrivalModel::explicit_trace(std::move(out));
  }
  return R::error("arrivals.kind: unknown arrival model '" + kind + "'");
}

json::Value reconfig_to_json(const std::vector<config::ModeChange>& script) {
  json::Value out = json::Value::array();
  for (const config::ModeChange& change : script) {
    json::Value entry = json::Value::object();
    entry.set("at_us", change.at.usec());
    entry.set("label", change.label);
    entry.set("strategies", change.strategies.has_value()
                                ? json::Value(change.strategies->label())
                                : json::Value());
    entry.set("lb_policy", change.lb_policy.has_value()
                               ? json::Value(*change.lb_policy)
                               : json::Value());
    entry.set("drain", ids_to_json(change.drain));
    entry.set("undrain", ids_to_json(change.undrain));
    out.push_back(std::move(entry));
  }
  return out;
}

Result<std::vector<config::ModeChange>> reconfig_from_json(
    const json::Value& v) {
  using R = Result<std::vector<config::ModeChange>>;
  std::vector<config::ModeChange> script;
  if (v.is_null()) return script;
  if (!v.is_array()) return R::error("reconfig: expected array");
  for (std::size_t i = 0; i < v.size(); ++i) {
    const json::Value& entry = v.at(i);
    if (!entry.is_object()) {
      return R::error("reconfig[" + std::to_string(i) + "]: expected object");
    }
    config::ModeChange change;
    IntFields ints(entry, "reconfig[" + std::to_string(i) + "].");
    change.at = Time(ints.get("at_us"));
    if (!ints.ok()) return R::error(ints.error());
    change.label = entry.get("label").as_string();
    if (entry.get("strategies").is_string()) {
      const auto combo = core::StrategyCombination::parse(
          entry.get("strategies").as_string());
      if (!combo.is_ok()) {
        return R::error("reconfig[" + std::to_string(i) +
                        "].strategies: " + combo.message());
      }
      change.strategies = combo.value();
    }
    if (entry.get("lb_policy").is_string()) {
      change.lb_policy = entry.get("lb_policy").as_string();
    }
    auto drain = ids_from_json(entry.get("drain"), "drain");
    if (!drain.is_ok()) return R::error(drain.message());
    change.drain = std::move(drain).value();
    auto undrain = ids_from_json(entry.get("undrain"), "undrain");
    if (!undrain.is_ok()) return R::error(undrain.message());
    change.undrain = std::move(undrain).value();
    script.push_back(std::move(change));
  }
  return script;
}

}  // namespace

json::Value to_json(const ScenarioSpec& spec) {
  json::Value out = json::Value::object();
  out.set("schema_version", kScenarioSchemaVersion);
  out.set("name", spec.name);
  out.set("seed", spec.seed);
  out.set("horizon_us", spec.horizon.usec());
  out.set("drain_us", spec.drain.usec());
  out.set("config", config_to_json(spec.config));
  out.set("workload", workload_to_json(spec.workload));
  out.set("arrivals", arrivals_to_json(spec.arrivals));
  out.set("reconfig", reconfig_to_json(spec.reconfig));
  return out;
}

Result<ScenarioSpec> spec_from_json(const json::Value& v) {
  using R = Result<ScenarioSpec>;
  if (!v.is_object()) return R::error("scenario spec: expected object");
  if (v.get("schema_version").as_int() != kScenarioSchemaVersion) {
    return R::error("scenario spec: unsupported schema_version");
  }
  ScenarioSpec spec;
  spec.name = v.get("name").as_string();
  const auto seed = seed_from_json(v, "seed", "seed");
  if (!seed.is_ok()) return R::error(seed.message());
  spec.seed = seed.value();
  IntFields ints(v, "");
  spec.horizon = Duration(ints.get("horizon_us", spec.horizon.usec()));
  spec.drain = Duration(ints.get("drain_us", spec.drain.usec()));
  if (!ints.ok()) return R::error(ints.error());
  auto config = config_from_json(v.get("config"));
  if (!config.is_ok()) return R::error(config.message());
  spec.config = std::move(config).value();
  auto workload = workload_from_json(v.get("workload"));
  if (!workload.is_ok()) return R::error(workload.message());
  spec.workload = std::move(workload).value();
  auto arrivals = arrivals_from_json(v.get("arrivals"));
  if (!arrivals.is_ok()) return R::error(arrivals.message());
  spec.arrivals = std::move(arrivals).value();
  auto reconfig = reconfig_from_json(v.get("reconfig"));
  if (!reconfig.is_ok()) return R::error(reconfig.message());
  spec.reconfig = std::move(reconfig).value();
  return spec;
}

Result<ScenarioSpec> spec_from_text(const std::string& text) {
  const auto parsed = json::Value::parse(text);
  if (!parsed.is_ok()) {
    return Result<ScenarioSpec>::error(parsed.message());
  }
  return spec_from_json(parsed.value());
}

}  // namespace rtcm::scenario
