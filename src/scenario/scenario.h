// Unified Scenario API: one declarative, serializable spec from workload to
// run.
//
// Every experiment in the paper — and every test, bench and example in this
// repo — is an instance of one shape: a task set, a topology, a strategy
// combination, an arrival process, optionally a mode-change script, plus a
// horizon and a seed.  ScenarioSpec captures that shape as plain data with a
// deterministic JSON round trip (src/util/json), so a scenario can be
// logged, diffed, replayed and swept.  Scenario::run() is the single
// entrypoint that assembles a SystemRuntime from a spec, drives it and
// returns a structured ScenarioResult.
//
// Layering: the sweep engine (src/sweep) runs grids whose cells are
// transforms of a base ScenarioSpec; the scenario library
// (scenario/library.h) names the paper's grids and new workloads; the
// builders (scenario/builder.h) keep hand-written specs fluent.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "config/plan_builder.h"
#include "core/runtime.h"
#include "reconfig/manager.h"
#include "sched/task.h"
#include "util/json.h"
#include "util/result.h"
#include "util/time.h"
#include "workload/burst.h"
#include "workload/generator.h"

namespace rtcm::scenario {

/// Where the task set comes from: generated from a workload shape (seeded by
/// ScenarioSpec::seed) or spelled out explicitly.
struct WorkloadSpec {
  enum class Kind { kGenerated, kExplicit };
  Kind kind = Kind::kGenerated;
  /// kGenerated: the shape handed to workload::generate_workload.
  workload::WorkloadShape shape = workload::random_workload_shape();
  /// kExplicit: the literal task set.
  sched::TaskSet tasks;

  [[nodiscard]] static WorkloadSpec generated(workload::WorkloadShape s);
  [[nodiscard]] static WorkloadSpec explicit_tasks(sched::TaskSet t);
};

/// The arrival process driving the run.
struct ArrivalModel {
  enum class Kind { kPoisson, kBursty, kTrace, kNone };
  Kind kind = Kind::kPoisson;
  /// kBursty: burst layout applied to every aperiodic task (periodic tasks
  /// keep their periodic releases).
  workload::BurstShape burst;
  /// kTrace: the literal arrival trace, replayed verbatim.
  std::vector<core::Arrival> trace;

  /// Poisson aperiodic arrivals + periodic releases (the paper's model).
  [[nodiscard]] static ArrivalModel poisson();
  [[nodiscard]] static ArrivalModel bursty(workload::BurstShape shape);
  [[nodiscard]] static ArrivalModel explicit_trace(
      std::vector<core::Arrival> trace);
  /// No externally driven arrivals (the caller injects by hand).
  [[nodiscard]] static ArrivalModel none();
};

/// The complete declarative description of one experiment.
struct ScenarioSpec {
  std::string name = "scenario";
  /// Seed for workload generation and arrivals (forked per concern, so a
  /// spec is a pure function from seed to trace).
  std::uint64_t seed = 1;
  Duration horizon = Duration::seconds(100);
  /// Extra simulated time after the last arrival so in-flight jobs finish.
  Duration drain = Duration::seconds(15);
  /// Strategies, topology knobs (latency/jitter/loopback), LB policy,
  /// analysis, tracing — everything the runtime assembles from.
  core::SystemConfig config;
  WorkloadSpec workload;
  ArrivalModel arrivals;
  /// Optional mode-change script a ReconfigurationManager applies mid-run.
  std::vector<config::ModeChange> reconfig;
};

/// Spec-level validation (config knobs via core::validate_config, explicit
/// task sets, horizon/drain sanity).  run() calls this first.
[[nodiscard]] Status validate(const ScenarioSpec& spec);

// --- JSON round trip ---------------------------------------------------------
//
// to_json emits every field in a fixed key order with canonical number
// rendering, so equal specs serialize to equal bytes and
// `spec_from_json(to_json(spec))` is a fixed point.

inline constexpr int kScenarioSchemaVersion = 1;

[[nodiscard]] json::Value to_json(const ScenarioSpec& spec);
[[nodiscard]] Result<ScenarioSpec> spec_from_json(const json::Value& v);
/// Convenience: parse a serialized spec document.
[[nodiscard]] Result<ScenarioSpec> spec_from_text(const std::string& text);

// --- Running -----------------------------------------------------------------

/// Structured outcome of one scenario run.  Owns the runtime, so callers can
/// keep inspecting live state (metrics breakdowns, trace, ledger) after the
/// run; the summary fields below are what sweeps and reports consume.
struct ScenarioResult {
  // Headline metrics (the paper's §7 measurements).
  double accept_ratio = 0.0;
  std::uint64_t deadline_misses = 0;
  /// Mean end-to-end response over the aperiodic tasks' per-task means.
  double aperiodic_response_ms = 0.0;
  // Counters.
  std::uint64_t arrivals = 0;
  std::uint64_t releases = 0;
  std::uint64_t completions = 0;
  std::uint64_t rejections = 0;
  /// Arrivals neither released nor rejected when the run ended
  /// (arrivals - releases - rejections): jobs still held pending the AC's
  /// answer.  Zero for every well-formed cell; nonzero means the accept
  /// ratio counts jobs whose admission was never decided.
  std::uint64_t undecided = 0;
  std::uint64_t reconfig_applied = 0;
  std::uint64_t reconfig_rejected = 0;
  /// Per-mode-change outcomes when the spec carried a reconfig script.
  std::vector<reconfig::ReconfigReport> reconfig_history;
  /// Host wall time of the simulation (non-deterministic).
  double wall_ms = 0.0;
  /// The driven runtime, alive for inspection.
  std::unique_ptr<core::SystemRuntime> runtime;
  /// The manager that executed spec.reconfig (null without a script).  It
  /// may still have events pending in the runtime's simulator (a step past
  /// the horizon, a deferred quiesce), so it lives here — declared after
  /// `runtime` so it is destroyed first — and the returned runtime can be
  /// driven further safely.
  std::unique_ptr<reconfig::ReconfigurationManager> reconfig_manager;

  [[nodiscard]] const core::MetricsCollector& metrics() const {
    return runtime->metrics();
  }
  /// Trace handle (records populated when spec.config.enable_trace).
  [[nodiscard]] sim::Trace& trace() { return runtime->trace(); }
};

/// Assemble, drive and measure one spec.  Deterministic: equal specs produce
/// equal results (modulo wall_ms), which is what makes specs sweepable and
/// replayable from their JSON form.
[[nodiscard]] Result<ScenarioResult> run_scenario(const ScenarioSpec& spec);

/// Thin OO wrapper when a scenario is passed around as an object.
class Scenario {
 public:
  explicit Scenario(ScenarioSpec spec) : spec_(std::move(spec)) {}

  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }
  [[nodiscard]] Status validate() const { return scenario::validate(spec_); }
  [[nodiscard]] Result<ScenarioResult> run() const {
    return run_scenario(spec_);
  }

 private:
  ScenarioSpec spec_;
};

}  // namespace rtcm::scenario
