// Scenario API: spec validation, deterministic JSON round trips, builder
// ergonomics, library determinism, and the headline contract — a sweep
// whose cells are round-tripped through their JSON form is byte-identical
// to the direct sweep.  `ctest -L scenario` selects this layer.
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/builder.h"
#include "scenario/library.h"
#include "scenario/scenario.h"
#include "sweep/report.h"
#include "sweep/sweep.h"
#include "test_helpers.h"

namespace rtcm {
namespace {

scenario::ScenarioSpec small_generated_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "small-generated";
  spec.seed = 3;
  spec.horizon = Duration::seconds(10);
  spec.drain = Duration::seconds(5);
  spec.config.strategies = core::StrategyCombination::parse("J_T_N").value();
  spec.workload = scenario::WorkloadSpec::generated(
      workload::random_workload_shape());
  return spec;
}

scenario::ScenarioSpec explicit_spec() {
  auto built =
      scenario::ScenarioBuilder("explicit")
          .task(scenario::TaskBuilder::periodic(0, "pipeline",
                                                Duration::milliseconds(400))
                    .stage(Duration::milliseconds(30), 0, {1})
                    .stage(Duration::milliseconds(20), 1))
          .task(scenario::TaskBuilder::aperiodic(1, "alert",
                                                 Duration::milliseconds(300))
                    .mean_interarrival(Duration::milliseconds(900))
                    .stage(Duration::milliseconds(25), 1, {0}))
          .strategies("J_J_T")
          .horizon(Duration::seconds(5))
          .drain(Duration::seconds(2))
          .build();
  EXPECT_TRUE(built.is_ok()) << built.message();
  return built.value();
}

// --- Validation --------------------------------------------------------------

TEST(ScenarioValidation, AcceptsDefaultedGeneratedSpec) {
  EXPECT_TRUE(scenario::validate(small_generated_spec()).is_ok());
}

TEST(ScenarioValidation, RejectsNegativeLatencies) {
  auto spec = small_generated_spec();
  spec.config.comm_latency = Duration::microseconds(-1);
  const Status s = scenario::validate(spec);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("comm_latency"), std::string::npos);

  spec = small_generated_spec();
  spec.config.comm_jitter = Duration::microseconds(-5);
  EXPECT_NE(scenario::validate(spec).message().find("comm_jitter"),
            std::string::npos);

  spec = small_generated_spec();
  spec.config.loopback_latency = Duration::microseconds(-5);
  EXPECT_NE(scenario::validate(spec).message().find("loopback_latency"),
            std::string::npos);
}

TEST(ScenarioValidation, RejectsUnknownLbPolicy) {
  auto spec = small_generated_spec();
  spec.config.lb_policy = "round-robin";
  const Status s = scenario::validate(spec);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("round-robin"), std::string::npos);
}

TEST(ScenarioValidation, RejectsBadHorizonAndDrain) {
  auto spec = small_generated_spec();
  spec.horizon = Duration::zero();
  EXPECT_FALSE(scenario::validate(spec).is_ok());
  spec = small_generated_spec();
  spec.drain = Duration::microseconds(-1);
  EXPECT_FALSE(scenario::validate(spec).is_ok());
  // horizon + drain must not overflow int64 (run_scenario runs to the sum).
  spec = small_generated_spec();
  spec.drain = Duration::max() - spec.horizon + Duration(1);
  const Status overflow = scenario::validate(spec);
  EXPECT_FALSE(overflow.is_ok());
  EXPECT_NE(overflow.message().find("drain_us"), std::string::npos);
  spec.drain = Duration::max() - spec.horizon;  // the largest that fits
  EXPECT_TRUE(scenario::validate(spec).is_ok());
}

TEST(ScenarioValidation, RejectsDegenerateGeneratedShape) {
  auto spec = small_generated_spec();
  spec.workload.shape.per_processor_utilization = 1.5;
  EXPECT_FALSE(scenario::validate(spec).is_ok());
  spec = small_generated_spec();
  spec.workload.shape.primary_processors.clear();
  EXPECT_FALSE(scenario::validate(spec).is_ok());
  spec = small_generated_spec();
  spec.workload.shape.max_subtasks = 0;
  EXPECT_FALSE(scenario::validate(spec).is_ok());
}

TEST(ScenarioValidation, RejectsSeedsBeyondJsonExactRange) {
  // json::Value stores numbers as doubles; a seed past 2^53 would come back
  // changed from a round trip, so validation refuses it up front.
  auto spec = small_generated_spec();
  spec.seed = (1ull << 53) + 1;
  const Status s = scenario::validate(spec);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("2^53"), std::string::npos);

  spec = small_generated_spec();
  spec.config.lb_seed = (1ull << 60);
  EXPECT_FALSE(scenario::validate(spec).is_ok());
  spec = small_generated_spec();
  spec.config.comm_jitter_seed = ~0ull;
  EXPECT_FALSE(scenario::validate(spec).is_ok());
  spec = small_generated_spec();
  spec.seed = 1ull << 53;  // exactly representable
  EXPECT_TRUE(scenario::validate(spec).is_ok());

  // Negative seeds in a spec document are refused by name as negative, not
  // wrapped to 2^64 - 1 and misreported as past 2^53.
  const auto reject = [](const char* section, const char* key,
                         const std::string& field) {
    json::Value doc = scenario::to_json(small_generated_spec());
    if (section == nullptr) {
      doc.set(key, -1);
    } else {
      json::Value inner = doc.get(section);
      inner.set(key, -1);
      doc.set(section, inner);
    }
    const auto parsed = scenario::spec_from_text(doc.dump());
    ASSERT_FALSE(parsed.is_ok()) << field;
    EXPECT_NE(parsed.message().find(field + " is negative"),
              std::string::npos)
        << parsed.message();
  };
  reject(nullptr, "seed", "seed");
  reject("config", "comm_jitter_seed", "config.comm_jitter_seed");
  reject("config", "lb_seed", "config.lb_seed");
}

TEST(ScenarioValidation, RejectsIntegersWithoutAnInt64Value) {
  // A JSON number is a double; 1e19 has no int64 value, and casting it used
  // to flip horizon_us to -2^63 ("horizon must be positive, got
  // -9223372036854775808us").  It is now refused by field name.
  const auto message = [](const std::string& text) {
    const auto parsed = scenario::spec_from_text(text);
    EXPECT_FALSE(parsed.is_ok());
    return parsed.is_ok() ? std::string() : parsed.message();
  };
  const auto with = [](const char* section, const char* key, double value) {
    json::Value doc = scenario::to_json(small_generated_spec());
    if (section == nullptr) {
      doc.set(key, value);
    } else {
      json::Value inner = doc.get(section);
      inner.set(key, value);
      doc.set(section, inner);
    }
    return doc;
  };
  const std::string horizon = message(with(nullptr, "horizon_us", 1e19).dump());
  EXPECT_NE(horizon.find("horizon_us is out of range"), std::string::npos)
      << horizon;
  EXPECT_EQ(horizon.find("-9223372036854775808"), std::string::npos)
      << horizon;
  EXPECT_NE(message(with(nullptr, "drain_us", -1e19).dump())
                .find("drain_us is out of range"),
            std::string::npos);
  EXPECT_NE(message(with(nullptr, "seed", 1e300).dump())
                .find("seed is out of range"),
            std::string::npos);
  EXPECT_NE(message(with("config", "comm_latency_us", 9.3e18).dump())
                .find("config.comm_latency_us is out of range"),
            std::string::npos);
  // A 32-bit id past its range would wrap rather than trap; refused too.
  EXPECT_NE(message(with("config", "task_manager", 4294967296.0).dump())
                .find("config.task_manager is out of range"),
            std::string::npos);

  // Text cannot spell a non-finite number, but a document built in code
  // can; it gets the same refusal.
  const auto parsed = scenario::spec_from_json(
      with(nullptr, "horizon_us", std::numeric_limits<double>::infinity()));
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_NE(parsed.message().find("horizon_us is out of range"),
            std::string::npos)
      << parsed.message();

  // The largest representable values still parse.
  EXPECT_TRUE(
      scenario::spec_from_text(with(nullptr, "horizon_us", 0x1p62).dump())
          .is_ok());
}

TEST(ScenarioValidation, RejectsArrivalsBeforeTheEpoch) {
  // A run starts at the epoch.  An arrival before it used to slip past the
  // kernel's Debug-only "not in the past" assert, and a Release run
  // reported it as an undecided job under a plausible accept ratio.
  auto spec = small_generated_spec();
  spec.arrivals = scenario::ArrivalModel::explicit_trace(
      {{TaskId(0), Time(100)}, {TaskId(0), Time(-5)}, {TaskId(0), Time(0)}});
  const Status s = scenario::validate(spec);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.message(), "arrivals.trace[1].at_us is negative (-5)");
  EXPECT_FALSE(scenario::run_scenario(spec).is_ok());

  spec.arrivals.trace[1].time = Time(0);  // the epoch itself is fine
  EXPECT_TRUE(scenario::validate(spec).is_ok());

  // A bursty model reaches the same instants through its start and gaps.
  workload::BurstShape burst;
  burst.start = Time(-3000000);
  spec.arrivals = scenario::ArrivalModel::bursty(burst);
  EXPECT_EQ(scenario::validate(spec).message(),
            "arrivals.start_us is negative (-3000000)");
  burst.start = Time(0);
  burst.inter_gap = Duration(-1);
  spec.arrivals = scenario::ArrivalModel::bursty(burst);
  EXPECT_EQ(scenario::validate(spec).message(),
            "arrivals.inter_gap_us is negative (-1)");
  burst.inter_gap = Duration::zero();
  spec.arrivals = scenario::ArrivalModel::bursty(burst);
  EXPECT_TRUE(scenario::validate(spec).is_ok());
}

TEST(ScenarioValidation, RejectsEmptyExplicitWorkload) {
  scenario::ScenarioSpec spec = small_generated_spec();
  spec.workload = scenario::WorkloadSpec::explicit_tasks(sched::TaskSet{});
  EXPECT_FALSE(scenario::validate(spec).is_ok());
}

TEST(ScenarioValidation, RejectsInvalidReconfigStrategySwap) {
  auto spec = small_generated_spec();
  config::ModeChange change;
  change.at = Time(Duration::seconds(1).usec());
  change.label = "bad-swap";
  core::StrategyCombination invalid;
  invalid.ac = core::AcStrategy::kPerTask;
  invalid.ir = core::IrStrategy::kPerJob;  // the contradictory pairing
  change.strategies = invalid;
  spec.reconfig.push_back(change);
  const Status s = scenario::validate(spec);
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("bad-swap"), std::string::npos);
}

// --- SystemConfig validation at assemble time (core::validate_config) -------

TEST(SystemConfigValidation, AssembleRejectsNegativeCommLatency) {
  core::SystemConfig config;
  config.comm_latency = Duration::microseconds(-10);
  core::SystemRuntime runtime(config, testing::make_imbalanced_workload(1));
  const Status s = runtime.assemble();
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("comm_latency"), std::string::npos);
}

TEST(SystemConfigValidation, AssembleRejectsUnknownLbPolicy) {
  core::SystemConfig config;
  config.lb_policy = "mystery";
  core::SystemRuntime runtime(config, testing::make_imbalanced_workload(1));
  const Status s = runtime.assemble();
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("mystery"), std::string::npos);
}

TEST(SystemConfigValidation, RejectsMalformedDeferrableServer) {
  core::SystemConfig config;
  config.analysis = core::AperiodicAnalysis::kDeferrableServer;
  config.ds_server.budget = Duration::milliseconds(200);
  config.ds_server.period = Duration::milliseconds(100);
  EXPECT_FALSE(core::validate_config(config).is_ok());
  config.ds_server.budget = Duration::zero();
  EXPECT_FALSE(core::validate_config(config).is_ok());
  config.ds_server.budget = Duration::milliseconds(20);
  EXPECT_TRUE(core::validate_config(config).is_ok());
}

TEST(SystemConfigValidation, NegativeJitterAndLoopbackAreRejected) {
  core::SystemConfig config;
  config.comm_jitter = Duration::microseconds(-1);
  EXPECT_FALSE(core::validate_config(config).is_ok());
  config = core::SystemConfig{};
  config.loopback_latency = Duration::microseconds(-1);
  EXPECT_FALSE(core::validate_config(config).is_ok());
  EXPECT_TRUE(core::validate_config(core::SystemConfig{}).is_ok());
}

// --- JSON round trip ---------------------------------------------------------

TEST(ScenarioJson, GeneratedSpecRoundTripIsFixedPoint) {
  const auto spec = small_generated_spec();
  const std::string bytes = scenario::to_json(spec).dump();
  // Serialization is deterministic: same spec, same bytes.
  EXPECT_EQ(bytes, scenario::to_json(spec).dump());

  const auto restored = scenario::spec_from_text(bytes);
  ASSERT_TRUE(restored.is_ok()) << restored.message();
  EXPECT_EQ(scenario::to_json(restored.value()).dump(), bytes);
  EXPECT_EQ(restored.value().name, spec.name);
  EXPECT_EQ(restored.value().seed, spec.seed);
  EXPECT_EQ(restored.value().config.strategies.label(), "J_T_N");
}

TEST(ScenarioJson, ExplicitSpecRoundTripPreservesTasks) {
  const auto spec = explicit_spec();
  const std::string bytes = scenario::to_json(spec).dump();
  const auto restored = scenario::spec_from_text(bytes);
  ASSERT_TRUE(restored.is_ok()) << restored.message();
  EXPECT_EQ(scenario::to_json(restored.value()).dump(), bytes);

  const sched::TaskSet& tasks = restored.value().workload.tasks;
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks.find(TaskId(0))->name, "pipeline");
  EXPECT_EQ(tasks.find(TaskId(0))->subtasks.size(), 2u);
  EXPECT_EQ(tasks.find(TaskId(1))->kind, sched::TaskKind::kAperiodic);
  EXPECT_EQ(tasks.find(TaskId(1))->mean_interarrival,
            Duration::milliseconds(900));
}

TEST(ScenarioJson, ArrivalModelsAndReconfigRoundTrip) {
  auto spec = small_generated_spec();
  workload::BurstShape burst;
  burst.bursts = 5;
  burst.jobs_per_burst = 7;
  burst.intra_gap = Duration::milliseconds(3);
  spec.arrivals = scenario::ArrivalModel::bursty(burst);
  spec.reconfig = testing::ReconfigScriptBuilder()
                      .swap_strategies(Time(Duration::seconds(2).usec()),
                                       "J_N_J")
                      .drain(Time(Duration::seconds(3).usec()), 4)
                      .undrain(Time(Duration::seconds(6).usec()), 4)
                      .build();
  const std::string bytes = scenario::to_json(spec).dump();
  const auto restored = scenario::spec_from_text(bytes);
  ASSERT_TRUE(restored.is_ok()) << restored.message();
  EXPECT_EQ(scenario::to_json(restored.value()).dump(), bytes);
  EXPECT_EQ(restored.value().arrivals.kind,
            scenario::ArrivalModel::Kind::kBursty);
  EXPECT_EQ(restored.value().arrivals.burst.jobs_per_burst, 7u);
  ASSERT_EQ(restored.value().reconfig.size(), 3u);
  EXPECT_EQ(restored.value().reconfig[0].strategies->label(), "J_N_J");
  ASSERT_EQ(restored.value().reconfig[1].drain.size(), 1u);
  EXPECT_EQ(restored.value().reconfig[1].drain[0], ProcessorId(4));

  // Explicit arrival traces round-trip too.
  spec = explicit_spec();
  spec.arrivals = scenario::ArrivalModel::explicit_trace(
      {{TaskId(0), Time(0)}, {TaskId(1), Time(1000)}});
  const std::string trace_bytes = scenario::to_json(spec).dump();
  const auto trace_restored = scenario::spec_from_text(trace_bytes);
  ASSERT_TRUE(trace_restored.is_ok()) << trace_restored.message();
  EXPECT_EQ(scenario::to_json(trace_restored.value()).dump(), trace_bytes);
  ASSERT_EQ(trace_restored.value().arrivals.trace.size(), 2u);
  EXPECT_EQ(trace_restored.value().arrivals.trace[1].time, Time(1000));
}

TEST(ScenarioJson, ParseRejectsGarbage) {
  EXPECT_FALSE(scenario::spec_from_text("not json").is_ok());
  EXPECT_FALSE(scenario::spec_from_text("{}").is_ok());  // no schema_version
  EXPECT_FALSE(
      scenario::spec_from_text(R"({"schema_version": 99})").is_ok());
  // Unknown strategy labels are refused, not defaulted.
  auto doc = scenario::to_json(small_generated_spec());
  json::Value config = doc.get("config");
  config.set("strategies", "X_Y_Z");
  doc.set("config", config);
  EXPECT_FALSE(scenario::spec_from_json(doc).is_ok());
}

// --- Running -----------------------------------------------------------------

TEST(ScenarioRun, GeneratedSpecProducesMetricsAndRuntime) {
  auto result = scenario::run_scenario(small_generated_spec());
  ASSERT_TRUE(result.is_ok()) << result.message();
  const scenario::ScenarioResult& outcome = result.value();
  EXPECT_GT(outcome.accept_ratio, 0.0);
  EXPECT_LE(outcome.accept_ratio, 1.0);
  EXPECT_GT(outcome.arrivals, 0u);
  ASSERT_NE(outcome.runtime, nullptr);
  EXPECT_TRUE(outcome.runtime->assembled());
  EXPECT_EQ(outcome.runtime->config().strategies.label(), "J_T_N");
}

TEST(ScenarioRun, RunIsDeterministicInTheSpec) {
  const auto spec = small_generated_spec();
  auto first = scenario::run_scenario(spec);
  auto second = scenario::run_scenario(spec);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first.value().accept_ratio, second.value().accept_ratio);
  EXPECT_EQ(first.value().arrivals, second.value().arrivals);
  EXPECT_EQ(first.value().completions, second.value().completions);
  EXPECT_EQ(first.value().deadline_misses, second.value().deadline_misses);
}

TEST(ScenarioRun, ExplicitTraceArrivalsAreReplayedVerbatim) {
  auto spec = explicit_spec();
  spec.arrivals = scenario::ArrivalModel::explicit_trace(
      {{TaskId(0), Time(0)},
       {TaskId(1), Time(Duration::milliseconds(50).usec())},
       {TaskId(0), Time(Duration::milliseconds(400).usec())}});
  auto result = scenario::run_scenario(spec);
  ASSERT_TRUE(result.is_ok()) << result.message();
  EXPECT_EQ(result.value().arrivals, 3u);
}

TEST(ScenarioRun, NoneArrivalModelRunsZeroJobs) {
  auto spec = explicit_spec();
  spec.arrivals = scenario::ArrivalModel::none();
  auto result = scenario::run_scenario(spec);
  ASSERT_TRUE(result.is_ok()) << result.message();
  EXPECT_EQ(result.value().arrivals, 0u);
  EXPECT_EQ(result.value().accept_ratio, 1.0);  // nothing arrived
}

// Regression: with a one-way network delay of 2^62 us no Task Arrive event
// reaches the AC before the run ends, so no arrival is ever decided.  Such
// a run used to look like a clean cell that admitted nothing ("accept
// ratio 0.0000, arrivals / rejections 70 / 0"); it now reports every
// arrival as undecided.
TEST(ScenarioRun, UnreachableAdmissionLeavesEveryArrivalUndecided) {
  auto spec = small_generated_spec();
  spec.config.comm_latency = Duration(std::int64_t{1} << 62);
  auto result = scenario::run_scenario(spec);
  ASSERT_TRUE(result.is_ok()) << result.message();
  const scenario::ScenarioResult& outcome = result.value();
  EXPECT_GT(outcome.arrivals, 0u);
  EXPECT_EQ(outcome.releases, 0u);
  EXPECT_EQ(outcome.rejections, 0u);
  EXPECT_EQ(outcome.undecided, outcome.arrivals);
  EXPECT_EQ(outcome.accept_ratio, 0.0);

  // A well-formed run decides every arrival.
  auto clean = scenario::run_scenario(small_generated_spec());
  ASSERT_TRUE(clean.is_ok()) << clean.message();
  EXPECT_EQ(clean.value().undecided, 0u);
  EXPECT_EQ(clean.value().arrivals,
            clean.value().releases + clean.value().rejections);
}

TEST(ScenarioRun, BurstyModelStressesAdmission) {
  auto spec = small_generated_spec();
  workload::BurstShape burst;
  burst.bursts = 3;
  burst.jobs_per_burst = 10;
  spec.arrivals = scenario::ArrivalModel::bursty(burst);
  auto result = scenario::run_scenario(spec);
  ASSERT_TRUE(result.is_ok()) << result.message();
  // 4 aperiodic tasks x 30 burst jobs, plus the periodic releases.
  EXPECT_GE(result.value().arrivals, 120u);
  // Run is a pure function of the spec even under bursts.
  auto again = scenario::run_scenario(spec);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(result.value().completions, again.value().completions);
}

TEST(ScenarioRun, ReconfigScriptRunsInsideTheScenario) {
  auto spec = small_generated_spec();
  spec.workload = scenario::WorkloadSpec::generated(
      workload::imbalanced_workload_shape());
  spec.reconfig = testing::ReconfigScriptBuilder()
                      .swap_lb_policy(Time(Duration::seconds(2).usec()),
                                      "primary")
                      .swap_strategies(Time(Duration::seconds(4).usec()),
                                       "J_N_J")
                      .build();
  auto result = scenario::run_scenario(spec);
  ASSERT_TRUE(result.is_ok()) << result.message();
  EXPECT_EQ(result.value().reconfig_applied, 2u);
  EXPECT_EQ(result.value().reconfig_rejected, 0u);
  ASSERT_EQ(result.value().reconfig_history.size(), 2u);
  EXPECT_TRUE(result.value().reconfig_history[0].applied);
  EXPECT_EQ(result.value().runtime->config().strategies.label(), "J_N_J");
}

TEST(ScenarioRun, ManagerOutlivesRunForFurtherDriving) {
  // A mode change scheduled past horizon+drain is still pending inside the
  // returned runtime's simulator when run() finishes; the result owns the
  // manager, so driving the runtime further dispatches it safely (ASan
  // guards the lifetime) and the late step applies.
  auto spec = small_generated_spec();  // horizon 10s + drain 5s
  config::ModeChange late;
  late.at = Time(Duration::seconds(20).usec());
  late.label = "late-swap";
  late.lb_policy = "primary";
  spec.reconfig = {late};
  auto result = scenario::run_scenario(spec);
  ASSERT_TRUE(result.is_ok()) << result.message();
  EXPECT_EQ(result.value().reconfig_applied, 0u);
  ASSERT_NE(result.value().reconfig_manager, nullptr);

  result.value().runtime->run_for(Duration::seconds(10));
  EXPECT_EQ(result.value().reconfig_manager->applied_count(), 1u);
}

TEST(ScenarioRun, InvalidSpecFailsCleanly) {
  auto spec = small_generated_spec();
  spec.config.lb_policy = "nope";
  EXPECT_FALSE(scenario::run_scenario(spec).is_ok());
}

// --- Builders ----------------------------------------------------------------

TEST(ScenarioBuilder, CollectsBadStrategyLabel) {
  const auto built = scenario::ScenarioBuilder("bad").strategies("Q_Q_Q")
                         .workload(workload::random_workload_shape())
                         .build();
  EXPECT_FALSE(built.is_ok());
  EXPECT_NE(built.message().find("bad"), std::string::npos);
}

TEST(ScenarioBuilder, CollectsWorkloadSpecParseErrors) {
  const auto built = scenario::ScenarioBuilder("bad-spec")
                         .workload_spec_text("task ???")
                         .build();
  EXPECT_FALSE(built.is_ok());
}

TEST(ScenarioBuilder, TaskBuilderMatchesHandWrittenSpec) {
  const sched::TaskSpec built =
      scenario::TaskBuilder::periodic(7, "conveyor",
                                      Duration::milliseconds(200))
          .stage(Duration::milliseconds(10), 1, {0, 2})
          .build();
  EXPECT_EQ(built.id, TaskId(7));
  EXPECT_EQ(built.period, Duration::milliseconds(200));  // defaults to D
  ASSERT_EQ(built.subtasks.size(), 1u);
  EXPECT_EQ(built.subtasks[0].primary, ProcessorId(1));
  ASSERT_EQ(built.subtasks[0].replicas.size(), 2u);
  EXPECT_TRUE(sched::TaskSet::validate(built).is_ok());
}

// --- Sweep integration: round-tripped specs are byte-identical ---------------

sweep::Report report_of(std::vector<sweep::CellResult> cells) {
  sweep::Report report;
  report.name = "fig5";
  report.git_sha = "test";
  report.cells = std::move(cells);
  return report;
}

TEST(ScenarioSweep, RoundTrippedFigure5GridIsByteIdenticalToDirectSweep) {
  const auto entry = scenario::find_grid("fig5");
  ASSERT_TRUE(entry.is_ok());
  sweep::Grid grid = entry.value().grid;
  grid.seeds = 2;
  sweep::SweepParams params = entry.value().params;
  params.base.horizon = Duration::seconds(10);
  params.base.drain = Duration::seconds(5);

  const auto direct = sweep::run_sweep(grid, params, {});

  // Re-run every cell from its serialized spec: JSON -> spec -> run.
  std::vector<sweep::CellResult> replayed;
  for (const sweep::Cell& cell : grid.cells()) {
    const auto spec =
        sweep::cell_spec(cell, grid.shapes[0].shape, params);
    ASSERT_TRUE(spec.is_ok()) << spec.message();
    const std::string bytes = scenario::to_json(spec.value()).dump();
    const auto restored = scenario::spec_from_text(bytes);
    ASSERT_TRUE(restored.is_ok()) << restored.message();
    auto outcome = scenario::run_scenario(restored.value());
    ASSERT_TRUE(outcome.is_ok()) << outcome.message();
    sweep::CellResult result;
    result.cell = cell;
    result.accept_ratio = outcome.value().accept_ratio;
    result.deadline_misses = outcome.value().deadline_misses;
    result.aperiodic_response_ms = outcome.value().aperiodic_response_ms;
    result.reconfig_applied = outcome.value().reconfig_applied;
    result.reconfig_rejected = outcome.value().reconfig_rejected;
    replayed.push_back(std::move(result));
  }

  EXPECT_EQ(report_of(direct).deterministic_dump(),
            report_of(std::move(replayed)).deterministic_dump());
}

// --- Library -----------------------------------------------------------------

TEST(ScenarioLibrary, EveryEntryRunsCleanAndDeterministically) {
  for (const scenario::NamedGrid& entry : scenario::library()) {
    sweep::Grid grid = entry.grid;
    grid.seeds = 1;
    sweep::SweepParams params = entry.params;
    params.base.horizon = Duration::seconds(5);
    params.base.drain = Duration::seconds(2);

    sweep::SweepOptions single;
    single.threads = 1;
    sweep::SweepOptions sharded;
    sharded.threads = 2;
    const auto serial = sweep::run_sweep(grid, params, single);
    const auto parallel = sweep::run_sweep(grid, params, sharded);
    ASSERT_EQ(serial.size(), grid.cells().size()) << entry.name;
    for (const auto& cell : serial) {
      EXPECT_TRUE(cell.error.empty())
          << entry.name << ": " << cell.error;
    }
    sweep::Report a;
    a.name = entry.name;
    a.cells = serial;
    sweep::Report b;
    b.name = entry.name;
    b.cells = parallel;
    EXPECT_EQ(a.deterministic_dump(), b.deterministic_dump()) << entry.name;
  }
}

TEST(ScenarioLibrary, HugeTopologyRunsCleanAndDeterministically) {
  // The admission-index scale entry: 80 processors and 240 tasks per cell —
  // far beyond the paper's 5-node runs.  One seed, shortened horizon; the
  // run must stay error-free, exercise real admission traffic, and remain
  // byte-deterministic across thread counts (the incremental index must
  // not introduce any ordering sensitivity).
  const auto entry = scenario::find_grid("huge-topology");
  ASSERT_TRUE(entry.is_ok());
  sweep::Grid grid = entry.value().grid;
  grid.seeds = 1;
  sweep::SweepParams params = entry.value().params;
  params.base.horizon = Duration::seconds(10);
  params.base.drain = Duration::seconds(2);

  sweep::SweepOptions single;
  single.threads = 1;
  sweep::SweepOptions sharded;
  sharded.threads = 2;
  const auto serial = sweep::run_sweep(grid, params, single);
  const auto parallel = sweep::run_sweep(grid, params, sharded);
  ASSERT_EQ(serial.size(), grid.cells().size());
  for (const auto& cell : serial) {
    ASSERT_TRUE(cell.error.empty()) << cell.error;
    EXPECT_GT(cell.accept_ratio, 0.0) << cell.cell.combo;
    EXPECT_LE(cell.accept_ratio, 1.0) << cell.cell.combo;
  }
  sweep::Report a;
  a.name = entry.value().name;
  a.cells = serial;
  sweep::Report b;
  b.name = entry.value().name;
  b.cells = parallel;
  EXPECT_EQ(a.deterministic_dump(), b.deterministic_dump());
}

TEST(ScenarioLibrary, FindGridReportsKnownNames) {
  EXPECT_TRUE(scenario::find_grid("bursty").is_ok());
  EXPECT_TRUE(scenario::find_grid("drain-storm").is_ok());
  EXPECT_TRUE(scenario::find_grid("long-horizon").is_ok());
  EXPECT_TRUE(scenario::find_grid("huge-topology").is_ok());
  const auto missing = scenario::find_grid("fig7");
  EXPECT_FALSE(missing.is_ok());
  EXPECT_NE(missing.message().find("fig5"), std::string::npos);
  EXPECT_GE(scenario::library_names().size(), 7u);
}

TEST(ScenarioLibrary, DrainStormCellsApplyTheirScript) {
  const auto entry = scenario::find_grid("drain-storm");
  ASSERT_TRUE(entry.is_ok());
  sweep::Grid grid = entry.value().grid;
  grid.seeds = 1;
  sweep::SweepParams params = entry.value().params;
  params.base.horizon = Duration::seconds(10);
  params.base.drain = Duration::seconds(5);
  const auto results = sweep::run_sweep(grid, params, {});
  bool saw_storm = false;
  for (const auto& cell : results) {
    ASSERT_TRUE(cell.error.empty()) << cell.error;
    if (cell.cell.variant == "storm") {
      saw_storm = true;
      EXPECT_GE(cell.reconfig_applied + cell.reconfig_rejected, 1u);
    } else {
      EXPECT_EQ(cell.reconfig_applied, 0u);
    }
  }
  EXPECT_TRUE(saw_storm);
}

}  // namespace
}  // namespace rtcm
