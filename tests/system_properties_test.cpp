// Cross-cutting system properties: every valid combination on the
// imbalanced workload, golden event sequences, jitter determinism, and the
// DS analysis driven through the full DAnCE pipeline.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <cmath>

#include "config/plan_builder.h"
#include "core/runtime.h"
#include "dance/engine.h"
#include "dance/plan_xml.h"
#include "reconfig/manager.h"
#include "test_helpers.h"
#include "workload/arrival.h"
#include "workload/generator.h"

namespace rtcm {
namespace {

using rtcm::testing::make_aperiodic;
using rtcm::testing::make_periodic;

// --- All 15 combos on the §7.2 imbalanced workload ---------------------------

class ImbalancedComboTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ImbalancedComboTest, RunsCleanly) {
  Rng rng(5);
  auto tasks =
      workload::generate_workload(workload::imbalanced_workload_shape(), rng);
  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse(GetParam()).value();
  config.comm_latency = Duration::zero();
  core::SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());
  Rng arrival_rng = rng.fork(1);
  const Time horizon(Duration::seconds(20).usec());
RTCM_EXPECT_OK(runtime.inject_arrivals(
      workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
  runtime.run_until(horizon + Duration::seconds(15));
  const auto& total = runtime.metrics().total();
  EXPECT_EQ(total.deadline_misses, 0u);
  EXPECT_EQ(total.arrivals, total.releases + total.rejections);
  EXPECT_EQ(total.releases, total.completions);
}

INSTANTIATE_TEST_SUITE_P(
    AllValid, ImbalancedComboTest,
    ::testing::Values("T_N_N", "T_N_T", "T_N_J", "T_T_N", "T_T_T", "T_T_J",
                      "J_N_N", "J_N_T", "J_N_J", "J_T_N", "J_T_T", "J_T_J",
                      "J_J_N", "J_J_T", "J_J_J"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// --- Golden event sequence ---------------------------------------------------

TEST(GoldenTraceTest, SingleJobLifecycleSequence) {
  // The exact Figure 3 flow for one admitted two-stage job: arrival ->
  // admission test -> admitted -> released -> stage 0 completes -> idle ->
  // idle reset -> stage 1 completes -> job complete -> idle -> idle reset.
  sched::TaskSet tasks;
  ASSERT_TRUE(tasks.add(make_periodic(0, Duration::milliseconds(100),
                                      {{0, 10000}, {1, 10000}}))
                  .is_ok());
  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse("J_J_N").value();
  config.comm_latency = Duration::zero();
  config.enable_trace = true;
  core::SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());
RTCM_EXPECT_OK(runtime.inject_arrival(TaskId(0), Time(0)));
  runtime.run_until(Time(Duration::milliseconds(90).usec()));

  std::vector<sim::TraceKind> kinds;
  for (const auto& record : runtime.trace().records()) {
    kinds.push_back(record.kind);
  }
  const std::vector<sim::TraceKind> expected = {
      sim::TraceKind::kJobArrival,    sim::TraceKind::kAdmissionTest,
      sim::TraceKind::kJobAdmitted,   sim::TraceKind::kJobReleased,
      sim::TraceKind::kSubjobComplete, sim::TraceKind::kIdle,
      sim::TraceKind::kIdleReset,     sim::TraceKind::kSubjobComplete,
      sim::TraceKind::kJobComplete,   sim::TraceKind::kIdle,
      sim::TraceKind::kIdleReset,
  };
  EXPECT_EQ(kinds, expected);
}

TEST(GoldenTraceTest, RejectedJobSequence) {
  sched::TaskSet tasks;
  // Infeasible alone: two stages at utilization 0.5.
  ASSERT_TRUE(tasks.add(make_periodic(0, Duration::milliseconds(100),
                                      {{0, 50000}, {1, 50000}}))
                  .is_ok());
  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse("J_N_N").value();
  config.comm_latency = Duration::zero();
  config.enable_trace = true;
  core::SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());
RTCM_EXPECT_OK(runtime.inject_arrival(TaskId(0), Time(0)));
  runtime.run_until(Time(Duration::milliseconds(50).usec()));

  std::vector<sim::TraceKind> kinds;
  for (const auto& record : runtime.trace().records()) {
    kinds.push_back(record.kind);
  }
  const std::vector<sim::TraceKind> expected = {
      sim::TraceKind::kJobArrival,
      sim::TraceKind::kAdmissionTest,
      sim::TraceKind::kJobRejected,
  };
  EXPECT_EQ(kinds, expected);
}

// --- Jitter determinism ------------------------------------------------------

TEST(JitterDeterminismTest, SameJitterSeedSameMetrics) {
  auto run_once = [](std::uint64_t jitter_seed) {
    Rng rng(3);
    auto tasks =
        workload::generate_workload(workload::random_workload_shape(), rng);
    core::SystemConfig config;
    config.strategies = core::StrategyCombination::parse("J_J_J").value();
    config.comm_jitter = Duration::microseconds(150);
    config.comm_jitter_seed = jitter_seed;
    core::SystemRuntime runtime(config, std::move(tasks));
    EXPECT_TRUE(runtime.assemble().is_ok());
    Rng arrival_rng = rng.fork(1);
    const Time horizon(Duration::seconds(10).usec());
RTCM_EXPECT_OK(runtime.inject_arrivals(
        workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
    runtime.run_until(horizon + Duration::seconds(12));
    return std::tuple{runtime.metrics().accepted_utilization_ratio(),
                      runtime.metrics().total().releases,
                      runtime.metrics().total().response_ms.mean()};
  };
  EXPECT_EQ(run_once(7), run_once(7));
  // Different jitter realizations may change response times (but the run
  // must still be deterministic per seed — checked above).
}

// --- Runtime configuration knobs ---------------------------------------------

TEST(RuntimeKnobsTest, ExplicitTaskManagerIsUsed) {
  sched::TaskSet tasks;
  ASSERT_TRUE(tasks.add(make_periodic(0, Duration::seconds(1), {{0, 1000}}))
                  .is_ok());
  core::SystemConfig config;
  config.task_manager = ProcessorId(42);
  core::SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());
  EXPECT_EQ(runtime.task_manager(), ProcessorId(42));
  EXPECT_EQ(runtime.container(ProcessorId(42)).size(), 2u);
}

TEST(RuntimeKnobsTest, LoopbackLatencyDelaysLocalDeliveries) {
  sched::TaskSet tasks;
  ASSERT_TRUE(tasks.add(make_periodic(0, Duration::milliseconds(100),
                                      {{0, 10000}}))
                  .is_ok());
  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse("J_N_N").value();
  config.comm_latency = Duration::zero();
  config.loopback_latency = Duration::milliseconds(1);
  core::SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());
RTCM_EXPECT_OK(runtime.inject_arrival(TaskId(0), Time(0)));
  runtime.run_until(Time(Duration::milliseconds(50).usec()));
  // Release trigger traverses the loopback once: response = 1 ms + 10 ms.
  EXPECT_NEAR(runtime.metrics().total().response_ms.mean(), 11.0, 0.1);
}

// --- DS through the full deployment pipeline ---------------------------------

TEST(DsPlanTest, DsAttributesSurviveXmlRoundTripAndLaunch) {
  sched::TaskSet tasks;
  ASSERT_TRUE(
      tasks.add(make_aperiodic(0, Duration::seconds(1), {{0, 10000}}))
          .is_ok());
  ASSERT_TRUE(tasks.add(make_periodic(1, Duration::seconds(1), {{1, 10000}}))
                  .is_ok());

  config::PlanBuilderInput input;
  input.tasks = &tasks;
  input.strategies = core::StrategyCombination::parse("J_T_N").value();
  input.task_manager = ProcessorId(9);
  input.analysis = "DS";
  input.ds_budget = Duration::milliseconds(15);
  input.ds_period = Duration::milliseconds(120);
  const auto plan = config::build_deployment_plan(input);
  ASSERT_TRUE(plan.is_ok()) << plan.message();

  const std::string xml = dance::plan_to_xml(plan.value());
  const auto reparsed = dance::plan_from_xml(xml);
  ASSERT_TRUE(reparsed.is_ok()) << reparsed.message();
  const auto* ac = reparsed.value().find_instance("Central-AC");
  ASSERT_NE(ac, nullptr);
  EXPECT_EQ(ac->properties.get_string("Analysis").value(), "DS");
  EXPECT_EQ(ac->properties.get_int("DS_Budget").value(), 15000);
  EXPECT_EQ(ac->properties.get_int("DS_Period").value(), 120000);

  // Launch via the DAnCE pipeline; the runtime must still deploy servers
  // (its own config drives server creation).
  core::SystemConfig config;
  config.strategies = input.strategies;
  config.task_manager = ProcessorId(9);
  config.comm_latency = Duration::zero();
  config.analysis = core::AperiodicAnalysis::kDeferrableServer;
  config.ds_server.budget = input.ds_budget;
  config.ds_server.period = input.ds_period;
  core::SystemRuntime runtime(config, tasks);
  ASSERT_TRUE(runtime.assemble_infrastructure().is_ok());
  const auto report = dance::PlanLauncher().launch_from_xml(
      xml,
      [&runtime](ProcessorId node) { return runtime.find_container(node); },
      runtime.factory());
  ASSERT_TRUE(report.is_ok()) << report.message();
  ASSERT_TRUE(runtime.finalize_deployment().is_ok());
  EXPECT_EQ(runtime.admission_control()->analysis(),
            core::AperiodicAnalysis::kDeferrableServer);
  ASSERT_NE(runtime.admission_control()->ds_admission(), nullptr);
  EXPECT_EQ(runtime.admission_control()->ds_admission()->config().budget,
            Duration::milliseconds(15));
RTCM_EXPECT_OK(runtime.inject_arrival(TaskId(0), Time(0)));
RTCM_EXPECT_OK(runtime.inject_arrival(TaskId(1), Time(0)));
  runtime.run_until(Time(Duration::seconds(3).usec()));
  EXPECT_EQ(runtime.metrics().total().deadline_misses, 0u);
  EXPECT_EQ(runtime.metrics().total().completions, 2u);
}

// --- Conservation under bursty aperiodic load --------------------------------

TEST(ConservationTest, HeavyBurstsNeverLoseJobs) {
  sched::TaskSet tasks;
  ASSERT_TRUE(tasks.add(make_aperiodic(0, Duration::milliseconds(300),
                                       {{0, 30000, {1}}, {1, 20000, {0}}}))
                  .is_ok());
  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse("J_J_J").value();
  core::SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());
  // 50 arrivals in a 100 ms window: far beyond capacity.
  rtcm::testing::BurstShape burst;
  burst.bursts = 1;
  burst.jobs_per_burst = 50;
  burst.intra_gap = Duration::milliseconds(2);
RTCM_EXPECT_OK(runtime.inject_arrivals(
      rtcm::testing::make_bursty_arrivals(TaskId(0), burst)));
  runtime.run_until(Time(Duration::seconds(2).usec()));
  const auto& total = runtime.metrics().total();
  EXPECT_EQ(total.arrivals, 50u);
  EXPECT_EQ(total.arrivals, total.releases + total.rejections);
  EXPECT_EQ(total.releases, total.completions);
  EXPECT_EQ(total.deadline_misses, 0u);
  EXPECT_GT(total.rejections, 0u);  // the burst must overload admission
}

// --- aUB safety: admitted work never misses a deadline -----------------------
//
// The paper's core guarantee (Equation 1): any job the AC releases under the
// aperiodic utilization bound completes by its absolute deadline.  Exercised
// end-to-end through the simulator on generalized imbalanced topologies well
// beyond the §7.2 preset, across seeds and strategy combinations.

struct AubSafetyCase {
  std::uint64_t seed;
  std::size_t primaries;
  std::size_t replicas;
  double utilization;
  const char* strategies;
};

// Without a PrintTo, gtest prints the case's raw bytes into the ctest name,
// and those include the strategies pointer, which moves between builds.
void PrintTo(const AubSafetyCase& c, std::ostream* os) {
  *os << "seed " << c.seed << " P" << c.primaries << "R" << c.replicas
      << " u" << c.utilization << " " << c.strategies;
}

class AubSafetyTest : public ::testing::TestWithParam<AubSafetyCase> {};

TEST_P(AubSafetyTest, AdmittedJobsAlwaysMeetDeadlines) {
  const AubSafetyCase& p = GetParam();
  rtcm::testing::ImbalancedShape shape;
  shape.primaries = p.primaries;
  shape.replicas = p.replicas;
  shape.utilization = p.utilization;
  auto tasks = rtcm::testing::make_imbalanced_workload(p.seed, shape);
  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse(p.strategies).value();
  config.comm_latency = Duration::zero();
  core::SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());
  Rng arrival_rng = Rng(p.seed).fork(1);
  const Time horizon(Duration::seconds(15).usec());
RTCM_EXPECT_OK(runtime.inject_arrivals(
      workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
  runtime.run_until(horizon + Duration::seconds(12));
  const auto& total = runtime.metrics().total();
  EXPECT_EQ(total.deadline_misses, 0u);
  EXPECT_EQ(total.arrivals, total.releases + total.rejections);
  EXPECT_EQ(total.releases, total.completions);
  EXPECT_GT(total.releases, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, AubSafetyTest,
    ::testing::Values(AubSafetyCase{11, 2, 1, 0.6, "J_J_J"},
                      AubSafetyCase{12, 3, 2, 0.7, "J_N_N"},
                      AubSafetyCase{13, 3, 2, 0.8, "J_J_N"},
                      AubSafetyCase{14, 4, 3, 0.7, "T_T_T"},
                      AubSafetyCase{15, 5, 2, 0.9, "J_T_J"},
                      AubSafetyCase{16, 6, 4, 0.75, "J_J_J"}),
    [](const ::testing::TestParamInfo<AubSafetyCase>& info) {
      return "Seed" + std::to_string(info.param.seed) + "P" +
             std::to_string(info.param.primaries) + "R" +
             std::to_string(info.param.replicas) + "_" +
             info.param.strategies;
    });

// --- DS budget replenishment bounds aperiodic response -----------------------
//
// The deferrable server is a bounded-delay resource: an admitted aperiodic
// job's measured end-to-end response must stay within the delay bound the DS
// admission analysis computed from (budget, period, backlog).

TEST(DsBudgetBoundTest, EmptyServerResponseWithinAnalyticBound) {
  // One 30 ms aperiodic job through a B=10ms / P=50ms server: the job spans
  // replenishments, so the bound (P - B) + C * P / B genuinely exceeds C.
  sched::TaskSet tasks;
  ASSERT_TRUE(
      tasks.add(make_aperiodic(0, Duration::seconds(1), {{0, 30000}})).is_ok());
  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse("J_N_N").value();
  config.comm_latency = Duration::zero();
  config.analysis = core::AperiodicAnalysis::kDeferrableServer;
  config.ds_server.budget = Duration::milliseconds(10);
  config.ds_server.period = Duration::milliseconds(50);
  core::SystemRuntime runtime(config, tasks);
  ASSERT_TRUE(runtime.assemble().is_ok());

  const auto* ds = runtime.admission_control()->ds_admission();
  ASSERT_NE(ds, nullptr);
  const sched::TaskSpec* spec = runtime.tasks().find(TaskId(0));
  ASSERT_NE(spec, nullptr);
  const Duration bound = ds->delay_bound(*spec, {ProcessorId(0)});
  ASSERT_TRUE(ds->admissible(*spec, {ProcessorId(0)}));
RTCM_EXPECT_OK(runtime.inject_arrival(TaskId(0), Time(0)));
  runtime.run_until(Time(Duration::seconds(2).usec()));
  const auto& total = runtime.metrics().total();
  ASSERT_EQ(total.completions, 1u);
  EXPECT_EQ(total.deadline_misses, 0u);
  EXPECT_LE(total.response_ms.max(), bound.as_milliseconds());
  // The served job had to wait for at least one replenishment.
  EXPECT_GT(total.response_ms.max(),
            Duration(spec->subtasks[0].execution.usec()).as_milliseconds());
}

TEST(DsBudgetBoundTest, BurstBacklogStillBoundedByDeadline) {
  // Bursty overload: whatever the DS admission lets through must still meet
  // its end-to-end deadline (the bound is checked against the deadline at
  // admission, with the live backlog folded in).
  sched::TaskSet tasks;
  ASSERT_TRUE(tasks.add(make_aperiodic(0, Duration::milliseconds(400),
                                       {{0, 15000}}))
                  .is_ok());
  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse("J_N_N").value();
  config.comm_latency = Duration::zero();
  config.analysis = core::AperiodicAnalysis::kDeferrableServer;
  config.ds_server.budget = Duration::milliseconds(20);
  config.ds_server.period = Duration::milliseconds(80);
  core::SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());

  rtcm::testing::BurstShape burst;
  burst.bursts = 4;
  burst.jobs_per_burst = 12;
  burst.intra_gap = Duration::milliseconds(1);
  burst.inter_gap = Duration::milliseconds(600);
RTCM_EXPECT_OK(runtime.inject_arrivals(
      rtcm::testing::make_bursty_arrivals(TaskId(0), burst)));
  runtime.run_until(Time(Duration::seconds(6).usec()));

  const auto& total = runtime.metrics().total();
  EXPECT_EQ(total.arrivals, 48u);
  EXPECT_EQ(total.arrivals, total.releases + total.rejections);
  EXPECT_EQ(total.releases, total.completions);
  EXPECT_EQ(total.deadline_misses, 0u);
  EXPECT_GT(total.rejections, 0u);   // bursts must overrun the server
  EXPECT_GT(total.completions, 0u);  // but some jobs are served
  EXPECT_LE(total.response_ms.max(),
            Duration::milliseconds(400).as_milliseconds());
}

// --- Idle resetting is decrease-only on the ledger ---------------------------
//
// §2's resetting rule may *remove* synthetic utilization early; it must never
// add any.  The only source of ledger increase is an admission.  We sample
// the AC's ledger on a fine grid of probe instants (scheduled before the
// arrivals, so probes run first at tied timestamps) and require the total to
// be non-increasing across every window that saw idle resets but no
// admission.

TEST(IdleResetLedgerTest, ResetsNeverIncreaseLedgeredUtilization) {
  auto tasks = rtcm::testing::make_imbalanced_workload(21);
  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse("J_J_N").value();
  config.comm_latency = Duration::zero();
  config.enable_trace = true;
  core::SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());

  const Time horizon(Duration::seconds(10).usec());
  const Duration probe_gap = Duration::milliseconds(1);
  std::vector<std::pair<Time, double>> samples;
  for (Time t = Time(0); t <= horizon + Duration::seconds(11);
       t = t + probe_gap) {
    runtime.simulator().schedule_at(t, [&runtime, &samples, t] {
      samples.emplace_back(
          t, runtime.admission_control()->state().ledger().total_all());
    });
  }

  Rng arrival_rng = Rng(21).fork(1);
RTCM_EXPECT_OK(runtime.inject_arrivals(
      workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
  runtime.run_until(horizon + Duration::seconds(11));

  // Partition trace records into the probe windows.
  const auto& records = runtime.trace().records();
  std::size_t checked_windows = 0;
  std::size_t r = 0;
  for (std::size_t i = 0; i + 1 < samples.size(); ++i) {
    const Time lo = samples[i].first;
    const Time hi = samples[i + 1].first;
    bool saw_reset = false;
    bool saw_admit = false;
    while (r < records.size() && records[r].time < hi) {
      if (records[r].time >= lo) {
        saw_reset |= records[r].kind == sim::TraceKind::kIdleReset;
        saw_admit |= records[r].kind == sim::TraceKind::kJobAdmitted;
      }
      ++r;
    }
    // Skip ambiguous windows with records exactly at a probe boundary (the
    // probe at `hi` ran before same-instant events, so attribution of a
    // boundary admission is unclear); everything else must be monotone.
    if (r < records.size() && records[r].time == hi &&
        records[r].kind == sim::TraceKind::kJobAdmitted) {
      continue;
    }
    if (saw_reset && !saw_admit) {
      EXPECT_LE(samples[i + 1].second, samples[i].second)
          << "ledger grew across a reset-only window at " << lo.usec() << "us";
      ++checked_windows;
    }
  }
  EXPECT_GT(checked_windows, 10u);  // the property was actually exercised
  EXPECT_GT(runtime.metrics().subjobs_reset(), 0u);

  // Quiescence: with per-job strategies there are no standing reservations,
  // so once every deadline has passed the ledger must drain to zero.
  EXPECT_DOUBLE_EQ(
      runtime.admission_control()->state().ledger().total_all(), 0.0);
}

// --- Reconfiguration safety --------------------------------------------------
//
// The transition guarantees (ISSUE 3 / §formal reconfiguration treatments):
// across ANY randomized sequence of mode changes — strategy swaps, LB policy
// swaps, node drains and undrains, including infeasible ones that must roll
// back — (1) no job the AC ever released misses its deadline, (2) no job is
// lost (conservation), and (3) the synthetic-utilization ledger never goes
// negative and never exceeds the AUB per-processor bound 2 - sqrt(2): every
// live contribution belongs to an admitted footprint, and term(U) <= 1
// forces U <= 2 - sqrt(2) on every visited processor.  The ledger is probed
// on a fine grid of instants scheduled before the script and the arrivals,
// so probes observe only fully-applied transitions.

struct ReconfigSafetyCase {
  std::uint64_t seed;
  const char* strategies;
  std::size_t steps;
};

// Named for the same reason as AubSafetyCase's PrintTo.
void PrintTo(const ReconfigSafetyCase& c, std::ostream* os) {
  *os << "seed " << c.seed << " " << c.strategies << " " << c.steps
      << " steps";
}

class ReconfigSafetyTest : public ::testing::TestWithParam<ReconfigSafetyCase> {
};

TEST_P(ReconfigSafetyTest, NoAdmittedDeadlineMissOrLedgerViolation) {
  const ReconfigSafetyCase& p = GetParam();
  rtcm::testing::ImbalancedShape shape;
  shape.primaries = 3;
  shape.replicas = 2;
  shape.utilization = 0.6;
  auto tasks = rtcm::testing::make_imbalanced_workload(p.seed, shape);
  core::SystemConfig config;
  config.strategies = core::StrategyCombination::parse(p.strategies).value();
  config.comm_latency = Duration::zero();
  core::SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());

  const Time horizon(Duration::seconds(10).usec());
  const Time end = horizon + Duration::seconds(11);

  // Ledger probes first: at tied instants they run before any same-instant
  // reconfiguration or arrival, so every observation is a quiescent state.
  const double aub_processor_bound = 2.0 - std::sqrt(2.0);
  std::size_t probes = 0;
  double max_observed = 0.0;
  double min_observed = 0.0;
  for (Time t = Time(0); t <= end; t = t + Duration::milliseconds(2)) {
    runtime.simulator().schedule_at(t, [&runtime, &probes, &max_observed,
                                        &min_observed] {
      const auto& ledger = runtime.admission_control()->state().ledger();
      for (const ProcessorId proc : ledger.processors()) {
        max_observed = std::max(max_observed, ledger.total(proc));
        min_observed = std::min(min_observed, ledger.total(proc));
      }
      ++probes;
    });
  }

  reconfig::ReconfigurationManager manager(runtime);
  ASSERT_TRUE(manager
                  .schedule_script(rtcm::testing::make_random_reconfig_script(
                      p.seed, runtime.app_processors(), horizon, p.steps))
                  .is_ok());

  Rng arrival_rng = Rng(p.seed).fork(1);
RTCM_EXPECT_OK(runtime.inject_arrivals(
      workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
  runtime.run_until(end);

  // (3) ledger bounds, at every probe instant.
  EXPECT_GT(probes, 1000u);
  EXPECT_GE(min_observed, -1e-12);
  EXPECT_LE(max_observed, aub_processor_bound + 1e-9);
  EXPECT_GT(max_observed, 0.0);  // the probe grid saw live contributions

  // (1) + (2): no released job missed, none lost, and the run did real work
  // across at least one applied mode change.
  const auto& total = runtime.metrics().total();
  EXPECT_EQ(total.deadline_misses, 0u);
  EXPECT_EQ(total.arrivals, total.releases + total.rejections);
  EXPECT_EQ(total.releases, total.completions);
  EXPECT_GT(total.completions, 0u);
  EXPECT_GE(manager.applied_count() + manager.rejected_count(), p.steps);
  EXPECT_GT(manager.applied_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    RandomSequences, ReconfigSafetyTest,
    ::testing::Values(ReconfigSafetyCase{51, "T_N_N", 6},
                      ReconfigSafetyCase{52, "J_J_J", 6},
                      ReconfigSafetyCase{53, "T_T_N", 8},
                      ReconfigSafetyCase{54, "J_N_T", 8},
                      ReconfigSafetyCase{55, "J_J_N", 10},
                      ReconfigSafetyCase{56, "T_T_T", 10}),
    [](const ::testing::TestParamInfo<ReconfigSafetyCase>& info) {
      return "Seed" + std::to_string(info.param.seed) + "_" +
             info.param.strategies;
    });

// --- Full-runtime trace determinism ------------------------------------------
//
// Two identically seeded end-to-end runs must produce byte-identical rendered
// traces — the contract that makes every experiment in this repo replayable
// and is the safety net for future parallelization work.

TEST(TraceDeterminismTest, SameSeedsByteIdenticalRenderedTrace) {
  auto run_once = [] {
    Rng rng(31);
    auto tasks =
        workload::generate_workload(workload::random_workload_shape(), rng);
    core::SystemConfig config;
    config.strategies = core::StrategyCombination::parse("J_J_J").value();
    config.comm_jitter = Duration::microseconds(200);
    config.comm_jitter_seed = 9;
    config.lb_policy = "random";
    config.lb_seed = 4;
    config.enable_trace = true;
    core::SystemRuntime runtime(config, std::move(tasks));
    EXPECT_TRUE(runtime.assemble().is_ok());
    Rng arrival_rng = rng.fork(1);
    const Time horizon(Duration::seconds(8).usec());
RTCM_EXPECT_OK(runtime.inject_arrivals(
        workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
    runtime.run_until(horizon + Duration::seconds(11));
    return runtime.trace().render();
  };
  const std::string first = run_once();
  const std::string second = run_once();
  EXPECT_GT(first.size(), 0u);
  EXPECT_EQ(first, second);
}

TEST(TraceDeterminismTest, DifferentJitterSeedChangesTheTrace) {
  auto run_once = [](std::uint64_t jitter_seed) {
    auto tasks = rtcm::testing::make_imbalanced_workload(33);
    core::SystemConfig config;
    config.strategies = core::StrategyCombination::parse("J_J_J").value();
    config.comm_jitter = Duration::microseconds(500);
    config.comm_jitter_seed = jitter_seed;
    config.enable_trace = true;
    core::SystemRuntime runtime(config, std::move(tasks));
    EXPECT_TRUE(runtime.assemble().is_ok());
    Rng arrival_rng = Rng(33).fork(1);
    const Time horizon(Duration::seconds(5).usec());
RTCM_EXPECT_OK(runtime.inject_arrivals(
        workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
    runtime.run_until(horizon + Duration::seconds(11));
    return runtime.trace().render();
  };
  // Different jitter realizations must actually perturb event timing (if
  // they did not, the jitter model would be dead code).
  EXPECT_NE(run_once(1), run_once(2));
}

}  // namespace
}  // namespace rtcm
