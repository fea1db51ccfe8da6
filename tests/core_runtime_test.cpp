// Strategy-matrix tests: every valid combination must run a realistic
// workload cleanly; the three invalid combinations must be refused.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.h"
#include "reconfig/manager.h"
#include "scenario/library.h"
#include "test_helpers.h"
#include "workload/arrival.h"
#include "workload/generator.h"

namespace rtcm::core {
namespace {

struct ComboParam {
  std::string label;
};

void PrintTo(const ComboParam& p, std::ostream* os) { *os << p.label; }

class ValidComboTest : public ::testing::TestWithParam<ComboParam> {};

TEST_P(ValidComboTest, RunsRandomWorkloadCleanly) {
  Rng rng(7);
  auto shape = workload::random_workload_shape();
  auto tasks = workload::generate_workload(shape, rng);

  SystemConfig config;
  config.strategies = StrategyCombination::parse(GetParam().label).value();
  // Zero latency: the AUB admission guarantee is exact, so every released
  // job must meet its end-to-end deadline.
  config.comm_latency = Duration::zero();
  SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());

  Rng arrival_rng = rng.fork(1);
  const Time horizon(Duration::seconds(30).usec());
  RTCM_EXPECT_OK(runtime.inject_arrivals(
      workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
  runtime.run_until(horizon + Duration::seconds(15));

  const auto& total = runtime.metrics().total();
  EXPECT_GT(total.arrivals, 0u);
  EXPECT_GT(total.releases, 0u);
  EXPECT_EQ(total.releases, total.completions);
  EXPECT_EQ(total.deadline_misses, 0u)
      << "AUB admission must guarantee deadlines at zero network latency";
  const double ratio = runtime.metrics().accepted_utilization_ratio();
  EXPECT_GT(ratio, 0.0);
  EXPECT_LE(ratio, 1.0 + 1e-9);
  // Conservation: every arrival is either released or rejected.
  EXPECT_EQ(total.arrivals, total.releases + total.rejections);
}

INSTANTIATE_TEST_SUITE_P(
    AllValid, ValidComboTest,
    ::testing::Values(ComboParam{"T_N_N"}, ComboParam{"T_N_T"},
                      ComboParam{"T_N_J"}, ComboParam{"T_T_N"},
                      ComboParam{"T_T_T"}, ComboParam{"T_T_J"},
                      ComboParam{"J_N_N"}, ComboParam{"J_N_T"},
                      ComboParam{"J_N_J"}, ComboParam{"J_T_N"},
                      ComboParam{"J_T_T"}, ComboParam{"J_T_J"},
                      ComboParam{"J_J_N"}, ComboParam{"J_J_T"},
                      ComboParam{"J_J_J"}),
    [](const ::testing::TestParamInfo<ComboParam>& info) {
      return info.param.label;
    });

class InvalidComboTest : public ::testing::TestWithParam<ComboParam> {};

TEST_P(InvalidComboTest, AssemblyRefused) {
  Rng rng(7);
  auto tasks = workload::generate_workload(workload::random_workload_shape(),
                                           rng);
  SystemConfig config;
  config.strategies = StrategyCombination::parse(GetParam().label).value();
  SystemRuntime runtime(config, std::move(tasks));
  const Status s = runtime.assemble();
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("contradictory"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllInvalid, InvalidComboTest,
    ::testing::Values(ComboParam{"T_J_N"}, ComboParam{"T_J_T"},
                      ComboParam{"T_J_J"}),
    [](const ::testing::TestParamInfo<ComboParam>& info) {
      return info.param.label;
    });

// Determinism: identical seeds and configuration give identical metrics.
TEST(RuntimeDeterminismTest, SameSeedSameOutcome) {
  auto run_once = [] {
    Rng rng(11);
    auto tasks = workload::generate_workload(
        workload::random_workload_shape(), rng);
    SystemConfig config;
    config.strategies = StrategyCombination::parse("J_J_J").value();
    SystemRuntime runtime(config, std::move(tasks));
    EXPECT_TRUE(runtime.assemble().is_ok());
    Rng arrival_rng = rng.fork(1);
    const Time horizon(Duration::seconds(20).usec());
    RTCM_EXPECT_OK(runtime.inject_arrivals(
        workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
    runtime.run_until(horizon + Duration::seconds(15));
    return std::tuple{runtime.metrics().accepted_utilization_ratio(),
                      runtime.metrics().total().releases,
                      runtime.metrics().total().rejections,
                      runtime.admission_control()->counters().admission_tests};
  };
  EXPECT_EQ(run_once(), run_once());
}

// With realistic network latency the generous paper-scale deadlines
// (>= 250 ms) still leave admitted jobs meeting deadlines.
TEST(RuntimeLatencyTest, PaperLatencyDoesNotCauseMisses) {
  Rng rng(13);
  auto tasks = workload::generate_workload(workload::random_workload_shape(),
                                           rng);
  SystemConfig config;
  config.strategies = StrategyCombination::parse("J_J_J").value();
  config.comm_latency = sim::Network::kPaperOneWayDelay;
  SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());
  Rng arrival_rng = rng.fork(1);
  const Time horizon(Duration::seconds(30).usec());
  RTCM_EXPECT_OK(runtime.inject_arrivals(
      workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
  runtime.run_until(horizon + Duration::seconds(15));
  EXPECT_EQ(runtime.metrics().total().deadline_misses, 0u);
}

TEST(RuntimeTopologyTest, GeneralizedImbalancedTopologyAssemblesAndRuns) {
  // A topology well past the paper's 5-processor testbed (6 primaries + 4
  // replica hosts at utilization 0.75): assembly must cover every hosting
  // processor with infrastructure, and a driven run must stay conservative.
  rtcm::testing::ImbalancedShape shape;
  shape.primaries = 6;
  shape.replicas = 4;
  shape.utilization = 0.75;
  auto tasks = rtcm::testing::make_imbalanced_workload(9, shape);
  SystemConfig config;
  config.strategies = StrategyCombination::parse("J_J_J").value();
  config.comm_latency = Duration::zero();
  SystemRuntime runtime(config, std::move(tasks));
  ASSERT_TRUE(runtime.assemble().is_ok());

  EXPECT_GE(runtime.app_processors().size(), shape.primaries);
  EXPECT_LE(runtime.app_processors().size(),
            shape.primaries + shape.replicas);
  for (const ProcessorId proc : runtime.app_processors()) {
    EXPECT_NE(runtime.find_container(proc), nullptr);
    EXPECT_NE(runtime.task_effector(proc), nullptr);
  }
  EXPECT_FALSE(std::count(runtime.app_processors().begin(),
                          runtime.app_processors().end(),
                          runtime.task_manager()));

  const Time horizon(Duration::seconds(10).usec());
  Rng arrival_rng = Rng(9).fork(1);
  RTCM_EXPECT_OK(runtime.inject_arrivals(
      workload::generate_arrivals(runtime.tasks(), horizon, arrival_rng)));
  runtime.run_until(horizon + Duration::seconds(12));
  const auto& total = runtime.metrics().total();
  EXPECT_GT(total.releases, 0u);
  EXPECT_EQ(total.arrivals, total.releases + total.rejections);
  EXPECT_EQ(total.releases, total.completions);
  EXPECT_EQ(total.deadline_misses, 0u);
}

// Staged-assembly misuse: every out-of-order or repeated lifecycle call
// must come back as a clean Status error, never UB.
TEST(RuntimeLifecycleTest, FinalizeBeforeInfrastructureIsRefused) {
  SystemConfig config;
  SystemRuntime runtime(config, testing::make_imbalanced_workload(1));
  const Status s = runtime.finalize_deployment();
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("assemble_infrastructure"), std::string::npos);
  EXPECT_FALSE(runtime.assembled());
}

TEST(RuntimeLifecycleTest, DoubleAssembleIsRefused) {
  SystemConfig config;
  SystemRuntime runtime(config, testing::make_imbalanced_workload(1));
  ASSERT_TRUE(runtime.assemble().is_ok());
  const Status again = runtime.assemble();
  EXPECT_FALSE(again.is_ok());
  EXPECT_NE(again.message().find("already assembled"), std::string::npos);
  // The runtime stays usable after the refused second assemble.
  EXPECT_TRUE(runtime.assembled());
  EXPECT_TRUE(runtime.inject_arrival(TaskId(0), Time(0)).is_ok());
}

TEST(RuntimeLifecycleTest, DoubleInfrastructureAssemblyIsRefused) {
  SystemConfig config;
  SystemRuntime runtime(config, testing::make_imbalanced_workload(1));
  ASSERT_TRUE(runtime.assemble_infrastructure().is_ok());
  EXPECT_FALSE(runtime.assemble_infrastructure().is_ok());
}

TEST(RuntimeLifecycleTest, InjectOnUnassembledRuntimeIsRefused) {
  SystemConfig config;
  SystemRuntime runtime(config, testing::make_imbalanced_workload(1));
  const Status s = runtime.inject_arrival(TaskId(0), Time(0));
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("not assembled"), std::string::npos);
  EXPECT_FALSE(
      runtime.inject_arrivals({{TaskId(0), Time(0)}}).is_ok());
}

TEST(RuntimeLifecycleTest, InjectUnknownTaskIsRefused) {
  SystemConfig config;
  SystemRuntime runtime(config, testing::make_imbalanced_workload(1));
  ASSERT_TRUE(runtime.assemble().is_ok());
  const Status s = runtime.inject_arrival(TaskId(999), Time(0));
  EXPECT_FALSE(s.is_ok());
  EXPECT_NE(s.message().find("unknown task"), std::string::npos);
}

TEST(RuntimeLifecycleTest, InjectBeforeNowIsRefusedAndInjectsNothing) {
  // The kernel's "not in the past" check is a Debug-only assert; the
  // runtime refuses such an arrival in every build, and checks a whole
  // trace before feeding any of it.
  SystemConfig config;
  SystemRuntime runtime(config, testing::make_imbalanced_workload(1));
  ASSERT_TRUE(runtime.assemble().is_ok());
  runtime.run_until(Time(1000));
  const std::size_t pending = runtime.simulator().pending();

  const Status single = runtime.inject_arrival(TaskId(0), Time(999));
  ASSERT_FALSE(single.is_ok());
  EXPECT_EQ(single.message(),
            "inject_arrival: arrival of task T0 at 999us is before now "
            "(1000us)");
  const Status batch = runtime.inject_arrivals(
      {{TaskId(0), Time(5000)}, {TaskId(0), Time(-5)}, {TaskId(0), Time(7)}});
  ASSERT_FALSE(batch.is_ok());
  EXPECT_NE(batch.message().find("T0 at -5us"), std::string::npos);
  EXPECT_FALSE(runtime
                   .inject_arrivals({{TaskId(0), Time(5000)},
                                     {TaskId(999), Time(6000)}})
                   .is_ok());
  EXPECT_EQ(runtime.simulator().pending(), pending);

  // Nothing of the refused batches arrives; a valid one (now included) does.
  RTCM_EXPECT_OK(runtime.inject_arrivals(
      {{TaskId(0), Time(1000)}, {TaskId(0), Time(2000)}}));
  runtime.run_until(Time(Duration::seconds(5).usec()));
  EXPECT_EQ(runtime.metrics().total().arrivals, 2u);
}

// --- Fed arrivals against the per-arrival event path ---------------------------
//
// inject_arrivals feeds arrivals to the simulator as records beside its
// timer wheel.  Before the feed existed, each arrival was its own scheduled
// event; EagerReplay reproduces that path through the public API.  The two
// must render byte-identical traces and metrics.

/// One cell made ready to run: assembled with tracing on, its
/// reconfiguration script (if any) scheduled, its arrivals generated but
/// not injected.
struct PreparedCell {
  std::unique_ptr<SystemRuntime> runtime;
  std::unique_ptr<reconfig::ReconfigurationManager> manager;
  std::vector<Arrival> arrivals;
  Time end;
};

PreparedCell prepare(const scenario::ScenarioSpec& spec) {
  PreparedCell cell;
  Rng rng(spec.seed);
  SystemConfig config = spec.config;
  config.enable_trace = true;
  cell.runtime = std::make_unique<SystemRuntime>(
      config, workload::generate_workload(spec.workload.shape, rng));
  EXPECT_TRUE(cell.runtime->assemble().is_ok());
  if (!spec.reconfig.empty()) {
    cell.manager =
        std::make_unique<reconfig::ReconfigurationManager>(*cell.runtime);
    RTCM_EXPECT_OK(cell.manager->schedule_script(spec.reconfig));
  }
  Rng arrival_rng = rng.fork(1);
  const Time horizon = Time::epoch() + spec.horizon;
  cell.arrivals =
      workload::generate_arrivals(cell.runtime->tasks(), horizon, arrival_rng);
  cell.end = horizon + spec.drain;
  return cell;
}

scenario::ScenarioSpec library_cell(const char* grid, const char* combo,
                                    const char* variant, std::uint64_t seed) {
  const scenario::NamedGrid named = scenario::find_grid(grid).value();
  const sweep::Cell cell{combo, named.grid.shapes.front().name, variant, seed};
  scenario::ScenarioSpec spec =
      sweep::cell_spec(cell, named.grid.shapes.front().shape, named.params)
          .value();
  spec.horizon = Duration::seconds(40);
  spec.drain = Duration::seconds(20);
  return spec;
}

/// Each arrival as its own event, as injection worked before the feed:
/// scheduled now, job ids counting from `next_job` in input order.
void eager_replay(SystemRuntime& runtime, const std::vector<Arrival>& batch,
                  std::int32_t& next_job) {
  for (const Arrival& a : batch) {
    TaskEffector* te = runtime.arrival_effector(a.task);
    ASSERT_NE(te, nullptr);
    const TaskId task = a.task;
    const JobId job(next_job++);
    runtime.simulator().schedule_at(
        a.time, [te, task, job] { te->job_arrived(task, job); });
  }
}

/// Everything a run leaves observable: the rendered trace, the metrics
/// summary and exact totals.
std::string outcome(SystemRuntime& runtime) {
  const MetricsCollector& m = runtime.metrics();
  const TaskMetrics& t = m.total();
  char totals[256];
  std::snprintf(totals, sizeof totals,
                "events %llu arrivals %llu releases %llu rejections %llu "
                "completions %llu misses %llu ratio %a response %a\n",
                static_cast<unsigned long long>(
                    runtime.simulator().executed()),
                static_cast<unsigned long long>(t.arrivals),
                static_cast<unsigned long long>(t.releases),
                static_cast<unsigned long long>(t.rejections),
                static_cast<unsigned long long>(t.completions),
                static_cast<unsigned long long>(t.deadline_misses),
                m.accepted_utilization_ratio(), t.response_ms.mean());
  return runtime.trace().render() + m.render() + totals;
}

/// Drives `spec`'s cell twice — fed, then eagerly replayed — injecting
/// `batches[i]` after running to `stops[i]` (stops[0] is the epoch), and
/// requires identical outcomes.
void expect_fed_matches_eager(const scenario::ScenarioSpec& spec,
                              const std::vector<std::vector<Arrival>>& batches,
                              const std::vector<Time>& stops) {
  ASSERT_EQ(batches.size(), stops.size());
  PreparedCell fed = prepare(spec);
  PreparedCell eager = prepare(spec);
  std::int32_t next_job = 0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    fed.runtime->run_until(stops[i]);
    RTCM_EXPECT_OK(fed.runtime->inject_arrivals(batches[i]));
    eager.runtime->run_until(stops[i]);
    eager_replay(*eager.runtime, batches[i], next_job);
  }
  fed.runtime->run_until(fed.end);
  eager.runtime->run_until(eager.end);
  EXPECT_GT(fed.runtime->metrics().total().releases, 0u);
  const std::string a = outcome(*fed.runtime);
  const std::string b = outcome(*eager.runtime);
  const auto at = static_cast<std::size_t>(
      std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first - a.begin());
  EXPECT_TRUE(a == b) << "outcomes diverge at byte " << at << " of "
                      << a.size() << " / " << b.size() << ": "
                      << a.substr(at, 200);
}

TEST(FeedEquivalenceTest, Fig5AubCell) {
  const scenario::ScenarioSpec spec = library_cell("fig5", "J_N_J", "", 2);
  expect_fed_matches_eager(spec, {prepare(spec).arrivals}, {Time::epoch()});
}

TEST(FeedEquivalenceTest, DrainStormCellWithScriptTies) {
  const scenario::ScenarioSpec spec =
      library_cell("drain-storm", "J_J_J", "storm", 1);
  ASSERT_FALSE(spec.reconfig.empty());
  // Arrivals on every script instant: the steps were scheduled first, so
  // they run before the arrivals that tie with them.
  const PreparedCell probe = prepare(spec);
  std::vector<Arrival> arrivals = probe.arrivals;
  for (const config::ModeChange& change : spec.reconfig) {
    for (const sched::TaskSpec& task : probe.runtime->tasks().tasks()) {
      arrivals.push_back({task.id, change.at});
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& x, const Arrival& y) {
                     return x.time < y.time;
                   });
  expect_fed_matches_eager(spec, {arrivals}, {Time::epoch()});
}

TEST(FeedEquivalenceTest, DeferrableServerCell) {
  scenario::ScenarioSpec spec = library_cell("fig5", "J_T_T", "", 3);
  spec.config.analysis = AperiodicAnalysis::kDeferrableServer;
  expect_fed_matches_eager(spec, {prepare(spec).arrivals}, {Time::epoch()});
}

TEST(FeedEquivalenceTest, UnsortedTraceKeepsInputOrderOnTies) {
  const scenario::ScenarioSpec spec = library_cell("fig5", "T_N_N", "", 4);
  std::vector<Arrival> arrivals = prepare(spec).arrivals;
  ASSERT_GT(arrivals.size(), 40u);
  // Reverse, then duplicate every fifth arrival onto its neighbour's
  // instant, so the trace is out of order and has input-ordered ties.
  std::reverse(arrivals.begin(), arrivals.end());
  for (std::size_t i = 5; i < arrivals.size(); i += 5) {
    arrivals.push_back({arrivals[i].task, arrivals[i - 1].time});
  }
  expect_fed_matches_eager(spec, {arrivals}, {Time::epoch()});
}

TEST(FeedEquivalenceTest, SecondBatchMergesAfterRunUntil) {
  const scenario::ScenarioSpec spec = library_cell("fig5", "J_J_J", "", 5);
  const std::vector<Arrival> arrivals = prepare(spec).arrivals;
  const Time mid(spec.horizon.usec() / 2);
  // The first batch spans the whole horizon, so the second one lands in
  // its partly consumed remainder.
  std::vector<Arrival> first;
  std::vector<Arrival> second;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    (i % 2 == 0 || arrivals[i].time < mid ? first : second)
        .push_back(arrivals[i]);
  }
  ASSERT_FALSE(second.empty());
  expect_fed_matches_eager(spec, {first, second}, {Time::epoch(), mid});
}

}  // namespace
}  // namespace rtcm::core
