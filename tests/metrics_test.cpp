// Direct unit tests of the metrics collector (the paper's accepted
// utilization ratio and supporting accounting).
#include <gtest/gtest.h>

#include "core/metrics.h"
#include "test_helpers.h"

namespace rtcm::core {
namespace {

using rtcm::testing::make_aperiodic;
using rtcm::testing::make_periodic;

sched::TaskSpec util_half_task(std::int32_t id = 0) {
  // Single 50 ms stage on a 100 ms deadline: utilization 0.5.
  return make_periodic(id, Duration::milliseconds(100), {{0, 50000}});
}

TEST(MetricsTest, EmptyCollectorReportsRatioOne) {
  MetricsCollector metrics;
  EXPECT_DOUBLE_EQ(metrics.accepted_utilization_ratio(), 1.0);
  EXPECT_EQ(metrics.total().arrivals, 0u);
}

TEST(MetricsTest, RatioIsReleasedOverArrivedUtilization) {
  MetricsCollector metrics;
  const auto task = util_half_task();
  metrics.on_arrival(task, JobId(1), Time(0));
  metrics.on_arrival(task, JobId(2), Time(1));
  metrics.on_arrival(task, JobId(3), Time(2));
  metrics.on_release(task, JobId(1), Time(10));
  metrics.on_release(task, JobId(2), Time(11));
  metrics.on_rejection(task, JobId(3), Time(12));
  EXPECT_NEAR(metrics.accepted_utilization_ratio(), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(metrics.total().releases, 2u);
  EXPECT_EQ(metrics.total().rejections, 1u);
  EXPECT_NEAR(metrics.total().arrived_utilization, 1.5, 1e-12);
  EXPECT_NEAR(metrics.total().released_utilization, 1.0, 1e-12);
}

TEST(MetricsTest, RatioWeighsTasksByUtilization) {
  MetricsCollector metrics;
  const auto heavy = util_half_task(0);
  const auto light =
      make_periodic(1, Duration::milliseconds(100), {{1, 10000}});
  metrics.on_arrival(heavy, JobId(1), Time(0));
  metrics.on_arrival(light, JobId(2), Time(0));
  metrics.on_release(light, JobId(2), Time(5));
  metrics.on_rejection(heavy, JobId(1), Time(5));
  // Released 0.1 of an arrived 0.6.
  EXPECT_NEAR(metrics.accepted_utilization_ratio(), 0.1 / 0.6, 1e-12);
}

TEST(MetricsTest, CompletionComputesResponseFromArrival) {
  MetricsCollector metrics;
  const auto task = util_half_task();
  metrics.on_arrival(task, JobId(1), Time(Duration::milliseconds(10).usec()));
  metrics.on_release(task, JobId(1), Time(Duration::milliseconds(11).usec()));
  metrics.job_completed(task.id, JobId(1),
                        Time(Duration::milliseconds(10).usec()),
                        Time(Duration::milliseconds(70).usec()),
                        Time(Duration::milliseconds(110).usec()));
  const auto& tm = metrics.per_task().at(task.id);
  EXPECT_EQ(tm.completions, 1u);
  EXPECT_EQ(tm.deadline_misses, 0u);
  EXPECT_NEAR(tm.response_ms.mean(), 60.0, 1e-9);  // 70 - 10
}

TEST(MetricsTest, LateCompletionCountsAsMiss) {
  MetricsCollector metrics;
  const auto task = util_half_task();
  metrics.on_arrival(task, JobId(1), Time(0));
  metrics.on_release(task, JobId(1), Time(1));
  metrics.job_completed(task.id, JobId(1), Time(1),
                        Time(Duration::milliseconds(150).usec()),
                        Time(Duration::milliseconds(100).usec()));
  EXPECT_EQ(metrics.total().deadline_misses, 1u);
}

TEST(MetricsTest, PerTaskBreakdownIsIndependent) {
  MetricsCollector metrics;
  const auto a = util_half_task(0);
  const auto b = make_aperiodic(1, Duration::milliseconds(200), {{0, 20000}});
  metrics.on_arrival(a, JobId(1), Time(0));
  metrics.on_arrival(b, JobId(2), Time(0));
  metrics.on_release(a, JobId(1), Time(1));
  metrics.on_rejection(b, JobId(2), Time(1));
  EXPECT_EQ(metrics.per_task().at(TaskId(0)).releases, 1u);
  EXPECT_EQ(metrics.per_task().at(TaskId(0)).rejections, 0u);
  EXPECT_EQ(metrics.per_task().at(TaskId(1)).releases, 0u);
  EXPECT_EQ(metrics.per_task().at(TaskId(1)).rejections, 1u);
}

TEST(MetricsTest, IdleResetAccounting) {
  MetricsCollector metrics;
  metrics.on_idle_reset(3);
  metrics.on_idle_reset(0);
  metrics.on_idle_reset(2);
  EXPECT_EQ(metrics.idle_resets(), 3u);
  EXPECT_EQ(metrics.subjobs_reset(), 5u);
}

TEST(MetricsTest, ResponseIsCompletionMinusCarriedArrival) {
  // The collector keeps no per-job state: the arrival instant rides the
  // job's events to the completion, so a completion alone yields the
  // response sample — even for a job whose arrival it never saw.
  MetricsCollector metrics;
  metrics.job_completed(TaskId(0), JobId(99), Time(4000), Time(10000),
                        Time(20000));
  metrics.job_completed(TaskId(0), JobId(100), Time(5000), Time(7000),
                        Time(20000));
  EXPECT_EQ(metrics.total().completions, 2u);
  EXPECT_EQ(metrics.total().response_ms.count(), 2u);
  EXPECT_DOUBLE_EQ(metrics.total().response_ms.min(), 2.0);
  EXPECT_DOUBLE_EQ(metrics.total().response_ms.max(), 6.0);
}

TEST(MetricsTest, RenderMentionsEveryTask) {
  MetricsCollector metrics;
  metrics.on_arrival(util_half_task(3), JobId(1), Time(0));
  metrics.on_arrival(make_periodic(7, Duration::seconds(1), {{0, 1000}}),
                     JobId(2), Time(0));
  const std::string text = metrics.render();
  EXPECT_NE(text.find("T3"), std::string::npos);
  EXPECT_NE(text.find("T7"), std::string::npos);
}

TEST(MetricsTest, RatioBoundedUnderBurstyPartialAdmission) {
  // Drive the collector with a bursty arrival trace where only every third
  // job is released: the headline ratio must stay in [0, 1] after every
  // event and converge to the released share (all jobs share one spec, so
  // utilization weighting reduces to a count ratio).
  MetricsCollector metrics;
  const auto spec = rtcm::testing::make_aperiodic(
      0, Duration::milliseconds(100), {{0, 10000}});
  rtcm::testing::BurstShape shape;
  shape.bursts = 3;
  shape.jobs_per_burst = 10;
  const auto trace = rtcm::testing::make_bursty_arrivals(TaskId(0), shape);
  std::uint64_t released = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const JobId job(static_cast<std::int32_t>(i));
    metrics.on_arrival(spec, job, trace[i].time);
    if (i % 3 == 0) {
      metrics.on_release(spec, job, trace[i].time);
      ++released;
    } else {
      metrics.on_rejection(spec, job, trace[i].time);
    }
    const double ratio = metrics.accepted_utilization_ratio();
    EXPECT_GE(ratio, 0.0);
    EXPECT_LE(ratio, 1.0);
  }
  EXPECT_EQ(metrics.total().arrivals, trace.size());
  EXPECT_NEAR(metrics.accepted_utilization_ratio(),
              static_cast<double>(released) / trace.size(), 1e-9);
}

}  // namespace
}  // namespace rtcm::core
