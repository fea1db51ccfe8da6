// Shared helpers for the rtcm test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "config/plan_builder.h"
#include "core/runtime.h"
#include "core/strategies.h"
#include "events/placement_table.h"
#include "sched/task.h"
#include "util/rng.h"
#include "util/time.h"
#include "workload/burst.h"
#include "workload/generator.h"

namespace rtcm::testing {

/// A placement for hand-built Accept/Trigger payloads, interned in one
/// table that lives as long as the test binary, so the events built from
/// it never outlive their placement.
inline events::Placement placed(std::span<const ProcessorId> procs) {
  static events::PlacementTable table;
  return table.intern(procs);
}
inline events::Placement placed(std::initializer_list<ProcessorId> procs) {
  return placed(std::span<const ProcessorId>(procs.begin(), procs.size()));
}

struct StageSpec {
  std::int32_t primary;
  std::int64_t exec_usec;
  std::vector<std::int32_t> replicas = {};
};

/// Compact task-spec builder for tests.
inline sched::TaskSpec make_task(std::int32_t id, sched::TaskKind kind,
                                 Duration deadline,
                                 const std::vector<StageSpec>& stages) {
  sched::TaskSpec spec;
  spec.id = TaskId(id);
  spec.name = "test-task-" + std::to_string(id);
  spec.kind = kind;
  spec.deadline = deadline;
  if (kind == sched::TaskKind::kPeriodic) {
    spec.period = deadline;
  } else {
    spec.mean_interarrival = deadline;
  }
  for (const StageSpec& s : stages) {
    sched::SubtaskSpec st;
    st.primary = ProcessorId(s.primary);
    st.execution = Duration(s.exec_usec);
    for (const std::int32_t r : s.replicas) {
      st.replicas.push_back(ProcessorId(r));
    }
    spec.subtasks.push_back(std::move(st));
  }
  return spec;
}

inline sched::TaskSpec make_periodic(std::int32_t id, Duration deadline,
                                     const std::vector<StageSpec>& stages) {
  return make_task(id, sched::TaskKind::kPeriodic, deadline, stages);
}

inline sched::TaskSpec make_aperiodic(std::int32_t id, Duration deadline,
                                      const std::vector<StageSpec>& stages) {
  return make_task(id, sched::TaskKind::kAperiodic, deadline, stages);
}

// --- Workload generators (promoted to src/workload in PR 5) -----------------
//
// The imbalanced-workload and bursty-arrival builders this header used to
// define now live in workload/generator.h and workload/burst.h so benches,
// examples and the scenario library share them; these aliases keep the
// historical rtcm::testing spellings working.

using workload::BurstShape;
using workload::ImbalancedShape;
using workload::make_bursty_arrivals;
using workload::make_imbalanced_shape;
using workload::make_imbalanced_workload;

// --- Reconfiguration scripts -------------------------------------------------
//
// A reconfiguration script is a plan plus a list of timed plan mutations —
// the currency shared by the unit, property and sweep layers.  The builder
// keeps scripted scenarios one-liners; make_random_reconfig_script generates
// the randomized sequences the property tests sweep over.

class ReconfigScriptBuilder {
 public:
  ReconfigScriptBuilder& swap_strategies(Time at, const std::string& combo) {
    config::ModeChange change;
    change.at = at;
    change.label = "swap-strategies-" + combo;
    change.strategies = core::StrategyCombination::parse(combo).value();
    script_.push_back(std::move(change));
    return *this;
  }

  ReconfigScriptBuilder& swap_lb_policy(Time at, std::string policy) {
    config::ModeChange change;
    change.at = at;
    change.label = "swap-lb-" + policy;
    change.lb_policy = std::move(policy);
    script_.push_back(std::move(change));
    return *this;
  }

  ReconfigScriptBuilder& drain(Time at, std::int32_t node) {
    config::ModeChange change;
    change.at = at;
    change.label = "drain-P" + std::to_string(node);
    change.drain.push_back(ProcessorId(node));
    script_.push_back(std::move(change));
    return *this;
  }

  ReconfigScriptBuilder& undrain(Time at, std::int32_t node) {
    config::ModeChange change;
    change.at = at;
    change.label = "undrain-P" + std::to_string(node);
    change.undrain.push_back(ProcessorId(node));
    script_.push_back(std::move(change));
    return *this;
  }

  [[nodiscard]] std::vector<config::ModeChange> build() const {
    std::vector<config::ModeChange> script = script_;
    std::stable_sort(script.begin(), script.end(),
                     [](const config::ModeChange& a,
                        const config::ModeChange& b) { return a.at < b.at; });
    return script;
  }

 private:
  std::vector<config::ModeChange> script_;
};

/// A randomized mode-change sequence over `processors`, deterministic in
/// `seed`: LB-policy swaps, valid strategy swaps, drains and undrains at
/// random instants in (0, horizon).  Infeasible drains are intended — they
/// exercise the rejection/rollback path, which must also preserve every
/// guarantee the property tests check.
inline std::vector<config::ModeChange> make_random_reconfig_script(
    std::uint64_t seed, const std::vector<ProcessorId>& processors,
    Time horizon, std::size_t steps = 6) {
  Rng rng = Rng(seed).fork(0x5ec0);
  const auto combos = core::valid_combinations();
  const char* policies[] = {"lowest-util", "random", "primary"};
  ReconfigScriptBuilder builder;
  std::vector<std::int32_t> drained;
  for (std::size_t i = 0; i < steps; ++i) {
    const Time at =
        Time(rng.uniform_int(1, horizon.usec() > 1 ? horizon.usec() : 1));
    switch (rng.uniform_int(0, 3)) {
      case 0:
        builder.swap_lb_policy(at, policies[rng.index(3)]);
        break;
      case 1:
        builder.swap_strategies(at, combos[rng.index(combos.size())].label());
        break;
      case 2: {
        const std::int32_t node =
            processors[rng.index(processors.size())].value();
        builder.drain(at, node);
        drained.push_back(node);
        break;
      }
      default:
        if (drained.empty()) {
          builder.swap_lb_policy(at, policies[rng.index(3)]);
        } else {
          const std::size_t pick = rng.index(drained.size());
          builder.undrain(at, drained[pick]);
          drained.erase(drained.begin() +
                        static_cast<std::ptrdiff_t>(pick));
        }
        break;
    }
  }
  return builder.build();
}

}  // namespace rtcm::testing

// Assert a Status/Result-returning call succeeded, usable from any helper
// (EXPECT_*, unlike ASSERT_*, does not require a void return type).  The
// [[nodiscard]] audit made dropping a Status a warning; tests that inject
// arrivals expected to succeed say so explicitly with this.
#define RTCM_EXPECT_OK(expr)                                          \
  do {                                                                \
    const auto rtcm_expect_ok_status_ = (expr);                       \
    EXPECT_TRUE(rtcm_expect_ok_status_.is_ok())                       \
        << #expr << ": " << rtcm_expect_ok_status_.message();         \
  } while (false)
