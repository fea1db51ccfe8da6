// Admission Control (AC) component (paper §4.2, §5).
//
// The central admission controller consumes "Task Arrive" events from the
// task effectors and "Idle Resetting" events from the idle resetters,
// evaluates the AUB schedulability condition (Equation 1) and publishes
// "Accept" / "Reject" events.  Placement is delegated to the Load Balancer
// through the "Location" receptacle.
//
// Strategies (attributes):
//   AC_Strategy = "PT": periodic tasks are tested once, at first arrival;
//     admitted tasks get a permanent synthetic-utilization reservation and
//     their later jobs bypass (or trivially pass) admission.  A task that
//     fails its first test never runs.
//   AC_Strategy = "PJ": every job of a periodic task is tested; rejected
//     jobs are skipped (criterion C1).
//   Aperiodic jobs are always tested per arrival — each job of an aperiodic
//   task is an independent single-release task.
//   LB_Strategy = "N" | "PT" | "PJ" selects no balancing, one placement per
//     (periodic) task frozen at first arrival, or a fresh placement per job.
//     Under AC=PT with LB=PJ the reservation is *moved* when a better
//     placement passes the admission test ("the LB component may modify a
//     previous allocation plan for a task when a new job of the task
//     arrives", §5).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "ccm/component.h"
#include "core/metrics.h"
#include "core/protocols.h"
#include "core/scheduling_state.h"
#include "core/strategies.h"
#include "sched/ds_admission.h"
#include "sched/task.h"

namespace rtcm::core {

/// Which aperiodic schedulability analysis the AC runs (paper §2: AUB or
/// deferrable server; AUB is the paper's focus, DS the referenced
/// alternative from the authors' prior work).
enum class AperiodicAnalysis { kAub, kDeferrableServer };

class AdmissionControl final : public ccm::Component {
 public:
  static constexpr const char* kTypeName = "rtcm.AdmissionControl";
  static constexpr const char* kAcStrategyAttr = "AC_Strategy";  // PT | PJ
  static constexpr const char* kLbStrategyAttr = "LB_Strategy";  // N | PT | PJ
  /// "AUB" (default) or "DS".
  static constexpr const char* kAnalysisAttr = "Analysis";
  /// DS server parameters (microseconds); used when Analysis = "DS".
  static constexpr const char* kDsBudgetAttr = "DS_Budget";
  static constexpr const char* kDsPeriodAttr = "DS_Period";
  /// Per-message middleware/communication cost the DS bound budgets for
  /// (the deployer measures it, e.g. with the Figure 8 harness).
  static constexpr const char* kDsHopOverheadAttr = "DS_HopOverhead";

  /// `arena` backs the book of record's spilled rows (normally the owning
  /// SystemRuntime's cell arena); null lets the state own a private one.
  AdmissionControl(const sched::TaskSet& tasks, MetricsCollector* metrics,
                   util::MonotonicArena* arena = nullptr);

  struct Counters {
    std::uint64_t admission_tests = 0;
    std::uint64_t admits = 0;
    std::uint64_t rejects = 0;
    std::uint64_t auto_accepts = 0;     // jobs of already-admitted tasks
    std::uint64_t reservation_moves = 0;
    std::uint64_t subjobs_reset = 0;
    std::uint64_t migrations = 0;        // reservations moved by drains
    std::uint64_t drain_unplaceable = 0; // arrivals rejected for lack of a
                                         // non-drained candidate
  };

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] const SchedulingState& state() const { return state_; }
  [[nodiscard]] AcStrategy ac_strategy() const { return ac_; }
  [[nodiscard]] LbStrategy lb_strategy() const { return lb_; }
  [[nodiscard]] AperiodicAnalysis analysis() const { return analysis_; }
  /// Present only in DS mode.
  [[nodiscard]] const sched::DsAdmission* ds_admission() const {
    return ds_ ? &*ds_ : nullptr;
  }

  // --- Runtime reconfiguration (src/reconfig) ------------------------------

  /// Strategy attributes may be swapped live; on_configure guards the
  /// transitions that would be unsound (switching the analysis mid-run).
  [[nodiscard]] bool supports_runtime_reconfiguration() const override {
    return true;
  }

  struct MigrationRecord {
    TaskId task;
    std::vector<ProcessorId> from;
    std::vector<ProcessorId> to;
  };
  struct TransitionSummary {
    std::vector<MigrationRecord> migrated;
  };

  /// Atomically transition to a new drained-processor set.  Every standing
  /// reservation (AC per Task) whose placement touches a drained processor
  /// is re-placed on non-drained candidates and re-admitted under Equation
  /// (1); frozen LB-per-Task plans are re-frozen likewise.  If any migrated
  /// task would lose its guarantee, the whole transition rolls back (ledger
  /// and reservations restored exactly) and an error is returned.  In-flight
  /// per-job admissions are never migrated — they complete on their old
  /// placement by their deadline (quiescence).
  [[nodiscard]] Result<TransitionSummary> apply_drain(
      const std::set<ProcessorId>& drained);

  [[nodiscard]] const std::set<ProcessorId>& drained() const {
    return drained_;
  }

  /// Earliest virtual time at which `nodes` are guaranteed silent: the max
  /// of every in-flight admitted job's deadline touching them and now + D_i
  /// for every task with a candidate there (covering TE immediate releases
  /// that never pass through the AC's book).  Never before now.
  [[nodiscard]] Time quiesce_horizon(const std::set<ProcessorId>& nodes) const;

 protected:
  [[nodiscard]] Status on_configure(
      const ccm::AttributeMap& attributes) override;
  [[nodiscard]] Status on_activate() override;

 private:
  void handle_task_arrive(const events::TaskArrivePayload& payload);
  void handle_idle_reset(const events::IdleResetPayload& payload);

  /// Placement for this arrival per the LB strategy: a view of placement_
  /// or of an interned frozen plan, valid until the next placement_for().
  /// Empty when some stage has no non-drained candidate (the arrival must
  /// be rejected).
  [[nodiscard]] events::Placement placement_for(const sched::TaskSpec& spec);
  /// The LB's proposal (primaries without an LB) into placement_.
  void propose(const sched::TaskSpec& spec);
  void primaries(const sched::TaskSpec& spec);

  /// Remap stages placed on drained processors to the lowest-utilization
  /// non-drained candidate (ties by candidate order), in place.  False when
  /// a stage has no live candidate.
  [[nodiscard]] bool drain_adjust(const sched::TaskSpec& spec,
                                  std::vector<ProcessorId>& placement) const;

  /// The run's interned copy of `placement` (what Accept events carry).
  [[nodiscard]] events::Placement intern(
      std::span<const ProcessorId> placement) const;

  /// Run Equation (1) for `spec` placed on `placement`, incrementally: only
  /// footprints intersecting the placement are re-checked (the book's
  /// AdmissionIndex).  With RTCM_CHECK_ADMISSION_ORACLE set in the
  /// environment, every decision is cross-checked against the reference
  /// full-task-set rescan and a mismatch aborts.
  [[nodiscard]] sched::AdmissionDecision test(
      const sched::TaskSpec& spec, std::span<const ProcessorId> placement);

  /// LB per Job under AC per Task: try to move the standing reservation.
  void maybe_move_reservation(const sched::TaskSpec& spec);

  void accept(const sched::TaskSpec& spec, const events::TaskArrivePayload& a,
              std::span<const ProcessorId> placement, bool task_admitted);
  void reject(const events::TaskArrivePayload& a);

  /// DS-mode aperiodic arrival handling (delay-bound admission + backlog).
  void handle_ds_aperiodic(const sched::TaskSpec& spec,
                           const events::TaskArrivePayload& a);

  const sched::TaskSet& tasks_;
  MetricsCollector* metrics_;
  AcStrategy ac_ = AcStrategy::kPerTask;
  LbStrategy lb_ = LbStrategy::kNone;
  AperiodicAnalysis analysis_ = AperiodicAnalysis::kAub;
  LocationService* location_ = nullptr;
  /// RTCM_CHECK_ADMISSION_ORACLE was set when this AC was constructed.
  bool check_oracle_ = false;

  SchedulingState state_;
  /// Frozen plans (LB per Task, periodic tasks), set at first arrival;
  /// interned, so a frozen job's Accept copies nothing.
  std::map<TaskId, events::Placement> plans_;
  /// Periodic tasks rejected at first arrival under AC per Task.
  std::set<TaskId> rejected_tasks_;
  /// Processors currently drained by the reconfiguration engine: no new
  /// placement may use them (in-flight jobs finish there by quiescence).
  std::set<ProcessorId> drained_;
  Counters counters_;
  /// Per-decision scratch, reused so an admission allocates nothing: the
  /// LB's proposal and the admission test's candidate stages.
  std::vector<ProcessorId> placement_;
  std::vector<sched::CandidateStage> stages_;

  // DS mode only.
  std::optional<sched::DsAdmission> ds_;
  /// Per-stage backlog handles of DS-admitted jobs.
  std::map<JobId, std::vector<sched::ContributionId>> ds_jobs_;
};

}  // namespace rtcm::core
