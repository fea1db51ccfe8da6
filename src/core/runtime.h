// SystemRuntime: assembles and drives one complete middleware deployment.
//
// This is the programmatic equivalent of the paper's deployment (Figure 1):
// a central task manager processor hosting the AC and LB components, and one
// TE + IR per application processor, plus F/I and Last Subtask component
// instances on every primary and replica processor of every task.  All of it
// runs on the discrete-event simulator, so experiments are deterministic.
//
// The DAnCE pipeline (src/dance) drives the same component factory and
// containers from an XML deployment plan; this facade is the direct path
// used by tests, benches and examples.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "ccm/container.h"
#include "ccm/factory.h"
#include "core/admission_control.h"
#include "core/idle_resetter.h"
#include "core/load_balancer_component.h"
#include "core/metrics.h"
#include "core/strategies.h"
#include "core/subtask_component.h"
#include "core/task_effector.h"
#include "sched/edms.h"
#include "sched/task.h"
#include "sim/deferrable_server.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace rtcm::core {

struct SystemConfig {
  StrategyCombination strategies{};
  /// One-way network latency between distinct processors.
  Duration comm_latency = sim::Network::kPaperOneWayDelay;
  /// Optional per-message uniform jitter added on top of comm_latency
  /// (zero = the constant model).
  Duration comm_jitter = Duration::zero();
  std::uint64_t comm_jitter_seed = 1;
  /// Latency for co-located event deliveries.
  Duration loopback_latency = Duration::zero();
  /// Load-balancer placement policy ("lowest-util" | "primary" | "random").
  std::string lb_policy = "lowest-util";
  std::uint64_t lb_seed = 1;
  bool enable_trace = false;
  /// Task manager processor; defaults to (max application processor id + 1).
  std::optional<ProcessorId> task_manager;
  /// Aperiodic schedulability analysis: AUB (the paper's focus) or the
  /// deferrable-server alternative (§2).  DS deploys one server per
  /// application processor with `ds_server` parameters.
  AperiodicAnalysis analysis = AperiodicAnalysis::kAub;
  sched::DsServerConfig ds_server{};
};

/// Validate a SystemConfig before any component is built: rejects invalid
/// strategy combinations, negative latencies/jitter, unknown load-balancer
/// policies and malformed deferrable-server parameters with a descriptive
/// error.  assemble()/assemble_infrastructure() run this first, so a bad
/// configuration can never silently misbehave mid-simulation.
[[nodiscard]] Status validate_config(const SystemConfig& config);

/// One externally-driven job arrival.
struct Arrival {
  TaskId task;
  Time time;
};

class SystemRuntime {
 public:
  /// The configuration must hold a valid strategy combination; assemble()
  /// rejects invalid ones (the configuration engine's job is to never
  /// produce them in the first place).
  SystemRuntime(SystemConfig config, sched::TaskSet tasks);

  /// Build processors, containers and components, wire all ports, activate.
  [[nodiscard]] Status assemble();
  [[nodiscard]] bool assembled() const { return assembled_; }

  // --- Staged assembly (for deployment-plan driven launching) -------------
  //
  // The DAnCE pipeline installs components from an XML plan instead of the
  // direct install path.  It needs the infrastructure (processors,
  // containers, network) up first, then installs via factory()/container(),
  // then finalizes:
  //   assemble_infrastructure() -> [dance launch] -> finalize_deployment()

  /// Build network, federation, processors and (empty) containers.
  [[nodiscard]] Status assemble_infrastructure();
  /// Discover installed components, activate containers (manager first) and
  /// mark the runtime assembled.
  [[nodiscard]] Status finalize_deployment();

  // --- Driving -------------------------------------------------------------

  /// Feed a job arrival to the simulator; ids are assigned in injection
  /// order.  Errors (runtime not assembled, unknown task, an instant before
  /// now) are reported instead of UB.
  [[nodiscard]] Status inject_arrival(TaskId task, Time at);
  /// Inject a whole trace, in any order (equal instants keep input order).
  /// Every arrival is checked first: a refused trace injects nothing and
  /// leaves the runtime unchanged.
  [[nodiscard]] Status inject_arrivals(const std::vector<Arrival>& arrivals);
  void run_until(Time horizon) { sim_.run_until(horizon); }
  void run_for(Duration d) { sim_.run_until(sim_.now() + d); }

  // --- Access --------------------------------------------------------------

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] sim::Trace& trace() { return trace_; }
  [[nodiscard]] sim::Network& network() { return *network_; }
  [[nodiscard]] events::FederatedEventChannel& federation() {
    return *federation_;
  }
  [[nodiscard]] const sched::TaskSet& tasks() const { return tasks_; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }
  [[nodiscard]] MetricsCollector& metrics() { return metrics_; }
  [[nodiscard]] const MetricsCollector& metrics() const { return metrics_; }
  [[nodiscard]] ccm::ComponentFactory& factory() { return factory_; }

  [[nodiscard]] ProcessorId task_manager() const { return manager_; }
  [[nodiscard]] const std::vector<ProcessorId>& app_processors() const {
    return app_processors_;
  }
  [[nodiscard]] ccm::Container& container(ProcessorId proc);
  /// Null when the processor is unknown (safe form for plan resolvers).
  [[nodiscard]] ccm::Container* find_container(ProcessorId proc);
  [[nodiscard]] sim::Processor& processor(ProcessorId proc);

  [[nodiscard]] AdmissionControl* admission_control() { return ac_; }
  [[nodiscard]] LoadBalancerComponent* load_balancer() { return lb_; }
  [[nodiscard]] TaskEffector* task_effector(ProcessorId proc);
  [[nodiscard]] IdleResetter* idle_resetter(ProcessorId proc);
  /// The TE where jobs of `task` arrive (the first stage's primary host);
  /// null for unknown tasks.
  [[nodiscard]] TaskEffector* arrival_effector(TaskId task);
  /// Null unless DS analysis is configured.
  [[nodiscard]] sim::DeferrableServer* deferrable_server(ProcessorId proc);
  [[nodiscard]] const std::unordered_map<TaskId, Priority>& priorities()
      const {
    return priorities_;
  }

  // --- Reconfiguration hooks (src/reconfig) -------------------------------

  /// Apply new configProperties to one live (or quiesced) installed
  /// instance — the incremental form of the deployment set_configuration
  /// path.  Errors name the instance.
  [[nodiscard]] Status reconfigure_instance(
      ProcessorId node, const std::string& instance,
      const ccm::AttributeMap& properties);

  /// Record the strategy combination now in force, so config() keeps
  /// describing the live system after a mode change swapped strategies.
  void note_active_strategies(const StrategyCombination& strategies) {
    config_.strategies = strategies;
  }

  /// Attribute values the deployment plan / configuration engine use for a
  /// given strategy combination.
  [[nodiscard]] static std::string ac_attr(AcStrategy s);
  [[nodiscard]] static std::string ir_attr(IrStrategy s);
  [[nodiscard]] static std::string lb_attr(LbStrategy s);
  /// TE mode: "PT" exactly when admitted periodic tasks bypass the AC
  /// round-trip (AC per Task and LB not per Job).
  [[nodiscard]] static std::string te_mode(const StrategyCombination& s);

 private:
  void register_component_types();
  [[nodiscard]] Status install_manager_components();
  [[nodiscard]] Status install_application_components();
  /// Populate ac_/lb_/te_/ir_ pointers by scanning the containers.
  [[nodiscard]] Status bind_components();
  [[nodiscard]] Status activate_containers();
  [[nodiscard]] Status inject(std::span<const Arrival> arrivals);
  /// The simulator's feed sink: one injected arrival reaching its TE.
  void arrive(std::uint64_t tag);

  SystemConfig config_;
  sched::TaskSet tasks_;
  // Order matters for destruction: the simulator and trace outlive
  // everything that schedules against them.
  sim::Simulator sim_;
  sim::Trace trace_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<events::FederatedEventChannel> federation_;
  MetricsCollector metrics_;
  ccm::ComponentFactory factory_;
  /// Cell-lifetime arena backing the AC book of record's spilled rows;
  /// declared before containers_ so the components it serves die first.
  util::MonotonicArena admission_arena_;

  ProcessorId manager_;
  std::vector<ProcessorId> app_processors_;
  std::map<ProcessorId, std::unique_ptr<sim::Processor>> cpus_;
  std::map<ProcessorId, std::unique_ptr<sim::DeferrableServer>> servers_;
  std::map<ProcessorId, std::unique_ptr<ccm::Container>> containers_;
  std::unordered_map<TaskId, Priority> priorities_;

  AdmissionControl* ac_ = nullptr;
  LoadBalancerComponent* lb_ = nullptr;
  std::map<ProcessorId, TaskEffector*> te_;
  std::map<ProcessorId, IdleResetter*> ir_;
  /// Where each task's jobs arrive, indexed like tasks_.tasks(); a fed
  /// arrival's tag holds (job id << 32 | task index).
  struct ArrivalTarget {
    TaskId task;
    TaskEffector* te;
  };
  std::vector<ArrivalTarget> arrival_targets_;

  std::int32_t next_job_ = 0;
  bool assembled_ = false;
};

}  // namespace rtcm::core
