// rtcm_perfbench: the program behind the repository benchmark (run.py).
//
// Runs one workload in one mode and prints one JSON document on stdout:
//
//   measure  end-to-end metrics, tracing off: a set-up pass that makes every
//            cell ready to run without simulating it, then repeated sweeps
//            through sweep::run_sweep until the time budget is spent.
//   trace    per-layer metrics: a single-thread pass that re-runs every cell
//            phase by phase with spans around each layer call and run_until
//            driven in fixed simulated-time slices, checked byte for byte
//            against an untraced single-thread sweep of the same cells.
//   outputs  one sweep; only the deterministic per-cell outputs (used to
//            write the golden files).
//
// A cell fails on a cell error, an admitted-job deadline miss, outputs that
// differ between repeated sweeps, or (trace mode) a traced run whose outputs
// differ from the untraced one.  run.py also compares the outputs with the
// checked-in golden files.  See README.md for the workloads and metrics.
//
// Flags: --workload=NAME --seed=N --seconds=S --mode=measure|trace|outputs
//        --spans=PATH (trace mode: where the spans are written)
#include <malloc.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "reconfig/manager.h"
#include "scenario/library.h"
#include "scenario/scenario.h"
#include "sweep/report.h"
#include "sweep/sweep.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "workload/arrival.h"
#include "workload/burst.h"
#include "workload/generator.h"

using namespace rtcm;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Workloads ---------------------------------------------------------------

/// `--seed` picks one of this many windows of arrival streams, so every input
/// the benchmark can run has a checked-in golden output.  Windows 1-8 are the
/// development set, 9-16 the held-out set.
constexpr std::int64_t kSeedWindows = 16;

/// Task sets per shape.  They are fixed, not drawn from `--seed`: a random
/// task set's arrival rate and deadlines are heavy-tailed, so metrics over a
/// few dozen task sets still move by 15% from one draw to the next, which
/// would bury any change a benchmark run should show.  `--seed` draws the
/// arrival streams instead.
constexpr int kPaperTaskSets = 10;  // the paper's "10 sets of 9 tasks"
constexpr int kWideTaskSets = 8;
constexpr int kDeepTaskSets = 4;

/// Expected arrivals per deep-pending cell: every arrival is injected as a
/// pending event before the run starts, so this is the kernel's pending-set
/// size, held level across task sets by sizing each cell's horizon.
constexpr double kDeepArrivals = 120000.0;

/// Task sets by shape name; entry k - 1 is task-set seed k.
using TaskSets = std::map<std::string, std::vector<sched::TaskSet>>;

/// One sweep::run_sweep call.  Cell seed k runs task-set seed k: the task set
/// workload::generate_workload makes for the cell's shape from Rng(k), the
/// one the library grids run for seed k.
struct Part {
  std::string name;
  sweep::Grid grid;
  sweep::SweepParams params;
  std::shared_ptr<const TaskSets> task_sets;
  /// Simulated time per run_until slice in the traced run.
  Duration slice = Duration::seconds(10);

  [[nodiscard]] const workload::WorkloadShape& shape(
      const std::string& name) const {
    for (const sweep::ShapeSpec& s : grid.shapes) {
      if (s.name == name) return s.shape;
    }
    return grid.shapes.front().shape;  // cells only name the grid's shapes
  }
};

struct Workload {
  std::string name;
  std::size_t workers = 1;
  std::vector<Part> parts;

  [[nodiscard]] std::size_t cell_count() const {
    std::size_t n = 0;
    for (const Part& part : parts) n += part.grid.cells().size();
    return n;
  }
};

core::StrategyCombination combo(const char* label) {
  return core::StrategyCombination::parse(label).value();
}

sched::TaskSet make_task_set(const workload::WorkloadShape& shape,
                             std::uint64_t task_seed) {
  Rng rng(task_seed);
  return workload::generate_workload(shape, rng);
}

/// Pin the part's task sets and give its cells the arrival streams of
/// `window`: after the part's own specialize, a cell runs its task set as an
/// explicit workload under scenario seed window * 1000 + k.
void seed_cells(Part& part, std::int64_t window) {
  TaskSets sets;
  for (const sweep::ShapeSpec& shape : part.grid.shapes) {
    for (int k = 1; k <= part.grid.seeds; ++k) {
      sets[shape.name].push_back(
          make_task_set(shape.shape, static_cast<std::uint64_t>(k)));
    }
  }
  part.task_sets = std::make_shared<const TaskSets>(std::move(sets));
  const auto base = static_cast<std::uint64_t>(window) * 1000;
  auto inner = std::move(part.params.specialize);
  part.params.specialize = [inner, sets = part.task_sets, base](
                               const sweep::Cell& cell,
                               scenario::ScenarioSpec& spec) {
    if (inner) inner(cell, spec);
    spec.workload = scenario::WorkloadSpec::explicit_tasks(
        sets->at(cell.shape)[cell.seed - 1]);
    spec.seed = base + cell.seed;
  };
}

Part library_part(const char* grid, int task_sets, Duration slice) {
  scenario::NamedGrid entry = scenario::find_grid(grid).value();
  Part part;
  part.name = entry.name;
  part.grid = std::move(entry.grid);
  part.grid.seeds = task_sets;
  part.params = std::move(entry.params);
  part.slice = slice;
  return part;
}

/// Paper Sec 2: aUB against deferrable-server admission on J_T_T, with the
/// server sizes of bench/ablation_ds_vs_aub.cpp.
Part ds_vs_aub_part() {
  Part part;
  part.name = "ds-vs-aub";
  part.grid.combos = {combo("J_T_T")};
  part.grid.shapes = {{"random", workload::random_workload_shape()}};
  part.grid.variants = {"aub", "ds-10ms", "ds-20ms", "ds-30ms"};
  part.grid.seeds = kPaperTaskSets;
  part.params.specialize = [](const sweep::Cell& cell,
                              scenario::ScenarioSpec& spec) {
    std::int64_t budget_ms = 0;
    if (cell.variant == "ds-10ms") budget_ms = 10;
    if (cell.variant == "ds-20ms") budget_ms = 20;
    if (cell.variant == "ds-30ms") budget_ms = 30;
    if (budget_ms == 0) return;
    spec.config.analysis = core::AperiodicAnalysis::kDeferrableServer;
    spec.config.ds_server.budget = Duration::milliseconds(budget_ms);
    spec.config.ds_server.period = Duration::milliseconds(100);
  };
  return part;
}

/// Whole simulated seconds in which a task set produces about `arrivals`
/// arrivals (periodic releases plus Poisson aperiodic arrivals).
Duration horizon_for_arrivals(const sched::TaskSet& tasks, double arrivals) {
  double per_second = 0.0;
  for (const sched::TaskSpec& task : tasks.tasks()) {
    const Duration gap = task.kind == sched::TaskKind::kPeriodic
                             ? task.period
                             : task.mean_interarrival;
    per_second += 1.0 / gap.as_seconds();
  }
  return Duration::seconds(
      static_cast<std::int64_t>(arrivals / per_second) + 1);
}

Part deep_pending_part(std::int64_t window) {
  Part part;
  part.name = "deep-pending";
  part.grid.combos = {combo("T_N_N"), combo("J_J_J")};
  part.grid.shapes = {{"random", workload::random_workload_shape()}};
  part.grid.seeds = kDeepTaskSets;
  part.slice = Duration::seconds(1000);
  seed_cells(part, window);
  std::vector<Duration> horizons;
  for (const sched::TaskSet& tasks : part.task_sets->at("random")) {
    horizons.push_back(horizon_for_arrivals(tasks, kDeepArrivals));
  }
  auto seeded = std::move(part.params.specialize);
  part.params.specialize = [seeded, horizons](const sweep::Cell& cell,
                                              scenario::ScenarioSpec& spec) {
    seeded(cell, spec);
    spec.horizon = horizons[cell.seed - 1];
  };
  return part;
}

Result<Workload> make_workload(const std::string& name, std::int64_t window) {
  Workload w;
  w.name = name;
  if (name == "paper-suite") {
    const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
    w.workers = std::min<std::size_t>(hw, 4);
    w.parts.push_back(
        library_part("fig5", kPaperTaskSets, Duration::seconds(10)));
    w.parts.push_back(
        library_part("fig6", kPaperTaskSets, Duration::seconds(10)));
    w.parts.push_back(ds_vs_aub_part());
    w.parts.push_back(
        library_part("drain-storm", kPaperTaskSets, Duration::seconds(10)));
    for (Part& part : w.parts) seed_cells(part, window);
  } else if (name == "wide-topology") {
    w.parts.push_back(
        library_part("huge-topology", kWideTaskSets, Duration::seconds(5)));
    seed_cells(w.parts.back(), window);
  } else if (name == "deep-pending") {
    w.parts.push_back(deep_pending_part(window));
  } else {
    return Result<Workload>::error(
        "unknown workload '" + name +
        "' (expected paper-suite, wide-topology or deep-pending)");
  }
  return w;
}

// --- Untraced sweeps ---------------------------------------------------------

struct SweepRun {
  std::vector<std::vector<sweep::CellResult>> parts;  // one per Part
  double wall_s = 0.0;
};

SweepRun run_workload(const Workload& w, std::size_t threads) {
  SweepRun run;
  const auto start = Clock::now();
  for (const Part& part : w.parts) {
    run.parts.push_back(
        sweep::run_sweep(part.grid, part.params, sweep::SweepOptions{threads}));
  }
  run.wall_s = seconds_between(start, Clock::now());
  return run;
}

/// The deterministic per-cell outputs (the fields of
/// sweep::Report::deterministic_dump), one JSON object per cell.
json::Value cell_outputs(const std::vector<sweep::CellResult>& cells) {
  sweep::Report report;
  report.cells = cells;
  return json::Value::parse(report.deterministic_dump()).value().get("cells");
}

/// Failing cells, by id (part/combo/shape/variant/seed), with reasons.
class FailureLog {
 public:
  void check_cells(const Workload& w, const SweepRun& run) {
    for (std::size_t p = 0; p < run.parts.size(); ++p) {
      for (const sweep::CellResult& cell : run.parts[p]) {
        if (!cell.error.empty()) add(w, p, cell, "error: " + cell.error);
        if (cell.deadline_misses > 0) {
          add(w, p, cell,
              std::to_string(cell.deadline_misses) + " deadline misses");
        }
      }
    }
  }
  /// Flag every cell of `run` whose outputs differ from `reference`.
  void check_same(const Workload& w, const SweepRun& reference,
                  const SweepRun& run, const std::string& what) {
    for (std::size_t p = 0; p < run.parts.size(); ++p) {
      const json::Value want = cell_outputs(reference.parts[p]);
      const json::Value got = cell_outputs(run.parts[p]);
      for (std::size_t i = 0; i < run.parts[p].size(); ++i) {
        if (i >= want.size() ||
            want.at(i).dump_compact() != got.at(i).dump_compact()) {
          add(w, p, run.parts[p][i], what);
        }
      }
    }
  }
  /// "failed": every failing cell's id, "failures": the first reasons.
  void write(json::Value& doc) const {
    json::Value ids = json::Value::array();
    for (const std::string& id : cells_) ids.push_back(id);
    json::Value reasons = json::Value::array();
    for (const std::string& line : lines_) reasons.push_back(line);
    doc.set("failed", ids);
    doc.set("failures", reasons);
  }

 private:
  void add(const Workload& w, std::size_t part, const sweep::CellResult& r,
           const std::string& reason) {
    const std::string id = w.parts[part].name + "/" + r.cell.combo + "/" +
                           r.cell.shape + "/" + r.cell.variant + "/" +
                           std::to_string(r.cell.seed);
    if (std::find(cells_.begin(), cells_.end(), id) == cells_.end()) {
      cells_.push_back(id);
    }
    if (lines_.size() < 50) lines_.push_back(id + ": " + reason);
  }
  std::vector<std::string> cells_;
  std::vector<std::string> lines_;
};

// --- Phase-split cell runs ---------------------------------------------------

struct Phase {
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
};

/// A cell made ready to run: assembled, script scheduled, arrivals injected.
struct ReadyCell {
  std::unique_ptr<core::SystemRuntime> runtime;
  std::unique_ptr<reconfig::ReconfigurationManager> manager;
  std::array<Phase, 4> phases;
  std::size_t arrivals = 0;
  Time end;
};

/// The set-up steps of scenario::run_scenario, one at a time so each can be
/// timed.  The task set is generated again from its shape and seed (the spec
/// carries the same set as an explicit workload), so set-up includes
/// workload generation.  The arrival stream is drawn exactly as run_scenario
/// draws it for an explicit workload: the traced run is checked against
/// untraced sweeps.
Result<ReadyCell> prepare(const scenario::ScenarioSpec& spec,
                          const workload::WorkloadShape& shape,
                          std::uint64_t task_seed) {
  using R = Result<ReadyCell>;
  if (Status s = scenario::validate(spec); !s.is_ok()) {
    return R::error(s.message());
  }
  ReadyCell ready;
  auto mark = Clock::now();
  const auto close = [&mark](Phase& phase, const char* name) {
    const auto now = Clock::now();
    phase = Phase{name, mark, now};
    mark = now;
  };

  sched::TaskSet tasks = make_task_set(shape, task_seed);
  close(ready.phases[0], "workload.generate");

  ready.runtime =
      std::make_unique<core::SystemRuntime>(spec.config, std::move(tasks));
  const Status assembled = ready.runtime->assemble();
  close(ready.phases[1], "core.assemble");
  if (!assembled.is_ok()) return R::error(assembled.message());

  if (!spec.reconfig.empty()) {
    ready.manager =
        std::make_unique<reconfig::ReconfigurationManager>(*ready.runtime);
    if (Status s = ready.manager->schedule_script(spec.reconfig);
        !s.is_ok()) {
      return R::error(s.message());
    }
  }
  close(ready.phases[2], "reconfig.schedule");

  Rng arrival_rng = Rng(spec.seed).fork(1);
  const Time horizon = Time::epoch() + spec.horizon;
  std::vector<core::Arrival> arrivals;
  switch (spec.arrivals.kind) {
    case scenario::ArrivalModel::Kind::kPoisson:
      arrivals = workload::generate_arrivals(ready.runtime->tasks(), horizon,
                                             arrival_rng);
      break;
    case scenario::ArrivalModel::Kind::kBursty:
      arrivals = workload::generate_bursty_arrivals(
          ready.runtime->tasks(), horizon, spec.arrivals.burst, arrival_rng);
      break;
    case scenario::ArrivalModel::Kind::kTrace:
      arrivals = spec.arrivals.trace;
      break;
    case scenario::ArrivalModel::Kind::kNone:
      break;
  }
  const Status injected = ready.runtime->inject_arrivals(arrivals);
  close(ready.phases[3], "core.inject");
  if (!injected.is_ok()) return R::error(injected.message());
  ready.arrivals = arrivals.size();
  ready.end = horizon + spec.drain;
  return ready;
}

/// The result fields scenario::run_scenario reads after its run.
void read_outcome(const ReadyCell& ready, sweep::CellResult& out) {
  if (ready.manager) {
    out.reconfig_applied = ready.manager->applied_count();
    out.reconfig_rejected = ready.manager->rejected_count();
  }
  const core::MetricsCollector& metrics = ready.runtime->metrics();
  out.accept_ratio = metrics.accepted_utilization_ratio();
  out.deadline_misses = metrics.total().deadline_misses;
  OnlineStats response;
  for (const auto& [task, tm] : metrics.per_task()) {
    if (ready.runtime->tasks().find(task)->kind ==
        sched::TaskKind::kAperiodic) {
      response.merge(tm.response_ms);
    }
  }
  out.aperiodic_response_ms = response.count() > 0 ? response.mean() : 0.0;
}

/// Host seconds to make every cell of the workload ready, summed over cells;
/// tearing a cell down again is not counted.
double setup_pass(const Workload& w) {
  double total = 0.0;
  for (const Part& part : w.parts) {
    for (const sweep::Cell& cell : part.grid.cells()) {
      const workload::WorkloadShape& shape = part.shape(cell.shape);
      auto spec = sweep::cell_spec(cell, shape, part.params);
      if (!spec.is_ok()) continue;  // counted as a failed cell by the sweep
      auto ready = prepare(spec.value(), shape, cell.seed);
      if (!ready.is_ok()) continue;
      const ReadyCell& r = ready.value();
      total += seconds_between(r.phases.front().start, r.phases.back().end);
    }
  }
  return total;
}

// --- Traced run --------------------------------------------------------------

/// Public counters read at slice boundaries.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t pushes = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t messages = 0;
  std::uint64_t admission_tests = 0;
  std::size_t pending = 0;
  std::size_t queue_entries = 0;

  static Counters read(core::SystemRuntime& rt) {
    Counters c;
    c.events = rt.simulator().executed();
    const events::FederationStats& fed = rt.federation().stats();
    c.pushes = fed.events_pushed;
    c.deliveries = fed.local_deliveries + fed.remote_deliveries;
    c.messages = rt.network().stats().messages_sent;
    if (const core::AdmissionControl* ac = rt.admission_control()) {
      c.admission_tests = ac->counters().admission_tests;
    }
    c.pending = rt.simulator().pending();
    c.queue_entries = rt.simulator().queue_entries();
    return c;
  }
  /// Increments of the work counters since `before`; the pending and queue
  /// sizes stay as read now.
  [[nodiscard]] Counters since(const Counters& before) const {
    Counters d = *this;
    d.events -= before.events;
    d.pushes -= before.pushes;
    d.deliveries -= before.deliveries;
    d.messages -= before.messages;
    d.admission_tests -= before.admission_tests;
    return d;
  }
};

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = none
  std::int64_t cell = -1;    // position of the cell in the workload
  std::string name;
  double start_us = 0.0;  // host time since the pass started
  double end_us = 0.0;
  bool slice = false;  // sim.slice spans carry the fields below
  std::int64_t sim_from_us = 0;
  std::int64_t sim_to_us = 0;
  Counters counters;  // work done in the slice, pending sizes at its end
};

/// Per-layer work over every cell of one traced pass.
struct LayerTotals {
  double generate_ms = 0, assemble_ms = 0, schedule_ms = 0, inject_ms = 0;
  double run_ms = 0;
  std::uint64_t arrivals = 0, events = 0, pushes = 0, deliveries = 0;
  std::uint64_t messages = 0, preemptions = 0, ds_chunks = 0,
                ds_exhaustions = 0;
  std::size_t pending_peak = 0, queue_peak = 0;
  double busy_frac_sum = 0.0;
  std::size_t channels_max = 0;
  double subscriptions_sum = 0.0;
  std::uint64_t tests = 0, admits = 0, auto_accepts = 0, migrations = 0,
                subjobs_reset = 0;
  std::size_t book_bytes_max = 0;
  std::uint64_t completions = 0, idle_resets = 0, reconfig_applied = 0,
                reconfig_rejected = 0;
  std::uint64_t cells = 0;
};

struct TracedPass {
  SweepRun run;
  std::vector<Span> spans;
  LayerTotals totals;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  std::uint32_t open(std::string name, std::uint32_t parent,
                     std::int64_t cell) {
    Span span;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.cell = cell;
    span.name = std::move(name);
    span.start_us = since_origin(Clock::now());
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }
  Span& close(std::uint32_t id) {
    Span& span = spans_[id - 1];
    span.end_us = since_origin(Clock::now());
    return span;
  }
  /// A span whose interval was measured elsewhere.
  void add(const Phase& phase, std::uint32_t parent, std::int64_t cell) {
    const std::uint32_t id = open(phase.name, parent, cell);
    spans_[id - 1].start_us = since_origin(phase.start);
    spans_[id - 1].end_us = since_origin(phase.end);
  }
  std::vector<Span> take() { return std::move(spans_); }

 private:
  [[nodiscard]] double since_origin(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

double phase_ms(const Phase& p) {
  return seconds_between(p.start, p.end) * 1e3;
}

/// Counters that are only final once the cell has run.
void add_cell_counters(core::SystemRuntime& rt, LayerTotals& t) {
  std::vector<ProcessorId> procs = rt.app_processors();
  double busy = 0.0;
  for (const ProcessorId p : procs) {
    const sim::Processor& cpu = rt.processor(p);
    t.preemptions += cpu.stats().preemptions;
    busy += cpu.busy_fraction();
    if (const sim::DeferrableServer* ds = rt.deferrable_server(p)) {
      t.ds_chunks += ds->stats().chunks_dispatched;
      t.ds_exhaustions += ds->stats().budget_exhaustions;
    }
  }
  if (!procs.empty()) {
    t.busy_frac_sum += busy / static_cast<double>(procs.size());
  }
  t.preemptions += rt.processor(rt.task_manager()).stats().preemptions;
  t.messages += rt.network().stats().messages_sent;

  t.channels_max = std::max(t.channels_max, rt.federation().channel_count());
  procs.push_back(rt.task_manager());
  std::size_t subscriptions = 0;
  for (const ProcessorId p : procs) {
    subscriptions += rt.federation().channel(p).subscription_count();
  }
  t.subscriptions_sum += static_cast<double>(subscriptions);

  if (const core::AdmissionControl* ac = rt.admission_control()) {
    const core::AdmissionControl::Counters& c = ac->counters();
    t.tests += c.admission_tests;
    t.admits += c.admits;
    t.auto_accepts += c.auto_accepts;
    t.migrations += c.migrations;
    t.subjobs_reset += c.subjobs_reset;
    t.book_bytes_max =
        std::max(t.book_bytes_max, ac->state().footprint_bytes() +
                                       ac->state().arena().reserved_bytes());
  }
  t.completions += rt.metrics().total().completions;
  t.idle_resets += rt.metrics().idle_resets();
  ++t.cells;
}

/// Run one cell phase by phase under span `cell_span`: prepare, run_until
/// in fixed simulated-time slices, read the outcome as run_scenario does.
sweep::CellResult trace_cell(const Part& part, const sweep::Cell& cell,
                             std::uint32_t cell_span, std::int64_t index,
                             SpanRecorder& rec, LayerTotals& t) {
  sweep::CellResult out;
  out.cell = cell;
  const workload::WorkloadShape& shape = part.shape(cell.shape);
  auto spec = sweep::cell_spec(cell, shape, part.params);
  if (!spec.is_ok()) {
    out.error = spec.message();
    return out;
  }
  const auto cell_start = Clock::now();
  auto prepared = prepare(spec.value(), shape, cell.seed);
  if (!prepared.is_ok()) {
    out.error = prepared.message();
    return out;
  }
  ReadyCell ready = std::move(prepared).value();
  for (const Phase& phase : ready.phases) rec.add(phase, cell_span, index);
  t.generate_ms += phase_ms(ready.phases[0]);
  t.assemble_ms += phase_ms(ready.phases[1]);
  t.schedule_ms += phase_ms(ready.phases[2]);
  t.inject_ms += phase_ms(ready.phases[3]);
  t.arrivals += ready.arrivals;

  core::SystemRuntime& rt = *ready.runtime;
  Counters before = Counters::read(rt);
  t.pending_peak = std::max(t.pending_peak, before.pending);
  t.queue_peak = std::max(t.queue_peak, before.queue_entries);
  const std::uint32_t run_span = rec.open("sim.run", cell_span, index);
  const auto run_start = Clock::now();
  while (rt.simulator().now() < ready.end) {
    const Time from = rt.simulator().now();
    const Time to = std::min(from + part.slice, ready.end);
    const std::uint32_t slice = rec.open("sim.slice", run_span, index);
    rt.run_until(to);
    const Counters after = Counters::read(rt);
    Span& s = rec.close(slice);
    s.slice = true;
    s.sim_from_us = from.usec();
    s.sim_to_us = to.usec();
    s.counters = after.since(before);
    t.pending_peak = std::max(t.pending_peak, after.pending);
    t.queue_peak = std::max(t.queue_peak, after.queue_entries);
    before = after;
  }
  t.run_ms += seconds_between(run_start, Clock::now()) * 1e3;
  rec.close(run_span);
  t.events += before.events;
  t.pushes += before.pushes;
  t.deliveries += before.deliveries;

  read_outcome(ready, out);
  out.wall_ms = seconds_between(cell_start, Clock::now()) * 1e3;
  if (ready.manager) {
    t.reconfig_applied += ready.manager->applied_count();
    t.reconfig_rejected += ready.manager->rejected_count();
  }
  add_cell_counters(rt, t);
  return out;
}

/// Single-thread pass over every cell with spans workload -> cell -> phases.
TracedPass traced_pass(const Workload& w) {
  TracedPass pass;
  const auto origin = Clock::now();
  SpanRecorder rec(origin);
  const std::uint32_t root = rec.open("workload:" + w.name, 0, -1);
  std::int64_t index = 0;
  for (const Part& part : w.parts) {
    std::vector<sweep::CellResult>& results = pass.run.parts.emplace_back();
    for (const sweep::Cell& cell : part.grid.cells()) {
      const std::uint32_t span =
          rec.open("cell:" + part.name + "/" + cell.combo + "/" + cell.shape +
                       (cell.variant.empty() ? "" : "/" + cell.variant) +
                       "/seed" + std::to_string(cell.seed),
                   root, index);
      results.push_back(trace_cell(part, cell, span, index, rec, pass.totals));
      rec.close(span);
      ++index;
    }
  }
  rec.close(root);
  pass.run.wall_s = seconds_between(origin, Clock::now());
  pass.spans = rec.take();
  return pass;
}

bool write_spans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    json::Value v = json::Value::object();
    v.set("id", static_cast<std::int64_t>(s.id));
    v.set("parent", static_cast<std::int64_t>(s.parent));
    v.set("cell", s.cell);
    v.set("name", s.name);
    v.set("start_us", s.start_us);
    v.set("end_us", s.end_us);
    if (s.slice) {
      v.set("sim_from_us", s.sim_from_us);
      v.set("sim_to_us", s.sim_to_us);
      const Counters& c = s.counters;
      v.set("events", c.events);
      v.set("pushes", c.pushes);
      v.set("deliveries", c.deliveries);
      v.set("messages", c.messages);
      v.set("admission_tests", c.admission_tests);
      v.set("pending", static_cast<std::uint64_t>(c.pending));
      v.set("queue_entries", static_cast<std::uint64_t>(c.queue_entries));
    }
    const std::string line = v.dump_compact() + "\n";
    std::fputs(line.c_str(), f);
  }
  return std::fclose(f) == 0;
}

// --- Reports -----------------------------------------------------------------

double median(const std::vector<double>& values) {
  Samples s;
  for (const double v : values) s.add(v);
  return s.percentile(50.0);
}

/// Sample count and quartiles, for the record kept beside each result.
json::Value spread(const std::vector<double>& values) {
  Samples s;
  for (const double v : values) s.add(v);
  json::Value out = json::Value::object();
  out.set("n", static_cast<std::uint64_t>(values.size()));
  out.set("q1", s.percentile(25.0));
  out.set("median", s.percentile(50.0));
  out.set("q3", s.percentile(75.0));
  return out;
}

json::Value metric(double value, const char* unit) {
  json::Value m = json::Value::object();
  m.set("value", value);
  m.set("unit", unit);
  return m;
}

json::Value outputs_json(const Workload& w, const SweepRun& run) {
  json::Value out = json::Value::object();
  for (std::size_t p = 0; p < w.parts.size(); ++p) {
    out.set(w.parts[p].name, cell_outputs(run.parts[p]));
  }
  return out;
}

json::Value document(const Workload& w, std::int64_t seed,
                     std::int64_t window, const std::string& mode) {
  json::Value doc = json::Value::object();
  doc.set("workload", w.name);
  doc.set("seed", seed);
  doc.set("seed_window", window);
  doc.set("mode", mode);
  doc.set("workers", static_cast<std::uint64_t>(w.workers));
  doc.set("nproc",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  doc.set("compiler", __VERSION__);
  doc.set("cells", static_cast<std::uint64_t>(w.cell_count()));
  return doc;
}

/// Peak resident memory of this program, MiB.  Read from VmHWM, not
/// getrusage: Linux carries ru_maxrss across exec, so it would report the
/// launching process's peak when that was larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

void run_measure(const Workload& w, double seconds, json::Value& doc) {
  FailureLog failures;
  // The first sweep warms code, allocator and pages, and is the reference
  // every timed sweep must reproduce.
  const SweepRun reference = run_workload(w, w.workers);
  failures.check_cells(w, reference);
  // Peak memory of running the workload once, before the timed repeats and
  // set-up passes add heap fragmentation of their own.
  const double rss_mb = peak_rss_mb();

  // Set-up passes and sweeps alternate over the whole budget, a quarter of
  // the time going to set-up, so a slow spell of the host weighs on both.
  std::vector<double> setup_s;
  std::vector<double> cells_per_s;
  std::vector<double> cell_ms;
  double setup_time = 0.0;
  double sweep_time = 0.0;
  while (setup_s.size() < 3 || cells_per_s.size() < 3 ||
         setup_time + sweep_time < seconds) {
    bool setup_next = setup_time <= 0.25 * (setup_time + sweep_time);
    if (setup_s.size() >= 3 && cells_per_s.size() < 3) setup_next = false;
    if (setup_s.size() < 3 && cells_per_s.size() >= 3) setup_next = true;
    const auto start = Clock::now();
    if (setup_next) {
      setup_s.push_back(setup_pass(w));
      setup_time += seconds_between(start, Clock::now());
      continue;
    }
    const SweepRun run = run_workload(w, w.workers);
    sweep_time += seconds_between(start, Clock::now());
    failures.check_same(w, reference, run, "outputs differ between sweeps");
    cells_per_s.push_back(static_cast<double>(w.cell_count()) / run.wall_s);
    for (const auto& part : run.parts) {
      for (const sweep::CellResult& cell : part) {
        cell_ms.push_back(cell.wall_ms);
      }
    }
  }

  OnlineStats accept;
  OnlineStats response;
  for (const auto& part : reference.parts) {
    for (const sweep::CellResult& cell : part) {
      accept.add(cell.accept_ratio);
      response.add(cell.aperiodic_response_ms);
    }
  }
  json::Value metrics = json::Value::object();
  metrics.set("cells_per_s", metric(median(cells_per_s), "1/s"));
  metrics.set("cell_ms_p50", metric(median(cell_ms), "ms"));
  metrics.set("setup_s", metric(median(setup_s), "s"));
  metrics.set("peak_rss_mb", metric(rss_mb, "MiB"));
  metrics.set("accept_ratio", metric(accept.mean(), "ratio"));
  metrics.set("aperiodic_response_ms", metric(response.mean(), "ms"));
  doc.set("metrics", metrics);

  json::Value samples = json::Value::object();
  samples.set("setup_s", spread(setup_s));
  samples.set("cells_per_s", spread(cells_per_s));
  samples.set("cell_ms", spread(cell_ms));
  doc.set("samples", samples);
  failures.write(doc);
  doc.set("outputs", outputs_json(w, reference));
}

void run_trace(const Workload& w, double seconds, const std::string& spans,
               json::Value& doc) {
  FailureLog failures;
  // Untraced at the workload's worker count: how busy the sweep pool is.
  const SweepRun pooled = run_workload(w, w.workers);
  failures.check_cells(w, pooled);
  double cell_wall_s = 0.0;
  for (const auto& part : pooled.parts) {
    for (const sweep::CellResult& cell : part) {
      cell_wall_s += cell.wall_ms / 1e3;
    }
  }
  const double sweep_busy =
      cell_wall_s / (static_cast<double>(w.workers) * pooled.wall_s);

  // Pairs of (untraced single-thread sweep, traced pass) until the budget is
  // spent; the first traced pass supplies the spans and counters.
  std::vector<double> overhead_pct;
  std::vector<double> setup_ms[4];
  std::vector<double> run_ms;
  TracedPass first;
  const auto start = Clock::now();
  while (overhead_pct.empty() ||
         seconds_between(start, Clock::now()) < seconds) {
    const SweepRun plain = run_workload(w, 1);
    failures.check_same(w, pooled, plain, "outputs differ between sweeps");
    TracedPass traced = traced_pass(w);
    failures.check_same(w, plain, traced.run,
                        "traced run differs from untraced sweep");
    overhead_pct.push_back((traced.run.wall_s - plain.wall_s) / plain.wall_s *
                           100.0);
    const LayerTotals& t = traced.totals;
    setup_ms[0].push_back(t.generate_ms);
    setup_ms[1].push_back(t.assemble_ms);
    setup_ms[2].push_back(t.schedule_ms);
    setup_ms[3].push_back(t.inject_ms);
    run_ms.push_back(t.run_ms);
    if (overhead_pct.size() == 1) first = std::move(traced);
  }
  if (!spans.empty() && !write_spans(first.spans, spans)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans.c_str());
  }

  const LayerTotals& t = first.totals;
  const double cells = static_cast<double>(std::max<std::uint64_t>(t.cells, 1));
  const double sim_ms = median(run_ms);
  const auto count = [](std::uint64_t v) {
    return metric(static_cast<double>(v), "count");
  };
  json::Value m = json::Value::object();
  m.set("workload.generate_ms", metric(median(setup_ms[0]), "ms"));
  m.set("core.assemble_ms", metric(median(setup_ms[1]), "ms"));
  m.set("reconfig.schedule_ms", metric(median(setup_ms[2]), "ms"));
  m.set("core.inject_ms", metric(median(setup_ms[3]), "ms"));
  m.set("workload.arrivals", count(t.arrivals));
  m.set("sim.run_ms", metric(sim_ms, "ms"));
  m.set("sim.events", count(t.events));
  m.set("sim.ns_per_event",
        metric(sim_ms * 1e6 / static_cast<double>(std::max<std::uint64_t>(
                                  t.events, 1)),
               "ns"));
  m.set("sim.pending_peak", count(t.pending_peak));
  m.set("sim.queue_entries_peak", count(t.queue_peak));
  m.set("sim.preemptions", count(t.preemptions));
  m.set("sim.busy_frac", metric(t.busy_frac_sum / cells, "ratio"));
  m.set("sim.network_messages", count(t.messages));
  m.set("sim.ds_chunks", count(t.ds_chunks));
  m.set("sim.ds_budget_exhaustions", count(t.ds_exhaustions));
  const double pushes =
      static_cast<double>(std::max<std::uint64_t>(t.pushes, 1));
  m.set("events.pushes", count(t.pushes));
  m.set("events.deliveries_per_push",
        metric(static_cast<double>(t.deliveries) / pushes, "ratio"));
  m.set("events.channels", count(t.channels_max));
  m.set("events.subscriptions", metric(t.subscriptions_sum / cells, "count"));
  m.set("events.ns_per_push", metric(sim_ms * 1e6 / pushes, "ns"));
  m.set("admission.tests", count(t.tests));
  m.set("admission.admit_ratio",
        metric(static_cast<double>(t.admits) /
                   static_cast<double>(std::max<std::uint64_t>(t.tests, 1)),
               "ratio"));
  m.set("admission.auto_accepts", count(t.auto_accepts));
  m.set("admission.migrations", count(t.migrations));
  m.set("admission.subjobs_reset", count(t.subjobs_reset));
  m.set("admission.book_bytes",
        metric(static_cast<double>(t.book_bytes_max), "bytes"));
  m.set("core.completions", count(t.completions));
  m.set("core.idle_resets", count(t.idle_resets));
  m.set("reconfig.applied", count(t.reconfig_applied));
  m.set("reconfig.rejected", count(t.reconfig_rejected));
  m.set("sweep.busy_frac", metric(sweep_busy, "ratio"));
  m.set("tracing.overhead_pct", metric(median(overhead_pct), "%"));
  doc.set("metrics", m);

  json::Value samples = json::Value::object();
  samples.set("traced_passes", static_cast<std::uint64_t>(overhead_pct.size()));
  samples.set("spans", static_cast<std::uint64_t>(first.spans.size()));
  doc.set("samples", samples);
  failures.write(doc);
  doc.set("outputs", outputs_json(w, pooled));
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // Keep memory a finished cell frees in the heap for the next cell.  With
  // glibc's default, sliding thresholds, whether a cell's large vectors come
  // back as fresh pages to fault in flips with their exact sizes, which moved
  // set-up time by 40% between seeds of one workload.  Fixed thresholds make
  // every timed pass run on warm memory.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  const Flags flags = Flags::parse(argc, argv);
  const std::string name = flags.get_string("workload", "paper-suite");
  const std::int64_t seed = flags.get_int("seed", 1);
  const double seconds = flags.get_double("seconds", 10.0);
  const std::string mode = flags.get_string("mode", "measure");
  const std::string spans = flags.get_string("spans", "");
  flags.reject_unknown({"workload", "seed", "seconds", "mode", "spans"});
  if (mode != "measure" && mode != "trace" && mode != "outputs") {
    flags.record_error("unknown --mode '" + mode +
                       "' (expected measure, trace or outputs)");
  }
  for (const std::string& error : flags.errors()) {
    std::fprintf(stderr, "%s\n", error.c_str());
  }
  if (!flags.errors().empty()) return 2;

  const std::int64_t window =
      (seed % kSeedWindows + kSeedWindows - 1) % kSeedWindows + 1;
  auto workload = make_workload(name, window);
  if (!workload.is_ok()) {
    std::fprintf(stderr, "%s\n", workload.message().c_str());
    return 2;
  }
  const Workload& w = workload.value();
  json::Value doc = document(w, seed, window, mode);
  if (mode == "measure") {
    run_measure(w, seconds, doc);
  } else if (mode == "trace") {
    run_trace(w, seconds, spans, doc);
  } else {
    FailureLog failures;
    const SweepRun run = run_workload(w, w.workers);
    failures.check_cells(w, run);
    failures.write(doc);
    doc.set("outputs", outputs_json(w, run));
  }
  std::printf("%s\n", doc.dump_compact().c_str());
  return 0;
}
