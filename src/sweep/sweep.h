// Parallel scenario-sweep engine.
//
// The paper's evaluation is a grid of (strategy combination x workload
// shape x seed) experiments (Figures 5/6 run 15 combinations x 10 seeds
// each).  This engine models that grid explicitly and shards it across a
// work-stealing thread pool: every cell owns its own Rng, workload,
// Simulator and SystemRuntime, so a cell's result is a pure function of its
// coordinates — the PR-1 determinism contract (same seed => byte-identical
// trace) extends to "same grid => byte-identical report, at any thread
// count".  Results land in a pre-sized vector indexed by cell order, so
// thread interleaving never reorders output.
//
// Since the Scenario API landed, a cell is just coordinates over a base
// scenario::ScenarioSpec: cell_spec() folds (combo, shape, variant, seed)
// plus the `specialize` hook into one declarative spec, and run_cell() is a
// thin wrapper over scenario::run_scenario.  Cells carry an optional
// free-form `variant` coordinate for ablations that sweep something other
// than the strategy combination (LB placement policy, deferrable-server
// sizing, reconfiguration scripts).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/strategies.h"
#include "scenario/scenario.h"
#include "util/result.h"
#include "util/time.h"
#include "workload/generator.h"

namespace rtcm::sweep {

/// A K-of-N partition of the canonical cell order: shard K (1-based) owns
/// every cell whose canonical index i satisfies i % count == index - 1.
/// Round-robin assignment keeps each shard a cross-section of the grid
/// (every combo/shape appears in every shard), so shard wall times stay
/// balanced even when one combo simulates slower than another.  Shards are
/// deterministic, pairwise disjoint, and their union is the full grid —
/// which is what lets a merged set of shard reports be byte-identical to an
/// unsharded run (sweep::merge_reports in report.h).
struct Shard {
  int index = 1;  ///< 1-based shard number in [1, count].
  int count = 1;  ///< Total shards; 1 = the whole grid.

  [[nodiscard]] bool is_valid() const {
    return count >= 1 && index >= 1 && index <= count;
  }
  /// Whether this shard owns the cell at canonical index `cell_index`.
  [[nodiscard]] bool covers(std::size_t cell_index) const {
    return static_cast<int>(cell_index % static_cast<std::size_t>(count)) ==
           index - 1;
  }
  /// "K/N" (the --shard flag spelling).
  [[nodiscard]] std::string label() const;
  /// Parse "K/N" with 1 <= K <= N.
  [[nodiscard]] static Result<Shard> parse(const std::string& text);
};

/// The sub-list of `cells` owned by `shard`, in canonical order.
[[nodiscard]] std::vector<std::size_t> shard_indices(std::size_t cell_count,
                                                     const Shard& shard);

/// Coordinates of one experiment in the grid.
struct Cell {
  std::string combo;    ///< Strategy label, e.g. "J_T_N".
  std::string shape;    ///< Workload shape name, e.g. "random".
  std::string variant;  ///< Ablation dimension; empty for plain sweeps.
  std::uint64_t seed = 1;
};

/// Measured outcome of one cell.
struct CellResult {
  Cell cell;
  double accept_ratio = 0.0;
  std::uint64_t deadline_misses = 0;
  /// Mean end-to-end response over the aperiodic tasks' per-task means.
  double aperiodic_response_ms = 0.0;
  /// Arrivals neither released nor rejected at the end of the run
  /// (scenario::ScenarioResult::undecided); reported only when nonzero.
  std::uint64_t undecided = 0;
  /// Host wall time of the cell simulation (non-deterministic; excluded
  /// from the deterministic report form).
  double wall_ms = 0.0;
  /// Mode changes applied / rejected by the cell's reconfiguration script
  /// (zero for cells without one).
  std::uint64_t reconfig_applied = 0;
  std::uint64_t reconfig_rejected = 0;
  /// Non-empty when the cell failed to assemble; metrics are zero then.
  std::string error;
};

/// A named workload shape (the grid's second axis).
struct ShapeSpec {
  std::string name;
  workload::WorkloadShape shape;
};

/// The experiment grid: combos x shapes x variants x seeds 1..N.
struct Grid {
  std::vector<core::StrategyCombination> combos;
  std::vector<ShapeSpec> shapes;
  /// Ablation variants; leave as the default single empty entry for plain
  /// (combo x shape x seed) sweeps.
  std::vector<std::string> variants = {""};
  int seeds = 10;

  /// All cells in canonical order: combo-major, then shape, variant, seed.
  /// This order is the report's cell order regardless of thread count.
  [[nodiscard]] std::vector<Cell> cells() const;
};

/// Parameters shared by every cell: a base ScenarioSpec template plus a
/// per-cell transform.  A grid is exactly "a set of coordinates mapped onto
/// ScenarioSpecs": the cell's combo/shape/seed overwrite the base spec's
/// strategies/workload/seed, then `specialize` translates the remaining
/// coordinates (the variant axis, reconfiguration scripts) into spec edits.
struct SweepParams {
  /// Template for every cell: horizon/drain, SystemConfig knobs and the
  /// arrival model.  Its name/seed/workload/strategies are overwritten from
  /// the cell coordinates by cell_spec().
  scenario::ScenarioSpec base;
  /// Maps the cell coordinates onto the final spec; runs after the
  /// coordinates are applied.  Must be thread-safe (it runs concurrently on
  /// different cells).
  std::function<void(const Cell&, scenario::ScenarioSpec&)> specialize;
  /// Which K/N partition of the canonical cell order this run executes;
  /// {1, 1} (the default) runs the whole grid.
  Shard shard;
};

struct SweepOptions {
  /// 0 = hardware concurrency; 1 = inline on the calling thread.
  std::size_t threads = 1;
};

/// The fully specialized spec a cell runs: base + coordinates + specialize.
/// Errors when the cell's combo label does not parse.  Exposed so tests can
/// serialize per-cell specs (the JSON-round-trip-then-rerun contract).
[[nodiscard]] Result<scenario::ScenarioSpec> cell_spec(
    const Cell& cell, const workload::WorkloadShape& shape,
    const SweepParams& params);

/// Run one cell in isolation: fresh Rng, workload, runtime, simulator.
[[nodiscard]] CellResult run_cell(const Cell& cell,
                                  const workload::WorkloadShape& shape,
                                  const SweepParams& params);

/// Run the cells of the grid owned by params.shard ({1,1} = all of them),
/// sharded across a work-stealing pool.  Results are in Grid::cells()
/// order restricted to the shard, so concatenating the N shard runs
/// round-robin reconstructs the full canonical order exactly.
[[nodiscard]] std::vector<CellResult> run_sweep(
    const Grid& grid, const SweepParams& params,
    const SweepOptions& options = {});

}  // namespace rtcm::sweep
