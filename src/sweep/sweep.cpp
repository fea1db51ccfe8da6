#include "sweep/sweep.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace rtcm::sweep {

namespace {

/// Operator feedback for long sweeps (enable with RTCM_SWEEP_PROGRESS=1): a
/// completed-cell counter shared by every worker.  Together with the result
/// slots (disjoint-index writes, synchronized by the pool's join) this is
/// the sweep engine's entire cross-thread mutable state, and it is
/// annotated so clang's -Wthread-safety proves the locking discipline.
/// Progress lines go to stderr only and are not deterministic — completion
/// order is the steal order — report contents are unaffected.
class SweepProgress {
 public:
  explicit SweepProgress(std::size_t total)
      : total_(total),
        // NOLINTNEXTLINE(concurrency-mt-unsafe): read before workers spawn
        enabled_(std::getenv("RTCM_SWEEP_PROGRESS") != nullptr),
        stride_(total <= 100 ? 1 : total / 100) {}

  void note_cell_done() {
    if (!enabled_) return;
    std::size_t done = 0;
    {
      MutexLock lock(mutex_);
      done = ++completed_;
    }
    if (done % stride_ == 0 || done == total_) {
      std::fprintf(stderr, "[rtcm sweep] %zu/%zu cells\n", done, total_);
    }
  }

 private:
  const std::size_t total_;
  const bool enabled_;
  const std::size_t stride_;
  Mutex mutex_;
  std::size_t completed_ RTCM_GUARDED_BY(mutex_) = 0;
};

}  // namespace

std::string Shard::label() const {
  return std::to_string(index) + "/" + std::to_string(count);
}

Result<Shard> Shard::parse(const std::string& text) {
  const auto fail = [&text] {
    return Result<Shard>::error("malformed shard '" + text +
                                "' (expected K/N with 1 <= K <= N)");
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 ||
      slash + 1 == text.size()) {
    return fail();
  }
  Shard shard;
  char* end = nullptr;
  const std::string index_text = text.substr(0, slash);
  const std::string count_text = text.substr(slash + 1);
  shard.index = static_cast<int>(std::strtol(index_text.c_str(), &end, 10));
  if (end == nullptr || *end != '\0') return fail();
  shard.count = static_cast<int>(std::strtol(count_text.c_str(), &end, 10));
  if (end == nullptr || *end != '\0') return fail();
  if (!shard.is_valid()) return fail();
  return shard;
}

std::vector<std::size_t> shard_indices(std::size_t cell_count,
                                       const Shard& shard) {
  std::vector<std::size_t> out;
  if (!shard.is_valid()) return out;
  out.reserve(cell_count / static_cast<std::size_t>(shard.count) + 1);
  for (std::size_t i = static_cast<std::size_t>(shard.index - 1);
       i < cell_count; i += static_cast<std::size_t>(shard.count)) {
    out.push_back(i);
  }
  return out;
}

std::vector<Cell> Grid::cells() const {
  std::vector<Cell> out;
  out.reserve(combos.size() * shapes.size() * variants.size() *
              static_cast<std::size_t>(seeds > 0 ? seeds : 0));
  for (const auto& combo : combos) {
    for (const auto& shape : shapes) {
      for (const auto& variant : variants) {
        for (int seed = 1; seed <= seeds; ++seed) {
          out.push_back(Cell{combo.label(), shape.name, variant,
                             static_cast<std::uint64_t>(seed)});
        }
      }
    }
  }
  return out;
}

Result<scenario::ScenarioSpec> cell_spec(const Cell& cell,
                                         const workload::WorkloadShape& shape,
                                         const SweepParams& params) {
  const auto combo = core::StrategyCombination::parse(cell.combo);
  if (!combo.is_ok()) {
    return Result<scenario::ScenarioSpec>::error(combo.message());
  }
  scenario::ScenarioSpec spec = params.base;
  spec.name = cell.combo + "/" + cell.shape +
              (cell.variant.empty() ? "" : "/" + cell.variant) + "/seed" +
              std::to_string(cell.seed);
  spec.seed = cell.seed;
  spec.workload = scenario::WorkloadSpec::generated(shape);
  spec.config.strategies = combo.value();
  if (params.specialize) params.specialize(cell, spec);
  return spec;
}

CellResult run_cell(const Cell& cell, const workload::WorkloadShape& shape,
                    const SweepParams& params) {
  CellResult result;
  result.cell = cell;
  auto spec = cell_spec(cell, shape, params);
  if (!spec.is_ok()) {
    result.error = spec.message();
    return result;
  }
  auto run = scenario::run_scenario(spec.value());
  if (!run.is_ok()) {
    result.error = run.message();
    return result;
  }
  const scenario::ScenarioResult& outcome = run.value();
  result.accept_ratio = outcome.accept_ratio;
  result.deadline_misses = outcome.deadline_misses;
  result.aperiodic_response_ms = outcome.aperiodic_response_ms;
  result.undecided = outcome.undecided;
  result.reconfig_applied = outcome.reconfig_applied;
  result.reconfig_rejected = outcome.reconfig_rejected;
  result.wall_ms = outcome.wall_ms;
  return result;
}

std::vector<CellResult> run_sweep(const Grid& grid, const SweepParams& params,
                                  const SweepOptions& options) {
  const std::vector<Cell> all_cells = grid.cells();
  // Restrict to the cells this shard owns (everything for the default
  // {1,1} shard), keeping canonical order within the shard.
  const std::vector<std::size_t> owned =
      shard_indices(all_cells.size(), params.shard);
  std::vector<Cell> cells;
  cells.reserve(owned.size());
  for (const std::size_t i : owned) cells.push_back(all_cells[i]);
  std::vector<CellResult> results(cells.size());

  // Shape lookup is read-only during the sweep; build it once up front.
  std::vector<const workload::WorkloadShape*> cell_shapes(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const workload::WorkloadShape* found = nullptr;
    for (const auto& spec : grid.shapes) {
      if (spec.name == cells[i].shape) {
        found = &spec.shape;
        break;
      }
    }
    cell_shapes[i] = found;
  }

  // One context struct keeps the per-job capture at two words (the
  // InlineFunction inline capacity covers it with room to spare).
  struct JobContext {
    const std::vector<Cell>& cells;
    const std::vector<const workload::WorkloadShape*>& shapes;
    std::vector<CellResult>& results;
    const SweepParams& params;
    SweepProgress& progress;
  };
  SweepProgress progress(cells.size());
  JobContext ctx{cells, cell_shapes, results, params, progress};

  std::vector<ThreadPool::Job> jobs;
  jobs.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    jobs.push_back([&ctx, i] {
      if (ctx.shapes[i] == nullptr) {
        ctx.results[i].cell = ctx.cells[i];
        ctx.results[i].error = "unknown workload shape: " + ctx.cells[i].shape;
      } else {
        ctx.results[i] = run_cell(ctx.cells[i], *ctx.shapes[i], ctx.params);
      }
      ctx.progress.note_cell_done();
    });
  }

  ThreadPool pool(options.threads);
  pool.run(std::move(jobs));
  return results;
}

}  // namespace rtcm::sweep
