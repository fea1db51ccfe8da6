// Structured, machine-readable bench reports (BENCH_<name>.json).
//
// Schema (version 2):
//   {
//     "schema_version": 2,
//     "name": "fig5_accept_ratio",
//     "git_sha": "<HEAD sha or 'unknown'>",
//     "shard": {"index": 2, "count": 4},   // only when sharded
//     "merged_shards": 4,                  // only on merge_reports output
//     "params": { ... free-form run parameters ... },
//     "cells": [
//       {"combo": "T_N_N", "shape": "random", "variant": "", "seed": 1,
//        "accept_ratio": 0.7, "deadline_misses": 0,
//        "aperiodic_response_ms": 12.5, "wall_ms": 3.2}, ...
//       // + "undecided": N when arrivals were left undecided at the end
//     ],
//     "aggregates": [
//       {"combo": "T_N_N", "shape": "random", "variant": "", "cells": 10,
//        "accept_ratio": {"mean": .., "stddev": .., "min": .., "max": ..},
//        "deadline_misses": {"sum": .., "mean": ..},
//        "wall_ms": {"sum": .., "mean": ..}}, ...
//     ]
//   }
//
// Version 2 added the shard provenance (`shard`, `merged_shards`); version-1
// documents still parse (they carry the default 1/1 shard).  Both provenance
// keys are omitted for plain unsharded runs, so their byte layout is
// unchanged from version 1 apart from the schema_version field itself.
//
// Two renderings exist: to_json() is the full report (what run_benches.sh
// collects and check_bench_regression.py compares), and deterministic_dump()
// drops the non-reproducible / provenance fields (git_sha, wall times, shard
// coordinates) so tests can assert byte-identity between runs at different
// thread counts — and between a merged set of shard runs and an unsharded
// run of the same grid.
#pragma once

#include <string>
#include <vector>

#include "sweep/sweep.h"
#include "util/json.h"
#include "util/result.h"
#include "util/stats.h"

namespace rtcm::sweep {

inline constexpr int kReportSchemaVersion = 2;
/// Oldest schema from_json still accepts (pre-shard reports).
inline constexpr int kMinReportSchemaVersion = 1;

/// Per-(combo, shape, variant) statistics over seeds, in first-cell order.
struct Aggregate {
  std::string combo;
  std::string shape;
  std::string variant;
  OnlineStats accept_ratio;
  OnlineStats deadline_misses;
  OnlineStats aperiodic_response_ms;
  OnlineStats wall_ms;
};

struct Report {
  std::string name;
  int schema_version = kReportSchemaVersion;
  std::string git_sha;
  /// Which K/N partition of the grid this report covers; {1, 1} for a full
  /// (unsharded or merged) run.
  Shard shard;
  /// Number of shard reports merged into this one by merge_reports();
  /// 0 everywhere else.
  int merged_shards = 0;
  /// Free-form run parameters recorded for reproducibility (seeds, horizon,
  /// thread count, flags).
  json::Value params = json::Value::object();
  std::vector<CellResult> cells;

  /// Group cells by (combo, shape, variant), preserving cell order.
  [[nodiscard]] std::vector<Aggregate> aggregates() const;

  /// Convenience: mean accept ratio of the aggregate matching `combo` (and
  /// optionally `variant`); 0 when absent.
  [[nodiscard]] double mean_accept_ratio(const std::string& combo,
                                         const std::string& variant = "") const;

  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] static Result<Report> from_json(const json::Value& v);

  /// Canonical serialization with git_sha and wall times omitted: equal
  /// bytes if and only if the sweep results are equal.
  [[nodiscard]] std::string deterministic_dump() const;

  /// Write to_json().dump() to `path`.
  [[nodiscard]] Status write_file(const std::string& path) const;
};

/// Recombine one report per shard of the same grid run into the report an
/// unsharded run would have produced: cells re-interleaved into canonical
/// order (the inverse of the round-robin partition), aggregates recomputed
/// from the cells on serialization, provenance recording the merge
/// (merged_shards = N).  The inputs must agree on name, schema and params,
/// and must form a complete disjoint 1..N partition — anything else is an
/// error, never a silently incomplete report.
[[nodiscard]] Result<Report> merge_reports(const std::vector<Report>& shards);

/// HEAD commit for report provenance: $RTCM_GIT_SHA when set (CI sets it),
/// otherwise `git rev-parse HEAD`, otherwise "unknown".
[[nodiscard]] std::string git_head_sha();

}  // namespace rtcm::sweep
