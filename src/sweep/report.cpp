#include "sweep/report.h"

#include <cstdio>
#include <cstdlib>

#include "util/strings.h"

namespace rtcm::sweep {

namespace {

json::Value stats_json(const OnlineStats& s, bool with_spread) {
  json::Value out = json::Value::object();
  out.set("mean", s.mean());
  if (with_spread) {
    out.set("stddev", s.stddev());
    out.set("min", s.min());
    out.set("max", s.max());
  }
  out.set("sum", s.sum());
  return out;
}

json::Value cell_json(const CellResult& r, bool include_timing) {
  json::Value out = json::Value::object();
  out.set("combo", r.cell.combo);
  out.set("shape", r.cell.shape);
  out.set("variant", r.cell.variant);
  out.set("seed", r.cell.seed);
  out.set("accept_ratio", r.accept_ratio);
  out.set("deadline_misses", r.deadline_misses);
  out.set("aperiodic_response_ms", r.aperiodic_response_ms);
  // Undecided jobs and reconfiguration counters only appear when nonzero,
  // so reports from well-formed plain sweeps keep their historical byte
  // layout.
  if (r.undecided > 0) out.set("undecided", r.undecided);
  if (r.reconfig_applied > 0 || r.reconfig_rejected > 0) {
    out.set("reconfig_applied", r.reconfig_applied);
    out.set("reconfig_rejected", r.reconfig_rejected);
  }
  if (include_timing) out.set("wall_ms", r.wall_ms);
  if (!r.error.empty()) out.set("error", r.error);
  return out;
}

json::Value report_json(const Report& report, bool include_timing,
                        bool include_provenance) {
  json::Value out = json::Value::object();
  out.set("schema_version", report.schema_version);
  out.set("name", report.name);
  if (include_provenance) {
    out.set("git_sha", report.git_sha);
    // Shard coordinates are provenance: a full run (unsharded or merged)
    // omits them, so shard/merge never perturbs the full-report layout.
    if (report.shard.count > 1) {
      json::Value shard = json::Value::object();
      shard.set("index", report.shard.index);
      shard.set("count", report.shard.count);
      out.set("shard", shard);
    }
    if (report.merged_shards > 0) {
      out.set("merged_shards", report.merged_shards);
    }
  }
  out.set("params", report.params);
  json::Value cells = json::Value::array();
  for (const auto& cell : report.cells) {
    cells.push_back(cell_json(cell, include_timing));
  }
  out.set("cells", cells);
  json::Value aggregates = json::Value::array();
  for (const auto& agg : report.aggregates()) {
    json::Value a = json::Value::object();
    a.set("combo", agg.combo);
    a.set("shape", agg.shape);
    a.set("variant", agg.variant);
    a.set("cells", static_cast<std::int64_t>(agg.accept_ratio.count()));
    a.set("accept_ratio", stats_json(agg.accept_ratio, true));
    a.set("deadline_misses", stats_json(agg.deadline_misses, false));
    a.set("aperiodic_response_ms",
          stats_json(agg.aperiodic_response_ms, false));
    if (include_timing) a.set("wall_ms", stats_json(agg.wall_ms, false));
    aggregates.push_back(std::move(a));
  }
  out.set("aggregates", aggregates);
  return out;
}

}  // namespace

std::vector<Aggregate> Report::aggregates() const {
  std::vector<Aggregate> out;
  for (const auto& r : cells) {
    Aggregate* agg = nullptr;
    for (auto& existing : out) {
      if (existing.combo == r.cell.combo && existing.shape == r.cell.shape &&
          existing.variant == r.cell.variant) {
        agg = &existing;
        break;
      }
    }
    if (agg == nullptr) {
      out.push_back(Aggregate{r.cell.combo, r.cell.shape, r.cell.variant,
                              {}, {}, {}, {}});
      agg = &out.back();
    }
    agg->accept_ratio.add(r.accept_ratio);
    agg->deadline_misses.add(static_cast<double>(r.deadline_misses));
    agg->aperiodic_response_ms.add(r.aperiodic_response_ms);
    agg->wall_ms.add(r.wall_ms);
  }
  return out;
}

double Report::mean_accept_ratio(const std::string& combo,
                                 const std::string& variant) const {
  for (const auto& agg : aggregates()) {
    if (agg.combo == combo && agg.variant == variant) {
      return agg.accept_ratio.mean();
    }
  }
  return 0.0;
}

json::Value Report::to_json() const {
  return report_json(*this, /*include_timing=*/true,
                     /*include_provenance=*/true);
}

Result<Report> Report::from_json(const json::Value& v) {
  if (!v.is_object()) return Result<Report>::error("report is not an object");
  Report report;
  report.schema_version =
      static_cast<int>(v.get("schema_version").as_int(-1));
  if (report.schema_version < kMinReportSchemaVersion ||
      report.schema_version > kReportSchemaVersion) {
    return Result<Report>::error(
        strfmt("unsupported schema_version %d (expected %d..%d)",
               report.schema_version, kMinReportSchemaVersion,
               kReportSchemaVersion));
  }
  report.name = v.get("name").as_string();
  report.git_sha = v.get("git_sha").as_string();
  if (const json::Value& shard = v.get("shard"); shard.is_object()) {
    report.shard.index = static_cast<int>(shard.get("index").as_int(1));
    report.shard.count = static_cast<int>(shard.get("count").as_int(1));
    if (!report.shard.is_valid()) {
      return Result<Report>::error(
          strfmt("invalid shard %d/%d in report", report.shard.index,
                 report.shard.count));
    }
  }
  report.merged_shards =
      static_cast<int>(v.get("merged_shards").as_int(0));
  report.params = v.get("params");
  const json::Value& cells = v.get("cells");
  if (!cells.is_array()) {
    return Result<Report>::error("report has no cells array");
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const json::Value& c = cells.at(i);
    CellResult r;
    r.cell.combo = c.get("combo").as_string();
    r.cell.shape = c.get("shape").as_string();
    r.cell.variant = c.get("variant").as_string();
    r.cell.seed = static_cast<std::uint64_t>(c.get("seed").as_int());
    r.accept_ratio = c.get("accept_ratio").as_double();
    r.deadline_misses =
        static_cast<std::uint64_t>(c.get("deadline_misses").as_int());
    r.aperiodic_response_ms = c.get("aperiodic_response_ms").as_double();
    r.undecided = static_cast<std::uint64_t>(c.get("undecided").as_int(0));
    r.reconfig_applied =
        static_cast<std::uint64_t>(c.get("reconfig_applied").as_int(0));
    r.reconfig_rejected =
        static_cast<std::uint64_t>(c.get("reconfig_rejected").as_int(0));
    r.wall_ms = c.get("wall_ms").as_double();
    r.error = c.get("error").as_string();
    report.cells.push_back(std::move(r));
  }
  return report;
}

std::string Report::deterministic_dump() const {
  return report_json(*this, /*include_timing=*/false,
                     /*include_provenance=*/false)
      .dump();
}

Status Report::write_file(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::error("cannot open " + path + " for writing");
  }
  const std::string text = to_json().dump();
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int close_rc = std::fclose(f);
  if (written != text.size() || close_rc != 0) {
    return Status::error("short write to " + path);
  }
  return Status::ok();
}

Result<Report> merge_reports(const std::vector<Report>& shards) {
  using R = Result<Report>;
  if (shards.empty()) return R::error("no shard reports to merge");
  const int count = shards.front().shard.count;
  if (static_cast<std::size_t>(count) != shards.size()) {
    return R::error(strfmt("have %zu shard report(s) but each covers a "
                           "1-of-%d partition",
                           shards.size(), count));
  }
  const std::string& name = shards.front().name;
  const std::string params_dump = shards.front().params.dump();
  std::vector<const Report*> by_index(static_cast<std::size_t>(count),
                                      nullptr);
  for (const Report& shard : shards) {
    if (shard.name != name) {
      return R::error("shard reports disagree on name: '" + name +
                      "' vs '" + shard.name + "'");
    }
    if (shard.merged_shards > 0) {
      return R::error("report '" + name + "' is already a merged report");
    }
    if (shard.shard.count != count || !shard.shard.is_valid()) {
      return R::error(strfmt("report '%s' covers shard %d/%d, expected a "
                             "1..%d partition",
                             name.c_str(), shard.shard.index,
                             shard.shard.count, count));
    }
    if (shard.params.dump() != params_dump) {
      return R::error("shard reports for '" + name +
                      "' disagree on params; shards of one grid run must "
                      "use identical run parameters");
    }
    const Report*& slot =
        by_index[static_cast<std::size_t>(shard.shard.index - 1)];
    if (slot != nullptr) {
      return R::error(strfmt("duplicate shard %d/%d for report '%s'",
                             shard.shard.index, count, name.c_str()));
    }
    slot = &shard;
  }

  Report out;
  out.name = name;
  out.params = shards.front().params;
  out.merged_shards = count;
  out.git_sha = shards.front().git_sha;
  for (const Report& shard : shards) {
    if (shard.git_sha != out.git_sha) out.git_sha = "mixed";
  }

  // Invert the round-robin partition: canonical cell i lives at position
  // i / N within shard (i % N) + 1, so a strict interleave of the shard
  // cell lists reconstructs Grid::cells() order.  A cursor running dry (or
  // left-over cells) means the inputs were not shards of one grid.
  std::size_t total = 0;
  for (const Report* shard : by_index) total += shard->cells.size();
  std::vector<std::size_t> cursor(static_cast<std::size_t>(count), 0);
  out.cells.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    const std::size_t s = i % static_cast<std::size_t>(count);
    if (cursor[s] >= by_index[s]->cells.size()) {
      return R::error(strfmt("shard cell counts for '%s' are inconsistent "
                             "with a round-robin %d-way partition",
                             name.c_str(), count));
    }
    out.cells.push_back(by_index[s]->cells[cursor[s]++]);
  }
  return out;
}

std::string git_head_sha() {
  // Env reads happen before any worker thread exists.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("RTCM_GIT_SHA");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  std::FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r");
  if (pipe != nullptr) {
    char buf[128] = {0};
    const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, pipe);
    ::pclose(pipe);
    const std::string sha = trim(std::string_view(buf, n));
    // A well-formed sha is 40 hex characters; anything else means we were
    // run outside a work tree.
    if (sha.size() == 40) return sha;
  }
  return "unknown";
}

}  // namespace rtcm::sweep
