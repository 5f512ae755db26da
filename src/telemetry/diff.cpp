#include "telemetry/diff.hpp"

#include <algorithm>

#include "telemetry/report.hpp"
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>

namespace pair_ecc::telemetry {

double MetricDelta::RelChange() const noexcept {
  if (baseline == candidate) return 0.0;
  if (baseline == 0.0)
    return candidate > 0 ? std::numeric_limits<double>::infinity()
                         : -std::numeric_limits<double>::infinity();
  return (candidate - baseline) / std::abs(baseline);
}

namespace {

/// True iff the whole string parses as a floating-point number (trailing
/// '%' tolerated and stripped — tables print percentages).
bool ParseNumericCell(const std::string& cell, double* out) {
  if (cell.empty()) return false;
  std::string body = cell;
  if (body.back() == '%') body.pop_back();
  if (body.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(body.c_str(), &end);
  if (end != body.c_str() + body.size()) return false;
  *out = v;
  return true;
}

void FlattenSection(const JsonValue* section, const std::string& prefix,
                    std::vector<std::pair<std::string, double>>* out) {
  if (section == nullptr || section->kind() != JsonValue::Kind::kObject)
    return;
  for (const auto& [name, value] : section->AsObject())
    if (value.IsNumber()) out->emplace_back(prefix + name, value.AsReal());
}

void FlattenHistograms(const JsonValue* section,
                       std::vector<std::pair<std::string, double>>* out) {
  if (section == nullptr || section->kind() != JsonValue::Kind::kObject)
    return;
  for (const auto& [name, entry] : section->AsObject()) {
    if (entry.kind() != JsonValue::Kind::kObject) continue;
    const JsonValue* bounds = entry.Find("bounds");
    const JsonValue* counts = entry.Find("counts");
    if (bounds == nullptr || counts == nullptr) continue;
    const auto& bounds_a = bounds->AsArray();
    const auto& counts_a = counts->AsArray();
    const std::string prefix = "histograms." + name + ".";
    for (std::size_t i = 0; i < counts_a.size(); ++i) {
      const std::string bucket =
          i < bounds_a.size()
              ? "le_" + std::to_string(bounds_a[i].AsInt())
              : "overflow";
      out->emplace_back(prefix + bucket, counts_a[i].AsReal());
    }
    if (const JsonValue* sum = entry.Find("sum"); sum && sum->IsNumber())
      out->emplace_back(prefix + "sum", sum->AsReal());
  }
}

void FlattenTables(const JsonValue* section,
                   std::vector<std::pair<std::string, double>>* out) {
  if (section == nullptr || section->kind() != JsonValue::Kind::kObject)
    return;
  for (const auto& [tname, entry] : section->AsObject()) {
    if (entry.kind() != JsonValue::Kind::kObject) continue;
    const JsonValue* columns = entry.Find("columns");
    const JsonValue* rows = entry.Find("rows");
    if (columns == nullptr || rows == nullptr) continue;
    const auto& cols = columns->AsArray();
    std::map<std::string, unsigned> seen;
    for (const auto& row : rows->AsArray()) {
      const auto& cells = row.AsArray();
      // Row key: the "/"-joined non-numeric label cells.
      std::string key;
      double ignored = 0.0;
      for (const auto& cell : cells) {
        const std::string& text = cell.AsString();
        if (ParseNumericCell(text, &ignored)) continue;
        if (!key.empty()) key.push_back('/');
        key += text;
      }
      if (key.empty()) key = "row";
      const unsigned n = seen[key]++;
      if (n > 0) key.append("#").append(std::to_string(n));
      for (std::size_t c = 0; c < cells.size() && c < cols.size(); ++c) {
        double value = 0.0;
        if (!ParseNumericCell(cells[c].AsString(), &value)) continue;
        out->emplace_back(
            "tables." + tname + "." + key + "." + cols[c].AsString(), value);
      }
    }
  }
}

bool HasPrefix(const std::string& path, const std::string& prefix) {
  return path.compare(0, prefix.size(), prefix) == 0;
}

}  // namespace

std::vector<std::pair<std::string, double>> FlattenMetrics(
    const JsonValue& report) {
  std::vector<std::pair<std::string, double>> out;
  if (report.kind() != JsonValue::Kind::kObject) return out;
  FlattenSection(report.Find("meta"), "meta.", &out);
  FlattenSection(report.Find("counters"), "counters.", &out);
  FlattenSection(report.Find("metrics"), "metrics.", &out);
  FlattenHistograms(report.Find("histograms"), &out);
  FlattenTables(report.Find("tables"), &out);
  FlattenSection(report.Find("timing"), "timing.", &out);
  return out;
}

DiffResult CompareReports(const JsonValue& baseline, const JsonValue& candidate,
                          const DiffOptions& options) {
  auto ignored = [&](const std::string& path) {
    if (!options.include_timing && HasPrefix(path, "timing.")) return true;
    for (const auto& prefix : options.ignore_prefixes)
      if (HasPrefix(path, prefix)) return true;
    return false;
  };

  const auto base_flat = FlattenMetrics(baseline);
  const auto cand_flat = FlattenMetrics(candidate);
  std::map<std::string, double> cand_map(cand_flat.begin(), cand_flat.end());

  DiffResult result;
  std::map<std::string, bool> base_paths;
  for (const auto& [path, base_value] : base_flat) {
    if (ignored(path)) continue;
    base_paths[path] = true;
    const auto it = cand_map.find(path);
    if (it == cand_map.end()) {
      result.missing.push_back(path);
      if (options.fail_on_missing) ++result.regressions;
      continue;
    }
    MetricDelta delta;
    delta.path = path;
    delta.baseline = base_value;
    delta.candidate = it->second;
    const double abs_change = std::abs(delta.AbsChange());
    const double rel_change = std::abs(delta.RelChange());
    delta.regressed =
        rel_change > options.rel_tol && abs_change > options.abs_tol;
    result.regressions += delta.regressed;
    result.deltas.push_back(std::move(delta));
  }
  for (const auto& [path, value] : cand_flat) {
    (void)value;
    if (ignored(path)) continue;
    if (base_paths.find(path) == base_paths.end()) result.added.push_back(path);
  }
  return result;
}

std::vector<std::string> ValidateReportSchema(const JsonValue& report) {
  std::vector<std::string> problems;
  if (report.kind() != JsonValue::Kind::kObject) {
    problems.push_back("top level is not an object");
    return problems;
  }
  const JsonValue* schema = report.Find("schema");
  if (schema == nullptr || schema->kind() != JsonValue::Kind::kString)
    problems.push_back("missing string field 'schema'");
  else if (schema->AsString() != kReportSchema)
    problems.push_back("unknown schema '" + schema->AsString() + "'");

  const JsonValue* version = report.Find("schema_version");
  if (version == nullptr || version->kind() != JsonValue::Kind::kInt)
    problems.push_back("missing integer field 'schema_version'");
  else if (version->AsInt() != kReportSchemaVersion)
    problems.push_back("unsupported schema_version " +
                       std::to_string(version->AsInt()));

  const JsonValue* tool = report.Find("tool");
  if (tool == nullptr || tool->kind() != JsonValue::Kind::kString)
    problems.push_back("missing string field 'tool'");

  for (const char* section : {"meta", "counters", "metrics", "histograms",
                              "tables"}) {
    const JsonValue* v = report.Find(section);
    if (v == nullptr || v->kind() != JsonValue::Kind::kObject)
      problems.push_back(std::string("missing object section '") + section +
                         "'");
  }
  // "timing" is optional (determinism-mode serialisations drop it) but must
  // be an object when present.
  if (const JsonValue* timing = report.Find("timing");
      timing != nullptr && timing->kind() != JsonValue::Kind::kObject)
    problems.push_back("'timing' present but not an object");
  return problems;
}

}  // namespace pair_ecc::telemetry
