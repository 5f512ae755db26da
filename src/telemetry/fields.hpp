// Checkpoint JSON and report counters for structs with a field table
// (util/fields.hpp), written once over the table instead of per struct.
// Checkpoints hold one key per entry in table order; reports hold
// counters.<prefix><name> per counter and histograms.<prefix><name> per
// histogram that recorded. Read errors are RequireField/RequireU64's
// "<what>: missing field" / "wrong type" lines; a nested table reports
// under the same `what`, a histogram under "<what>: <key>" and an array
// under "<what>: field '<key>'".
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "telemetry/checkpoint.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "util/fields.hpp"

namespace pair_ecc::telemetry {

template <util::HasFields T>
JsonValue FieldsToJson(const T& value) {
  JsonValue obj = JsonValue::MakeObject();
  util::ForEachField<T>([&](const auto& f) {
    const auto& m = value.*f.member;
    using M = std::remove_cvref_t<decltype(m)>;
    if constexpr (std::is_same_v<M, std::uint64_t>) {
      obj.Set(f.key, JsonValue(m));
    } else if constexpr (std::is_same_v<M, Histogram>) {
      obj.Set(f.key, HistogramToJson(m));
    } else if constexpr (util::HasFields<M>) {
      obj.Set(f.key, FieldsToJson(m));
    } else {
      obj.Set(f.key, CountsToJson(m));
    }
  });
  return obj;
}

/// Inverse of FieldsToJson; `what` names the document in diagnostics.
template <util::HasFields T>
T FieldsFromJson(const JsonValue& json, const std::string& what) {
  T out;
  util::ForEachField<T>([&](const auto& f) {
    auto& m = out.*f.member;
    using M = std::remove_cvref_t<decltype(m)>;
    if constexpr (std::is_same_v<M, std::uint64_t>) {
      m = RequireU64(json, f.key, what);
    } else if constexpr (std::is_same_v<M, Histogram>) {
      m = HistogramFromJson(RequireField(json, f.key, what),
                            what + ": " + std::string(f.key));
    } else if constexpr (util::HasFields<M>) {
      m = FieldsFromJson<M>(RequireField(json, f.key, what), what);
    } else {
      const std::string field = what + ": field '" + std::string(f.key) + "'";
      const std::vector<std::uint64_t> counts =
          CountsFromJson(RequireField(json, f.key, what), field);
      if (counts.size() != m.size())
        throw std::runtime_error(field + " must have one entry per " +
                                 std::string(f.element_noun));
      std::copy(counts.begin(), counts.end(), m.begin());
    }
  });
  return out;
}

/// Sets `value`'s counters and non-empty histograms in `report`, each
/// under `prefix` + its table name.
template <util::HasFields T>
void AddFieldCounters(Report& report, const T& value,
                      const std::string& prefix = {}) {
  util::ForEachField<T>([&](const auto& f) {
    const auto& m = value.*f.member;
    using M = std::remove_cvref_t<decltype(m)>;
    const std::string name = prefix + std::string(f.name);
    if constexpr (std::is_same_v<M, std::uint64_t>) {
      report.counters().Set(name, m);
    } else if constexpr (std::is_same_v<M, Histogram>) {
      if (!m.counts().empty()) report.AddHistogram(name, m);
    } else if constexpr (util::HasFields<M>) {
      AddFieldCounters(report, m, name);
    } else {
      for (std::size_t i = 0; i < m.size(); ++i)
        report.counters().Set(name + f.element_name(i), m[i]);
    }
  });
}

}  // namespace pair_ecc::telemetry
