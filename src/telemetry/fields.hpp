// Checkpoint JSON and report counters for structs with a field table
// (util/fields.hpp), written once over the table instead of per struct.
// Checkpoints hold one key per entry in table order; reports hold
// counters.<prefix><name> per counter and histograms.<prefix><name> per
// histogram that recorded. Read errors are RequireField/RequireU64's
// "<what>: missing field" / "wrong type" lines; a nested table reports
// under the same `what`, a histogram under "<what>: <key>".
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

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
      JsonValue array = JsonValue::MakeArray();
      for (const std::uint64_t n : m) array.Append(JsonValue(n));
      obj.Set(f.key, std::move(array));
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
      const auto fail = [&](const std::string& why) {
        throw std::runtime_error(what + ": field '" + std::string(f.key) +
                                 "' " + why);
      };
      const JsonValue& array = RequireField(json, f.key, what);
      if (array.kind() != JsonValue::Kind::kArray ||
          array.AsArray().size() != m.size())
        fail("must be an array with one entry per " +
             std::string(f.element_noun));
      for (std::size_t i = 0; i < m.size(); ++i) {
        const JsonValue& entry = array.AsArray()[i];
        if (entry.kind() != JsonValue::Kind::kInt || entry.AsInt() < 0)
          fail("entries must be non-negative integers");
        m[i] = static_cast<std::uint64_t>(entry.AsInt());
      }
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
