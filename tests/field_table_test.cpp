// Field tables (util/fields.hpp) against every path derived from them.
// Each member gets a distinct nonzero value, so a member the checkpoint,
// the merge or the report drops or crosses shows here; the real-run
// round trips in campaign_test leave some members at zero in every
// correct run (protocol_violations, most repair counters).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>

#include "reliability/campaign.hpp"
#include "reliability/telemetry.hpp"
#include "sim/campaign.hpp"
#include "telemetry/fields.hpp"

namespace pair_ecc {
namespace {

using telemetry::Histogram;
using telemetry::JsonValue;

// ---- walks over a field table ----

/// Gives every table member of `x` its own nonzero value.
template <util::HasFields T>
void Fill(T& x, std::uint64_t& next) {
  util::ForEachField<T>([&](const auto& f) {
    auto& m = x.*f.member;
    using M = std::remove_cvref_t<decltype(m)>;
    if constexpr (std::is_same_v<M, std::uint64_t>) {
      m = next++;
    } else if constexpr (std::is_same_v<M, Histogram>) {
      m.Record(next % 4);  // a finite bucket
      m.Record(next++);    // beyond every bound once `next` is large
    } else if constexpr (util::HasFields<M>) {
      Fill(m, next);
    } else {
      for (std::uint64_t& v : m) v = next++;
    }
  });
}

/// Every counter and histogram of a value, under its full report name.
struct Leaves {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, Histogram> histograms;
};

template <util::HasFields T>
void Collect(const T& x, const std::string& prefix, Leaves& out) {
  util::ForEachField<T>([&](const auto& f) {
    const auto& m = x.*f.member;
    using M = std::remove_cvref_t<decltype(m)>;
    const std::string name = prefix + std::string(f.name);
    if constexpr (std::is_same_v<M, std::uint64_t>) {
      out.counters[name] = m;
    } else if constexpr (std::is_same_v<M, Histogram>) {
      out.histograms[name] = m;
    } else if constexpr (util::HasFields<M>) {
      Collect(m, name, out);
    } else {
      for (std::size_t i = 0; i < m.size(); ++i)
        out.counters[name + f.element_name(i)] = m[i];
    }
  });
}

/// Bytes the listed members occupy; sizeof(T) when every member (all
/// 8-byte aligned) has a table line.
template <typename T>
std::size_t ListedBytes() {
  std::size_t bytes = 0;
  util::ForEachField<T>([&](const auto& f) {
    bytes += sizeof(std::declval<T&>().*f.member);
  });
  return bytes;
}

// ---- one case per struct: its public checkpoint and report entry points

template <typename T>
struct Case;

template <>
struct Case<reliability::OutcomeCounts> {
  using T = reliability::OutcomeCounts;
  static constexpr const char* kName = "OutcomeCounts";
  static constexpr const char* kPrefix = "";
  static JsonValue ToJson(const T& x) { return telemetry::FieldsToJson(x); }
  static T FromJson(const JsonValue& v) {
    return telemetry::FieldsFromJson<T>(v, "outcome counts");
  }
  static void Report(telemetry::Report& r, const T& x) {
    reliability::AddScenarioCounters(r, x);
  }
};

template <>
struct Case<reliability::TrialTelemetry> {
  using T = reliability::TrialTelemetry;
  static constexpr const char* kName = "TrialTelemetry";
  static constexpr const char* kPrefix = "";
  static JsonValue ToJson(const T& x) { return telemetry::FieldsToJson(x); }
  static T FromJson(const JsonValue& v) {
    return telemetry::FieldsFromJson<T>(v, "trial telemetry");
  }
  static void Report(telemetry::Report& r, const T& x) {
    reliability::AddTrialTelemetry(r, x);
  }
};

template <>
struct Case<sim::SystemStats> {
  using T = sim::SystemStats;
  static constexpr const char* kName = "SystemStats";
  static constexpr const char* kPrefix = "system.";
  static JsonValue ToJson(const T& x) { return telemetry::FieldsToJson(x); }
  static T FromJson(const JsonValue& v) {
    return telemetry::FieldsFromJson<T>(v, "system stats");
  }
  static void Report(telemetry::Report& r, const T& x) {
    sim::AddSystemStats(r, x, /*tck_ns=*/1.0);
  }
};

/// Structs checkpointed and reported only inside a parent: the generic
/// (de)serializer directly and the parent's report entry point.
template <typename T, typename Parent, T Parent::*kMember>
struct NestedCase {
  static JsonValue ToJson(const T& x) { return telemetry::FieldsToJson(x); }
  static T FromJson(const JsonValue& v) {
    return telemetry::FieldsFromJson<T>(v, "test");
  }
  static void Report(telemetry::Report& r, const T& x) {
    Parent parent;
    parent.*kMember = x;
    Case<Parent>::Report(r, parent);
  }
};

template <>
struct Case<ecc::CodecCounters>
    : NestedCase<ecc::CodecCounters, reliability::TrialTelemetry,
                 &reliability::TrialTelemetry::codec> {
  static constexpr const char* kName = "CodecCounters";
  static constexpr const char* kPrefix = "codec.";
};

template <>
struct Case<faults::InjectionCounters>
    : NestedCase<faults::InjectionCounters, reliability::TrialTelemetry,
                 &reliability::TrialTelemetry::injection> {
  static constexpr const char* kName = "InjectionCounters";
  static constexpr const char* kPrefix = "faults.";
};

template <>
struct Case<sim::RepairCounters>
    : NestedCase<sim::RepairCounters, sim::SystemStats,
                 &sim::SystemStats::repair> {
  static constexpr const char* kName = "RepairCounters";
  static constexpr const char* kPrefix = "system.repair.";
};

// The shard accumulators' tables nest the two above: their checkpoint
// entry points are the campaign state codecs.

template <>
struct Case<reliability::ScenarioShardState> {
  using T = reliability::ScenarioShardState;
  static constexpr const char* kName = "ScenarioShardState";
  static constexpr const char* kPrefix = "";
  static JsonValue ToJson(const T& x) {
    return reliability::ScenarioStateToJson(x);
  }
  static T FromJson(const JsonValue& v) {
    return reliability::ScenarioStateFromJson(v);
  }
  static void Report(telemetry::Report& r, const T& x) {
    reliability::AddScenarioCounters(r, x.counts);
    reliability::AddTrialTelemetry(r, x.tel);
  }
};

template <>
struct Case<sim::SystemShardState> {
  using T = sim::SystemShardState;
  static constexpr const char* kName = "SystemShardState";
  static constexpr const char* kPrefix = "";
  static JsonValue ToJson(const T& x) { return sim::SystemStateToJson(x); }
  static T FromJson(const JsonValue& v) { return sim::SystemStateFromJson(v); }
  static void Report(telemetry::Report& r, const T& x) {
    sim::AddSystemStats(r, x.stats, /*tck_ns=*/1.0);
    reliability::AddTrialTelemetry(r, x.tel);
  }
};

/// Reported but never checkpointed; mean_sdc_epoch is derived after the
/// reduce and has no table line, so only the merge and report checks apply.
template <>
struct Case<reliability::LifetimeStats> {
  using T = reliability::LifetimeStats;
  static constexpr const char* kName = "LifetimeStats";
  static constexpr const char* kPrefix = "";
  static void Report(telemetry::Report& r, const T& x) {
    r = reliability::BuildLifetimeReport(reliability::LifetimeConfig{},
                                         x.trials, x,
                                         reliability::ScenarioTelemetry{});
  }
};

template <typename T>
T Filled(std::uint64_t first) {
  T x;
  Fill(x, first);
  return x;
}

template <typename T>
Leaves LeavesOf(const T& x) {
  Leaves out;
  Collect(x, Case<T>::kPrefix, out);
  return out;
}

template <typename T>
class FieldTableTest : public ::testing::Test {};

using Structs =
    ::testing::Types<reliability::OutcomeCounts, ecc::CodecCounters,
                     faults::InjectionCounters, sim::RepairCounters,
                     sim::SystemStats, reliability::TrialTelemetry,
                     reliability::ScenarioShardState, sim::SystemShardState>;

struct StructName {
  template <typename T>
  static std::string GetName(int) {
    return Case<T>::kName;
  }
};

TYPED_TEST_SUITE(FieldTableTest, Structs, StructName);

TYPED_TEST(FieldTableTest, EveryMemberIsListed) {
  EXPECT_EQ(ListedBytes<TypeParam>(), sizeof(TypeParam));
}

TYPED_TEST(FieldTableTest, EveryFieldRoundTripsThroughCheckpointJson) {
  const TypeParam x = Filled<TypeParam>(1);
  const TypeParam back = Case<TypeParam>::FromJson(Case<TypeParam>::ToJson(x));
  EXPECT_EQ(back, x);
  EXPECT_NE(x, TypeParam{});
}

template <typename T>
void ExpectMergeIsTheFieldwiseSum() {
  const T x = Filled<T>(1);
  const T y = Filled<T>(1000);
  T sum = x;
  sum += y;

  const Leaves a = LeavesOf(x), b = LeavesOf(y), s = LeavesOf(sum);
  ASSERT_FALSE(s.counters.empty());
  for (const auto& [name, value] : s.counters)
    EXPECT_EQ(value, a.counters.at(name) + b.counters.at(name)) << name;
  for (const auto& [name, h] : s.histograms) {
    const Histogram& ha = a.histograms.at(name);
    const Histogram& hb = b.histograms.at(name);
    EXPECT_EQ(h.Sum(), ha.Sum() + hb.Sum()) << name;
    ASSERT_EQ(h.counts().size(), ha.counts().size()) << name;
    for (std::size_t i = 0; i < h.counts().size(); ++i)
      EXPECT_EQ(h.counts()[i], ha.counts()[i] + hb.counts()[i]) << name;
  }
}

template <typename T>
void ExpectEveryFieldReachesTheReportUnderItsName() {
  const T x = Filled<T>(1);
  telemetry::Report report("field-table-test");
  Case<T>::Report(report, x);
  const JsonValue json = report.ToJson(/*include_timing=*/false);

  const Leaves expected = LeavesOf(x);
  for (const auto& [name, value] : expected.counters)
    EXPECT_EQ(report.counters().Get(name), value) << name;  // value != 0
  for (const auto& [name, h] : expected.histograms) {
    const JsonValue* found = json.Find("histograms")->Find(name);
    ASSERT_NE(found, nullptr) << name;
    EXPECT_EQ(*found, telemetry::HistogramToJson(h)) << name;
  }
}

TYPED_TEST(FieldTableTest, MergeIsTheFieldwiseSum) {
  ExpectMergeIsTheFieldwiseSum<TypeParam>();
}

TYPED_TEST(FieldTableTest, EveryFieldReachesTheReportUnderItsName) {
  ExpectEveryFieldReachesTheReportUnderItsName<TypeParam>();
}

TEST(LifetimeStatsFieldTable, MergeIsTheFieldwiseSum) {
  ExpectMergeIsTheFieldwiseSum<reliability::LifetimeStats>();
}

TEST(LifetimeStatsFieldTable, EveryFieldReachesTheReportUnderItsName) {
  ExpectEveryFieldReachesTheReportUnderItsName<reliability::LifetimeStats>();
}

}  // namespace
}  // namespace pair_ecc
