// Scheduler-policy and geometry-preset tests: FCFS really issues in
// arrival order, FR-FCFS stays the default (and reorders when given the
// chance), PRAC injects RFM commands without breaking protocol legality,
// and every named preset yields a coherent geometry/timing pair that the
// schemes and the controller accept.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dram/rank.hpp"
#include "ecc/scheme.hpp"
#include "timing/controller.hpp"
#include "timing/presets.hpp"
#include "timing/request_source.hpp"
#include "timing/scheduler.hpp"
#include "workload/streams.hpp"

namespace pair_ecc::timing {
namespace {

SchemeTiming NoEccTiming(const TimingParams& params) {
  dram::RankGeometry rg;
  dram::Rank rank(rg);
  const auto scheme = ecc::MakeScheme(ecc::SchemeKind::kNoEcc, rank);
  return SchemeTiming::FromPerf(scheme->Perf(), params);
}

// A queue full of same-bank row hits behind a row miss: FR-FCFS promotes
// the hits, strict FCFS must not.
Trace ReorderBait() {
  // All arrive at cycle 0 so the whole set is queued before any pick.
  auto read = [](unsigned row, unsigned col) {
    Request req;
    req.addr = {0, row, col};
    return req;
  };
  Trace trace;
  trace.push_back(read(1, 0));  // opens row 1
  trace.push_back(read(2, 0));  // row miss (conflict)
  for (unsigned i = 0; i < 6; ++i)
    trace.push_back(read(1, 1 + i));  // hits on row 1
  return trace;
}

std::vector<std::uint64_t> IssueOrder(SchedulerKind kind) {
  const TimingParams params = TimingParams::Ddr4_3200();
  Trace trace = ReorderBait();
  VectorSource source(trace);
  Controller ctrl(params, NoEccTiming(params), 16, PagePolicy::kOpen, kind);
  std::vector<std::uint64_t> order;
  const SimStats stats = ctrl.Run(
      source,
      [&order](const Request&, std::uint64_t index) { order.push_back(index); });
  EXPECT_TRUE(ctrl.checker().violations().empty());
  EXPECT_EQ(order.size(), trace.size());
  EXPECT_GT(stats.cycles, 0u);
  return order;
}

TEST(Scheduler, FcfsIssuesStrictlyInArrivalOrder) {
  const auto order = IssueOrder(SchedulerKind::kFcfs);
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_LT(order[i - 1], order[i]) << "position " << i;
}

TEST(Scheduler, FrFcfsReordersRowHitsPastAMiss) {
  const auto order = IssueOrder(SchedulerKind::kFrFcfs);
  bool reordered = false;
  for (std::size_t i = 1; i < order.size(); ++i)
    reordered |= order[i] < order[i - 1];
  EXPECT_TRUE(reordered) << "bait queue should promote row hits";
}

TEST(Scheduler, FrFcfsIsTheDefaultPolicy) {
  const TimingParams params = TimingParams::Ddr4_3200();
  workload::StreamConfig wl;
  wl.read_fraction = 0.67;
  wl.kind = workload::StreamKind::kHotspot;
  wl.num_requests = 2000;
  wl.intensity = 0.2;
  wl.seed = 17;

  auto run = [&](bool explicit_kind) {
    auto trace = timing::Materialize(*workload::MakeStream(wl));
    VectorSource source(trace);
    if (explicit_kind) {
      Controller ctrl(params, NoEccTiming(params), 16, PagePolicy::kOpen,
                      SchedulerKind::kFrFcfs);
      return ctrl.Run(source);
    }
    Controller ctrl(params, NoEccTiming(params));
    return ctrl.Run(source);
  };
  const SimStats a = run(false);
  const SimStats b = run(true);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.row_hits, b.row_hits);
  EXPECT_EQ(a.row_conflicts, b.row_conflicts);
  EXPECT_EQ(a.avg_read_latency, b.avg_read_latency);
}

TEST(Scheduler, PracIssuesRfmUnderActivationPressure) {
  const TimingParams params = TimingParams::Ddr4_3200();
  workload::StreamConfig wl;
  wl.read_fraction = 0.67;
  wl.kind = workload::StreamKind::kRandom;  // row misses => many ACTs
  wl.num_requests = 4000;
  wl.intensity = 0.2;
  wl.seed = 23;

  auto run = [&](SchedulerKind kind) {
    auto trace = timing::Materialize(*workload::MakeStream(wl));
    VectorSource source(trace);
    Controller ctrl(params, NoEccTiming(params), 16, PagePolicy::kOpen, kind);
    const SimStats stats = ctrl.Run(source);
    EXPECT_TRUE(ctrl.checker().violations().empty())
        << ctrl.checker().violations().front();
    return stats;
  };
  const SimStats frfcfs = run(SchedulerKind::kFrFcfs);
  const SimStats prac = run(SchedulerKind::kPrac);
  EXPECT_EQ(frfcfs.rfm_commands, 0u);
  EXPECT_GT(prac.rfm_commands, 0u);
  // RFMs cost cycles; the demand stream itself is identical.
  EXPECT_GE(prac.cycles, frfcfs.cycles);
}

TEST(Scheduler, NamesRoundTrip) {
  for (const auto kind : {SchedulerKind::kFrFcfs, SchedulerKind::kFcfs,
                          SchedulerKind::kPrac})
    EXPECT_EQ(SchedulerKindFromString(ToString(kind)), kind);
  EXPECT_THROW(SchedulerKindFromString("lru"), std::exception);
}

// ------------------------------------------------------------------ presets

TEST(Presets, NamesRoundTripIncludingLongSpellings) {
  for (const auto kind : {GeometryPreset::kDdr4_3200, GeometryPreset::kDdr5_4800,
                          GeometryPreset::kHbm3})
    EXPECT_EQ(GeometryPresetFromString(ToString(kind)), kind);
  EXPECT_EQ(GeometryPresetFromString("ddr4"), GeometryPreset::kDdr4_3200);
  EXPECT_EQ(GeometryPresetFromString("ddr5"), GeometryPreset::kDdr5_4800);
  EXPECT_THROW(GeometryPresetFromString("ddr3"), std::exception);
}

TEST(Presets, Ddr4PresetIsTheHistoricalDefault) {
  const SystemPreset preset = MakePreset(GeometryPreset::kDdr4_3200);
  const TimingParams defaults = TimingParams::Ddr4_3200();
  EXPECT_EQ(preset.timing.tck_ns, defaults.tck_ns);
  EXPECT_EQ(preset.timing.tBL, defaults.tBL);
  EXPECT_EQ(preset.timing.banks, defaults.banks);
  const dram::RankGeometry default_geom;
  EXPECT_EQ(preset.geometry.LineBits(), default_geom.LineBits());
  EXPECT_EQ(preset.geometry.data_devices, default_geom.data_devices);
}

TEST(Presets, Ddr5AndHbm3AreDistinctDesignPoints) {
  const SystemPreset ddr5 = MakePreset(GeometryPreset::kDdr5_4800);
  EXPECT_EQ(ddr5.timing.tBL, 8u);  // BL16 on a DDR bus
  EXPECT_EQ(ddr5.timing.banks, 32u);
  EXPECT_LT(ddr5.timing.tck_ns, 0.5);
  const SystemPreset hbm3 = MakePreset(GeometryPreset::kHbm3);
  EXPECT_LT(hbm3.timing.tck_ns, ddr5.timing.tck_ns);
  EXPECT_NE(hbm3.geometry.LineBits(), 0u);
}

TEST(Presets, EverySchemeRunsOnEveryPreset) {
  for (const auto preset_kind :
       {GeometryPreset::kDdr4_3200, GeometryPreset::kDdr5_4800,
        GeometryPreset::kHbm3}) {
    const SystemPreset preset = MakePreset(preset_kind);
    for (const auto scheme_kind : {ecc::SchemeKind::kSecDed,
                                   ecc::SchemeKind::kXed,
                                   ecc::SchemeKind::kPair4}) {
      dram::RankGeometry geom = preset.geometry;
      dram::Rank rank(geom);
      const auto scheme = ecc::MakeScheme(scheme_kind, rank);
      workload::StreamConfig wl;
      wl.kind = workload::StreamKind::kRandom;
      wl.read_fraction = 0.67;
      wl.intensity = 0.05;
      wl.num_requests = 500;
      wl.banks = preset.timing.banks;
      wl.seed = 31;
      auto trace = timing::Materialize(*workload::MakeStream(wl));
      VectorSource source(trace);
      Controller ctrl(preset.timing,
                      SchemeTiming::FromPerf(scheme->Perf(), preset.timing));
      const SimStats stats = ctrl.Run(source);
      EXPECT_TRUE(ctrl.checker().violations().empty())
          << ToString(preset_kind) << "/" << ecc::ToString(scheme_kind) << ": "
          << ctrl.checker().violations().front();
      EXPECT_GT(stats.cycles, 0u);
    }
  }
}

}  // namespace
}  // namespace pair_ecc::timing
