// Timing-simulator tests: closed-form latencies on simple traces, protocol
// compliance across schemes and workloads (the independent checker must
// stay silent), and the directional performance effects of each scheme's
// overhead knobs.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "ecc/scheme.hpp"
#include "timing/controller.hpp"
#include "timing/presets.hpp"
#include "util/atomic_file.hpp"
#include "util/contract.hpp"
#include "workload/streams.hpp"

namespace pair_ecc::timing {
namespace {

using workload::StreamKind;
using workload::StreamConfig;

SchemeTiming NoOverhead(const TimingParams& t) {
  return SchemeTiming::FromPerf(ecc::PerfDescriptor{}, t);
}

// ------------------------------------------------------------- SchemeTiming

TEST(SchemeTiming, FromPerfConvertsUnits) {
  TimingParams t;
  ecc::PerfDescriptor p;
  p.extra_read_beats = 1;   // half a clock, rounds up
  p.extra_write_beats = 2;  // exactly one clock
  p.write_rmw = true;
  p.read_decode_ns = 1.0;   // 1.0 / 0.625 -> 2 cycles
  p.write_encode_ns = 0.625;
  const auto s = SchemeTiming::FromPerf(p, t);
  EXPECT_EQ(s.read_burst, 5u);
  EXPECT_EQ(s.write_burst, 5u);
  EXPECT_EQ(s.rmw_penalty, 2 * t.tCCD_L);  // internal read + write-back
  EXPECT_EQ(s.read_decode, 2u);
  EXPECT_EQ(s.write_encode, 1u);
}

TEST(SchemeTiming, ZeroOverheadIsBaseline) {
  TimingParams t;
  const auto s = NoOverhead(t);
  EXPECT_EQ(s.read_burst, t.tBL);
  EXPECT_EQ(s.write_burst, t.tBL);
  EXPECT_EQ(s.rmw_penalty, 0u);
  EXPECT_EQ(s.read_decode, 0u);
}

// --------------------------------------------------------------- Controller

TEST(Controller, SingleReadHasClosedFormLatency) {
  TimingParams t;
  Controller ctrl(t, NoOverhead(t));
  Trace trace = {{0, Op::kRead, 0, {0, 5, 3}}};
  const auto stats = ctrl.Run(trace);
  // Idle system: ACT@0, RD@tRCD, data at +tCL, burst tBL.
  EXPECT_EQ(trace[0].issue, t.tRCD);
  EXPECT_EQ(trace[0].complete, t.tRCD + t.tCL + t.tBL);
  EXPECT_EQ(stats.reads, 1u);
  EXPECT_EQ(stats.row_misses, 1u);
  EXPECT_TRUE(ctrl.checker().violations().empty());
}

TEST(Controller, DecodeLatencyAddsToReadCompletion) {
  TimingParams t;
  ecc::PerfDescriptor p;
  p.read_decode_ns = 2.8;  // ceil(2.8 / 0.625) = 5 cycles
  Controller ctrl(t, SchemeTiming::FromPerf(p, t));
  Trace trace = {{0, Op::kRead, 0, {0, 5, 3}}};
  ctrl.Run(trace);
  EXPECT_EQ(trace[0].complete, t.tRCD + t.tCL + t.tBL + 5);
}

TEST(Controller, RowHitSkipsActivation) {
  TimingParams t;
  Controller ctrl(t, NoOverhead(t));
  Trace trace = {{0, Op::kRead, 0, {0, 5, 3}}, {0, Op::kRead, 0, {0, 5, 4}}};
  ctrl.Run(trace);
  // Second read issues tCCD_L after the first, no new ACT.
  EXPECT_EQ(trace[1].issue, trace[0].issue + t.tCCD_L);
  EXPECT_TRUE(ctrl.checker().violations().empty());
}

TEST(Controller, RowConflictPaysPrechargePlusActivate) {
  TimingParams t;
  Controller ctrl(t, NoOverhead(t));
  // The second request arrives once row 5 is already open, so it is
  // classified as a conflict at admission.
  Trace trace = {{0, Op::kRead, 0, {0, 5, 3}}, {30, Op::kRead, 0, {0, 9, 3}}};
  const auto stats = ctrl.Run(trace);
  EXPECT_EQ(stats.row_conflicts, 1u);
  // The conflicting read cannot issue before tRAS + tRP + tRCD.
  EXPECT_GE(trace[1].issue, t.tRAS + t.tRP + t.tRCD);
  EXPECT_TRUE(ctrl.checker().violations().empty());
}

TEST(Controller, WriteThenReadPaysTurnaround) {
  TimingParams t;
  Controller ctrl(t, NoOverhead(t));
  Trace trace = {{0, Op::kWrite, 0, {0, 5, 3}}, {0, Op::kRead, 0, {0, 5, 4}}};
  ctrl.Run(trace);
  // RD must wait tWTR after the write burst ends.
  const std::uint64_t wr_data_end = trace[0].complete;
  EXPECT_GE(trace[1].issue, wr_data_end + t.tWTR);
  EXPECT_TRUE(ctrl.checker().violations().empty());
}

TEST(Controller, FrFcfsPrefersRowHitOverOlderConflict) {
  TimingParams t;
  Controller ctrl(t, NoOverhead(t));
  // Open row 5 via the first request; then a conflict (row 9) arrives just
  // before another hit (row 5). The hit should issue first.
  Trace trace = {{0, Op::kRead, 0, {0, 5, 3}},
                 {1, Op::kRead, 0, {0, 9, 0}},
                 {2, Op::kRead, 0, {0, 5, 7}}};
  ctrl.Run(trace);
  EXPECT_LT(trace[2].issue, trace[1].issue);
  EXPECT_TRUE(ctrl.checker().violations().empty());
}

TEST(Controller, RejectsBankOutsideTheTimingModel) {
  TimingParams t;
  Controller ctrl(t, NoOverhead(t));
  Trace trace = {{0, Op::kRead, 0, {0, 5, 3}},
                 {1, Op::kRead, 0, {t.banks, 5, 3}}};
  EXPECT_THROW(ctrl.Run(trace), util::ContractViolation);
}

// Run leaves open rows, future ready times, bus occupancy, PRAC counters
// and the checker's history behind; a second stream would start at cycle
// 0 against all of it, so the controller refuses to run twice.
TEST(Controller, SecondRunThrows) {
  TimingParams t;
  Controller ctrl(t, NoOverhead(t), 16, PagePolicy::kOpen,
                  SchedulerKind::kPrac);
  Trace first = {{0, Op::kRead, 0, {0, 5, 3}}};
  ctrl.Run(first);
  Trace second = {{0, Op::kWrite, 0, {1, 2, 3}}};
  EXPECT_THROW(ctrl.Run(second), util::ContractViolation);
  VectorSource source(second);
  EXPECT_THROW(ctrl.Run(source), util::ContractViolation);
  EXPECT_EQ(second[0].issue, 0u);  // untouched
  EXPECT_EQ(ctrl.checker().commands_checked(), 2u);  // ACT + RD of `first`
}

TEST(Controller, StatsAccountForEveryRequest) {
  TimingParams t;
  Controller ctrl(t, NoOverhead(t));
  StreamConfig cfg;
  cfg.read_fraction = 0.67;
  cfg.intensity = 0.05;
  cfg.num_requests = 5000;
  cfg.kind = StreamKind::kRandom;
  cfg.seed = 7;
  Trace trace = timing::Materialize(*workload::MakeStream(cfg));
  const auto stats = ctrl.Run(trace);
  EXPECT_EQ(stats.reads + stats.writes, 5000u);
  EXPECT_EQ(stats.row_hits + stats.row_misses + stats.row_conflicts, 5000u);
  EXPECT_GT(stats.avg_read_latency, 0.0);
  EXPECT_GE(stats.p99_read_latency, stats.avg_read_latency);
  EXPECT_GT(stats.bus_utilization, 0.0);
  EXPECT_LE(stats.bus_utilization, 1.0);
  for (const auto& req : trace) {
    EXPECT_GE(req.issue, req.arrival);
    EXPECT_GT(req.complete, req.issue);
  }
}

// Protocol compliance across every scheme x pattern combination.
class ProtocolComplianceTest
    : public ::testing::TestWithParam<
          std::tuple<ecc::SchemeKind, StreamKind>> {};

TEST_P(ProtocolComplianceTest, CheckerStaysSilent) {
  TimingParams t;
  dram::RankGeometry rg;
  dram::Rank rank(rg);
  auto scheme = ecc::MakeScheme(std::get<0>(GetParam()), rank);
  Controller ctrl(t, SchemeTiming::FromPerf(scheme->Perf(), t));
  StreamConfig cfg;
  cfg.kind = std::get<1>(GetParam());
  cfg.num_requests = 8000;
  cfg.read_fraction = 0.5;
  cfg.intensity = 0.2;  // stress the bus
  cfg.seed = 11;
  Trace trace = timing::Materialize(*workload::MakeStream(cfg));
  ctrl.Run(trace);
  ASSERT_TRUE(ctrl.checker().violations().empty())
      << ctrl.checker().violations().front();
  EXPECT_GT(ctrl.checker().commands_checked(), 8000u);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesByPatterns, ProtocolComplianceTest,
    ::testing::Combine(
        ::testing::Values(ecc::SchemeKind::kNoEcc, ecc::SchemeKind::kIecc,
                          ecc::SchemeKind::kXed, ecc::SchemeKind::kDuo,
                          ecc::SchemeKind::kPair4,
                          ecc::SchemeKind::kPair4SecDed),
        ::testing::Values(StreamKind::kStream, StreamKind::kRandom,
                          StreamKind::kHotspot)));

// Directional performance properties.

TEST(ControllerDirectional, RmwSlowsWriteHeavyWorkloads) {
  TimingParams t;
  StreamConfig cfg;
  cfg.kind = StreamKind::kHotspot;
  cfg.num_requests = 10000;
  cfg.read_fraction = 0.3;  // write heavy
  cfg.intensity = 0.15;
  cfg.seed = 13;

  ecc::PerfDescriptor rmw;
  rmw.write_rmw = true;
  Trace a = timing::Materialize(*workload::MakeStream(cfg));
  Controller base(t, NoOverhead(t));
  const auto s_base = base.Run(a);
  Trace b = timing::Materialize(*workload::MakeStream(cfg));
  Controller slow(t, SchemeTiming::FromPerf(rmw, t));
  const auto s_rmw = slow.Run(b);
  EXPECT_GT(s_rmw.cycles, s_base.cycles);
  EXPECT_GT(s_rmw.avg_read_latency, s_base.avg_read_latency);
}

TEST(ControllerDirectional, ExtraBeatsReduceStreamBandwidth) {
  TimingParams t;
  StreamConfig cfg;
  cfg.kind = StreamKind::kStream;
  cfg.num_requests = 10000;
  cfg.read_fraction = 1.0;
  cfg.intensity = 0.3;  // saturating
  cfg.seed = 17;

  ecc::PerfDescriptor longer;
  longer.extra_read_beats = 2;  // +1 cycle per burst
  Trace a = timing::Materialize(*workload::MakeStream(cfg));
  Controller base(t, NoOverhead(t));
  const auto s_base = base.Run(a);
  Trace b = timing::Materialize(*workload::MakeStream(cfg));
  Controller ext(t, SchemeTiming::FromPerf(longer, t));
  const auto s_ext = ext.Run(b);
  EXPECT_LT(s_ext.BytesPerCycle(), s_base.BytesPerCycle());
}

TEST(ControllerDirectional, DecodeLatencyDoesNotCostBandwidth) {
  // Pure latency adders shift completion but not throughput.
  TimingParams t;
  StreamConfig cfg;
  cfg.kind = StreamKind::kStream;
  cfg.num_requests = 8000;
  cfg.read_fraction = 1.0;
  cfg.intensity = 0.3;
  cfg.seed = 19;

  ecc::PerfDescriptor dec;
  dec.read_decode_ns = 5.0;
  Trace a = timing::Materialize(*workload::MakeStream(cfg));
  Controller base(t, NoOverhead(t));
  const auto s_base = base.Run(a);
  Trace b = timing::Materialize(*workload::MakeStream(cfg));
  Controller d(t, SchemeTiming::FromPerf(dec, t));
  const auto s_dec = d.Run(b);
  EXPECT_NEAR(s_dec.BytesPerCycle(), s_base.BytesPerCycle(),
              0.01 * s_base.BytesPerCycle());
  EXPECT_GT(s_dec.avg_read_latency, s_base.avg_read_latency);
}

// ----------------------------------------------------------------- Checker

TEST(ProtocolChecker, FlagsActToOpenBank) {
  TimingParams t;
  ProtocolChecker checker(t);
  checker.OnCommand(Cmd::kAct, 0, 0, 1, 0);
  checker.OnCommand(Cmd::kAct, 0, 0, 2, 1000);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_NE(checker.violations()[0].find("open bank"), std::string::npos);
}

TEST(ProtocolChecker, DoubleActViolationIsDiagnosable) {
  // The violation string must carry enough to localise the bug: command,
  // rank, bank, cycle, and the rule name.
  TimingParams t;
  ProtocolChecker checker(t);
  checker.OnCommand(Cmd::kAct, 0, 3, 1, 50);
  checker.OnCommand(Cmd::kAct, 0, 3, 2, 5000);
  ASSERT_EQ(checker.violations().size(), 1u);
  const std::string& v = checker.violations()[0];
  EXPECT_NE(v.find("ACT"), std::string::npos) << v;
  EXPECT_NE(v.find("bank 3"), std::string::npos) << v;
  EXPECT_NE(v.find("@5000"), std::string::npos) << v;
  EXPECT_NE(v.find("open bank"), std::string::npos) << v;
}

TEST(ProtocolChecker, FlagsTccdViolation) {
  // Two CAS commands to the same bank group closer than tCCD_L.
  TimingParams t;
  ProtocolChecker checker(t);
  checker.OnCommand(Cmd::kAct, 0, 0, 1, 0);
  const std::uint64_t first = t.tRCD;
  checker.OnCommand(Cmd::kRead, 0, 0, 1, first, first + t.tCL,
                    first + t.tCL + t.tBL);
  const std::uint64_t second = first + t.tCCD_L - 1;
  checker.OnCommand(Cmd::kRead, 0, 0, 1, second, second + t.tCL + 64,
                    second + t.tCL + 64 + t.tBL);
  bool saw = false;
  for (const auto& v : checker.violations())
    saw |= v.find("tCCD") != std::string::npos;
  EXPECT_TRUE(saw) << (checker.violations().empty()
                           ? "no violations recorded"
                           : checker.violations().front());
  // Same pair spaced exactly tCCD_L apart is legal.
  ProtocolChecker clean(t);
  clean.OnCommand(Cmd::kAct, 0, 0, 1, 0);
  clean.OnCommand(Cmd::kRead, 0, 0, 1, first, first + t.tCL,
                  first + t.tCL + t.tBL);
  const std::uint64_t legal = first + t.tCCD_L;
  clean.OnCommand(Cmd::kRead, 0, 0, 1, legal, legal + t.tCL,
                  legal + t.tCL + t.tBL);
  EXPECT_TRUE(clean.violations().empty())
      << clean.violations().front();
}

TEST(ProtocolChecker, FlagsPrechargeBeforeAct) {
  // PRE to a bank that was never activated: no row to close.
  TimingParams t;
  ProtocolChecker checker(t);
  checker.OnCommand(Cmd::kPre, 0, 2, 0, 100);
  ASSERT_EQ(checker.violations().size(), 1u);
  const std::string& v = checker.violations()[0];
  EXPECT_NE(v.find("PRE"), std::string::npos) << v;
  EXPECT_NE(v.find("closed bank"), std::string::npos) << v;
  EXPECT_NE(v.find("bank 2"), std::string::npos) << v;
}

TEST(ProtocolChecker, FlagsTrcdViolation) {
  TimingParams t;
  ProtocolChecker checker(t);
  checker.OnCommand(Cmd::kAct, 0, 0, 1, 0);
  checker.OnCommand(Cmd::kRead, 0, 0, 1, t.tRCD - 1, 100, 104);
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_NE(checker.violations()[0].find("tRCD"), std::string::npos);
}

TEST(ProtocolChecker, FlagsWrongRowCas) {
  TimingParams t;
  ProtocolChecker checker(t);
  checker.OnCommand(Cmd::kAct, 0, 0, 1, 0);
  checker.OnCommand(Cmd::kRead, 0, 0, 2, t.tRCD, 100, 104);
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_NE(checker.violations()[0].find("wrong open row"), std::string::npos);
}

TEST(ProtocolChecker, FlagsBusOverlap) {
  TimingParams t;
  ProtocolChecker checker(t);
  checker.OnCommand(Cmd::kAct, 0, 0, 1, 0);
  checker.OnCommand(Cmd::kAct, 0, 1, 1, t.tRRD_L);
  checker.OnCommand(Cmd::kRead, 0, 0, 1, 100, 122, 126);
  checker.OnCommand(Cmd::kRead, 0, 1, 1, 100 + t.tCCD_S + 4, 124, 128);
  bool saw = false;
  for (const auto& v : checker.violations())
    saw |= v.find("data-bus overlap") != std::string::npos;
  EXPECT_TRUE(saw);
}

TEST(ProtocolChecker, FlagsTfawViolation) {
  TimingParams t;
  ProtocolChecker checker(t);
  // Five activates tightly packed: the fifth violates tFAW.
  std::uint64_t cycle = 0;
  for (unsigned b = 0; b < 5; ++b) {
    checker.OnCommand(Cmd::kAct, 0, b, 0, cycle);
    cycle += t.tRRD_S;
  }
  bool saw = false;
  for (const auto& v : checker.violations())
    saw |= v.find("tFAW") != std::string::npos;
  EXPECT_TRUE(saw);
}

TEST(ProtocolChecker, FlagsPrematurePrecharge) {
  TimingParams t;
  ProtocolChecker checker(t);
  checker.OnCommand(Cmd::kAct, 0, 0, 1, 0);
  checker.OnCommand(Cmd::kPre, 0, 0, 1, t.tRAS - 1);
  bool saw = false;
  for (const auto& v : checker.violations())
    saw |= v.find("tRAS") != std::string::npos;
  EXPECT_TRUE(saw);
}

// -------------------------------------------------------------- Multi-rank

TEST(MultiRank, RejectsOutOfRangeRank) {
  TimingParams t;  // ranks = 1
  Controller ctrl(t, NoOverhead(t));
  Trace trace = {{0, Op::kRead, 1, {0, 5, 3}}};
  EXPECT_THROW(ctrl.Run(trace), std::invalid_argument);
}

TEST(MultiRank, RankSwitchPaysTcsOnTheBus) {
  TimingParams t;
  t.ranks = 2;
  Controller ctrl(t, NoOverhead(t));
  // Two reads, different ranks, same bank/row index: bank state independent,
  // bursts separated by tCS on the shared bus.
  Trace trace = {{0, Op::kRead, 0, {0, 5, 3}}, {0, Op::kRead, 1, {0, 5, 3}}};
  ctrl.Run(trace);
  EXPECT_TRUE(ctrl.checker().violations().empty())
      << ctrl.checker().violations().front();
  // Burst 1 data interval must start >= burst 0 end + tCS.
  const std::uint64_t end0 = trace[0].complete;  // = data end (no decode)
  const std::uint64_t start1 = trace[1].issue + t.tCL;
  EXPECT_GE(start1, end0 + t.tCS);
}

TEST(MultiRank, SameBankIndexDifferentRanksOverlapActivations) {
  // The same (bank, row-conflict) pattern that serialises on one rank
  // pipelines across two: total time strictly shrinks.
  TimingParams t;
  auto build = [](unsigned ranks) {
    Trace trace;
    for (unsigned i = 0; i < 64; ++i)
      trace.push_back(
          {0, Op::kRead, ranks == 1 ? 0u : i % 2, {0, i, 0}});
    return trace;
  };
  Controller one(t, NoOverhead(t));
  Trace t1 = build(1);
  const auto s1 = one.Run(t1);
  TimingParams t2p = t;
  t2p.ranks = 2;
  Controller two(t2p, NoOverhead(t2p));
  Trace t2 = build(2);
  const auto s2 = two.Run(t2);
  EXPECT_TRUE(two.checker().violations().empty());
  EXPECT_LT(s2.cycles, s1.cycles);
}

TEST(MultiRank, FawReliefAcrossRanks) {
  // Eight activates to eight different banks: one rank hits tFAW twice;
  // two ranks (4 ACTs each) hit it never.
  TimingParams t;
  t.enable_refresh = false;
  auto run = [&](unsigned ranks) {
    TimingParams params = t;
    params.ranks = ranks;
    Controller ctrl(params, NoOverhead(params));
    Trace trace;
    for (unsigned i = 0; i < 8; ++i)
      trace.push_back({0, Op::kRead, i % ranks, {i, 1, 0}});
    const auto stats = ctrl.Run(trace);
    EXPECT_TRUE(ctrl.checker().violations().empty());
    return stats.cycles;
  };
  EXPECT_LT(run(2), run(1));
}

TEST(MultiRank, ProtocolCleanUnderLoad) {
  TimingParams t;
  t.ranks = 4;
  Controller ctrl(t, NoOverhead(t), 16, PagePolicy::kOpen);
  StreamConfig cfg;
  cfg.ranks = 4;
  cfg.kind = StreamKind::kRandom;
  cfg.num_requests = 10000;
  cfg.read_fraction = 0.5;
  cfg.intensity = 0.25;
  cfg.seed = 53;
  Trace trace = timing::Materialize(*workload::MakeStream(cfg));
  const auto stats = ctrl.Run(trace);
  ASSERT_TRUE(ctrl.checker().violations().empty())
      << ctrl.checker().violations().front();
  EXPECT_EQ(stats.reads + stats.writes, 10000u);
  EXPECT_GT(stats.refreshes, 0u);
}

TEST(MultiRank, MoreRanksRaiseRandomThroughput) {
  StreamConfig cfg;
  cfg.kind = StreamKind::kRandom;
  cfg.num_requests = 10000;
  cfg.read_fraction = 0.7;
  cfg.intensity = 0.25;  // saturating
  cfg.seed = 59;
  auto run = [&](unsigned ranks) {
    TimingParams params;
    params.ranks = ranks;
    StreamConfig wcfg = cfg;
    wcfg.ranks = ranks;
    Controller ctrl(params, NoOverhead(params));
    Trace trace = timing::Materialize(*workload::MakeStream(wcfg));
    const auto stats = ctrl.Run(trace);
    EXPECT_TRUE(ctrl.checker().violations().empty());
    return stats.cycles;
  };
  EXPECT_LT(run(2), run(1));
}

TEST(MultiRank, GeneratorSpreadsRanks) {
  StreamConfig cfg;
  cfg.read_fraction = 0.67;
  cfg.intensity = 0.05;
  cfg.ranks = 4;
  cfg.kind = StreamKind::kRandom;
  cfg.num_requests = 4000;
  std::vector<unsigned> counts(4, 0);
  for (const auto& req : timing::Materialize(*workload::MakeStream(cfg))) {
    ASSERT_LT(req.rank, 4u);
    ++counts[req.rank];
  }
  for (unsigned r = 0; r < 4; ++r) EXPECT_GT(counts[r], 700u);
}

TEST(MultiRank, CheckerFlagsTcsViolation) {
  TimingParams t;
  t.ranks = 2;
  ProtocolChecker checker(t);
  checker.OnCommand(Cmd::kAct, 0, 0, 1, 0);
  checker.OnCommand(Cmd::kAct, 1, 0, 1, t.tRRD_S);
  checker.OnCommand(Cmd::kRead, 0, 0, 1, 100, 122, 126);
  // Next burst from the other rank starts exactly at the previous end:
  // misses the tCS gap.
  checker.OnCommand(Cmd::kRead, 1, 0, 1, 104, 126, 130);
  bool saw = false;
  for (const auto& v : checker.violations())
    saw |= v.find("tCS") != std::string::npos;
  EXPECT_TRUE(saw);
}

// ------------------------------------------------------------- Page policy

TEST(PagePolicy, ClosedPageHelpsRowReuseFreeStreams) {
  // Random pattern over many rows (negligible reuse): closing rows early
  // hides tRP, so the closed-page controller should finish no later and
  // with lower average read latency.
  TimingParams t;
  StreamConfig cfg;
  cfg.read_fraction = 0.67;
  cfg.kind = StreamKind::kRandom;
  cfg.num_requests = 8000;
  cfg.rows = 64;
  cfg.intensity = 0.08;
  cfg.seed = 41;

  Controller open_ctrl(t, NoOverhead(t), 16, PagePolicy::kOpen);
  Trace ta = timing::Materialize(*workload::MakeStream(cfg));
  const auto open_stats = open_ctrl.Run(ta);

  Controller closed_ctrl(t, NoOverhead(t), 16, PagePolicy::kClosed);
  Trace tb = timing::Materialize(*workload::MakeStream(cfg));
  const auto closed_stats = closed_ctrl.Run(tb);

  EXPECT_TRUE(open_ctrl.checker().violations().empty());
  EXPECT_TRUE(closed_ctrl.checker().violations().empty());
  EXPECT_LT(closed_stats.avg_read_latency, open_stats.avg_read_latency);
}

TEST(PagePolicy, OpenPageWinsOnHotspots) {
  TimingParams t;
  StreamConfig cfg;
  cfg.read_fraction = 0.67;
  cfg.kind = StreamKind::kHotspot;
  cfg.num_requests = 8000;
  cfg.hot_rows = 2;
  cfg.hot_fraction = 0.95;
  cfg.intensity = 0.15;
  cfg.seed = 43;

  Controller open_ctrl(t, NoOverhead(t), 16, PagePolicy::kOpen);
  Trace ta = timing::Materialize(*workload::MakeStream(cfg));
  const auto open_stats = open_ctrl.Run(ta);

  Controller closed_ctrl(t, NoOverhead(t), 16, PagePolicy::kClosed);
  Trace tb = timing::Materialize(*workload::MakeStream(cfg));
  const auto closed_stats = closed_ctrl.Run(tb);

  EXPECT_TRUE(closed_ctrl.checker().violations().empty());
  EXPECT_LE(open_stats.avg_read_latency, closed_stats.avg_read_latency * 1.2);
  EXPECT_GE(open_stats.row_hits, closed_stats.row_hits);
}

TEST(PagePolicy, ClosedPageStaysProtocolCleanUnderAllSchemes) {
  TimingParams t;
  for (auto kind : {ecc::SchemeKind::kIecc, ecc::SchemeKind::kDuo,
                    ecc::SchemeKind::kPair4}) {
    dram::RankGeometry rg;
    dram::Rank rank(rg);
    auto scheme = ecc::MakeScheme(kind, rank);
    Controller ctrl(t, SchemeTiming::FromPerf(scheme->Perf(), t), 16,
                    PagePolicy::kClosed);
    StreamConfig cfg;
    cfg.num_requests = 6000;
    cfg.kind = StreamKind::kRandom;
    cfg.read_fraction = 0.5;
    cfg.intensity = 0.15;
    cfg.seed = 47;
    Trace trace = timing::Materialize(*workload::MakeStream(cfg));
    ctrl.Run(trace);
    EXPECT_TRUE(ctrl.checker().violations().empty())
        << ecc::ToString(kind) << ": " << ctrl.checker().violations().front();
  }
}

// ------------------------------------------------------- pinned controller
//
// Every request's (issue, complete) stamp, every SimStats field and the
// number of commands the checker saw, CRC32'd per configuration over a
// grid of presets x schedulers x page policies x ranks x refresh x scheme
// timings x demand shapes. One digest per (preset, scheduler) folds the
// per-configuration CRCs in grid order. The values were computed on the
// cycle-stepped controller; any change to scheduling decisions, command
// timing or the statistics changes them.

void AppendU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

void AppendDouble(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  AppendU64(out, bits);
}

// One configuration's record: every request's (issue, complete) stamp,
// every SimStats field and the number of commands the checker saw.
void AppendPinnedRecord(std::string& record, const Trace& trace,
                        const SimStats& s, const Controller& ctrl) {
  for (const auto& req : trace) {
    AppendU64(record, req.issue);
    AppendU64(record, req.complete);
  }
  for (std::uint64_t v :
       {s.cycles, s.reads, s.writes, s.row_hits, s.row_misses,
        s.row_conflicts, s.refreshes, s.rfm_commands,
        ctrl.checker().commands_checked()})
    AppendU64(record, v);
  AppendDouble(record, s.avg_read_latency);
  AppendDouble(record, s.p99_read_latency);
  AppendDouble(record, s.bus_utilization);
}

struct DemandShape {
  StreamKind kind;
  double intensity;
  double read_fraction;
};

// Idle gaps (sparse random, the tensor stream's compute gaps) and
// backlogs (dense random, batch phases, tensor bursts).
constexpr DemandShape kDemandShapes[] = {
    {StreamKind::kRandom, 0.02, 0.6},
    {StreamKind::kRandom, 0.25, 0.5},
    {StreamKind::kTensorStream, 0.25, 0.9},
    {StreamKind::kBatchInference, 0.3, 0.5},
};

std::string PinnedGroupDigest(GeometryPreset preset_kind,
                              SchedulerKind scheduler) {
  // No-ECC, IECC (write RMW), DUO (longer burst plus decode) and PAIR-4,
  // taken from the DDR4 rank so IECC carries its RMW on every preset.
  std::vector<ecc::PerfDescriptor> perfs;
  for (auto kind : {ecc::SchemeKind::kNoEcc, ecc::SchemeKind::kIecc,
                    ecc::SchemeKind::kDuo, ecc::SchemeKind::kPair4}) {
    dram::RankGeometry rg;
    dram::Rank rank(rg);
    perfs.push_back(ecc::MakeScheme(kind, rank)->Perf());
  }

  std::string group;
  for (auto policy : {PagePolicy::kOpen, PagePolicy::kClosed}) {
    for (unsigned ranks : {1u, 2u, 4u}) {
      for (bool refresh : {true, false}) {
        for (const auto& perf : perfs) {
          for (const auto& shape : kDemandShapes) {
            TimingParams t = MakePreset(preset_kind).timing;
            t.ranks = ranks;
            t.enable_refresh = refresh;
            t.rfm_threshold = 4;  // RFM drains with open banks, often
            Controller ctrl(t, SchemeTiming::FromPerf(perf, t), 16, policy,
                            scheduler);
            StreamConfig cfg;
            cfg.kind = shape.kind;
            cfg.num_requests = 1000;
            cfg.ranks = ranks;
            cfg.banks = t.banks;
            cfg.intensity = shape.intensity;
            cfg.read_fraction = shape.read_fraction;
            cfg.burst_len = 128;
            cfg.seed = 61;
            Trace trace = timing::Materialize(*workload::MakeStream(cfg));
            const SimStats s = ctrl.Run(trace);
            EXPECT_TRUE(ctrl.checker().violations().empty())
                << ctrl.checker().violations().front();
            std::string record;
            AppendPinnedRecord(record, trace, s, ctrl);
            AppendU64(group, util::Crc32(record));
          }
        }
      }
    }
  }
  return util::Crc32Hex(group);
}

TEST(Controller, StampsMatchPinnedDigests) {
  struct Pin {
    GeometryPreset preset;
    SchedulerKind scheduler;
    const char* digest;
  };
  const Pin pins[] = {
      {GeometryPreset::kDdr4_3200, SchedulerKind::kFrFcfs, "375af7b8"},
      {GeometryPreset::kDdr4_3200, SchedulerKind::kFcfs, "34cd21aa"},
      {GeometryPreset::kDdr4_3200, SchedulerKind::kPrac, "bf3dd1ef"},
      {GeometryPreset::kDdr5_4800, SchedulerKind::kFrFcfs, "5cda8235"},
      {GeometryPreset::kDdr5_4800, SchedulerKind::kFcfs, "7b994ddd"},
      {GeometryPreset::kDdr5_4800, SchedulerKind::kPrac, "8d8c3743"},
      {GeometryPreset::kHbm3, SchedulerKind::kFrFcfs, "57520dcb"},
      {GeometryPreset::kHbm3, SchedulerKind::kFcfs, "7a38226a"},
      {GeometryPreset::kHbm3, SchedulerKind::kPrac, "9cc229e6"},
  };
  for (const auto& pin : pins)
    EXPECT_EQ(PinnedGroupDigest(pin.preset, pin.scheduler), pin.digest)
        << ToString(pin.preset) << " " << ToString(pin.scheduler);
}

// Reorder windows other than 1 and 16, over demand that leaves the window
// partly empty and demand that keeps it full (random and write-heavy batch
// inference at intensity 0.9), so scheduling that depends on how full the
// window is cannot go unpinned. One digest per (preset, scheduler, window)
// folds the per-configuration records' CRCs in grid order.
std::string WindowSweepDigest(GeometryPreset preset_kind,
                              SchedulerKind scheduler, unsigned window) {
  constexpr DemandShape kShapes[] = {
      {StreamKind::kRandom, 0.02, 0.6},
      {StreamKind::kTensorStream, 0.25, 0.9},
      {StreamKind::kBatchInference, 0.3, 0.5},
      {StreamKind::kRandom, 0.9, 0.5},
      {StreamKind::kBatchInference, 0.9, 0.1},
  };
  // IECC (write RMW) and PAIR-4 (decode latency, no RMW).
  std::vector<ecc::PerfDescriptor> perfs;
  for (auto kind : {ecc::SchemeKind::kIecc, ecc::SchemeKind::kPair4}) {
    dram::RankGeometry rg;
    dram::Rank rank(rg);
    perfs.push_back(ecc::MakeScheme(kind, rank)->Perf());
  }
  std::string group;
  for (auto policy : {PagePolicy::kOpen, PagePolicy::kClosed}) {
    for (unsigned ranks : {1u, 2u}) {
      for (bool refresh : {true, false}) {
        for (const auto& perf : perfs) {
          for (const auto& shape : kShapes) {
            TimingParams t = MakePreset(preset_kind).timing;
            t.ranks = ranks;
            t.enable_refresh = refresh;
            t.rfm_threshold = 4;
            Controller ctrl(t, SchemeTiming::FromPerf(perf, t), window,
                            policy, scheduler);
            StreamConfig cfg;
            cfg.kind = shape.kind;
            cfg.num_requests = 1000;
            cfg.ranks = ranks;
            cfg.banks = t.banks;
            cfg.intensity = shape.intensity;
            cfg.read_fraction = shape.read_fraction;
            cfg.burst_len = 128;
            cfg.seed = 71;
            Trace trace = timing::Materialize(*workload::MakeStream(cfg));
            const SimStats s = ctrl.Run(trace);
            EXPECT_TRUE(ctrl.checker().violations().empty())
                << ctrl.checker().violations().front();
            std::string record;
            AppendPinnedRecord(record, trace, s, ctrl);
            AppendU64(group, util::Crc32(record));
          }
        }
      }
    }
  }
  return util::Crc32Hex(group);
}

TEST(Controller, WindowSweepMatchesPinnedDigests) {
  struct Pin {
    GeometryPreset preset;
    SchedulerKind scheduler;
    unsigned window;
    const char* digest;
  };
  const Pin pins[] = {
      {GeometryPreset::kDdr4_3200, SchedulerKind::kFrFcfs, 2, "61bcca72"},
      {GeometryPreset::kDdr4_3200, SchedulerKind::kFrFcfs, 5, "93d21c0f"},
      {GeometryPreset::kDdr4_3200, SchedulerKind::kFrFcfs, 32, "461834f0"},
      {GeometryPreset::kDdr4_3200, SchedulerKind::kPrac, 2, "ed1cba28"},
      {GeometryPreset::kDdr4_3200, SchedulerKind::kPrac, 5, "d538ea1e"},
      {GeometryPreset::kDdr4_3200, SchedulerKind::kPrac, 32, "47ceaf88"},
      {GeometryPreset::kDdr5_4800, SchedulerKind::kFrFcfs, 2, "69ca7349"},
      {GeometryPreset::kDdr5_4800, SchedulerKind::kFrFcfs, 5, "94ac8a85"},
      {GeometryPreset::kDdr5_4800, SchedulerKind::kFrFcfs, 32, "18a32832"},
      {GeometryPreset::kDdr5_4800, SchedulerKind::kPrac, 2, "6ff6dee0"},
      {GeometryPreset::kDdr5_4800, SchedulerKind::kPrac, 5, "17696481"},
      {GeometryPreset::kDdr5_4800, SchedulerKind::kPrac, 32, "593eb719"},
      {GeometryPreset::kHbm3, SchedulerKind::kFrFcfs, 2, "d83cfb55"},
      {GeometryPreset::kHbm3, SchedulerKind::kFrFcfs, 5, "b3b294d1"},
      {GeometryPreset::kHbm3, SchedulerKind::kFrFcfs, 32, "f49d661b"},
      {GeometryPreset::kHbm3, SchedulerKind::kPrac, 2, "ab9b4280"},
      {GeometryPreset::kHbm3, SchedulerKind::kPrac, 5, "914233bd"},
      {GeometryPreset::kHbm3, SchedulerKind::kPrac, 32, "a9a5c976"},
  };
  for (const auto& pin : pins)
    EXPECT_EQ(WindowSweepDigest(pin.preset, pin.scheduler, pin.window),
              pin.digest)
        << ToString(pin.preset) << " " << ToString(pin.scheduler)
        << " window " << pin.window;
}

// FCFS is FR-FCFS with a reorder window of one, and a window of zero is
// clamped to one: FR-FCFS at windows 0 and 1 and FCFS at windows 4 and 16
// produce the same per-request stamps, SimStats and command count.
TEST(Controller, FcfsIsFrFcfsAtWindowOne) {
  struct Policy {
    SchedulerKind scheduler;
    unsigned window;
  };
  const Policy policies[] = {{SchedulerKind::kFrFcfs, 1},
                             {SchedulerKind::kFrFcfs, 0},
                             {SchedulerKind::kFcfs, 4},
                             {SchedulerKind::kFcfs, 16}};
  dram::RankGeometry rg;
  dram::Rank rank(rg);
  const auto perf = ecc::MakeScheme(ecc::SchemeKind::kIecc, rank)->Perf();
  for (auto preset : {GeometryPreset::kDdr4_3200, GeometryPreset::kDdr5_4800,
                      GeometryPreset::kHbm3}) {
    for (auto page : {PagePolicy::kOpen, PagePolicy::kClosed}) {
      for (unsigned ranks : {1u, 2u}) {
        std::vector<std::string> records;
        for (const auto& policy : policies) {
          TimingParams t = MakePreset(preset).timing;
          t.ranks = ranks;
          std::string record;
          for (const auto& shape : kDemandShapes) {
            StreamConfig cfg;
            cfg.kind = shape.kind;
            cfg.num_requests = 400;
            cfg.ranks = ranks;
            cfg.banks = t.banks;
            cfg.intensity = shape.intensity;
            cfg.read_fraction = shape.read_fraction;
            cfg.burst_len = 128;
            cfg.seed = 67;
            Trace trace = timing::Materialize(*workload::MakeStream(cfg));
            Controller run(t, SchemeTiming::FromPerf(perf, t), policy.window,
                           page, policy.scheduler);
            const SimStats s = run.Run(trace);
            EXPECT_TRUE(run.checker().violations().empty())
                << run.checker().violations().front();
            AppendPinnedRecord(record, trace, s, run);
          }
          records.push_back(record);
        }
        for (std::size_t i = 1; i < records.size(); ++i)
          EXPECT_TRUE(records[i] == records[0])
              << ToString(preset) << " page "
              << (page == PagePolicy::kOpen ? "open" : "closed") << " x"
              << ranks << ": " << ToString(policies[i].scheduler)
              << " window " << policies[i].window;
      }
    }
  }
}

// ----------------------------------------------------------------- Refresh

TEST(Refresh, PeriodicRefIssuedAtExpectedRate) {
  TimingParams t;
  Controller ctrl(t, NoOverhead(t));
  StreamConfig cfg;
  cfg.read_fraction = 0.67;
  cfg.num_requests = 20000;
  cfg.kind = StreamKind::kRandom;
  cfg.intensity = 0.05;
  cfg.seed = 23;
  Trace trace = timing::Materialize(*workload::MakeStream(cfg));
  const auto stats = ctrl.Run(trace);
  ASSERT_TRUE(ctrl.checker().violations().empty())
      << ctrl.checker().violations().front();
  // Roughly one REF per tREFI of simulated time.
  const double expected =
      static_cast<double>(stats.cycles) / static_cast<double>(t.tREFI);
  EXPECT_GT(stats.refreshes, 0u);
  EXPECT_NEAR(static_cast<double>(stats.refreshes), expected,
              expected * 0.25 + 2.0);
}

TEST(Refresh, DisablingRefreshImprovesThroughput) {
  StreamConfig cfg;
  cfg.num_requests = 20000;
  cfg.kind = StreamKind::kStream;
  cfg.read_fraction = 1.0;
  cfg.intensity = 0.3;
  cfg.seed = 29;

  TimingParams with_ref;
  Controller a(with_ref, NoOverhead(with_ref));
  Trace ta = timing::Materialize(*workload::MakeStream(cfg));
  const auto sa = a.Run(ta);

  TimingParams no_ref;
  no_ref.enable_refresh = false;
  Controller b(no_ref, NoOverhead(no_ref));
  Trace tb = timing::Materialize(*workload::MakeStream(cfg));
  const auto sb = b.Run(tb);

  EXPECT_EQ(sb.refreshes, 0u);
  EXPECT_GT(sa.refreshes, 0u);
  EXPECT_GT(sa.cycles, sb.cycles);
}

TEST(Refresh, ShortTraceSeesNoRefresh) {
  TimingParams t;
  Controller ctrl(t, NoOverhead(t));
  Trace trace = {{0, Op::kRead, 0, {0, 5, 3}}};
  const auto stats = ctrl.Run(trace);
  EXPECT_EQ(stats.refreshes, 0u);  // completes long before the first tREFI
}

TEST(Refresh, ValidateRejectsBadRefreshWindow) {
  TimingParams t;
  t.tRFC = t.tREFI;
  EXPECT_THROW(t.Validate(), std::invalid_argument);
  t.enable_refresh = false;
  EXPECT_NO_THROW(t.Validate());
}

// On HBM3 timings, two ranks refreshing every 464 cycles for 428 leave no
// room for an ACT and its CAS, and Controller::Run would never return. The
// configuration is rejected when the controller is built.
TEST(Refresh, RejectsRefreshThatLeavesNoRoomForACas) {
  TimingParams t = MakePreset(GeometryPreset::kHbm3).timing;
  t.ranks = 2;
  t.tREFI = 464;
  t.tRFC = 428;
  EXPECT_THROW(t.Validate(), util::ContractViolation);
  EXPECT_THROW(Controller(t, NoOverhead(t)), util::ContractViolation);
  t.enable_refresh = false;
  EXPECT_NO_THROW(t.Validate());
}

// MaxRanks is the refresh-room rule Validate applies, as a bound a caller
// can report: the preset validates at MaxRanks ranks and not at one more.
TEST(Refresh, MaxRanksIsTheLargestRankCountValidateAccepts) {
  for (auto preset : {GeometryPreset::kDdr4_3200, GeometryPreset::kDdr5_4800,
                      GeometryPreset::kHbm3}) {
    TimingParams t = MakePreset(preset).timing;
    t.ranks = t.MaxRanks();
    ASSERT_GE(t.ranks, 2u) << ToString(preset);
    EXPECT_NO_THROW(t.Validate()) << ToString(preset);
    ++t.ranks;
    EXPECT_THROW(t.Validate(), util::ContractViolation) << ToString(preset);
  }
  TimingParams t;
  EXPECT_EQ(t.MaxRanks(), 174u);  // pairsim perf's --ranks bound
  t.tRFC = t.tREFI;
  EXPECT_EQ(t.MaxRanks(), 0u);
}

TEST(ProtocolChecker, FlagsRefWithOpenBank) {
  TimingParams t;
  ProtocolChecker checker(t);
  checker.OnCommand(Cmd::kAct, 0, 3, 1, 0);
  checker.OnCommand(Cmd::kRef, 0, 0, 0, 100);
  bool saw = false;
  for (const auto& v : checker.violations())
    saw |= v.find("REF with an open bank") != std::string::npos;
  EXPECT_TRUE(saw);
}

TEST(ProtocolChecker, FlagsActDuringRefresh) {
  TimingParams t;
  ProtocolChecker checker(t);
  checker.OnCommand(Cmd::kRef, 0, 0, 0, 0);
  checker.OnCommand(Cmd::kAct, 0, 0, 1, t.tRFC - 1);
  bool saw = false;
  for (const auto& v : checker.violations())
    saw |= v.find("tRFC") != std::string::npos;
  EXPECT_TRUE(saw);
}

TEST(ProtocolChecker, CleanSequencePassesAllRules) {
  TimingParams t;
  ProtocolChecker checker(t);
  checker.OnCommand(Cmd::kAct, 0, 0, 1, 0);
  checker.OnCommand(Cmd::kRead, 0, 0, 1, t.tRCD, t.tRCD + t.tCL,
                    t.tRCD + t.tCL + t.tBL);
  checker.OnCommand(Cmd::kPre, 0, 0, 1, t.tRAS + 10);
  checker.OnCommand(Cmd::kAct, 0, 0, 2, t.tRAS + 10 + t.tRP);
  EXPECT_TRUE(checker.violations().empty());
  EXPECT_EQ(checker.commands_checked(), 4u);
}

}  // namespace
}  // namespace pair_ecc::timing
