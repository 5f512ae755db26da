// Tests for the event-driven full-system simulator (src/sim): event-queue
// total order, scrub scheduling, the repair policy's escalation ladder and
// exhaustion path, per-trial determinism, campaign thread invariance
// (byte-identical reports), golden campaign counters, protocol
// cleanliness, and trace-driven runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/pair_scheme.hpp"
#include "dram/rank.hpp"
#include "reliability/telemetry.hpp"
#include "sim/campaign.hpp"
#include "sim/memory_system.hpp"
#include "timing/request_source.hpp"
#include "util/contract.hpp"
#include "workload/streams.hpp"
#include "workload/trace_io.hpp"

namespace pair_ecc::sim {
namespace {

using pair_ecc::util::BitVec;
using pair_ecc::util::Xoshiro256;

// ---------------------------------------------------------------- EventQueue

TEST(EventQueue, OrdersByCycleThenKindThenInsertion) {
  EventQueue q;
  q.Push(10, EventKind::kDemand, 1);
  q.Push(5, EventKind::kRepair);
  q.Push(10, EventKind::kFaultArrival);
  q.Push(5, EventKind::kScrubStep);
  q.Push(10, EventKind::kDemand, 2);
  ASSERT_EQ(q.Size(), 5u);

  // Cycle 5: scrub (kind 1) before repair (kind 2) despite push order.
  EXPECT_EQ(q.Pop().kind, EventKind::kScrubStep);
  EXPECT_EQ(q.Pop().kind, EventKind::kRepair);
  // Cycle 10: fault first, then the two demand events in insertion order.
  EXPECT_EQ(q.Pop().kind, EventKind::kFaultArrival);
  EXPECT_EQ(q.Pop().payload, 1u);
  EXPECT_EQ(q.Pop().payload, 2u);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueue, PopOnEmptyIsAContractViolation) {
  EventQueue q;
  EXPECT_THROW(q.Pop(), util::ContractViolation);
  EXPECT_THROW(q.Top(), util::ContractViolation);
}

TEST(EventQueue, InterleavedPushPopKeepsHeapOrder) {
  EventQueue q;
  for (std::uint64_t c : {9u, 3u, 7u, 1u, 5u}) q.Push(c, EventKind::kDemand);
  EXPECT_EQ(q.Pop().cycle, 1u);
  q.Push(2, EventKind::kDemand);
  q.Push(8, EventKind::kDemand);
  std::uint64_t last = 0;
  while (!q.Empty()) {
    const Event e = q.Pop();
    EXPECT_GE(e.cycle, last);
    last = e.cycle;
  }
}

// ------------------------------------------------------------ ScrubScheduler

TEST(ScrubScheduler, RoundRobinsAndCountsSweeps) {
  ScrubConfig cfg;
  cfg.interval_cycles = 100;
  cfg.rows_per_step = 2;
  ScrubScheduler scrub(cfg, 3);
  ASSERT_TRUE(scrub.PatrolEnabled());
  EXPECT_EQ(scrub.Interval(), 100u);

  std::vector<unsigned> rows;
  scrub.NextStep(rows);
  EXPECT_EQ(rows, (std::vector<unsigned>{0, 1}));
  scrub.NextStep(rows);
  EXPECT_EQ(rows, (std::vector<unsigned>{2, 0}));
  scrub.NextStep(rows);
  EXPECT_EQ(rows, (std::vector<unsigned>{1, 2}));
  EXPECT_EQ(scrub.steps(), 3u);
  EXPECT_EQ(scrub.sweeps(), 2u);  // the cursor wrapped twice
}

TEST(ScrubScheduler, DisabledWhenIntervalZero) {
  ScrubScheduler scrub(ScrubConfig{}, 4);
  EXPECT_FALSE(scrub.PatrolEnabled());
  std::vector<unsigned> rows{99};
  scrub.NextStep(rows);
  EXPECT_TRUE(rows.empty());
}

TEST(ScrubScheduler, StepWiderThanWorkingSetClampsToOneSweep) {
  ScrubConfig cfg;
  cfg.interval_cycles = 10;
  cfg.rows_per_step = 100;
  ScrubScheduler scrub(cfg, 3);
  std::vector<unsigned> rows;
  scrub.NextStep(rows);
  EXPECT_EQ(rows.size(), 3u);
  EXPECT_EQ(scrub.sweeps(), 1u);
}

// -------------------------------------------------------------- RepairPolicy

TEST(RepairPolicy, FiresOnceAtThresholdAndStaysPending) {
  RepairConfig cfg;
  cfg.due_threshold = 3;
  RepairPolicy policy(cfg, 2);
  ASSERT_TRUE(policy.Enabled());
  EXPECT_FALSE(policy.OnDue(0));
  EXPECT_FALSE(policy.OnDue(0));
  EXPECT_TRUE(policy.OnDue(0));   // third DUE crosses
  EXPECT_FALSE(policy.OnDue(0));  // pending: no double-schedule
  EXPECT_FALSE(policy.OnDue(1));  // other rows keep their own counters
}

TEST(RepairPolicy, DisabledPolicyNeverFires) {
  RepairConfig cfg;
  cfg.due_threshold = 0;
  RepairPolicy policy(cfg, 1);
  EXPECT_FALSE(policy.Enabled());
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(policy.OnDue(0));
}

TEST(RepairPolicy, NonPairSchemeFallsBackToRowScrub) {
  dram::RankGeometry rg;
  dram::Rank rank(rg);
  auto scheme = ecc::MakeScheme(ecc::SchemeKind::kSecDed, rank);
  RepairConfig cfg;
  cfg.due_threshold = 1;
  RepairPolicy policy(cfg, 1);
  EXPECT_TRUE(policy.OnDue(0));
  policy.Execute(0, *scheme, 0, 1);
  EXPECT_EQ(policy.counters().repairs_attempted, 1u);
  EXPECT_EQ(policy.counters().generic_row_scrubs, 1u);
  EXPECT_EQ(policy.counters().rows_spared, 0u);
  EXPECT_EQ(scheme->counters().scrub_rows, 1u);
  // Execute re-arms the slot: the threshold can trip again.
  EXPECT_TRUE(policy.OnDue(0));
}

/// Sticks `bit` of (device, bank 0, row 1) at the inverse of what it reads.
void StickInverse(dram::Rank& rank, unsigned device, unsigned bit) {
  dram::Device& dev = rank.device(device);
  dev.SetStuck(0, 1, bit, !dev.ReadBits(0, 1, bit, 1).Get(0));
}

TEST(RepairPolicy, PairEscalationMarksSymbols) {
  dram::RankGeometry rg;
  dram::Rank rank(rg);
  core::PairScheme scheme(rank, core::PairConfig::Pair4());
  Xoshiro256 rng(11);
  scheme.WriteLine({0, 1, 0}, BitVec::Random(rg.LineBits(), rng));
  // One stuck cell: march diagnosis marks exactly one symbol, no sparing.
  StickInverse(rank, 2, 100);
  RepairConfig cfg;
  cfg.due_threshold = 1;
  RepairPolicy policy(cfg, 1);
  policy.Execute(0, scheme, 0, 1);
  EXPECT_EQ(policy.counters().symbols_marked, 1u);
  EXPECT_EQ(policy.counters().rows_spared, 0u);
  EXPECT_EQ(policy.counters().generic_row_scrubs, 0u);
}

TEST(RepairPolicy, SparingExhaustionIsCounted) {
  dram::RankGeometry rg;
  dram::Rank rank(rg);
  core::PairScheme scheme(rank, core::PairConfig::Pair4());
  // Drain every data device's bank-0 spares up front.
  for (unsigned d = 0; d < rank.DataDevices(); ++d)
    for (unsigned i = 0; i < dram::Device::kSpareRowsPerBank; ++i)
      ASSERT_TRUE(rank.device(d).PostPackageRepair(0, 100 + i));
  Xoshiro256 rng(12);
  scheme.WriteLine({0, 1, 0}, BitVec::Random(rg.LineBits(), rng));
  // Whole-pin death: beyond the erasure budget, sparing is the only out.
  for (unsigned i = 0; i < rg.device.PinLineBits(); ++i) {
    const unsigned bit = dram::PinLineBit(rg.device, 3, i);
    StickInverse(rank, 4, bit);
  }
  RepairConfig cfg;
  cfg.due_threshold = 1;
  RepairPolicy policy(cfg, 1);
  policy.Execute(0, scheme, 0, 1);
  EXPECT_EQ(policy.counters().repairs_attempted, 1u);
  EXPECT_EQ(policy.counters().sparing_exhausted, 1u);
  EXPECT_EQ(policy.counters().rows_spared, 0u);
}

TEST(RepairPolicy, WeakColumnIsMarkedAndServedWithoutSparing) {
  dram::RankGeometry rg;
  dram::Rank rank(rg);
  core::PairScheme scheme(rank, core::PairConfig::Pair4());
  Xoshiro256 rng(30);
  std::vector<BitVec> lines;
  for (unsigned col = 0; col < rg.device.ColumnsPerRow(); ++col) {
    lines.push_back(BitVec::Random(rg.LineBits(), rng));
    scheme.WriteLine({0, 1, col}, lines.back());
  }
  // Four stuck symbols in codeword (device 2, pin 4, w 0): beyond t = 2,
  // within the r = 4 erasure budget.
  for (unsigned col : {1u, 11u, 21u, 31u})
    StickInverse(rank, 2, dram::PinLineBit(rg.device, 4, col * 8 + 2));

  RepairConfig cfg;
  cfg.due_threshold = 2;
  RepairPolicy policy(cfg, 1);
  ASSERT_EQ(scheme.ReadLine({0, 1, 1}).claim, ecc::Claim::kDetected);
  EXPECT_FALSE(policy.OnDue(0));
  ASSERT_EQ(scheme.ReadLine({0, 1, 1}).claim, ecc::Claim::kDetected);
  ASSERT_TRUE(policy.OnDue(0));
  policy.Execute(0, scheme, 0, 1);
  EXPECT_EQ(policy.counters().symbols_marked, 4u);
  EXPECT_EQ(policy.counters().rows_spared, 0u);
  EXPECT_EQ(policy.counters().sparing_exhausted, 0u);

  for (unsigned col = 0; col < rg.device.ColumnsPerRow(); ++col) {
    const ecc::ReadResult r = scheme.ReadLine({0, 1, col});
    EXPECT_NE(r.claim, ecc::Claim::kDetected) << col;
    EXPECT_EQ(r.data, lines[col]) << col;
  }
}

TEST(RepairPolicy, DeadPinRowIsSparedAndServesNewData) {
  dram::RankGeometry rg;
  dram::Rank rank(rg);
  core::PairScheme scheme(rank, core::PairConfig::Pair4());
  Xoshiro256 rng(31);
  const dram::Address addr{0, 1, 5};
  scheme.WriteLine(addr, BitVec::Random(rg.LineBits(), rng));
  // Whole-pin death: beyond the erasure budget, so the row is spared.
  for (unsigned i = 0; i < rg.device.PinLineBits(); ++i)
    StickInverse(rank, 6, dram::PinLineBit(rg.device, 1, i));
  ASSERT_EQ(scheme.ReadLine(addr).claim, ecc::Claim::kDetected);

  RepairConfig cfg;
  cfg.due_threshold = 1;
  RepairPolicy policy(cfg, 1);
  ASSERT_TRUE(policy.OnDue(0));
  policy.Execute(0, scheme, 0, 1);
  EXPECT_EQ(policy.counters().rows_spared, 1u);
  EXPECT_EQ(policy.counters().sparing_exhausted, 0u);
  // Every line of the row has a codeword on the dead pin, so none decodes.
  EXPECT_EQ(policy.counters().lines_lost, rg.device.ColumnsPerRow());

  // The address is healthy for new data.
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme.WriteLine(addr, line);
  const ecc::ReadResult r = scheme.ReadLine(addr);
  EXPECT_EQ(r.claim, ecc::Claim::kClean);
  EXPECT_EQ(r.data, line);
}

// -------------------------------------------------------------- MemorySystem

SystemConfig TestConfig() {
  SystemConfig cfg;
  cfg.scheme = ecc::SchemeKind::kPair4;
  // Clustered faults at a deliberately brutal rate so the 20-trial golden
  // campaign exercises DUEs, threshold crossings, and repairs.
  cfg.mix = faults::FaultMix::Clustered();
  cfg.faults_per_mcycle = 400.0;
  cfg.scrub.interval_cycles = 3000;
  cfg.repair.due_threshold = 2;
  cfg.repair.repair_latency_cycles = 500;
  cfg.seed = 17;
  cfg.threads = 1;
  return cfg;
}

timing::Trace TestDemand(unsigned requests = 60) {
  workload::StreamConfig wl;
  wl.read_fraction = 0.67;
  wl.kind = workload::StreamKind::kHotspot;
  wl.num_requests = requests;
  wl.intensity = 0.05;
  wl.seed = 5;
  return timing::Materialize(*workload::MakeStream(wl));
}

TEST(MemorySystem, TrialIsAPureFunctionOfSeed) {
  SystemConfig cfg = TestConfig();
  const auto demand = TestDemand();
  cfg.horizon_cycles =
      ScanDemand(cfg, VectorSourceFactory(demand)).horizon_cycles;
  const auto ws = reliability::MakeWorkingSet(cfg.geometry, cfg.working_rows,
                                              cfg.lines_per_row, 37, 5);
  SystemStats a, b;
  reliability::TrialTelemetry ta, tb;
  {
    Xoshiro256 rng(7);
    timing::VectorSource source(demand);
    MemorySystem system(cfg, ws, source, rng);
    system.Run(a, ta);
  }
  {
    Xoshiro256 rng(7);
    timing::VectorSource source(demand);
    MemorySystem system(cfg, ws, source, rng);
    system.Run(b, tb);
  }
  EXPECT_EQ(a, b);
  EXPECT_EQ(ta, tb);
  EXPECT_EQ(a.trials, 1u);
  EXPECT_EQ(a.protocol_violations, 0u);
}

TEST(MemorySystem, HorizonDerivedFromTraceOrExplicit) {
  const auto demand = TestDemand();
  const auto ws = reliability::MakeWorkingSet(dram::RankGeometry{}, 2, 4, 37,
                                              5);
  SystemConfig cfg = TestConfig();
  const RequestSourceFactory factory = VectorSourceFactory(demand);
  EXPECT_GT(ScanDemand(cfg, factory).horizon_cycles, demand.back().arrival);
  cfg.horizon_cycles = 123456;
  EXPECT_EQ(ScanDemand(cfg, factory).horizon_cycles, 123456u);
  {
    Xoshiro256 rng(1);
    timing::VectorSource source(demand);
    MemorySystem system(cfg, ws, source, rng);
    EXPECT_EQ(system.horizon(), 123456u);
  }
}

TEST(MemorySystem, ExplicitHorizonTruncatesDemand) {
  const auto demand = TestDemand();
  SystemConfig cfg = TestConfig();
  cfg.faults_per_mcycle = 0.0;  // isolate the demand stream
  cfg.horizon_cycles = demand[demand.size() / 2].arrival;
  const std::size_t in_window = static_cast<std::size_t>(std::count_if(
      demand.begin(), demand.end(), [&](const timing::Request& r) {
        return r.arrival <= cfg.horizon_cycles;
      }));
  ASSERT_LT(in_window, demand.size());
  const SystemStats s = RunSystemCampaign(cfg, demand, 3);
  EXPECT_EQ(s.demand_reads + s.demand_writes, 3 * in_window);
}

TEST(SystemConfig, ValidateRejectsBadShapes) {
  SystemConfig cfg = TestConfig();
  cfg.faults_per_mcycle = -1.0;
  EXPECT_THROW(cfg.Validate(), util::ContractViolation);
  cfg = TestConfig();
  cfg.working_rows = 0;
  EXPECT_THROW(cfg.Validate(), util::ContractViolation);
  cfg = TestConfig();
  cfg.scrub.rows_per_step = 0;
  EXPECT_THROW(cfg.Validate(), util::ContractViolation);
  cfg = TestConfig();
  cfg.timing.banks = 8;  // geometry has 16 banks the timing model lacks
  EXPECT_THROW(cfg.Validate(), util::ContractViolation);
}

TEST(SystemCampaign, RejectsMalformedDemand) {
  SystemConfig cfg = TestConfig();
  timing::Trace bad_bank = TestDemand(10);
  bad_bank[4].addr.bank = cfg.timing.banks;  // outside the timing model
  timing::Trace unsorted = TestDemand(10);
  std::swap(unsorted[2], unsorted[7]);  // arrival order broken
  const std::string path =
      ::testing::TempDir() + "/pair_sim_rejects_demand.json";
  for (const timing::Trace* demand : {&bad_bank, &unsorted}) {
    EXPECT_THROW(RunSystemCampaign(cfg, *demand, 1), util::ContractViolation);
    EXPECT_THROW(
        RunSystemCampaignStreaming(cfg, VectorSourceFactory(*demand), 1),
        util::ContractViolation);
    // The checkpointed campaign runner scans its demand too.
    CampaignSpec spec;
    spec.mode = CampaignMode::kSystem;
    spec.system = cfg;
    spec.demand = VectorSourceFactory(*demand);
    spec.trials = 1;
    spec.checkpoint_path = path;
    spec.fingerprint = telemetry::JsonValue::MakeObject();
    std::remove(path.c_str());
    EXPECT_THROW(RunCampaign(spec), util::ContractViolation);
    EXPECT_FALSE(std::ifstream(path).good()) << "no checkpoint for bad demand";
  }
}

// --------------------------------------------------- campaign determinism

TEST(SystemCampaign, BitwiseIdenticalForAnyThreadCount) {
  const auto demand = TestDemand();
  const auto run = [&demand](unsigned threads) {
    SystemConfig cfg = TestConfig();
    cfg.threads = threads;
    reliability::ScenarioTelemetry tel;
    const SystemStats stats = RunSystemCampaign(cfg, demand, 20, &tel);
    return BuildSystemReport(cfg, 20, demand.size(), stats, tel)
        .ToJson(/*include_timing=*/false)
        .Dump();
  };
  const std::string once = run(1);
  EXPECT_EQ(once, run(1));  // same-thread re-run: byte-identical
  EXPECT_EQ(once, run(2));
  EXPECT_EQ(once, run(8));
}

TEST(SystemCampaign, StatsMergeMatchesThreadedRun) {
  const auto demand = TestDemand();
  SystemConfig cfg = TestConfig();
  const SystemStats serial = RunSystemCampaign(cfg, demand, 20);
  cfg.threads = 4;
  const SystemStats threaded = RunSystemCampaign(cfg, demand, 20);
  EXPECT_EQ(serial, threaded);
}

// ------------------------------------------------------------------- golden

TEST(SystemCampaign, GoldenCountersPinned) {
  // Pins the end-to-end behaviour of the coupled simulator for the default
  // test scenario. These values must never change silently: any diff means
  // the fault/scrub/repair/demand interleaving (or the codec underneath)
  // changed semantics.
  const auto demand = TestDemand();
  reliability::ScenarioTelemetry tel;
  const SystemStats s = RunSystemCampaign(TestConfig(), demand, 20, &tel);

  EXPECT_EQ(s.trials, 20u);
  EXPECT_EQ(s.protocol_violations, 0u);
  EXPECT_EQ(s.demand_reads + s.demand_writes, 20 * demand.size());
  EXPECT_EQ(s.no_error + s.corrected + s.due + s.sdc_miscorrected +
                s.sdc_undetected,
            s.demand_reads);
  EXPECT_EQ(s.read_latency.TotalCount(), s.demand_reads);
  // Scrub and march diagnosis decode lines too, so >= rather than ==.
  EXPECT_GE(tel.trial.codec.claim_detected, s.due);

  // GOLDEN: pinned from the first run of this scenario.
  EXPECT_EQ(s.demand_reads, 740u);
  EXPECT_EQ(s.faults_injected, 193u);
  EXPECT_EQ(s.scrub_steps, 140u);
  EXPECT_EQ(s.corrected, 52u);
  EXPECT_EQ(s.due, 22u);
  EXPECT_EQ(s.trials_with_sdc, 4u);
  EXPECT_EQ(s.repair.repairs_attempted, 5u);
  EXPECT_EQ(s.bus_reads, 1340u);
  EXPECT_EQ(s.bus_writes, 1112u);
}

// ------------------------------------------------------------- trace-driven

TEST(SystemCampaign, ReplaysTraceFile) {
  const auto demand =
      workload::ReadTraceFile(std::string(PAIR_TEST_DATA_DIR) +
                              "/tiny_trace.txt");
  const std::size_t reads = static_cast<std::size_t>(
      std::count_if(demand.begin(), demand.end(), [](const timing::Request& r) {
        return r.op == timing::Op::kRead;
      }));
  SystemConfig cfg = TestConfig();
  const SystemStats s = RunSystemCampaign(cfg, demand, 5);
  EXPECT_EQ(s.demand_reads, 5 * reads);
  EXPECT_EQ(s.demand_writes, 5 * (demand.size() - reads));
  EXPECT_EQ(s.protocol_violations, 0u);
}

}  // namespace
}  // namespace pair_ecc::sim
