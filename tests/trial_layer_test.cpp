// Exactness pins for the trial layer (reliability::TrialContext and its
// three users: RunScenarioTrial, RunLifetime and MemorySystem::Run).
//
// The digests below are CRC-32s of each run's serialized deterministic
// state. They were computed once, from a build that wrote every working
// line through the scheme at trial start, and are left as they are: any
// change to what the trial layer classifies, counts or draws shows up
// here. The eager reference below rebuilds a scenario trial from public
// APIs alone — write all lines, inject, read all, classify — and must
// agree with the library bit for bit; the one at the bottom runs every
// repeated operation the context skips.

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dram/rank.hpp"
#include "ecc/scheme.hpp"
#include "faults/injector.hpp"
#include "reliability/campaign.hpp"
#include "reliability/engine.hpp"
#include "reliability/lifetime.hpp"
#include "reliability/monte_carlo.hpp"
#include "reliability/telemetry.hpp"
#include "sim/campaign.hpp"
#include "sim/memory_system.hpp"
#include "sim/splitting.hpp"
#include "timing/presets.hpp"
#include "util/atomic_file.hpp"
#include "util/contract.hpp"
#include "workload/streams.hpp"

namespace pair_ecc {
namespace {

using reliability::ScenarioShardState;

/// A mix of one fault type only (pin bursts have their own weight field).
faults::FaultMix OnlyType(faults::FaultType type) {
  faults::FaultMix mix{0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5};
  switch (type) {
    case faults::FaultType::kSingleBit:  mix.single_bit = 1.0; break;
    case faults::FaultType::kSingleWord: mix.single_word = 1.0; break;
    case faults::FaultType::kSinglePin:  mix.single_pin = 1.0; break;
    case faults::FaultType::kSingleRow:  mix.single_row = 1.0; break;
    case faults::FaultType::kSingleBank: mix.single_bank = 1.0; break;
    case faults::FaultType::kPinBurst:   mix.pin_burst = 1.0; break;
  }
  return mix;
}

/// Every fault class with enough row and bank weight that multi-row
/// footprints land in a few trials.
faults::FaultMix WideMix() {
  return {0.40, 0.10, 0.15, 0.15, 0.10, 0.10, 0.7};
}

std::string Key(ecc::SchemeKind scheme, const std::string& what) {
  return ecc::ToString(scheme) + "/" + what;
}

/// Compares digest maps entry by entry; a mismatch prints the actual entry
/// in the source form of the table.
void ExpectDigests(const std::map<std::string, std::string>& actual,
                   const std::map<std::string, std::string>& expected) {
  EXPECT_EQ(actual.size(), expected.size());
  for (const auto& [key, digest] : actual) {
    const auto it = expected.find(key);
    EXPECT_TRUE(it != expected.end() && it->second == digest)
        << "{\"" << key << "\", \"" << digest << "\"},";
  }
}

// ------------------------------------------------------- system campaigns

/// DUO's sidecar layout needs a 64-bit column access (DDR4 x8 only).
bool Supported(ecc::SchemeKind scheme, const dram::RankGeometry& geometry) {
  dram::Rank rank(geometry);
  try {
    ecc::MakeScheme(scheme, rank);
  } catch (const util::ContractViolation&) {
    return false;
  }
  return true;
}

/// Fault rate, patrol scrub, demand write-back, repair and sparing all on;
/// 8 working rows so most trials leave some rows without a fault.
sim::SystemConfig DigestSystemConfig(ecc::SchemeKind scheme,
                                     timing::GeometryPreset preset) {
  const timing::SystemPreset p = timing::MakePreset(preset);
  sim::SystemConfig cfg;
  cfg.scheme = scheme;
  cfg.geometry = p.geometry;
  cfg.timing = p.timing;
  cfg.mix = WideMix();
  cfg.faults_per_mcycle = 250.0;
  cfg.scrub.interval_cycles = 2500;
  cfg.scrub.rows_per_step = 2;
  cfg.scrub.demand_writeback = true;
  cfg.repair.due_threshold = 1;
  cfg.repair.repair_latency_cycles = 400;
  cfg.repair.enable_sparing = true;
  cfg.working_rows = 8;
  cfg.lines_per_row = 4;
  cfg.seed = 23;
  cfg.threads = 1;
  return cfg;
}

sim::RequestSourceFactory DigestDemand() {
  workload::StreamConfig wl;
  wl.kind = workload::StreamKind::kHotspot;
  wl.num_requests = 400;
  wl.read_fraction = 0.6;
  wl.intensity = 0.05;
  wl.banks = 16;
  wl.seed = 3;
  return sim::VectorSourceFactory(timing::Materialize(*workload::MakeStream(wl)));
}

TEST(TrialLayer, SystemStateMatchesPinnedDigestForEverySchemeAndPreset) {
  const std::map<std::string, std::string> expected = {
      {"DUO/ddr4-3200", "6ae24cac"},
      {"DUO/ddr5-4800", "unsupported"},
      {"DUO/hbm3", "unsupported"},
      {"IECC+SECDED/ddr4-3200", "b1b24cce"},
      {"IECC+SECDED/ddr5-4800", "b2e9f12f"},
      {"IECC+SECDED/hbm3", "b951f638"},
      {"IECC/ddr4-3200", "0243e203"},
      {"IECC/ddr5-4800", "f117cf6f"},
      {"IECC/hbm3", "cb87477c"},
      {"No-ECC/ddr4-3200", "645391cf"},
      {"No-ECC/ddr5-4800", "7f9de0d1"},
      {"No-ECC/hbm3", "101d2b97"},
      {"PAIR-2/ddr4-3200", "8a700107"},
      {"PAIR-2/ddr5-4800", "788035b4"},
      {"PAIR-2/hbm3", "2ea381cc"},
      {"PAIR-4+SECDED/ddr4-3200", "67d8f379"},
      {"PAIR-4+SECDED/ddr5-4800", "d65f729d"},
      {"PAIR-4+SECDED/hbm3", "5d1c58e0"},
      {"PAIR-4/ddr4-3200", "dd41c6f8"},
      {"PAIR-4/ddr5-4800", "b2088b62"},
      {"PAIR-4/hbm3", "90250468"},
      {"SECDED/ddr4-3200", "384a6792"},
      {"SECDED/ddr5-4800", "7a738310"},
      {"SECDED/hbm3", "afc3e8ad"},
      {"XED/ddr4-3200", "d37450e4"},
      {"XED/ddr5-4800", "dd551fa9"},
      {"XED/hbm3", "6c816e5b"},
  };
  const sim::RequestSourceFactory demand = DigestDemand();
  std::map<std::string, std::string> actual;
  for (const ecc::SchemeKind scheme : ecc::AllSchemeKinds()) {
    for (const timing::GeometryPreset preset :
         {timing::GeometryPreset::kDdr4_3200, timing::GeometryPreset::kDdr5_4800,
          timing::GeometryPreset::kHbm3}) {
      const sim::SystemConfig cfg = DigestSystemConfig(scheme, preset);
      const std::string key = Key(scheme, timing::ToString(preset));
      if (!Supported(scheme, cfg.geometry)) {
        actual[key] = "unsupported";
        continue;
      }
      reliability::ScenarioTelemetry tel;
      sim::SystemShardState state;
      state.stats = sim::RunSystemCampaignStreaming(cfg, demand, 6, &tel);
      state.tel = tel.trial;
      actual[key] = util::Crc32Hex(sim::SystemStateToJson(state).Dump());
    }
  }
  ExpectDigests(actual, expected);
}

// Observer-driven (splitting) re-simulations take the functional pass only
// and reseed the trial stream mid-run.
TEST(TrialLayer, SplittingTallyMatchesPinnedDigestForEveryScheme) {
  const std::map<std::string, std::string> expected = {
      {"DUO/split", "a75dce8a"},
      {"IECC+SECDED/split", "a75dce8a"},
      {"IECC/split", "a75dce8a"},
      {"No-ECC/split", "aab8c633"},
      {"PAIR-2/split", "d83ae083"},
      {"PAIR-4+SECDED/split", "d83ae083"},
      {"PAIR-4/split", "d83ae083"},
      {"SECDED/split", "a75dce8a"},
      {"XED/split", "887e7b97"},
  };
  const sim::RequestSourceFactory demand = DigestDemand();
  std::map<std::string, std::string> actual;
  for (const ecc::SchemeKind scheme : ecc::AllSchemeKinds()) {
    sim::SystemConfig cfg =
        DigestSystemConfig(scheme, timing::GeometryPreset::kDdr4_3200);
    cfg.horizon_cycles = sim::ScanDemand(cfg, demand).horizon_cycles;
    const reliability::WorkingSet ws = sim::MakeSystemWorkingSet(cfg);
    reliability::SplitSpec split;
    split.thresholds = {2, 6};
    split.replicas = 2;
    reliability::SplitTally tally;
    for (std::uint64_t root = 1; root <= 2; ++root) {
      const std::unique_ptr<timing::RequestSource> source = demand();
      sim::RunSplitTrial(cfg, ws, *source, split, root, tally);
    }
    actual[Key(scheme, "split")] =
        util::Crc32Hex(reliability::SplitTallyToJson(tally).Dump());
  }
  ExpectDigests(actual, expected);
}

// ---------------------------------------------- scenario + lifetime runs

reliability::ScenarioConfig DigestScenarioConfig(ecc::SchemeKind scheme,
                                                 faults::FaultType type) {
  reliability::ScenarioConfig cfg;
  cfg.scheme = scheme;
  cfg.mix = OnlyType(type);
  cfg.faults_per_trial = 2;
  cfg.working_rows = 4;
  cfg.lines_per_row = 4;
  cfg.seed = 31;
  cfg.threads = 1;
  return cfg;
}

TEST(TrialLayer, ScenarioStateMatchesPinnedDigestForEverySchemeAndFaultType) {
  const std::map<std::string, std::string> expected = {
      {"DUO/pin-burst", "15ab5981"},
      {"DUO/single-bank", "c175a23b"},
      {"DUO/single-bit", "f787440a"},
      {"DUO/single-pin", "7269b86d"},
      {"DUO/single-row", "e277de07"},
      {"DUO/single-word", "e8255b34"},
      {"IECC+SECDED/pin-burst", "29a3da26"},
      {"IECC+SECDED/single-bank", "3ff92cc3"},
      {"IECC+SECDED/single-bit", "f787440a"},
      {"IECC+SECDED/single-pin", "f157ea8c"},
      {"IECC+SECDED/single-row", "e49d7def"},
      {"IECC+SECDED/single-word", "12b6bfc4"},
      {"IECC/pin-burst", "77c67b32"},
      {"IECC/single-bank", "2d0f723c"},
      {"IECC/single-bit", "f787440a"},
      {"IECC/single-pin", "4498c1ac"},
      {"IECC/single-row", "074f15d6"},
      {"IECC/single-word", "12b6bfc4"},
      {"No-ECC/pin-burst", "c9ffe579"},
      {"No-ECC/single-bank", "b3a550d5"},
      {"No-ECC/single-bit", "34ee9ae2"},
      {"No-ECC/single-pin", "28440968"},
      {"No-ECC/single-row", "90a72ce9"},
      {"No-ECC/single-word", "5de5dff8"},
      {"PAIR-2/pin-burst", "91388793"},
      {"PAIR-2/single-bank", "c34c2837"},
      {"PAIR-2/single-bit", "06f89300"},
      {"PAIR-2/single-pin", "65e16846"},
      {"PAIR-2/single-row", "1b645e3c"},
      {"PAIR-2/single-word", "d9bbb581"},
      {"PAIR-4+SECDED/pin-burst", "c53469d9"},
      {"PAIR-4+SECDED/single-bank", "6be08fa1"},
      {"PAIR-4+SECDED/single-bit", "06f89300"},
      {"PAIR-4+SECDED/single-pin", "e3d5db60"},
      {"PAIR-4+SECDED/single-row", "1ca74a7c"},
      {"PAIR-4+SECDED/single-word", "de695459"},
      {"PAIR-4/pin-burst", "734dbb65"},
      {"PAIR-4/single-bank", "51e4f30b"},
      {"PAIR-4/single-bit", "06f89300"},
      {"PAIR-4/single-pin", "ed6c4564"},
      {"PAIR-4/single-row", "26a336d6"},
      {"PAIR-4/single-word", "de695459"},
      {"SECDED/pin-burst", "15ab5981"},
      {"SECDED/single-bank", "0c9a0765"},
      {"SECDED/single-bit", "f787440a"},
      {"SECDED/single-pin", "b92220b9"},
      {"SECDED/single-row", "3e990fd7"},
      {"SECDED/single-word", "19939be3"},
      {"XED/pin-burst", "40332293"},
      {"XED/single-bank", "c3483dd5"},
      {"XED/single-bit", "f787440a"},
      {"XED/single-pin", "a6b4daff"},
      {"XED/single-row", "b40ff808"},
      {"XED/single-word", "9e8c0110"},
  };
  std::map<std::string, std::string> actual;
  for (const ecc::SchemeKind scheme : ecc::AllSchemeKinds()) {
    for (const faults::FaultType type : faults::kAllFaultTypes) {
      const reliability::ScenarioConfig cfg = DigestScenarioConfig(scheme, type);
      reliability::ScenarioTelemetry tel;
      ScenarioShardState state;
      state.counts = reliability::RunMonteCarlo(cfg, 24, &tel);
      state.tel = tel.trial;
      actual[Key(scheme, faults::ToString(type))] =
          util::Crc32Hex(reliability::ScenarioStateToJson(state).Dump());
    }
  }
  ExpectDigests(actual, expected);
}

std::string LifetimeDigest(const reliability::LifetimeStats& stats,
                           const reliability::TrialTelemetry& tel) {
  std::ostringstream text;
  text << stats.trials << ' ' << stats.trials_with_sdc << ' '
       << stats.trials_with_due << ' ' << stats.total_corrections << ' '
       << stats.total_scrub_writebacks << ' ' << std::hexfloat
       << stats.mean_sdc_epoch << ' '
       << reliability::TrialTelemetryToJson(tel).Dump();
  return util::Crc32Hex(text.str());
}

TEST(TrialLayer, LifetimeStatsMatchPinnedDigestForEverySchemeAndFaultType) {
  const std::map<std::string, std::string> expected = {
      {"DUO/pin-burst", "76411f87"},
      {"DUO/single-bank", "7b840232"},
      {"DUO/single-bit", "c591dd3f"},
      {"DUO/single-pin", "d49ec757"},
      {"DUO/single-row", "b48beb24"},
      {"DUO/single-word", "980806b2"},
      {"IECC+SECDED/pin-burst", "682e68ca"},
      {"IECC+SECDED/single-bank", "90ec302a"},
      {"IECC+SECDED/single-bit", "72cbf2aa"},
      {"IECC+SECDED/single-pin", "a333f7a6"},
      {"IECC+SECDED/single-row", "52cc7648"},
      {"IECC+SECDED/single-word", "0d5f470a"},
      {"IECC/pin-burst", "c66957ef"},
      {"IECC/single-bank", "15bb697f"},
      {"IECC/single-bit", "72cbf2aa"},
      {"IECC/single-pin", "e4584d6b"},
      {"IECC/single-row", "dbf2a1e3"},
      {"IECC/single-word", "ede238dc"},
      {"No-ECC/pin-burst", "06658440"},
      {"No-ECC/single-bank", "e31dbebe"},
      {"No-ECC/single-bit", "157adbe1"},
      {"No-ECC/single-pin", "d8c39ac4"},
      {"No-ECC/single-row", "2d547622"},
      {"No-ECC/single-word", "cc2a00a5"},
      {"PAIR-2/pin-burst", "5f09ec01"},
      {"PAIR-2/single-bank", "ba6a09bd"},
      {"PAIR-2/single-bit", "e635a921"},
      {"PAIR-2/single-pin", "ebe0d791"},
      {"PAIR-2/single-row", "e53a326c"},
      {"PAIR-2/single-word", "cda6994d"},
      {"PAIR-4+SECDED/pin-burst", "c86e9f90"},
      {"PAIR-4+SECDED/single-bank", "5c4034c7"},
      {"PAIR-4+SECDED/single-bit", "79d43ac6"},
      {"PAIR-4+SECDED/single-pin", "27208b42"},
      {"PAIR-4+SECDED/single-row", "756876ed"},
      {"PAIR-4+SECDED/single-word", "5ee000b5"},
      {"PAIR-4/pin-burst", "7869677d"},
      {"PAIR-4/single-bank", "9e3bb9c3"},
      {"PAIR-4/single-bit", "79d43ac6"},
      {"PAIR-4/single-pin", "b14fd2ab"},
      {"PAIR-4/single-row", "ace03cc0"},
      {"PAIR-4/single-word", "9bbeff3a"},
      {"SECDED/pin-burst", "6af03a84"},
      {"SECDED/single-bank", "dd423da6"},
      {"SECDED/single-bit", "2a7e42d2"},
      {"SECDED/single-pin", "f7cfedd3"},
      {"SECDED/single-row", "06d0dc32"},
      {"SECDED/single-word", "bac6314b"},
      {"XED/pin-burst", "96539db2"},
      {"XED/single-bank", "19083de1"},
      {"XED/single-bit", "72cbf2aa"},
      {"XED/single-pin", "84cc36de"},
      {"XED/single-row", "51437c3c"},
      {"XED/single-word", "e2105f1a"},
  };
  std::map<std::string, std::string> actual;
  for (const ecc::SchemeKind scheme : ecc::AllSchemeKinds()) {
    for (const faults::FaultType type : faults::kAllFaultTypes) {
      reliability::LifetimeConfig cfg;
      cfg.scheme = scheme;
      cfg.mix = OnlyType(type);
      cfg.epochs = 8;
      cfg.faults_per_epoch = 0.25;
      cfg.scrub_interval = 3;
      cfg.final_audit = true;
      cfg.working_rows = 3;
      cfg.lines_per_row = 4;
      cfg.seed = 41;
      cfg.threads = 1;
      reliability::ScenarioTelemetry tel;
      const reliability::LifetimeStats stats =
          reliability::RunLifetime(cfg, 8, &tel);
      actual[Key(scheme, faults::ToString(type))] =
          LifetimeDigest(stats, tel.trial);
    }
  }
  ExpectDigests(actual, expected);
}

// ------------------------------------------------------ eager reference

/// RunScenarioTrial rebuilt from public APIs in its historical order:
/// draw every truth line, write them all, inject, read them all, classify.
void EagerScenarioTrial(const reliability::ScenarioConfig& cfg,
                        const reliability::WorkingSet& ws,
                        util::Xoshiro256& rng, ScenarioShardState& acc) {
  dram::Rank rank(cfg.geometry);
  const std::unique_ptr<ecc::Scheme> scheme = ecc::MakeScheme(cfg.scheme, rank);
  std::vector<util::BitVec> lines;
  for (std::size_t i = 0; i < ws.addrs.size(); ++i)
    lines.push_back(util::BitVec::Random(cfg.geometry.LineBits(), rng));
  scheme->WriteLines(ws.addrs, lines);
  faults::Injector injector(rank, ws.rows);
  for (unsigned f = 0; f < cfg.faults_per_trial; ++f)
    injector.InjectFromMix(cfg.mix, rng);
  std::vector<ecc::ReadResult> results(ws.addrs.size());
  scheme->ReadLines(ws.addrs, results);
  bool any_sdc = false, any_due = false;
  for (std::size_t i = 0; i < ws.addrs.size(); ++i) {
    const reliability::Outcome outcome =
        reliability::Classify(results[i].claim, results[i].data, lines[i]);
    acc.counts.Add(outcome);
    acc.tel.corrected_units.Record(results[i].corrected_units);
    any_sdc |= reliability::IsSdc(outcome);
    any_due |= outcome == reliability::Outcome::kDue;
  }
  ++acc.counts.trials;
  acc.counts.trials_with_sdc += any_sdc;
  acc.counts.trials_with_due += any_due;
  acc.counts.trials_with_failure += (any_sdc || any_due);
  acc.tel.codec += scheme->counters();
  acc.tel.injection += injector.counters();
}

void ExpectScenarioMatchesEager(const reliability::ScenarioConfig& cfg,
                                std::uint64_t seeds) {
  const reliability::WorkingSet ws = reliability::MakeScenarioWorkingSet(cfg);
  ScenarioShardState library, eager;
  reliability::ScenarioScratch scratch;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    util::Xoshiro256 a(seed), b(seed);
    reliability::RunScenarioTrial(cfg, ws, a, library, scratch);
    EagerScenarioTrial(cfg, ws, b, eager);
    ASSERT_EQ(a(), b()) << ecc::ToString(cfg.scheme) << " seed " << seed
                        << ": the trial streams drew differently";
  }
  EXPECT_EQ(library, eager) << ecc::ToString(cfg.scheme);
  EXPECT_GT(eager.counts.Sdc() + eager.counts.due + eager.counts.corrected, 0u)
      << ecc::ToString(cfg.scheme) << ": the mix must reach the decoder";
}

TEST(TrialLayer, ScenarioTrialMatchesEagerReferenceForEveryScheme) {
  for (const ecc::SchemeKind scheme : ecc::AllSchemeKinds()) {
    reliability::ScenarioConfig cfg;
    cfg.scheme = scheme;
    cfg.mix = WideMix();
    cfg.faults_per_trial = 3;
    cfg.working_rows = 6;
    cfg.lines_per_row = 3;
    ExpectScenarioMatchesEager(cfg, 40);
  }
}

// Working sets whose lines share addresses: four working rows on a
// two-row bank, and more lines per row than the row has columns.
TEST(TrialLayer, ScenarioTrialMatchesEagerReferenceOnSharedAddresses) {
  for (const ecc::SchemeKind scheme : ecc::AllSchemeKinds()) {
    reliability::ScenarioConfig cfg;
    cfg.scheme = scheme;
    cfg.mix = WideMix();
    cfg.faults_per_trial = 1;
    cfg.geometry.device.banks = 1;
    cfg.geometry.device.rows_per_bank = 2;
    cfg.working_rows = 4;
    cfg.lines_per_row = 3;
    ExpectScenarioMatchesEager(cfg, 12);
    cfg.geometry = dram::RankGeometry{};
    cfg.working_rows = 2;
    cfg.lines_per_row = cfg.geometry.device.ColumnsPerRow() + 3;
    ExpectScenarioMatchesEager(cfg, 4);
  }
}

// ----------------------------------------------- untouched-row accounting

TEST(TrialLayer, UntouchedRowsSkipTheCodecAndCountWhatItWouldHave) {
  reliability::ScenarioConfig cfg;
  cfg.working_rows = 3;
  cfg.lines_per_row = 4;
  const reliability::WorkingSet ws = reliability::MakeScenarioWorkingSet(cfg);
  util::Xoshiro256 rng(9);
  reliability::TrialContext ctx(cfg.geometry, cfg.scheme, ws, rng);
  EXPECT_EQ(ctx.scheme->counters(), ecc::CodecCounters{});
  EXPECT_EQ(ctx.Counters().writes, ws.addrs.size());

  std::vector<ecc::ReadResult> staging;
  std::vector<reliability::LineRead> reads;
  ctx.ReadAll(staging, reads);
  ctx.WriteLine(0);
  ctx.ScrubLine(1);
  ctx.ScrubRow(2);
  EXPECT_EQ(ctx.ReadLine(5).outcome, reliability::Outcome::kNoError);
  for (const reliability::LineRead& read : reads) {
    EXPECT_EQ(read.outcome, reliability::Outcome::kNoError);
    EXPECT_EQ(read.corrected_units, 0u);
  }
  EXPECT_EQ(ctx.scheme->counters(), ecc::CodecCounters{});
  ecc::CodecCounters want;
  want.writes = ws.addrs.size() + 1;
  want.decodes = want.claim_clean = ws.addrs.size() + 1;
  want.scrub_lines = 1;
  want.scrub_rows = 1;
  EXPECT_EQ(ctx.Counters(), want);

  // The first fault writes its row, and only that row, through the scheme.
  faults::Injector injector = ctx.MakeInjector();
  injector.Inject(faults::FaultType::kSingleBit, false, rng);
  EXPECT_EQ(ctx.scheme->counters().writes, ws.cols.size());
  EXPECT_EQ(ctx.Counters().writes, want.writes);
  ctx.MaterializeAll();
  EXPECT_EQ(ctx.scheme->counters().writes, ws.addrs.size());
  EXPECT_EQ(ctx.Counters().writes, want.writes);
}

// Materializing every row of an untouched context stores exactly what
// writing every line at trial start stored.
TEST(TrialLayer, MaterializeAllStoresWhatTheEagerWriteStored) {
  for (const ecc::SchemeKind scheme : ecc::AllSchemeKinds()) {
    reliability::ScenarioConfig cfg;
    cfg.scheme = scheme;
    cfg.working_rows = 4;
    cfg.lines_per_row = 5;
    const reliability::WorkingSet ws =
        reliability::MakeScenarioWorkingSet(cfg);
    util::Xoshiro256 a(4), b(4);
    reliability::TrialContext ctx(cfg.geometry, scheme, ws, a);
    ctx.MaterializeAll();
    dram::Rank rank(cfg.geometry);
    const std::unique_ptr<ecc::Scheme> eager = ecc::MakeScheme(scheme, rank);
    std::vector<util::BitVec> lines;
    for (std::size_t i = 0; i < ws.addrs.size(); ++i)
      lines.push_back(util::BitVec::Random(cfg.geometry.LineBits(), b));
    eager->WriteLines(ws.addrs, lines);
    EXPECT_EQ(ctx.lines, lines);
    EXPECT_EQ(ctx.Counters(), eager->counters());
    const unsigned bits = cfg.geometry.device.TotalRowBits();
    for (unsigned d = 0; d < rank.TotalDevices(); ++d)
      for (const faults::RowRef& r : ws.rows)
        EXPECT_EQ(ctx.rank.device(d).ReadBits(r.bank, r.row, 0, bits),
                  rank.device(d).ReadBits(r.bank, r.row, 0, bits))
            << ecc::ToString(scheme) << " device " << d;
  }
}

// --------------------------------------------------- repeated operations

/// Drives a context and an eager reference — every line written up front,
/// every operation run through the scheme — through one random sequence of
/// faults, reads, writes, scrubs and row sparings, and diffs what each
/// returns, counts and stores. The faults are rare enough that rows sit in
/// one state for many operations, so most of the context's operations are
/// repeats it returns without running.
void ExpectRepeatsMatchEager(ecc::SchemeKind kind,
                             const dram::RankGeometry& geometry,
                             std::uint64_t seed) {
  reliability::ScenarioConfig cfg;
  cfg.geometry = geometry;
  cfg.working_rows = 3;
  cfg.lines_per_row = 4;
  const reliability::WorkingSet ws = reliability::MakeScenarioWorkingSet(cfg);
  const std::size_t cols = ws.cols.size();
  util::Xoshiro256 a(seed), b(seed), ops(seed ^ 0x5eedULL);
  reliability::TrialContext ctx(geometry, kind, ws, a);
  faults::Injector injector = ctx.MakeInjector();

  dram::Rank rank(geometry);
  const std::unique_ptr<ecc::Scheme> eager = ecc::MakeScheme(kind, rank);
  std::vector<util::BitVec> lines;
  for (std::size_t i = 0; i < ws.addrs.size(); ++i)
    lines.push_back(util::BitVec::Random(geometry.LineBits(), b));
  eager->WriteLines(ws.addrs, lines);
  faults::Injector eager_injector(rank, ws.rows);

  const auto eager_read = [&](std::size_t slot) {
    const ecc::ReadResult r = eager->ReadLine(ws.addrs[slot]);
    return reliability::LineRead{
        reliability::Classify(r.claim, r.data, lines[slot]), r.corrected_units};
  };
  const auto same = [](const reliability::LineRead& x,
                       const reliability::LineRead& y) {
    return x.outcome == y.outcome && x.corrected_units == y.corrected_units;
  };
  std::vector<ecc::ReadResult> staging;
  std::vector<reliability::LineRead> reads;
  std::uint64_t not_clean = 0;
  for (int step = 0; step < 300; ++step) {
    const std::size_t slot =
        static_cast<std::size_t>(ops.UniformBelow(ws.addrs.size()));
    const std::size_t row = slot / cols;
    const faults::RowRef& r = ws.rows[row];
    if (step % 50 == 10) {
      injector.InjectFromMix(WideMix(), a);
      eager_injector.InjectFromMix(WideMix(), b);
    }
    switch (ops.UniformBelow(16)) {
      case 1:
        // A sparing, as the system simulator's repairs run it.
        if (ops.UniformBelow(4) != 0) break;
        ctx.MaterializeAll();
        ctx.rank.device(0).PostPackageRepair(r.bank, r.row);
        ctx.Invalidate();
        rank.device(0).PostPackageRepair(r.bank, r.row);
        break;
      case 2:
      case 3:
        ctx.ReadAll(staging, reads);
        for (std::size_t i = 0; i < ws.addrs.size(); ++i) {
          const reliability::LineRead want = eager_read(i);
          ASSERT_TRUE(same(reads[i], want)) << "step " << step << " line " << i;
          not_clean += want.outcome != reliability::Outcome::kNoError;
        }
        break;
      case 4:
      case 5:
        ctx.WriteLine(slot);
        eager->WriteLine(ws.addrs[slot], lines[slot]);
        break;
      case 6:
      case 7:
        ctx.ScrubLine(slot);
        eager->ScrubLine(ws.addrs[slot]);
        break;
      case 8:
        ctx.ScrubRow(row);
        eager->ScrubRowFull(r.bank, r.row);
        break;
      default: {
        const reliability::LineRead want = eager_read(slot);
        ASSERT_TRUE(same(ctx.ReadLine(slot), want)) << "step " << step;
        not_clean += want.outcome != reliability::Outcome::kNoError;
        break;
      }
    }
    ASSERT_EQ(ctx.Counters(), eager->counters()) << "step " << step;
  }
  EXPECT_GT(not_clean, 0u) << "the faults must reach the decoder";
  EXPECT_LT(ctx.scheme->counters().decodes, eager->counters().decodes)
      << "the context must skip repeated reads";

  ctx.MaterializeAll();
  EXPECT_EQ(ctx.Counters(), eager->counters());
  for (unsigned d = 0; d < rank.TotalDevices(); ++d)
    for (const faults::RowRef& r : ws.rows) {
      const util::BitVec* got = ctx.rank.device(d).FindStoredRow(r.bank, r.row);
      const util::BitVec* want = rank.device(d).FindStoredRow(r.bank, r.row);
      ASSERT_EQ(got != nullptr, want != nullptr) << "device " << d;
      if (got != nullptr) {
        EXPECT_EQ(*got, *want) << "device " << d;
      }
      EXPECT_EQ(ctx.rank.device(d).ReadBits(r.bank, r.row, 0,
                                            geometry.device.TotalRowBits()),
                rank.device(d).ReadBits(r.bank, r.row, 0,
                                        geometry.device.TotalRowBits()))
          << "device " << d;
    }
}

TEST(TrialLayer, RepeatedOperationsMatchEagerReferenceForEveryScheme) {
  for (const ecc::SchemeKind scheme : ecc::AllSchemeKinds()) {
    for (const timing::GeometryPreset preset :
         {timing::GeometryPreset::kDdr4_3200, timing::GeometryPreset::kDdr5_4800,
          timing::GeometryPreset::kHbm3}) {
      const dram::RankGeometry geometry = timing::MakePreset(preset).geometry;
      if (!Supported(scheme, geometry)) continue;
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        SCOPED_TRACE(Key(scheme, timing::ToString(preset)) + " seed " +
                     std::to_string(seed));
        ExpectRepeatsMatchEager(scheme, geometry, seed);
      }
    }
  }
}

}  // namespace
}  // namespace pair_ecc
