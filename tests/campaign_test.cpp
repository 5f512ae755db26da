// Crash-safe campaign runner: checkpoint envelope validation, exact
// accumulator round-trips, split/resume bitwise determinism, and the
// cross-process slice merge — the in-process half of the kill-and-resume
// contract (tests/campaign_cli_test.cpp exercises the real-signal half
// against the pairsim binary).
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "reliability/campaign.hpp"
#include "reliability/monte_carlo.hpp"
#include "reliability/telemetry.hpp"
#include "reliability/variance_reduction.hpp"
#include "sim/campaign.hpp"
#include "sim/memory_system.hpp"
#include "telemetry/checkpoint.hpp"
#include "telemetry/json.hpp"
#include "timing/request_source.hpp"
#include "util/atomic_file.hpp"
#include "util/stats.hpp"
#include "workload/streams.hpp"

namespace {

using pair_ecc::reliability::ScenarioConfig;
using pair_ecc::reliability::ScenarioScratch;
using pair_ecc::reliability::ScenarioShardState;
using pair_ecc::reliability::TrialEngine;
using pair_ecc::telemetry::JsonValue;
using namespace pair_ecc;

/// Fresh per-test path: removes any leftover from a previous run, since a
/// stale complete checkpoint would make RunCampaign resume-and-no-op.
std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "pair_campaign_" + name;
  std::remove(path.c_str());
  return path;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

ScenarioConfig SmallScenario(unsigned threads = 2) {
  ScenarioConfig cfg;
  cfg.scheme = ecc::SchemeKind::kPair4;
  cfg.faults_per_trial = 2;
  cfg.seed = 11;
  cfg.threads = threads;
  return cfg;
}

JsonValue ScenarioFingerprint(const ScenarioConfig& cfg, unsigned trials) {
  JsonValue fp = JsonValue::MakeObject();
  fp.Set("mode", JsonValue("reliability"));
  fp.Set("scheme", JsonValue("pair4"));
  fp.Set("faults_per_trial", JsonValue(cfg.faults_per_trial));
  fp.Set("seed", JsonValue(cfg.seed));
  fp.Set("trials", JsonValue(trials));
  return fp;
}

sim::CampaignSpec ScenarioSpec(const ScenarioConfig& cfg, unsigned trials,
                               const std::string& checkpoint_path,
                               sim::ShardSlice slice = {}) {
  sim::CampaignSpec spec;
  spec.mode = sim::CampaignMode::kReliability;
  spec.scenario = cfg;
  spec.trials = trials;
  spec.slice = slice;
  spec.checkpoint_every = 1;
  spec.checkpoint_path = checkpoint_path;
  spec.fingerprint = ScenarioFingerprint(cfg, trials);
  return spec;
}

// ------------------------------------------------------------- envelope

TEST(Checkpoint, SealOpenRoundTrip) {
  JsonValue body = JsonValue::MakeObject();
  body.Set("next_shard", JsonValue(std::uint64_t{7}));
  body.Set("label", JsonValue("slice"));
  const JsonValue sealed = telemetry::SealCheckpoint(body);
  const JsonValue reopened = telemetry::OpenCheckpoint(sealed, "test");
  EXPECT_EQ(reopened.Dump(), body.Dump());
}

TEST(Checkpoint, WriteReadFileRoundTrip) {
  const std::string path = TempPath("roundtrip.json");
  JsonValue body = JsonValue::MakeObject();
  body.Set("value", JsonValue(std::uint64_t{42}));
  telemetry::WriteCheckpointFile(body, path);
  EXPECT_EQ(telemetry::ReadCheckpointFile(path).Dump(), body.Dump());
}

/// Satellite (c): every corruption class is rejected with its own
/// diagnostic, so truncation, bit rot, and version skew are tellable apart
/// from the error text alone.
TEST(Checkpoint, CorruptionTable) {
  const std::string path = TempPath("corrupt.json");
  JsonValue body = JsonValue::MakeObject();
  body.Set("seed", JsonValue(std::uint64_t{11}));
  body.Set("next_shard", JsonValue(std::uint64_t{3}));
  telemetry::WriteCheckpointFile(body, path);
  const std::string good = ReadAll(path);

  struct Case {
    const char* name;
    std::function<std::string(std::string)> mutate;
    const char* expect;  // distinct substring of the diagnostic
  };
  const std::vector<Case> cases = {
      {"truncated",
       [](std::string text) { return text.substr(0, text.size() / 2); },
       "malformed JSON"},
      {"flipped body byte",
       [](std::string text) {
         // Change the checkpointed seed 11 -> 91: still valid JSON, but the
         // body no longer matches the sealed CRC.
         const auto at = text.find("11");
         EXPECT_NE(at, std::string::npos);
         text[at] = '9';
         return text;
       },
       "checksum mismatch"},
      {"wrong schema",
       [](std::string text) {
         const auto at = text.find("pair-checkpoint");
         EXPECT_NE(at, std::string::npos);
         return text.replace(at, 15, "not-anything-we-know");
       },
       "not a pair-checkpoint document"},
      {"unsupported version",
       [](std::string text) {
         const auto key = text.find("schema_version");
         EXPECT_NE(key, std::string::npos);
         const auto digit = text.find_first_of("0123456789", key);
         text[digit] = '9';
         return text;
       },
       "unsupported schema_version"},
  };
  for (const Case& c : cases) {
    util::AtomicWriteFile(path, c.mutate(good));
    try {
      telemetry::ReadCheckpointFile(path);
      FAIL() << c.name << ": corrupt checkpoint was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(c.expect), std::string::npos)
          << c.name << " produced: " << e.what();
    }
  }

  EXPECT_THROW(telemetry::ReadCheckpointFile(TempPath("missing.json")),
               std::runtime_error);
}

// ------------------------------------------------- accumulator round-trip

ScenarioShardState RunScenarioState(const ScenarioConfig& cfg,
                                    unsigned trials) {
  const reliability::WorkingSet ws =
      reliability::MakeScenarioWorkingSet(cfg);
  const TrialEngine engine(cfg.threads);
  return engine.RunWithScratch<ScenarioShardState, ScenarioScratch>(
      cfg.seed, trials,
      [&](std::uint64_t, util::Xoshiro256& rng, ScenarioShardState& acc,
          ScenarioScratch& scratch) {
        RunScenarioTrial(cfg, ws, rng, acc, scratch);
      });
}

TEST(CampaignState, ScenarioJsonRoundTripIsExact) {
  const ScenarioShardState state = RunScenarioState(SmallScenario(), 48);
  ASSERT_GT(state.counts.reads, 0u);
  const ScenarioShardState back =
      reliability::ScenarioStateFromJson(reliability::ScenarioStateToJson(state));
  EXPECT_EQ(back, state);
}

TEST(CampaignState, SystemJsonRoundTripIsExact) {
  sim::SystemConfig cfg;
  cfg.seed = 5;
  cfg.threads = 2;
  workload::StreamConfig wl;
  wl.kind = workload::StreamKind::kRandom;
  wl.read_fraction = 0.67;
  wl.num_requests = 60;
  wl.intensity = 0.05;
  wl.seed = cfg.seed;
  const timing::Trace demand = timing::Materialize(*workload::MakeStream(wl));
  const reliability::WorkingSet ws = sim::MakeSystemWorkingSet(cfg);

  cfg.horizon_cycles =
      sim::ScanDemand(cfg, sim::VectorSourceFactory(demand)).horizon_cycles;

  const TrialEngine engine(cfg.threads);
  const sim::SystemShardState state =
      engine.Run<sim::SystemShardState>(
          cfg.seed, 12,
          [&](std::uint64_t, util::Xoshiro256& rng,
              sim::SystemShardState& acc) {
            timing::VectorSource source(demand);
            sim::MemorySystem(cfg, ws, source, rng).Run(acc.stats, acc.tel);
          });
  ASSERT_GT(state.stats.demand_reads, 0u);
  const sim::SystemShardState back =
      sim::SystemStateFromJson(sim::SystemStateToJson(state));
  EXPECT_EQ(back, state);
}

// ------------------------------------------------ split/resume determinism

TEST(RunShardsObserved, AnySplitIsBitwiseIdenticalToRun) {
  const ScenarioConfig cfg = SmallScenario(/*threads=*/3);
  const unsigned trials = 70;  // 5 shards, last one partial
  const std::uint64_t shards = TrialEngine::ShardCount(trials);
  const ScenarioShardState whole = RunScenarioState(cfg, trials);
  const reliability::WorkingSet ws =
      reliability::MakeScenarioWorkingSet(cfg);

  for (std::uint64_t split = 0; split <= shards; ++split) {
    ScenarioShardState merged;
    std::uint64_t expect_next = 0;
    const auto run_range = [&](std::uint64_t first, std::uint64_t end) {
      const TrialEngine engine(cfg.threads);
      const std::uint64_t observed =
          engine.RunShardsObserved<ScenarioShardState, ScenarioScratch>(
              cfg.seed, trials, first, end,
              [&](std::uint64_t, util::Xoshiro256& rng,
                  ScenarioShardState& acc, ScenarioScratch& scratch) {
                RunScenarioTrial(cfg, ws, rng, acc, scratch);
              },
              [&](std::uint64_t shard, const ScenarioShardState& result) {
                EXPECT_EQ(shard, expect_next);  // strictly shard-ordered
                ++expect_next;
                merged += result;
              });
      EXPECT_EQ(observed, end);
    };
    run_range(0, split);
    run_range(split, shards);
    EXPECT_EQ(merged, whole) << "split at shard " << split;
  }
}

TEST(Campaign, InterruptAndResumeMatchesUninterrupted) {
  const ScenarioConfig cfg = SmallScenario();
  const unsigned trials = 64;

  const std::string straight = TempPath("straight.json");
  const sim::CampaignProgress full =
      sim::RunCampaign(ScenarioSpec(cfg, trials, straight));
  ASSERT_TRUE(full.complete);

  // Deterministic interruption after one shard (single worker: with more,
  // already-claimed shards drain and the stop lands later), then resume to
  // the end on the full thread count — the split must not show.
  const std::string stopped = TempPath("stopped.json");
  const sim::CampaignProgress part = sim::RunCampaign(
      ScenarioSpec(SmallScenario(/*threads=*/1), trials, stopped), nullptr,
      /*max_shards=*/1);
  EXPECT_FALSE(part.complete);
  EXPECT_EQ(part.next_shard, 1u);
  const sim::CampaignProgress rest =
      sim::RunCampaign(ScenarioSpec(cfg, trials, stopped));
  EXPECT_TRUE(rest.complete);
  EXPECT_TRUE(rest.resumed);
  EXPECT_EQ(rest.trials_done, trials);

  // The checkpoints' accumulator states — and the merged reports — must be
  // byte-identical.
  EXPECT_EQ(ReadAll(stopped), ReadAll(straight));
  const telemetry::Report a = sim::MergeCampaignCheckpoints({straight});
  const telemetry::Report b = sim::MergeCampaignCheckpoints({stopped});
  EXPECT_EQ(a.ToJson(false).Dump(), b.ToJson(false).Dump());

  // And the headline counts must equal the single-shot API's.
  const auto counts = reliability::RunMonteCarlo(cfg, trials);
  EXPECT_EQ(a.counters().Get("outcome.corrected"), counts.corrected);
  EXPECT_EQ(a.counters().Get("outcome.due"), counts.due);
  EXPECT_EQ(a.counters().Get("reads"), counts.reads);
}

TEST(Campaign, TwoSliceMergeMatchesSingleProcessRun) {
  const ScenarioConfig cfg = SmallScenario();
  const unsigned trials = 64;

  const std::string whole = TempPath("whole.json");
  ASSERT_TRUE(sim::RunCampaign(ScenarioSpec(cfg, trials, whole)).complete);

  const std::string s0 = TempPath("slice0.json");
  const std::string s1 = TempPath("slice1.json");
  ASSERT_TRUE(
      sim::RunCampaign(ScenarioSpec(cfg, trials, s0, {0, 2})).complete);
  ASSERT_TRUE(
      sim::RunCampaign(ScenarioSpec(cfg, trials, s1, {1, 2})).complete);

  const telemetry::Report merged =
      sim::MergeCampaignCheckpoints({s0, s1});
  const telemetry::Report single = sim::MergeCampaignCheckpoints({whole});
  EXPECT_EQ(merged.ToJson(false).Dump(), single.ToJson(false).Dump());

  // Slice order on the command line must not matter.
  const telemetry::Report reversed =
      sim::MergeCampaignCheckpoints({s1, s0});
  EXPECT_EQ(reversed.ToJson(false).Dump(), single.ToJson(false).Dump());
}

TEST(Campaign, SystemModeSliceMergeIsBitwise) {
  sim::CampaignSpec spec;
  spec.mode = sim::CampaignMode::kSystem;
  spec.system.seed = 3;
  spec.system.threads = 2;
  workload::StreamConfig wl;
  wl.kind = workload::StreamKind::kRandom;
  wl.read_fraction = 0.67;
  wl.num_requests = 50;
  wl.intensity = 0.05;
  wl.seed = spec.system.seed;
  spec.demand =
      sim::VectorSourceFactory(timing::Materialize(*workload::MakeStream(wl)));
  spec.trials = 48;
  spec.checkpoint_every = 1;
  JsonValue fp = JsonValue::MakeObject();
  fp.Set("mode", JsonValue("system"));
  fp.Set("seed", JsonValue(spec.system.seed));
  fp.Set("trials", JsonValue(spec.trials));
  fp.Set("tck_ns", JsonValue(spec.system.timing.tck_ns));
  spec.fingerprint = fp;

  spec.checkpoint_path = TempPath("sys_whole.json");
  ASSERT_TRUE(sim::RunCampaign(spec).complete);
  const std::string whole = spec.checkpoint_path;

  const std::string s0 = TempPath("sys_s0.json");
  const std::string s1 = TempPath("sys_s1.json");
  spec.checkpoint_path = s0;
  spec.slice = {0, 2};
  ASSERT_TRUE(sim::RunCampaign(spec).complete);
  spec.checkpoint_path = s1;
  spec.slice = {1, 2};
  ASSERT_TRUE(sim::RunCampaign(spec).complete);

  const telemetry::Report merged =
      sim::MergeCampaignCheckpoints({s0, s1});
  const telemetry::Report single = sim::MergeCampaignCheckpoints({whole});
  EXPECT_EQ(merged.ToJson(false).Dump(), single.ToJson(false).Dump());
  EXPECT_GT(merged.counters().Get("system.demand.reads"), 0u);
}

// --------------------------------------------------------- refusal paths

TEST(Campaign, ResumeRefusesDifferentConfig) {
  const ScenarioConfig cfg = SmallScenario();
  const std::string path = TempPath("mismatch.json");
  sim::RunCampaign(ScenarioSpec(cfg, 64, path), nullptr, /*max_shards=*/1);

  sim::CampaignSpec other = ScenarioSpec(cfg, 64, path);
  other.fingerprint.Set("seed", JsonValue(std::uint64_t{999}));
  try {
    sim::RunCampaign(other);
    FAIL() << "resumed across a config change";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("config hash mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(Campaign, MergeRefusesGapsOverlapsAndIncompleteSlices) {
  const ScenarioConfig cfg = SmallScenario();
  const unsigned trials = 64;
  const std::string s0 = TempPath("m_s0.json");
  const std::string s1 = TempPath("m_s1.json");
  ASSERT_TRUE(
      sim::RunCampaign(ScenarioSpec(cfg, trials, s0, {0, 2})).complete);
  ASSERT_TRUE(
      sim::RunCampaign(ScenarioSpec(cfg, trials, s1, {1, 2})).complete);

  const auto expect_error = [](const std::vector<std::string>& paths,
                               const char* substring) {
    try {
      sim::MergeCampaignCheckpoints(paths);
      FAIL() << "merge accepted: expected '" << substring << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(substring), std::string::npos)
          << e.what();
    }
  };
  expect_error({s0}, "gap");
  expect_error({s0, s0, s1}, "overlap");

  const std::string part = TempPath("m_incomplete.json");
  sim::RunCampaign(
      ScenarioSpec(SmallScenario(/*threads=*/1), trials, part, {1, 2}),
      nullptr, /*max_shards=*/1);
  expect_error({s0, part}, "incomplete");

  // A slice from a different campaign (different seed) must not merge.
  ScenarioConfig other_cfg = SmallScenario();
  other_cfg.seed = 77;
  const std::string alien = TempPath("m_alien.json");
  ASSERT_TRUE(sim::RunCampaign(ScenarioSpec(other_cfg, trials, alien, {1, 2}))
                  .complete);
  expect_error({s0, alien}, "config hash");
}

TEST(ParseShardSlice, AcceptsValidRejectsMalformed) {
  const sim::ShardSlice s = sim::ParseShardSlice("2/8");
  EXPECT_EQ(s.index, 2u);
  EXPECT_EQ(s.count, 8u);
  for (const char* bad :
       {"", "/", "3", "a/4", "1/b", "4/4", "5/2", "1/0", "-1/2", "1/2/3"}) {
    EXPECT_THROW(sim::ParseShardSlice(bad), std::runtime_error) << bad;
  }
}

TEST(Campaign, FleetProjectionMetrics) {
  const ScenarioConfig cfg = SmallScenario();
  const std::string path = TempPath("fleet.json");
  ASSERT_TRUE(sim::RunCampaign(ScenarioSpec(cfg, 64, path)).complete);

  sim::FleetSpec fleet;
  fleet.devices = 1e5;
  fleet.years = 5.0;
  fleet.trial_years = 5.0;
  const telemetry::Report report =
      sim::MergeCampaignCheckpoints({path}, fleet);
  const JsonValue json = report.ToJson(false);
  const JsonValue* metrics = json.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* expected = metrics->Find("fleet.expected_failures");
  const JsonValue* lo = metrics->Find("fleet.expected_failures_lo");
  const JsonValue* hi = metrics->Find("fleet.expected_failures_hi");
  ASSERT_NE(expected, nullptr);
  ASSERT_NE(lo, nullptr);
  ASSERT_NE(hi, nullptr);
  EXPECT_LE(lo->AsReal(), expected->AsReal());
  EXPECT_LE(expected->AsReal(), hi->AsReal());
  EXPECT_GE(lo->AsReal(), 0.0);
  EXPECT_LE(hi->AsReal(), fleet.devices);
}

// ------------------------------------ variance-reduction campaigns

reliability::TiltSpec CampaignTilt() {
  reliability::TiltSpec tilt;
  tilt.kind = reliability::TiltKind::kForced;
  tilt.lambda = 1.0;
  tilt.proposal_lambda = 2.0;
  tilt.min_faults = 2;
  tilt.max_faults = 6;
  return tilt;
}

sim::CampaignSpec TiltedSpec(const ScenarioConfig& cfg, unsigned trials,
                             const std::string& path,
                             sim::ShardSlice slice = {}) {
  sim::CampaignSpec spec = ScenarioSpec(cfg, trials, path, slice);
  spec.tilt = CampaignTilt();
  reliability::AddTiltFingerprint(spec.fingerprint, spec.tilt);
  return spec;
}

TEST(Campaign, TiltedInterruptAndResumeIsByteIdentical) {
  const ScenarioConfig cfg = SmallScenario();
  const unsigned trials = 64;

  const std::string straight = TempPath("is_straight.json");
  ASSERT_TRUE(sim::RunCampaign(TiltedSpec(cfg, trials, straight)).complete);

  // Interrupt after one shard on one worker, resume on two: the weighted
  // tally rides the checkpoint, so the split must not show in the bytes.
  const std::string stopped = TempPath("is_stopped.json");
  const sim::CampaignProgress part = sim::RunCampaign(
      TiltedSpec(SmallScenario(/*threads=*/1), trials, stopped), nullptr,
      /*max_shards=*/1);
  EXPECT_FALSE(part.complete);
  const sim::CampaignProgress rest =
      sim::RunCampaign(TiltedSpec(cfg, trials, stopped));
  EXPECT_TRUE(rest.complete);
  EXPECT_TRUE(rest.resumed);
  EXPECT_EQ(ReadAll(stopped), ReadAll(straight));

  const telemetry::Report a = sim::MergeCampaignCheckpoints({straight});
  const telemetry::Report b = sim::MergeCampaignCheckpoints({stopped});
  EXPECT_EQ(a.ToJson(false).Dump(), b.ToJson(false).Dump());
}

TEST(Campaign, TiltedTwoSliceMergeCarriesWeightedMetrics) {
  const ScenarioConfig cfg = SmallScenario();
  const unsigned trials = 64;

  const std::string whole = TempPath("is_whole.json");
  ASSERT_TRUE(sim::RunCampaign(TiltedSpec(cfg, trials, whole)).complete);
  const std::string s0 = TempPath("is_s0.json");
  const std::string s1 = TempPath("is_s1.json");
  ASSERT_TRUE(
      sim::RunCampaign(TiltedSpec(cfg, trials, s0, {0, 2})).complete);
  ASSERT_TRUE(
      sim::RunCampaign(TiltedSpec(cfg, trials, s1, {1, 2})).complete);

  const telemetry::Report merged = sim::MergeCampaignCheckpoints({s0, s1});
  const telemetry::Report single = sim::MergeCampaignCheckpoints({whole});
  EXPECT_EQ(merged.ToJson(false).Dump(), single.ToJson(false).Dump());

  // The merged report must carry the importance-sampling diagnostics, and
  // they must be self-consistent against the weighted tally it merged.
  const JsonValue json = merged.ToJson(false);
  const JsonValue* metrics = json.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* p = metrics->Find("is.p_failure");
  const JsonValue* ess = metrics->Find("is.ess");
  const JsonValue* accel = metrics->Find("is.acceleration");
  ASSERT_NE(p, nullptr);
  ASSERT_NE(ess, nullptr);
  ASSERT_NE(accel, nullptr);
  EXPECT_GT(p->AsReal(), 0.0);
  EXPECT_GT(ess->AsReal(), 0.0);
  EXPECT_LE(ess->AsReal(), static_cast<double>(trials) + 1e-9);

  const reliability::WeightedScenarioState direct =
      reliability::RunWeightedMonteCarlo(cfg, CampaignTilt(), trials);
  const reliability::WeightedEstimate est = reliability::EstimateWeightedRate(
      reliability::TiltSampler(CampaignTilt()), direct.tally,
      reliability::WeightedEvent::kFailure);
  EXPECT_DOUBLE_EQ(p->AsReal(), est.estimate);
}

TEST(Campaign, TiltMismatchRefusesResume) {
  const ScenarioConfig cfg = SmallScenario();
  const std::string path = TempPath("is_mismatch.json");
  sim::RunCampaign(TiltedSpec(cfg, 64, path), nullptr, /*max_shards=*/1);

  // Same scenario, different proposal: the tilt is part of the config
  // fingerprint, so resuming must refuse rather than mix estimators.
  sim::CampaignSpec other = ScenarioSpec(cfg, 64, path);
  other.tilt = CampaignTilt();
  other.tilt.proposal_lambda = 3.0;
  reliability::AddTiltFingerprint(other.fingerprint, other.tilt);
  try {
    sim::RunCampaign(other);
    FAIL() << "resumed across a tilt change";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("config hash mismatch"),
              std::string::npos)
        << e.what();
  }

  // An untilted spec against the tilted checkpoint must refuse too.
  try {
    sim::RunCampaign(ScenarioSpec(cfg, 64, path));
    FAIL() << "resumed a tilted campaign without the tilt";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("config hash mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(Campaign, SplitSystemSliceMergeIsBitwise) {
  sim::CampaignSpec spec;
  spec.mode = sim::CampaignMode::kSystem;
  spec.system.seed = 9;
  spec.system.threads = 2;
  spec.system.faults_per_mcycle = 200.0;
  workload::StreamConfig wl;
  wl.kind = workload::StreamKind::kRandom;
  wl.read_fraction = 0.67;
  wl.num_requests = 50;
  wl.intensity = 0.05;
  wl.seed = spec.system.seed;
  spec.demand =
      sim::VectorSourceFactory(timing::Materialize(*workload::MakeStream(wl)));
  spec.split.thresholds = {1, 2};
  spec.split.replicas = 3;
  spec.trials = 48;
  spec.checkpoint_every = 1;
  JsonValue fp = JsonValue::MakeObject();
  fp.Set("mode", JsonValue("system"));
  fp.Set("seed", JsonValue(spec.system.seed));
  fp.Set("trials", JsonValue(spec.trials));
  reliability::AddSplitFingerprint(fp, spec.split);
  spec.fingerprint = fp;

  spec.checkpoint_path = TempPath("split_whole.json");
  ASSERT_TRUE(sim::RunCampaign(spec).complete);
  const std::string whole = spec.checkpoint_path;

  const std::string s0 = TempPath("split_s0.json");
  const std::string s1 = TempPath("split_s1.json");
  spec.checkpoint_path = s0;
  spec.slice = {0, 2};
  ASSERT_TRUE(sim::RunCampaign(spec).complete);
  spec.checkpoint_path = s1;
  spec.slice = {1, 2};
  ASSERT_TRUE(sim::RunCampaign(spec).complete);

  const telemetry::Report merged = sim::MergeCampaignCheckpoints({s0, s1});
  const telemetry::Report single = sim::MergeCampaignCheckpoints({whole});
  EXPECT_EQ(merged.ToJson(false).Dump(), single.ToJson(false).Dump());

  EXPECT_EQ(merged.counters().Get("split.root_trials"), spec.trials);
  EXPECT_GT(merged.counters().Get("split.nodes"), spec.trials);
  const JsonValue json = merged.ToJson(false);
  const JsonValue* metrics = json.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->Find("split.p_failure"), nullptr);
}

TEST(Campaign, ZeroFailureFleetUsesOneSidedBound) {
  // Zero injected faults -> zero failures: the fleet CI must be the exact
  // one-sided zero-event bound, not a Wilson interval around 0.
  ScenarioConfig cfg = SmallScenario();
  cfg.faults_per_trial = 0;
  const unsigned trials = 64;
  const std::string path = TempPath("zero_fleet.json");
  sim::CampaignSpec spec = ScenarioSpec(cfg, trials, path);
  spec.fingerprint.Set("faults_per_trial", JsonValue(cfg.faults_per_trial));
  ASSERT_TRUE(sim::RunCampaign(spec).complete);

  sim::FleetSpec fleet;
  fleet.devices = 1e6;
  fleet.years = 5.0;
  fleet.trial_years = 5.0;
  const telemetry::Report report = sim::MergeCampaignCheckpoints({path}, fleet);
  EXPECT_EQ(report.counters().Get("outcome.trials_with_failure"), 0u);

  const JsonValue json = report.ToJson(false);
  const JsonValue* metrics = json.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* p = metrics->Find("fleet.p_trial_failure");
  const JsonValue* lo = metrics->Find("fleet.p_trial_failure_lo");
  const JsonValue* hi = metrics->Find("fleet.p_trial_failure_hi");
  ASSERT_NE(p, nullptr);
  ASSERT_NE(lo, nullptr);
  ASSERT_NE(hi, nullptr);
  EXPECT_EQ(p->AsReal(), 0.0);
  EXPECT_EQ(lo->AsReal(), 0.0);
  EXPECT_DOUBLE_EQ(hi->AsReal(),
                   util::ZeroEventUpperBound(trials));  // 1 - 0.05^(1/64)
}

// ------------------------------------------------ every kind, pinned

sim::CampaignSpec SystemSpec(unsigned threads, double faults_per_mcycle,
                             const std::string& path,
                             sim::ShardSlice slice = {}) {
  sim::CampaignSpec spec;
  spec.mode = sim::CampaignMode::kSystem;
  spec.system.seed = 9;
  spec.system.threads = threads;
  spec.system.faults_per_mcycle = faults_per_mcycle;
  workload::StreamConfig wl;
  wl.kind = workload::StreamKind::kRandom;
  wl.read_fraction = 0.67;
  wl.num_requests = 50;
  wl.intensity = 0.05;
  wl.seed = spec.system.seed;
  spec.demand =
      sim::VectorSourceFactory(timing::Materialize(*workload::MakeStream(wl)));
  spec.trials = 64;
  spec.slice = slice;
  spec.checkpoint_every = 1;
  spec.checkpoint_path = path;
  JsonValue fp = JsonValue::MakeObject();
  fp.Set("mode", JsonValue("system"));
  fp.Set("seed", JsonValue(spec.system.seed));
  fp.Set("trials", JsonValue(spec.trials));
  fp.Set("faults_per_mcycle", JsonValue(faults_per_mcycle));
  fp.Set("tck_ns", JsonValue(spec.system.timing.tck_ns));
  spec.fingerprint = fp;
  return spec;
}

sim::CampaignSpec SplitCampaignSpec(unsigned threads, double faults_per_mcycle,
                                    const std::string& path,
                                    sim::ShardSlice slice = {}) {
  sim::CampaignSpec spec = SystemSpec(threads, faults_per_mcycle, path, slice);
  spec.split.thresholds = {1, 2};
  spec.split.replicas = 3;
  reliability::AddSplitFingerprint(spec.fingerprint, spec.split);
  return spec;
}

/// One spec per campaign kind, parameterised by thread count, checkpoint
/// path and slice.
using KindSpec = std::function<sim::CampaignSpec(
    unsigned threads, const std::string& path, sim::ShardSlice slice)>;

std::string StateCrc(const std::string& path) {
  const JsonValue body = telemetry::ReadCheckpointFile(path);
  return util::Crc32Hex(body.Find("state")->Dump());
}

sim::FleetSpec PinFleet() {
  sim::FleetSpec fleet;
  fleet.devices = 1e6;
  fleet.years = 5.0;
  fleet.trial_years = 5.0;
  return fleet;
}

/// Runs `kind` straight at one thread, then as two slices at three threads
/// with slice 0 interrupted after one shard and resumed; both must merge
/// to the same report. Records CRCs of every final checkpoint state and of
/// the merged report under `name`.
void PinKind(const std::string& name, const KindSpec& kind,
             std::map<std::string, std::string>& actual) {
  const std::string straight = TempPath("pin_" + name + "_straight.json");
  ASSERT_TRUE(sim::RunCampaign(kind(1, straight, {})).complete) << name;

  const std::string s0 = TempPath("pin_" + name + "_s0.json");
  const std::string s1 = TempPath("pin_" + name + "_s1.json");
  // One worker makes the stop exact; the resume runs on three.
  const sim::CampaignProgress part =
      sim::RunCampaign(kind(1, s0, {0, 2}), nullptr, /*max_shards=*/1);
  ASSERT_FALSE(part.complete) << name;
  ASSERT_EQ(part.next_shard, 1u) << name;
  const sim::CampaignProgress rest = sim::RunCampaign(kind(3, s0, {0, 2}));
  ASSERT_TRUE(rest.complete && rest.resumed) << name;
  ASSERT_TRUE(sim::RunCampaign(kind(3, s1, {1, 2})).complete) << name;

  const auto report = [](const std::vector<std::string>& paths) {
    return sim::MergeCampaignCheckpoints(paths, PinFleet())
        .ToJson(false)
        .Dump();
  };
  const std::string whole = report({straight});
  const std::string merged = report({s0, s1});
  EXPECT_EQ(merged, whole) << name;
  actual[name + "/state"] = StateCrc(straight);
  actual[name + "/slice0_state"] = StateCrc(s0);
  actual[name + "/slice1_state"] = StateCrc(s1);
  actual[name + "/report"] = util::Crc32Hex(whole);
}

// Every campaign kind's checkpoint states and merged report (fleet
// projection on) are pinned, so a change to how kinds are described must
// leave checkpoint bytes and reports bit-exact. The zero-failure split
// campaign pins the split fleet's one-sided bound.
TEST(Campaign, EveryKindIsPinned) {
  const std::map<std::string, std::string> expected = {
      {"scenario/report", "9e89797c"},
      {"scenario/slice0_state", "5442a535"},
      {"scenario/slice1_state", "2aeb9f3b"},
      {"scenario/state", "5363f3d1"},
      {"split/report", "42e2786c"},
      {"split/slice0_state", "1b8a8b9e"},
      {"split/slice1_state", "1cb62a59"},
      {"split/state", "9042f140"},
      {"split_zero/report", "3ddf6990"},
      {"split_zero/state", "3bf46429"},
      {"system/report", "79516479"},
      {"system/slice0_state", "193883da"},
      {"system/slice1_state", "59e71783"},
      {"system/state", "1ae5ed6b"},
      {"tilted/report", "c2823f73"},
      {"tilted/slice0_state", "118f33c7"},
      {"tilted/slice1_state", "a3fe4fc2"},
      {"tilted/state", "80d7d7ad"},
  };
  std::map<std::string, std::string> actual;
  PinKind("scenario",
          [](unsigned threads, const std::string& path, sim::ShardSlice slice) {
            return ScenarioSpec(SmallScenario(threads), 64, path, slice);
          },
          actual);
  PinKind("tilted",
          [](unsigned threads, const std::string& path, sim::ShardSlice slice) {
            return TiltedSpec(SmallScenario(threads), 64, path, slice);
          },
          actual);
  PinKind("system",
          [](unsigned threads, const std::string& path, sim::ShardSlice slice) {
            return SystemSpec(threads, 200.0, path, slice);
          },
          actual);
  PinKind("split",
          [](unsigned threads, const std::string& path, sim::ShardSlice slice) {
            return SplitCampaignSpec(threads, 200.0, path, slice);
          },
          actual);

  const std::string zero = TempPath("pin_split_zero.json");
  ASSERT_TRUE(sim::RunCampaign(SplitCampaignSpec(2, 0.0, zero)).complete);
  const telemetry::Report report =
      sim::MergeCampaignCheckpoints({zero}, PinFleet());
  const JsonValue json = report.ToJson(false);
  const JsonValue* metrics = json.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->Find("split.p_failure")->AsReal(), 0.0);
  EXPECT_EQ(metrics->Find("fleet.p_trial_failure_lo")->AsReal(), 0.0);
  EXPECT_DOUBLE_EQ(metrics->Find("fleet.p_trial_failure_hi")->AsReal(),
                   util::ZeroEventUpperBound(64));
  actual["split_zero/state"] = StateCrc(zero);
  actual["split_zero/report"] = util::Crc32Hex(json.Dump());

  for (const auto& [key, crc] : actual)
    EXPECT_EQ(crc, expected.count(key) ? expected.at(key) : "")
        << "{\"" << key << "\", \"" << crc << "\"},";
  EXPECT_EQ(actual.size(), expected.size());
}

// Each kind writes the totals line `pairsim campaign run --json` and
// `campaign merge` print; an empty campaign reads the same in every kind.
TEST(Campaign, EveryKindWritesItsTotalsLine) {
  const auto totals = [](const sim::CampaignSpec& spec) {
    EXPECT_TRUE(sim::RunCampaign(spec).complete);
    std::string line;
    sim::MergeCampaignCheckpoints({spec.checkpoint_path}, {}, &line);
    return line;
  };
  EXPECT_EQ(totals(ScenarioSpec(SmallScenario(), 64,
                                TempPath("totals_scenario.json"))),
            "campaign totals: 64 trials, 19 with failure "
            "(P(failure)/trial = 2.97e-01)\n");
  EXPECT_EQ(totals(TiltedSpec(SmallScenario(), 64,
                              TempPath("totals_tilted.json"))),
            "campaign totals: 64 trials, 29 with failure "
            "(P(failure)/trial = 4.53e-01)\n"
            "importance-sampled P(failure)/trial = 8.02e-02 +/- 1.55e-02\n");
  EXPECT_EQ(totals(SystemSpec(2, 200.0, TempPath("totals_system.json"))),
            "campaign totals: 64 trials, 2 with failure "
            "(P(failure)/trial = 3.12e-02)\n");
  EXPECT_EQ(
      totals(SplitCampaignSpec(2, 200.0, TempPath("totals_split.json"))),
      "campaign totals: 64 root trials over 112 simulated nodes "
      "(P(failure)/trial = 1.56e-02 +/- 1.56e-02)\n");
  sim::CampaignSpec empty =
      SplitCampaignSpec(2, 200.0, TempPath("totals_split_empty.json"));
  empty.trials = 0;
  EXPECT_EQ(totals(empty), "campaign totals: 0 trials, 0 with failure\n");
}

// ------------------------------------ checkpoints that disagree with
// themselves or with their spec

JsonValue& Member(JsonValue& object, std::string_view key) {
  for (auto& [name, value] : object.AsObject())
    if (name == key) return value;
  ADD_FAILURE() << "no member '" << key << "'";
  static JsonValue none;
  return none;
}

/// Edits a checkpoint's body and reseals it, as a hand edit would.
void Reseal(const std::string& path,
            const std::function<void(JsonValue& body)>& edit) {
  JsonValue body = telemetry::ReadCheckpointFile(path);
  edit(body);
  telemetry::WriteCheckpointFile(body, path);
}

/// Gives the body a config_hash that matches its (edited) config.
void Rehash(JsonValue& body) {
  const std::string crc = util::Crc32Hex(Member(body, "config").Dump());
  body.Set("config_hash", JsonValue(crc));
}

/// `run` must throw one line that names `path` and contains `expect`.
void ExpectRefusal(const std::function<void()>& run, const std::string& path,
                   const std::string& expect) {
  try {
    run();
    ADD_FAILURE() << "accepted: expected '" << expect << "'";
  } catch (const std::exception& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(expect), std::string::npos) << what;
    EXPECT_NE(what.find("'" + path + "'"), std::string::npos) << what;
    EXPECT_EQ(what.find('\n'), std::string::npos) << what;
  }
}

TEST(Campaign, MergeAndResumeRefuseAConfigThatIsNotItsHash) {
  const std::string path = TempPath("edited_config.json");
  const sim::CampaignSpec spec = TiltedSpec(SmallScenario(), 64, path);
  ASSERT_TRUE(sim::RunCampaign(spec).complete);
  // Genuine checkpoints re-hash to their stored value.
  ASSERT_NO_THROW(sim::MergeCampaignCheckpoints({path}));

  Reseal(path, [](JsonValue& body) {
    Member(body, "config").Set("tilt_max",
                               JsonValue(std::uint64_t{4294967302}));
  });
  ExpectRefusal([&] { sim::MergeCampaignCheckpoints({path}); }, path,
                "is not the CRC32 of its own config");
  ExpectRefusal([&] { sim::RunCampaign(spec); }, path,
                "is not the CRC32 of its own config");

  // Re-hashed to agree with itself, a tilt window bound or a replica count
  // beyond `unsigned` is refused by name instead of wrapping, and so is a
  // tilt window TiltSpec::Validate refuses. The merge names the checkpoint;
  // a resume refuses its config hash, also naming the checkpoint.
  const std::uint64_t kWide = 4294967302;
  const struct {
    const char* field;
    std::uint64_t value;
    std::string expect;
  } edits[] = {
      {"tilt_min", kWide, "field 'tilt_min' is 4294967302, above the unsigned"},
      {"tilt_max", kWide, "field 'tilt_max' is 4294967302, above the unsigned"},
      {"split_replicas", kWide,
       "field 'split_replicas' is 4294967302, above the unsigned"},
      {"tilt_min", 7, "tilt: min_faults 7 exceeds max_faults 6"},
  };
  for (const auto& edit : edits) {
    const sim::CampaignSpec fresh =
        std::string(edit.field) == "split_replicas"
            ? SplitCampaignSpec(2, 200.0, TempPath("edited_config.json"))
            : TiltedSpec(SmallScenario(), 64, TempPath("edited_config.json"));
    ASSERT_TRUE(sim::RunCampaign(fresh).complete);
    Reseal(path, [&](JsonValue& body) {
      Member(body, "config").Set(edit.field, JsonValue(edit.value));
      Rehash(body);
    });
    ExpectRefusal([&] { sim::MergeCampaignCheckpoints({path}); }, path,
                  edit.expect);
    ExpectRefusal([&] { sim::RunCampaign(fresh); }, path,
                  "config hash mismatch");
  }
}

TEST(Campaign, MergeAndResumeRefuseAnUnknownMode) {
  const std::string path = TempPath("unknown_mode.json");
  const sim::CampaignSpec spec = ScenarioSpec(SmallScenario(), 64, path);
  ASSERT_TRUE(sim::RunCampaign(spec).complete);
  Reseal(path, [](JsonValue& body) { body.Set("mode", JsonValue("bogus")); });
  ExpectRefusal([&] { sim::MergeCampaignCheckpoints({path}); }, path,
                "unknown campaign mode 'bogus'");
  ExpectRefusal([&] { sim::RunCampaign(spec); }, path,
                "unknown campaign mode 'bogus'");
}

TEST(Campaign, MergeAndResumeRefuseATallyWiderThanTheTiltWindow) {
  const std::string path = TempPath("wide_tally.json");
  const sim::CampaignSpec spec = TiltedSpec(SmallScenario(), 64, path);
  ASSERT_TRUE(sim::RunCampaign(spec).complete);
  Reseal(path, [](JsonValue& body) {
    JsonValue& weighted = Member(Member(body, "state"), "weighted");
    for (const char* key : {"trials", "failures", "sdc", "due"})
      Member(weighted, key).Append(JsonValue(std::uint64_t{0}));
  });
  // The window [2, 6] holds 5 classes.
  ExpectRefusal([&] { sim::MergeCampaignCheckpoints({path}); }, path,
                "weighted tally has 6");
  ExpectRefusal([&] { sim::RunCampaign(spec); }, path,
                "weighted tally has 6");
}

TEST(Campaign, MergeAndResumeRefuseASplitTallyOfTheWrongDepth) {
  const std::string path = TempPath("deep_tally.json");
  const sim::CampaignSpec spec = SplitCampaignSpec(2, 200.0, path);
  ASSERT_TRUE(sim::RunCampaign(spec).complete);
  Reseal(path, [](JsonValue& body) {
    JsonValue& split = Member(Member(body, "state"), "split");
    for (const char* key : {"leaves", "failures", "sdc", "due"})
      Member(split, key).Append(JsonValue(std::uint64_t{1}));
    JsonValue& cross = Member(split, "failure_cross");
    for (JsonValue& row : cross.AsArray())
      row.Append(JsonValue(std::uint64_t{0}));
    JsonValue last = cross.AsArray().back();
    cross.Append(std::move(last));
  });
  // Levels 1,2 make 3 depths.
  ExpectRefusal([&] { sim::MergeCampaignCheckpoints({path}); }, path,
                "split tally has 4 depths");
  ExpectRefusal([&] { sim::RunCampaign(spec); }, path,
                "split tally has 4 depths");
}

TEST(Campaign, MergeAndResumeRefuseACursorThatDisagreesWithItsSlice) {
  const std::string path = TempPath("early_complete.json");
  const sim::CampaignSpec spec =
      ScenarioSpec(SmallScenario(/*threads=*/1), 64, path);
  sim::RunCampaign(spec, nullptr, /*max_shards=*/1);
  Reseal(path, [](JsonValue& body) { body.Set("complete", JsonValue(true)); });
  ExpectRefusal([&] { sim::MergeCampaignCheckpoints({path}); }, path,
                "marked complete, but next_shard 1 is not end_shard 4");
  ExpectRefusal([&] { sim::RunCampaign(spec); }, path,
                "marked complete, but next_shard 1 is not end_shard 4");

  // A cursor past the end of its slice.
  ASSERT_TRUE(sim::RunCampaign(ScenarioSpec(SmallScenario(), 64,
                                            TempPath("early_complete.json")))
                  .complete);
  Reseal(path, [](JsonValue& body) {
    body.Set("next_shard", JsonValue(std::uint64_t{5}));
  });
  ExpectRefusal([&] { sim::MergeCampaignCheckpoints({path}); }, path,
                "next_shard 5 outside its slice [0, 4]");
  ExpectRefusal([&] { sim::RunCampaign(spec); }, path,
                "next_shard 5 outside its slice [0, 4]");
}

// A tilt belongs to reliability mode and a split to system mode; the other
// two combinations describe no campaign kind.
TEST(Campaign, KindlessCombinationsAreRefused) {
  sim::CampaignSpec split_reliability =
      ScenarioSpec(SmallScenario(), 64, TempPath("kindless_r.json"));
  split_reliability.split.thresholds = {1, 2};
  sim::CampaignSpec tilted_system =
      SystemSpec(2, 200.0, TempPath("kindless_s.json"));
  tilted_system.tilt = CampaignTilt();
  for (const sim::CampaignSpec* spec : {&split_reliability, &tilted_system}) {
    try {
      sim::RunCampaign(*spec);
      ADD_FAILURE() << "ran a " << sim::ToString(spec->mode)
                    << " campaign it has no kind for";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(spec->mode == sim::CampaignMode::kSystem
                              ? "tilt"
                              : "split"),
                std::string::npos)
          << what;
      EXPECT_EQ(what.find('\n'), std::string::npos) << what;
    }
  }

  // The same combinations written into checkpoints that agree with
  // themselves.
  const std::string r = TempPath("kindless_r_ck.json");
  const std::string s = TempPath("kindless_s_ck.json");
  ASSERT_TRUE(sim::RunCampaign(ScenarioSpec(SmallScenario(), 64, r)).complete);
  ASSERT_TRUE(sim::RunCampaign(SystemSpec(2, 200.0, s)).complete);
  Reseal(r, [](JsonValue& body) {
    reliability::SplitSpec split;
    split.thresholds = {1, 2};
    reliability::AddSplitFingerprint(Member(body, "config"), split);
    Rehash(body);
  });
  Reseal(s, [](JsonValue& body) {
    reliability::AddTiltFingerprint(Member(body, "config"), CampaignTilt());
    Rehash(body);
  });
  ExpectRefusal([&] { sim::MergeCampaignCheckpoints({r}); }, r, "split");
  ExpectRefusal([&] { sim::MergeCampaignCheckpoints({s}); }, s, "tilt");
}

TEST(Campaign, WeightedFleetIntervalBracketsEstimate) {
  const ScenarioConfig cfg = SmallScenario();
  const std::string path = TempPath("is_fleet.json");
  ASSERT_TRUE(sim::RunCampaign(TiltedSpec(cfg, 64, path)).complete);

  sim::FleetSpec fleet;
  fleet.devices = 1e5;
  fleet.years = 5.0;
  fleet.trial_years = 5.0;
  const telemetry::Report report = sim::MergeCampaignCheckpoints({path}, fleet);
  const JsonValue json = report.ToJson(false);
  const JsonValue* metrics = json.Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* p = metrics->Find("fleet.p_trial_failure");
  const JsonValue* lo = metrics->Find("fleet.p_trial_failure_lo");
  const JsonValue* hi = metrics->Find("fleet.p_trial_failure_hi");
  ASSERT_NE(p, nullptr);
  ASSERT_NE(lo, nullptr);
  ASSERT_NE(hi, nullptr);
  // The variance-backed Wilson interval must bracket the weighted estimate
  // and match the is.* metric the same report carries.
  EXPECT_LE(lo->AsReal(), p->AsReal());
  EXPECT_LE(p->AsReal(), hi->AsReal());
  EXPECT_GT(p->AsReal(), 0.0);
  EXPECT_DOUBLE_EQ(p->AsReal(), metrics->Find("is.p_failure")->AsReal());
}

}  // namespace
