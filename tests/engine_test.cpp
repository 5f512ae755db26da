// TrialEngine determinism contract (see src/reliability/engine.hpp).
//
// The engine promises bitwise-identical results for any thread count,
// including threads=1 matching the pre-engine serial implementation. The
// golden table below was pinned from that serial implementation (the
// pre-refactor trial loop with `master.Fork()` per trial); any drift in the
// per-trial RNG derivation, shard grouping, or merge order fails here.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "reliability/engine.hpp"
#include "reliability/lifetime.hpp"
#include "reliability/monte_carlo.hpp"
#include "reliability/telemetry.hpp"

namespace pair_ecc::reliability {
namespace {

ScenarioConfig GoldenConfig(ecc::SchemeKind kind, unsigned threads) {
  ScenarioConfig cfg;
  cfg.scheme = kind;
  cfg.mix = faults::FaultMix::Inherent();
  cfg.faults_per_trial = 2;
  cfg.working_rows = 1;
  cfg.lines_per_row = 4;
  cfg.seed = 0xD5EED;
  cfg.threads = threads;
  return cfg;
}

constexpr unsigned kGoldenTrials = 48;

struct GoldenRow {
  ecc::SchemeKind kind;
  std::uint64_t trials, reads, no_error, corrected, due, sdc_miscorrected,
      sdc_undetected, trials_with_sdc, trials_with_due, trials_with_failure;
};

// Pinned from the serial implementation predating the trial engine.
constexpr GoldenRow kGolden[] = {
    {ecc::SchemeKind::kNoEcc,       48, 192, 136, 0, 0, 0, 56, 14, 0, 14},
    {ecc::SchemeKind::kIecc,        48, 192, 136, 0, 32, 24, 0, 13, 13, 14},
    {ecc::SchemeKind::kSecDed,      48, 192, 136, 24, 32, 0, 0, 0, 8, 8},
    {ecc::SchemeKind::kIeccSecDed,  48, 192, 136, 10, 46, 0, 0, 0, 14, 14},
    {ecc::SchemeKind::kXed,         48, 192, 136, 29, 1, 26, 0, 13, 1, 13},
    {ecc::SchemeKind::kDuo,         48, 192, 136, 24, 32, 0, 0, 0, 8, 8},
    {ecc::SchemeKind::kPair2,       48, 192, 20, 76, 96, 0, 0, 0, 24, 24},
    {ecc::SchemeKind::kPair4,       48, 192, 20, 116, 56, 0, 0, 0, 14, 14},
    {ecc::SchemeKind::kPair4SecDed, 48, 192, 20, 116, 56, 0, 0, 0, 14, 14},
};

TEST(EngineGolden, SerialMatchesPreEngineImplementation) {
  for (const auto& g : kGolden) {
    const OutcomeCounts c =
        RunMonteCarlo(GoldenConfig(g.kind, /*threads=*/1), kGoldenTrials);
    SCOPED_TRACE(ecc::ToString(g.kind));
    EXPECT_EQ(c.trials, g.trials);
    EXPECT_EQ(c.reads, g.reads);
    EXPECT_EQ(c.no_error, g.no_error);
    EXPECT_EQ(c.corrected, g.corrected);
    EXPECT_EQ(c.due, g.due);
    EXPECT_EQ(c.sdc_miscorrected, g.sdc_miscorrected);
    EXPECT_EQ(c.sdc_undetected, g.sdc_undetected);
    EXPECT_EQ(c.trials_with_sdc, g.trials_with_sdc);
    EXPECT_EQ(c.trials_with_due, g.trials_with_due);
    EXPECT_EQ(c.trials_with_failure, g.trials_with_failure);
  }
}

TEST(EngineDeterminism, MonteCarloBitwiseEqualAcrossThreadCounts) {
  for (const auto kind : ecc::AllSchemeKinds()) {
    SCOPED_TRACE(ecc::ToString(kind));
    const OutcomeCounts serial =
        RunMonteCarlo(GoldenConfig(kind, /*threads=*/1), kGoldenTrials);
    for (unsigned threads : {2u, 8u}) {
      const OutcomeCounts parallel =
          RunMonteCarlo(GoldenConfig(kind, threads), kGoldenTrials);
      EXPECT_EQ(parallel, serial) << "threads=" << threads;
    }
  }
}

TEST(EngineDeterminism, TrialCountNotAMultipleOfShardSize) {
  // 19 trials = one full shard + a 3-trial tail; exercises the partial-shard
  // edge in both serial and pooled modes.
  const auto cfg1 = GoldenConfig(ecc::SchemeKind::kPair4, 1);
  const auto cfg8 = GoldenConfig(ecc::SchemeKind::kPair4, 8);
  EXPECT_EQ(RunMonteCarlo(cfg1, 19), RunMonteCarlo(cfg8, 19));
}

TEST(EngineDeterminism, LifetimeBitwiseEqualAcrossThreadCounts) {
  LifetimeConfig cfg;
  cfg.scheme = ecc::SchemeKind::kPair4;
  cfg.epochs = 12;
  cfg.faults_per_epoch = 0.4;
  cfg.scrub_interval = 4;
  cfg.seed = 0xD5EED;
  cfg.threads = 1;
  const LifetimeStats serial = RunLifetime(cfg, 40);
  for (unsigned threads : {2u, 8u}) {
    cfg.threads = threads;
    const LifetimeStats parallel = RunLifetime(cfg, 40);
    EXPECT_EQ(parallel.trials, serial.trials) << "threads=" << threads;
    EXPECT_EQ(parallel.trials_with_sdc, serial.trials_with_sdc);
    EXPECT_EQ(parallel.trials_with_due, serial.trials_with_due);
    EXPECT_EQ(parallel.total_corrections, serial.total_corrections);
    EXPECT_EQ(parallel.total_scrub_writebacks, serial.total_scrub_writebacks);
    // Bitwise, not approximate: the engine's fixed shard grouping makes even
    // the floating-point mean reproducible.
    EXPECT_EQ(parallel.mean_sdc_epoch, serial.mean_sdc_epoch);
  }
}

// Telemetry rides inside the shard accumulators, so it inherits the same
// determinism contract as the outcome counts: identical values for any
// thread count, and collecting it must not perturb the golden outcomes
// (harvesting reads counters only — no RNG draws).
TEST(EngineTelemetry, CountersAreThreadCountInvariant) {
  for (const auto kind : ecc::AllSchemeKinds()) {
    SCOPED_TRACE(ecc::ToString(kind));
    ScenarioTelemetry serial;
    const OutcomeCounts counts =
        RunMonteCarlo(GoldenConfig(kind, /*threads=*/1), kGoldenTrials,
                      &serial);
    for (unsigned threads : {2u, 8u}) {
      ScenarioTelemetry parallel;
      const OutcomeCounts pcounts = RunMonteCarlo(
          GoldenConfig(kind, threads), kGoldenTrials, &parallel);
      EXPECT_EQ(pcounts, counts) << "threads=" << threads;
      EXPECT_EQ(parallel.trial, serial.trial) << "threads=" << threads;
    }
  }
}

TEST(EngineTelemetry, CollectionDoesNotPerturbGoldenOutcomes) {
  // The golden table was pinned before telemetry existed; an instrumented
  // run must still reproduce it bitwise.
  for (const auto& g : kGolden) {
    SCOPED_TRACE(ecc::ToString(g.kind));
    ScenarioTelemetry tel;
    const OutcomeCounts c =
        RunMonteCarlo(GoldenConfig(g.kind, /*threads=*/1), kGoldenTrials,
                      &tel);
    EXPECT_EQ(c.no_error, g.no_error);
    EXPECT_EQ(c.corrected, g.corrected);
    EXPECT_EQ(c.due, g.due);
    EXPECT_EQ(c.sdc_miscorrected, g.sdc_miscorrected);
    EXPECT_EQ(c.sdc_undetected, g.sdc_undetected);
    // Structural counter invariants, valid for every scheme.
    EXPECT_EQ(tel.trial.codec.decodes, c.reads);
    EXPECT_EQ(tel.trial.codec.writes, c.reads) << "1 write per read here";
    EXPECT_EQ(tel.trial.codec.claim_clean + tel.trial.codec.claim_corrected +
                  tel.trial.codec.claim_detected,
              tel.trial.codec.decodes);
    EXPECT_EQ(tel.trial.injection.total,
              static_cast<std::uint64_t>(kGoldenTrials) * 2);
    EXPECT_EQ(tel.trial.injection.permanent + tel.trial.injection.transient,
              tel.trial.injection.total);
    EXPECT_EQ(tel.trial.corrected_units.TotalCount(), c.reads);
    EXPECT_EQ(tel.engine.trials, kGoldenTrials);
    EXPECT_EQ(tel.engine.shards,
              (kGoldenTrials + TrialEngine::kShardTrials - 1) /
                  TrialEngine::kShardTrials);
  }
}

// Pinned telemetry goldens for one representative scheme per family; any
// drift in the NVI counting layer (double counting, scrub traffic leaking
// into host counters) fails here even when the outcomes stay right.
struct TelemetryGoldenRow {
  ecc::SchemeKind kind;
  std::uint64_t claim_clean, claim_corrected, claim_detected, corrected_units,
      faults_single_bit, faults_permanent;
};

constexpr TelemetryGoldenRow kTelemetryGolden[] = {
    {ecc::SchemeKind::kIecc, 136, 24, 32, 27, 69, 70},
    {ecc::SchemeKind::kSecDed, 136, 24, 32, 219, 69, 70},
    {ecc::SchemeKind::kPair4, 20, 116, 56, 808, 69, 70},
};

TEST(EngineTelemetry, GoldenCounterValues) {
  for (const auto& g : kTelemetryGolden) {
    SCOPED_TRACE(ecc::ToString(g.kind));
    ScenarioTelemetry tel;
    RunMonteCarlo(GoldenConfig(g.kind, /*threads=*/1), kGoldenTrials, &tel);
    EXPECT_EQ(tel.trial.codec.claim_clean, g.claim_clean);
    EXPECT_EQ(tel.trial.codec.claim_corrected, g.claim_corrected);
    EXPECT_EQ(tel.trial.codec.claim_detected, g.claim_detected);
    EXPECT_EQ(tel.trial.codec.corrected_units, g.corrected_units);
    const auto bit_index =
        static_cast<std::size_t>(faults::FaultType::kSingleBit);
    EXPECT_EQ(tel.trial.injection.by_type[bit_index], g.faults_single_bit);
    EXPECT_EQ(tel.trial.injection.permanent, g.faults_permanent);
  }
}

// A custom accumulator through the generic Run(): per-trial first draws,
// summed. Checks seeds are per-trial (not per-worker) and the merge is in
// shard order.
struct DrawSum {
  std::uint64_t xor_all = 0;
  std::uint64_t count = 0;
  DrawSum& operator+=(const DrawSum& o) noexcept {
    xor_all ^= o.xor_all;
    count += o.count;
    return *this;
  }
};

TEST(EngineGeneric, CustomAccumulatorIsThreadCountInvariant) {
  constexpr std::uint64_t kTrials = 100;  // 6 shards + partial tail
  auto body = [](std::uint64_t trial, util::Xoshiro256& rng, DrawSum& acc) {
    acc.xor_all ^= rng() * (trial + 1);
    ++acc.count;
  };
  const DrawSum serial = TrialEngine(1).Run<DrawSum>(123, kTrials, body);
  EXPECT_EQ(serial.count, kTrials);
  for (unsigned threads : {2u, 3u, 8u, 16u}) {
    const DrawSum parallel =
        TrialEngine(threads).Run<DrawSum>(123, kTrials, body);
    EXPECT_EQ(parallel.xor_all, serial.xor_all) << "threads=" << threads;
    EXPECT_EQ(parallel.count, serial.count) << "threads=" << threads;
  }
}

// A floating-point accumulator whose trials each make several adds of
// widely spread magnitudes: these adds do not associate, so every bit of
// the sum depends on the order the engine folds trials and shards in.
struct SpreadSum {
  double sum = 0.0;
  SpreadSum& operator+=(const SpreadSum& o) noexcept {
    sum += o.sum;
    return *this;
  }
};

TEST(EngineGeneric, FloatingPointSumIsThreadCountAndSplitInvariant) {
  constexpr std::uint64_t kTrials = 100;  // 6 shards + partial tail
  auto body = [](std::uint64_t trial, util::Xoshiro256& rng, SpreadSum& acc,
                 int&) {
    // On several workers, trials then finish out of claim order: a fold in
    // completion order instead of trial order changes the sum's bits.
    if (trial % 3 == 0)
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    for (int i = 0; i < 5; ++i)
      acc.sum += std::ldexp(rng.UniformDouble(), static_cast<int>(rng() % 64));
  };
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  const std::uint64_t shards = TrialEngine::ShardCount(kTrials);
  const SpreadSum serial =
      TrialEngine(1).RunWithScratch<SpreadSum, int>(77, kTrials, body);
  for (const unsigned threads : {1u, 2u, 3u, 8u, 16u}) {
    const TrialEngine engine(threads);
    const SpreadSum whole =
        engine.RunWithScratch<SpreadSum, int>(77, kTrials, body);
    EXPECT_EQ(bits(whole.sum), bits(serial.sum)) << "threads=" << threads;
    // The same shard range split across two calls, folded in shard order.
    SpreadSum split;
    const auto fold = [&split](std::uint64_t, const SpreadSum& s) {
      split += s;
    };
    const std::uint64_t mid =
        engine.RunShardsObserved<SpreadSum, int>(77, kTrials, 0, 3, body, fold);
    const std::uint64_t end = engine.RunShardsObserved<SpreadSum, int>(
        77, kTrials, mid, shards, body, fold);
    ASSERT_EQ(mid, 3u);
    ASSERT_EQ(end, shards);
    EXPECT_EQ(bits(split.sum), bits(serial.sum)) << "threads=" << threads;
  }
}

TEST(EngineGeneric, SeedChangesResults) {
  auto body = [](std::uint64_t, util::Xoshiro256& rng, DrawSum& acc) {
    acc.xor_all ^= rng();
    ++acc.count;
  };
  const DrawSum a = TrialEngine(4).Run<DrawSum>(1, 64, body);
  const DrawSum b = TrialEngine(4).Run<DrawSum>(2, 64, body);
  EXPECT_NE(a.xor_all, b.xor_all);
}

TEST(EngineGeneric, PerTrialStreamMatchesSerialForkSequence) {
  // The contract: trial i's stream is Xoshiro256(s_i) where s_i is the i-th
  // output of Xoshiro256(seed) — exactly the old serial `master.Fork()`.
  constexpr std::uint64_t kSeed = 0xFEED;
  util::Xoshiro256 master(kSeed);
  std::vector<std::uint64_t> expect;
  for (int i = 0; i < 40; ++i) {
    util::Xoshiro256 forked = master.Fork();
    expect.push_back(forked());
  }
  std::vector<std::uint64_t> got(expect.size());
  TrialEngine(8).Run<DrawSum>(
      kSeed, expect.size(),
      [&got](std::uint64_t trial, util::Xoshiro256& rng, DrawSum&) {
        got[trial] = rng();
      });
  EXPECT_EQ(got, expect);
}

TEST(EngineMetrics, ShapeMatchesTheShardLayout) {
  auto body = [](std::uint64_t, util::Xoshiro256& rng, DrawSum& acc) {
    acc.xor_all ^= rng();
    ++acc.count;
  };
  for (const unsigned threads : {1u, 4u}) {
    for (const std::uint64_t trials : {0u, 16u, 37u}) {
      EngineMetrics m;
      const DrawSum sum =
          TrialEngine(threads).Run<DrawSum>(7, trials, body, &m);
      const std::uint64_t shards = TrialEngine::ShardCount(trials);
      EXPECT_EQ(sum.count, trials);
      EXPECT_EQ(m.workers, std::max<std::uint64_t>(
                               1, std::min<std::uint64_t>(threads, trials)))
          << "threads=" << threads << " trials=" << trials;
      EXPECT_EQ(m.trials, trials);
      EXPECT_EQ(m.shards, shards);
      ASSERT_EQ(m.shard_seconds.size(), shards);
      for (const double s : m.shard_seconds) EXPECT_GE(s, 0.0);
      EXPECT_GE(m.wall_seconds, 0.0);
    }
  }
}

// Each trial appends its index, so the merged list shows the order the
// engine folded trials and shards in.
struct TrialList {
  std::vector<std::uint64_t> trials;
  TrialList& operator+=(const TrialList& o) {
    trials.insert(trials.end(), o.trials.begin(), o.trials.end());
    return *this;
  }
};

TEST(EngineTrialwise, FoldsEveryShardInTrialOrderForAnyThreadCount) {
  constexpr std::uint64_t kTrials = 100;  // 6 shards + partial tail
  std::vector<std::uint64_t> in_order(kTrials);
  for (std::uint64_t t = 0; t < kTrials; ++t) in_order[t] = t;
  auto body = [](std::uint64_t trial, util::Xoshiro256&, TrialList& acc) {
    acc.trials.push_back(trial);
  };
  for (const unsigned threads : {1u, 2u, 3u, 8u, 16u}) {
    EngineMetrics m;
    const TrialList list =
        TrialEngine(threads).Run<TrialList>(5, kTrials, body, &m);
    EXPECT_EQ(list.trials, in_order) << "threads=" << threads;
    // Single trials are the unit of work, so every thread gets some.
    EXPECT_EQ(m.workers, threads) << "threads=" << threads;
    EXPECT_EQ(m.shards, TrialEngine::ShardCount(kTrials));
  }
}

TEST(EngineTrialwise, StopLandsOnAShardBoundaryAndEveryBegunShardFinishes) {
  constexpr std::uint64_t kTrials = 160;
  for (const unsigned threads : {2u, 4u}) {
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> observed;
    TrialList merged;
    const std::uint64_t next = TrialEngine(threads).RunShardsObserved<
        TrialList, int>(
        9, kTrials, 0, TrialEngine::ShardCount(kTrials),
        [&stop](std::uint64_t trial, util::Xoshiro256&, TrialList& acc, int&) {
          if (trial == 37) stop = true;
          acc.trials.push_back(trial);
        },
        [&](std::uint64_t shard, const TrialList& result) {
          observed.push_back(shard);
          merged += result;
        },
        &stop);
    EXPECT_LT(next, TrialEngine::ShardCount(kTrials)) << "threads=" << threads;
    ASSERT_EQ(observed.size(), next);
    for (std::uint64_t i = 0; i < next; ++i) EXPECT_EQ(observed[i], i);
    ASSERT_EQ(merged.trials.size(), next * TrialEngine::kShardTrials);
    for (std::uint64_t t = 0; t < merged.trials.size(); ++t)
      EXPECT_EQ(merged.trials[t], t);
  }
}

// An exception type no engine code throws: catching it shows the trial's
// or the observer's exception crossed the worker boundary unchanged.
struct TrialFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

TEST(EngineErrors, ATrialExceptionReachesTheCallerForAnyThreadCount) {
  constexpr std::uint64_t kTrials = 160;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    std::vector<std::uint64_t> observed;
    EXPECT_THROW(
        (TrialEngine(threads).RunShardsObserved<TrialList, int>(
            3, kTrials, 0, TrialEngine::ShardCount(kTrials),
            [](std::uint64_t trial, util::Xoshiro256&, TrialList& acc, int&) {
              if (trial == 37) throw TrialFailure("trial 37");
              acc.trials.push_back(trial);
            },
            [&observed](std::uint64_t shard, const TrialList&) {
              observed.push_back(shard);
            })),
        TrialFailure)
        << "threads=" << threads;
    // Trial 37 is in shard 2, which never completes: at most shards 0 and
    // 1 are observed, in order.
    ASSERT_LE(observed.size(), 2u) << "threads=" << threads;
    for (std::size_t i = 0; i < observed.size(); ++i)
      EXPECT_EQ(observed[i], i) << "threads=" << threads;
    if (threads == 1) {
      EXPECT_EQ(observed.size(), 2u);
    }
  }
}

TEST(EngineErrors, AnObserverExceptionReachesTheCallerForAnyThreadCount) {
  constexpr std::uint64_t kTrials = 160;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    std::vector<std::uint64_t> observed;
    EXPECT_THROW(
        (TrialEngine(threads).RunShardsObserved<TrialList, int>(
            3, kTrials, 0, TrialEngine::ShardCount(kTrials),
            [](std::uint64_t trial, util::Xoshiro256&, TrialList& acc, int&) {
              acc.trials.push_back(trial);
            },
            [&observed](std::uint64_t shard, const TrialList&) {
              observed.push_back(shard);
              if (shard == 2) throw TrialFailure("shard 2");
            })),
        TrialFailure)
        << "threads=" << threads;
    // Dense up to the throwing call, and no call after it.
    EXPECT_EQ(observed, (std::vector<std::uint64_t>{0, 1, 2}))
        << "threads=" << threads;
  }
}

// Nothing is stored per trial of the range: a 2^40-trial call that is
// stopped in its first trial returns after one shard.
TEST(RunShardsObserved, StopInTheFirstTrialOfAHugeRangeEndsAfterOneShard) {
  constexpr std::uint64_t kTrials = std::uint64_t{1} << 40;
  for (const unsigned threads : {1u, 4u}) {
    std::atomic<bool> stop{false};
    std::vector<std::uint64_t> observed;
    DrawSum sum;
    EngineMetrics m;
    const std::uint64_t next =
        TrialEngine(threads).RunShardsObserved<DrawSum, int>(
            5, kTrials, 0, TrialEngine::ShardCount(kTrials),
            [&stop](std::uint64_t trial, util::Xoshiro256& rng, DrawSum& acc,
                    int&) {
              // Later trials wait for the stop, so no worker reaches the
              // second shard's first claim before it is raised.
              if (trial == 0) stop = true;
              while (!stop) std::this_thread::yield();
              acc.xor_all ^= rng();
              ++acc.count;
            },
            [&](std::uint64_t shard, const DrawSum& s) {
              observed.push_back(shard);
              sum += s;
            },
            &stop, &m);
    EXPECT_EQ(next, 1u) << "threads=" << threads;
    EXPECT_EQ(observed, std::vector<std::uint64_t>{0}) << "threads=" << threads;
    EXPECT_EQ(sum.count, TrialEngine::kShardTrials);
    EXPECT_EQ(m.trials, TrialEngine::kShardTrials);
    EXPECT_EQ(m.shards, 1u);
    EXPECT_EQ(m.shard_seconds.size(), 1u);
  }
}

// The observer runs without the engine's lock: while observer(0) waits,
// the other workers go on to run trials of later shards. The wait is
// bounded, so an engine that observes under its lock fails here after the
// deadline instead of hanging.
TEST(RunShardsObserved, TrialsOfLaterShardsRunWhileTheObserverWorks) {
  constexpr std::uint64_t kTrials = 160;
  for (const unsigned threads : {2u, 4u}) {
    std::atomic<bool> later_shard_ran{false};
    bool timed_out = false;
    std::vector<std::uint64_t> observed;
    TrialEngine(threads).RunShardsObserved<TrialList, int>(
        11, kTrials, 0, TrialEngine::ShardCount(kTrials),
        [&later_shard_ran](std::uint64_t trial, util::Xoshiro256&,
                           TrialList& acc, int&) {
          if (trial >= 2 * TrialEngine::kShardTrials) later_shard_ran = true;
          acc.trials.push_back(trial);
        },
        [&](std::uint64_t shard, const TrialList&) {
          observed.push_back(shard);
          if (shard != 0) return;
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(5);
          while (!later_shard_ran &&
                 std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          timed_out = !later_shard_ran;
        });
    EXPECT_FALSE(timed_out) << "threads=" << threads;
    ASSERT_EQ(observed.size(), TrialEngine::ShardCount(kTrials));
    for (std::uint64_t i = 0; i < observed.size(); ++i)
      EXPECT_EQ(observed[i], i) << "threads=" << threads;
  }
}

// One observer call at a time, in shard order, whichever worker makes it;
// trials of uneven length make different workers finish shards.
TEST(RunShardsObserved, ObserverCallsNeverOverlapAndArriveInShardOrder) {
  constexpr std::uint64_t kTrials = 400;  // 25 shards
  std::vector<std::uint64_t> in_order(kTrials);
  for (std::uint64_t t = 0; t < kTrials; ++t) in_order[t] = t;
  for (unsigned threads = 1; threads <= 16; ++threads) {
    std::atomic<int> inside{0};
    std::atomic<bool> overlapped{false};
    std::vector<std::uint64_t> observed;
    TrialList merged;
    TrialEngine(threads).RunShardsObserved<TrialList, int>(
        13, kTrials, 0, TrialEngine::ShardCount(kTrials),
        [](std::uint64_t trial, util::Xoshiro256&, TrialList& acc, int&) {
          if (trial % 7 == 0)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          acc.trials.push_back(trial);
        },
        [&](std::uint64_t shard, const TrialList& result) {
          if (inside.fetch_add(1) != 0) overlapped = true;
          observed.push_back(shard);
          merged += result;
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          inside.fetch_sub(1);
        });
    EXPECT_FALSE(overlapped) << "threads=" << threads;
    ASSERT_EQ(observed.size(), TrialEngine::ShardCount(kTrials))
        << "threads=" << threads;
    for (std::uint64_t i = 0; i < observed.size(); ++i)
      EXPECT_EQ(observed[i], i) << "threads=" << threads;
    EXPECT_EQ(merged.trials, in_order) << "threads=" << threads;
  }
}

TEST(EngineConfig, ResolveThreads) {
  EXPECT_EQ(TrialEngine::ResolveThreads(3), 3u);
  EXPECT_GE(TrialEngine::ResolveThreads(0), 1u);
  EXPECT_EQ(TrialEngine(5).threads(), 5u);
}

TEST(EngineWorkingSet, MatchesDocumentedLayout) {
  dram::RankGeometry geometry;
  const auto ws = MakeWorkingSet(geometry, 3, 4, 37, 11);
  ASSERT_EQ(ws.rows.size(), 3u);
  const auto& g = geometry.device;
  EXPECT_EQ(ws.rows[0].bank, 0u);
  EXPECT_EQ(ws.rows[0].row, 11u % g.rows_per_bank);
  EXPECT_EQ(ws.rows[2].bank, 2u % g.banks);
  EXPECT_EQ(ws.rows[2].row, (2u * 37 + 11) % g.rows_per_bank);
  ASSERT_EQ(ws.cols.size(), 4u);
  EXPECT_EQ(ws.cols[0], 0u);
  EXPECT_EQ(ws.cols[1], g.ColumnsPerRow() / 4);
}

}  // namespace
}  // namespace pair_ecc::reliability
