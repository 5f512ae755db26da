// Lifetime/scrubbing engine tests: Poisson accumulation, scrub semantics
// per scheme (including PAIR's in-DRAM decode-and-restore), and the
// directional effect of scrub interval on end-of-horizon reliability.
#include <gtest/gtest.h>

#include <limits>

#include "core/pair_scheme.hpp"
#include "dram/rank.hpp"
#include "reliability/lifetime.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace pair_ecc::reliability {
namespace {

using dram::Address;
using dram::Rank;
using dram::RankGeometry;
using pair_ecc::util::BitVec;
using pair_ecc::util::Xoshiro256;

LifetimeConfig Base(ecc::SchemeKind scheme) {
  LifetimeConfig cfg;
  cfg.scheme = scheme;
  cfg.epochs = 25;
  cfg.faults_per_epoch = 0.2;
  cfg.working_rows = 1;
  cfg.lines_per_row = 4;
  cfg.seed = 5;
  return cfg;
}

TEST(Lifetime, CountsAreConsistent) {
  const auto stats = RunLifetime(Base(ecc::SchemeKind::kIecc), 60);
  EXPECT_EQ(stats.trials, 60u);
  EXPECT_LE(stats.trials_with_sdc, stats.trials);
  EXPECT_LE(stats.mean_sdc_epoch, 25.0);
  EXPECT_GT(stats.mean_sdc_epoch, 0.0);
}

TEST(Lifetime, DeterministicPerSeed) {
  const auto a = RunLifetime(Base(ecc::SchemeKind::kXed), 40);
  const auto b = RunLifetime(Base(ecc::SchemeKind::kXed), 40);
  EXPECT_EQ(a.trials_with_sdc, b.trials_with_sdc);
  EXPECT_EQ(a.total_corrections, b.total_corrections);
}

TEST(Lifetime, ZeroFaultRateMeansNoFailures) {
  auto cfg = Base(ecc::SchemeKind::kIecc);
  cfg.faults_per_epoch = 0.0;
  const auto stats = RunLifetime(cfg, 30);
  EXPECT_EQ(stats.trials_with_sdc, 0u);
  EXPECT_EQ(stats.trials_with_due, 0u);
  EXPECT_EQ(stats.total_corrections, 0u);
}

// Such rates used to run and report P(SDC) = 0 (negative, NaN) or a
// saturated fault count (exp(-rate) underflows).
TEST(Lifetime, RejectsNegativeNonFiniteOrUnderflowingRate) {
  for (const double rate : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(), 709.0}) {
    auto cfg = Base(ecc::SchemeKind::kIecc);
    cfg.faults_per_epoch = rate;
    EXPECT_THROW(RunLifetime(cfg, 1), util::ContractViolation) << rate;
  }
}

TEST(Lifetime, MoreFaultsMoreFailures) {
  auto low = Base(ecc::SchemeKind::kIecc);
  low.faults_per_epoch = 0.02;
  auto high = Base(ecc::SchemeKind::kIecc);
  high.faults_per_epoch = 0.5;
  const auto s_low = RunLifetime(low, 100);
  const auto s_high = RunLifetime(high, 100);
  EXPECT_GT(s_high.trials_with_sdc, s_low.trials_with_sdc);
}

TEST(Lifetime, ScrubbingReducesAccumulationSdc) {
  // Cell-only, transient-dominant mix: IECC's SDC path is two cell faults
  // meeting in one 128-bit word, so flushing singles between arrivals must
  // help. (Against single multi-bit faults scrubbing is powerless — the
  // damage SDCs on the demand read of the same epoch.)
  auto never = Base(ecc::SchemeKind::kIecc);
  never.mix = faults::FaultMix::CellOnly();
  never.mix.permanent_fraction = 0.1;
  never.epochs = 40;
  never.faults_per_epoch = 0.5;
  auto often = never;
  often.scrub_interval = 2;
  const auto s_never = RunLifetime(never, 150);
  const auto s_often = RunLifetime(often, 150);
  EXPECT_GT(s_often.total_scrub_writebacks, 0u);
  EXPECT_LT(2 * s_often.trials_with_sdc, s_never.trials_with_sdc);
}

TEST(Lifetime, PairSurvivesWhereIeccAccumulates) {
  auto cfg = Base(ecc::SchemeKind::kIecc);
  cfg.epochs = 40;
  const auto iecc = RunLifetime(cfg, 100);
  cfg.scheme = ecc::SchemeKind::kPair4;
  const auto pair = RunLifetime(cfg, 100);
  EXPECT_GT(iecc.trials_with_sdc, 4 * std::max<std::uint64_t>(pair.trials_with_sdc, 1) - 4);
}

// ------------------------------------------------------- ScrubLine per se

TEST(ScrubLine, DefaultWritebackClearsTransientForIecc) {
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = ecc::MakeScheme(ecc::SchemeKind::kIecc, rank);
  Xoshiro256 rng(6);
  const Address addr{0, 2, 4};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme->WriteLine(addr, line);
  rank.device(1).InjectFlip(0, 2, 4 * 64 + 9);
  scheme->ScrubLine(addr);
  const auto r = scheme->ReadLine(addr);
  EXPECT_EQ(r.claim, ecc::Claim::kClean);
  EXPECT_EQ(r.data, line);
}

TEST(ScrubLine, PairInDramScrubRestoresParityToo) {
  RankGeometry rg;
  Rank rank(rg);
  core::PairScheme pair(rank, core::PairConfig::Pair4());
  Xoshiro256 rng(7);
  const Address addr{0, 3, 10};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  pair.WriteLine(addr, line);
  rank.device(5).InjectFlip(0, 3, 10 * 64 + 33);
  pair.ScrubLine(addr);
  const auto r = pair.ReadLine(addr);
  EXPECT_EQ(r.claim, ecc::Claim::kClean);  // clean, not merely re-corrected
  EXPECT_EQ(r.data, line);
}

TEST(ScrubLine, WriteOverDirtyCodewordTakesTheSlowPathAndScrubs) {
  // The write path's syndrome check: a pure delta update over a codeword
  // that currently carries an error would migrate the error into the
  // parity and resurrect it as a miscorrection on the next read. The
  // implementation therefore decodes-and-re-encodes dirty codewords, so a
  // write over damage leaves the codeword fully clean.
  RankGeometry rg;
  Rank rank(rg);
  core::PairScheme pair(rank, core::PairConfig::Pair4());
  Xoshiro256 rng(8);
  const Address addr{0, 4, 20};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  pair.WriteLine(addr, line);
  rank.device(2).InjectFlip(0, 4, 20 * 64 + 5);
  const BitVec line2 = BitVec::Random(rg.LineBits(), rng);
  pair.WriteLine(addr, line2);  // write over the damaged codeword
  const auto after = pair.ReadLine(addr);
  EXPECT_EQ(after.claim, ecc::Claim::kClean);
  EXPECT_EQ(after.data, line2);
}

TEST(ScrubLine, SecDedWrapperScrubsBothLevels) {
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = ecc::MakeScheme(ecc::SchemeKind::kPair4SecDed, rank);
  Xoshiro256 rng(9);
  const Address addr{0, 5, 7};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme->WriteLine(addr, line);
  rank.device(0).InjectFlip(0, 5, 7 * 64 + 1);   // data-device damage
  rank.device(8).InjectFlip(0, 5, 7 * 64 + 2);   // rank-parity damage
  scheme->ScrubLine(addr);
  const auto r = scheme->ReadLine(addr);
  EXPECT_EQ(r.claim, ecc::Claim::kClean);
  EXPECT_EQ(r.data, line);
}

TEST(ScrubLine, StuckDamageSurvivesScrub) {
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = ecc::MakeScheme(ecc::SchemeKind::kIecc, rank);
  Xoshiro256 rng(10);
  const Address addr{0, 6, 8};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme->WriteLine(addr, line);
  const unsigned bit = 8 * 64 + 3;
  rank.device(3).SetStuck(0, 6, bit, !line.Get(3 * 64 + 3));
  scheme->ScrubLine(addr);
  // The cell is still stuck: the next read must again see (and fix) it.
  const auto r = scheme->ReadLine(addr);
  EXPECT_EQ(r.claim, ecc::Claim::kCorrected);
  EXPECT_EQ(r.data, line);
}

}  // namespace
}  // namespace pair_ecc::reliability
