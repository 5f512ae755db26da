// Reliability-engine tests: outcome classification, Monte-Carlo guarantees
// (schemes never fail on patterns inside their correction power), the
// relative ordering of schemes the paper's evaluation rests on, the Poisson
// combiner, and the analytic miscorrection estimates.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "reliability/analytic.hpp"
#include "reliability/monte_carlo.hpp"
#include "util/rng.hpp"

namespace pair_ecc::reliability {
namespace {

using ecc::SchemeKind;
using faults::FaultMix;
using pair_ecc::util::BitVec;

// ---------------------------------------------------------------- Classify

TEST(Classify, MapsAllClaimTruthCombinations) {
  BitVec truth(8);
  truth.Set(3, true);
  BitVec same = truth;
  BitVec wrong = truth;
  wrong.Flip(0);
  EXPECT_EQ(Classify(ecc::Claim::kClean, same, truth), Outcome::kNoError);
  EXPECT_EQ(Classify(ecc::Claim::kClean, wrong, truth),
            Outcome::kSdcUndetected);
  EXPECT_EQ(Classify(ecc::Claim::kCorrected, same, truth), Outcome::kCorrected);
  EXPECT_EQ(Classify(ecc::Claim::kCorrected, wrong, truth),
            Outcome::kSdcMiscorrected);
  EXPECT_EQ(Classify(ecc::Claim::kDetected, wrong, truth), Outcome::kDue);
  EXPECT_EQ(Classify(ecc::Claim::kDetected, same, truth), Outcome::kDue);
}

TEST(Classify, SdcAndFailurePredicates) {
  EXPECT_TRUE(IsSdc(Outcome::kSdcMiscorrected));
  EXPECT_TRUE(IsSdc(Outcome::kSdcUndetected));
  EXPECT_FALSE(IsSdc(Outcome::kDue));
  EXPECT_TRUE(IsFailure(Outcome::kDue));
  EXPECT_FALSE(IsFailure(Outcome::kCorrected));
  EXPECT_FALSE(IsFailure(Outcome::kNoError));
}

TEST(Classify, OutcomeNamesAreDistinct) {
  EXPECT_NE(ToString(Outcome::kSdcMiscorrected), ToString(Outcome::kDue));
  EXPECT_NE(ToString(Outcome::kNoError), ToString(Outcome::kCorrected));
}

// -------------------------------------------------------------- MonteCarlo

ScenarioConfig SmallScenario(SchemeKind scheme, FaultMix mix, unsigned faults,
                             std::uint64_t seed = 1) {
  ScenarioConfig cfg;
  cfg.scheme = scheme;
  cfg.mix = mix;
  cfg.faults_per_trial = faults;
  cfg.working_rows = 1;
  cfg.lines_per_row = 4;
  cfg.seed = seed;
  return cfg;
}

TEST(MonteCarlo, CountsAreConsistent) {
  const auto counts =
      RunMonteCarlo(SmallScenario(SchemeKind::kIecc, FaultMix::Inherent(), 1),
                    100);
  EXPECT_EQ(counts.trials, 100u);
  EXPECT_EQ(counts.reads, 400u);
  EXPECT_EQ(counts.no_error + counts.corrected + counts.due +
                counts.sdc_miscorrected + counts.sdc_undetected,
            counts.reads);
  EXPECT_LE(counts.trials_with_sdc, counts.trials);
  EXPECT_LE(counts.trials_with_failure, counts.trials);
  EXPECT_GE(counts.trials_with_failure, counts.trials_with_sdc);
}

TEST(MonteCarlo, IsDeterministicPerSeed) {
  const auto cfg = SmallScenario(SchemeKind::kXed, FaultMix::Inherent(), 2, 9);
  const auto a = RunMonteCarlo(cfg, 60);
  const auto b = RunMonteCarlo(cfg, 60);
  EXPECT_EQ(a.Sdc(), b.Sdc());
  EXPECT_EQ(a.due, b.due);
  EXPECT_EQ(a.corrected, b.corrected);
}

TEST(MonteCarlo, SingleCellFaultNeverDefeatsAnyRealScheme) {
  // Every scheme under test corrects any single-cell fault: zero SDC and
  // zero DUE across trials.
  for (SchemeKind scheme :
       {SchemeKind::kIecc, SchemeKind::kSecDed, SchemeKind::kXed,
        SchemeKind::kDuo, SchemeKind::kPair2, SchemeKind::kPair4,
        SchemeKind::kPair4SecDed}) {
    const auto counts =
        RunMonteCarlo(SmallScenario(scheme, FaultMix::CellOnly(), 1), 150);
    EXPECT_EQ(counts.Sdc(), 0u) << ecc::ToString(scheme);
    EXPECT_EQ(counts.due, 0u) << ecc::ToString(scheme);
  }
}

TEST(MonteCarlo, NoEccTurnsVisibleFaultsIntoSdc) {
  const auto counts =
      RunMonteCarlo(SmallScenario(SchemeKind::kNoEcc, FaultMix::CellOnly(), 4),
                    200);
  EXPECT_GT(counts.Sdc(), 0u);
  EXPECT_EQ(counts.due, 0u);             // nothing is ever detected
  EXPECT_EQ(counts.sdc_miscorrected, 0u);// nothing is ever "corrected"
}

TEST(MonteCarlo, PairBeatsXedOnDistributedFaults) {
  // The abstract's headline direction: with several distributed inherent
  // faults, XED's silent on-die miscorrections produce SDC at orders of
  // magnitude higher rates than PAIR-4.
  const unsigned kTrials = 400;
  const auto xed = RunMonteCarlo(
      SmallScenario(SchemeKind::kXed, FaultMix::Inherent(), 3, 21), kTrials);
  const auto pair = RunMonteCarlo(
      SmallScenario(SchemeKind::kPair4, FaultMix::Inherent(), 3, 21), kTrials);
  EXPECT_GT(xed.trials_with_sdc, 10 * std::max<std::uint64_t>(
                                          pair.trials_with_sdc, 1) -
                                     10);
  EXPECT_GT(xed.trials_with_sdc, 0u);
}

TEST(MonteCarlo, PairConvertsClusteredFaultsToDetections) {
  // Pin/row faults exceed any in-codeword budget; PAIR must turn them into
  // DUE, not SDC.
  const auto pair = RunMonteCarlo(
      SmallScenario(SchemeKind::kPair4, FaultMix::Clustered(), 1, 31), 300);
  EXPECT_GT(pair.due, 0u);
  EXPECT_LT(pair.TrialSdcRate(), 0.02);
}

TEST(MonteCarlo, IeccSdcExceedsIeccSecdedSdc) {
  // Layering rank SEC-DED over conventional IECC strictly helps.
  const auto bare = RunMonteCarlo(
      SmallScenario(SchemeKind::kIecc, FaultMix::Inherent(), 3, 41), 400);
  const auto stacked = RunMonteCarlo(
      SmallScenario(SchemeKind::kIeccSecDed, FaultMix::Inherent(), 3, 41), 400);
  EXPECT_GE(bare.trials_with_sdc, stacked.trials_with_sdc);
  EXPECT_GT(bare.trials_with_sdc, 0u);
}

// ----------------------------------------------------------- CombinePoisson

OutcomeCounts FakeCounts(unsigned trials, unsigned sdc, unsigned due) {
  OutcomeCounts c;
  c.trials = trials;
  c.trials_with_sdc = sdc;
  c.trials_with_due = due;
  c.trials_with_failure = std::min<std::uint64_t>(trials, sdc + due);
  return c;
}

TEST(CombinePoisson, ZeroLambdaGivesZeroRisk) {
  const std::vector<OutcomeCounts> cond = {FakeCounts(100, 50, 10)};
  const auto est = CombinePoisson(cond, 0.0);
  EXPECT_EQ(est.p_sdc, 0.0);
  EXPECT_EQ(est.p_due, 0.0);
}

TEST(CombinePoisson, SingleBucketAbsorbsWholeTail) {
  // With one bucket, P(event) = P(N >= 1) * rate.
  const std::vector<OutcomeCounts> cond = {FakeCounts(100, 50, 0)};
  const double lambda = 0.3;
  const auto est = CombinePoisson(cond, lambda);
  EXPECT_NEAR(est.p_sdc, (1.0 - std::exp(-lambda)) * 0.5, 1e-12);
}

TEST(CombinePoisson, WeightsMatchPoissonPmf) {
  const std::vector<OutcomeCounts> cond = {
      FakeCounts(100, 10, 0),  // N=1: rate 0.1
      FakeCounts(100, 30, 0),  // N=2: rate 0.3
      FakeCounts(100, 80, 0),  // N>=3: rate 0.8 (absorbs tail)
  };
  const double lambda = 1.0;
  const double p1 = std::exp(-1.0);        // P(1) = e^-1
  const double p2 = std::exp(-1.0) / 2.0;  // P(2)
  const double tail = 1.0 - std::exp(-1.0) - p1 - p2;  // P(N>=3)
  const auto est = CombinePoisson(cond, lambda);
  EXPECT_NEAR(est.p_sdc, p1 * 0.1 + p2 * 0.3 + tail * 0.8, 1e-12);
}

TEST(CombinePoisson, MonotoneInLambda) {
  const std::vector<OutcomeCounts> cond = {FakeCounts(100, 20, 5),
                                           FakeCounts(100, 40, 10)};
  double prev = 0.0;
  for (double lambda : {0.01, 0.1, 0.5, 1.0, 2.0}) {
    const auto est = CombinePoisson(cond, lambda);
    EXPECT_GE(est.p_sdc, prev);
    prev = est.p_sdc;
  }
}

// ----------------------------------------------------------------- Analytic

TEST(Analytic, WithinBudgetAlwaysCorrects) {
  const auto code = rs::Gf256Code(68, 64);
  for (unsigned e = 1; e <= code.t(); ++e) {
    const auto b = RsErrorBreakdown(code, e, 300, 5);
    EXPECT_DOUBLE_EQ(b.corrected, 1.0) << e;
    EXPECT_DOUBLE_EQ(b.miscorrected, 0.0) << e;
  }
}

TEST(Analytic, BeyondBudgetMostlyDetects) {
  const auto code = rs::Gf256Code(68, 64);
  const auto b = RsErrorBreakdown(code, code.t() + 1, 2000, 6);
  EXPECT_DOUBLE_EQ(b.corrected, 0.0);
  EXPECT_GT(b.detected, 0.9);
  EXPECT_LT(b.miscorrected, 0.1);
  EXPECT_NEAR(b.corrected + b.miscorrected + b.detected + b.undetected, 1.0,
              1e-12);
}

TEST(Analytic, T1CodeMiscorrectsMoreThanT2OnDoubleErrors) {
  // The reason PAIR-4 is the paper's default over PAIR-2.
  const auto pair2 = rs::Gf256Code(34, 32);
  const auto pair4 = rs::Gf256Code(68, 64);
  const auto b2 = RsErrorBreakdown(pair2, 2, 3000, 7);
  const auto b4 = RsErrorBreakdown(pair4, 2, 3000, 7);
  EXPECT_DOUBLE_EQ(b4.corrected, 1.0);
  EXPECT_GT(b2.miscorrected, 0.02);
  EXPECT_GT(b2.detected, 0.7);
}

TEST(Analytic, RandomWordBoundMatchesHandComputation) {
  // RS(6,4) over GF(16): V_1(6) = 1 + 6*15 = 91; q^2 = 256.
  const rs::RsCode code(gf::GfField::Get(4), 6, 4);
  EXPECT_NEAR(RsRandomWordMiscorrectionBound(code), 91.0 / 256.0, 1e-12);
}

TEST(Analytic, BoundShrinksWithRedundancy) {
  const double loose =
      RsRandomWordMiscorrectionBound(rs::Gf256Code(34, 32));
  const double tight =
      RsRandomWordMiscorrectionBound(rs::Gf256Code(76, 64));
  EXPECT_GT(loose, tight * 100.0);
}

TEST(Analytic, OccupancyMatchesBirthdayParadox) {
  // The classic: 23 people, 365 days, P(shared birthday) = 0.5073.
  EXPECT_NEAR(ProbMaxOccupancyAtLeast(365, 23, 2), 0.5073, 0.0002);
}

TEST(Analytic, OccupancyEdgeCases) {
  EXPECT_EQ(ProbMaxOccupancyAtLeast(10, 1, 2), 0.0);  // one ball can't pair
  EXPECT_EQ(ProbMaxOccupancyAtLeast(10, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(ProbMaxOccupancyAtLeast(1, 3, 2), 1.0);  // one bin
  EXPECT_DOUBLE_EQ(ProbMaxOccupancyAtLeast(5, 2, 1), 1.0);  // k=1 trivial
  // Pigeonhole: 11 balls in 10 bins must collide.
  EXPECT_NEAR(ProbMaxOccupancyAtLeast(10, 11, 2), 1.0, 1e-12);
}

TEST(Analytic, OccupancyMatchesBruteForceMonteCarlo) {
  util::Xoshiro256 rng(99);
  for (const auto& [bins, balls, k] :
       {std::tuple<unsigned, unsigned, unsigned>{8, 5, 2},
        {16, 6, 3},
        {64, 10, 2}}) {
    unsigned hits = 0;
    const unsigned trials = 200000;
    for (unsigned t = 0; t < trials; ++t) {
      std::vector<unsigned> occ(bins, 0);
      bool hit = false;
      for (unsigned b = 0; b < balls; ++b)
        hit |= ++occ[rng.UniformBelow(bins)] >= k;
      hits += hit;
    }
    const double mc = static_cast<double>(hits) / trials;
    EXPECT_NEAR(ProbMaxOccupancyAtLeast(bins, balls, k), mc, 0.005)
        << bins << "/" << balls << "/" << k;
  }
}

TEST(Analytic, OverwhelmGapExplainsTheHeadlineRatio) {
  // The F5 scaling argument: at realistic fault counts, IECC needs only a
  // pair in one of its 64 words while PAIR-4 needs a triple in one of its
  // 16 codewords — orders of magnitude apart, widening as faults thin out.
  const auto p4 = CodewordOverwhelmProbability(4);
  EXPECT_GT(p4.iecc, 0.05);
  EXPECT_LT(p4.pair4, 0.02);
  const auto p2 = CodewordOverwhelmProbability(2);
  EXPECT_GT(p2.iecc / std::max(p2.pair4, 1e-300), 30.0);
  // Monotone in fault count.
  EXPECT_GT(p4.iecc, p2.iecc);
  EXPECT_GT(p4.pair4, p2.pair4);
}

TEST(Analytic, HeavyGarbageMiscorrectionApproachesSphereBound) {
  const auto code = rs::Gf256Code(34, 32);
  const auto b = RsErrorBreakdown(code, 20, 4000, 8);
  const double bound = RsRandomWordMiscorrectionBound(code);
  EXPECT_NEAR(b.miscorrected, bound, bound);  // same order of magnitude
  EXPECT_GT(b.miscorrected, bound / 10.0);
}

}  // namespace
}  // namespace pair_ecc::reliability
