// Statistical-validation tier for the rare-event acceleration layer
// (reliability/variance_reduction.{hpp,cpp} + sim/splitting.{hpp,cpp}):
//
//   * the weighted estimator is pinned against hand-computed closed forms
//     on a synthetic two-outcome toy model (exact, no sampling),
//   * the tilted sampler's proposal CDF, likelihood weights, and tail
//     masses are pinned against the Poisson pmf directly,
//   * the identity tilt is a no-op at every surface (spec, fingerprint,
//     config hash) — the bitwise-golden contract,
//   * importance sampling agrees with naive Monte-Carlo within 4 sigma in
//     the overlap regime where both can measure the same probability,
//   * multilevel splitting is exact where exactness is provable (leaf
//     weights sum to one, unreachable thresholds reduce to naive trials
//     bitwise) and agrees with naive simulation within 4 sigma elsewhere,
//   * every accumulator merges and JSON-round-trips exactly.
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "reliability/campaign.hpp"
#include "reliability/engine.hpp"
#include "reliability/monte_carlo.hpp"
#include "reliability/telemetry.hpp"
#include "reliability/variance_reduction.hpp"
#include "sim/campaign.hpp"
#include "sim/memory_system.hpp"
#include "sim/splitting.hpp"
#include "telemetry/json.hpp"
#include "timing/request_source.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace pair_ecc::reliability {
namespace {

using telemetry::JsonValue;

double Poisson(double lambda, unsigned n) {
  double pmf = std::exp(-lambda);
  for (unsigned k = 1; k <= n; ++k) pmf *= lambda / static_cast<double>(k);
  return pmf;
}

// ------------------------------------------------------------- estimator

TEST(VarianceReductionEstimator, ToyTwoClassClosedForm) {
  // Two classes, hand-computable: weights {2, 0.5}, 6 + 4 trials, 3 + 1
  // events. Per-trial values are w_c * 1[event], so
  //   estimate = (3*2 + 1*0.5) / 10            = 0.65
  //   S^2      = (3*4 + 1*0.25 - 10*0.65^2)/9  = 8.025/9
  //   Var      = S^2 / 10
  //   ESS      = (6*2 + 4*0.5)^2/(6*4 + 4*0.25) = 196/25 = 7.84
  const std::vector<double> weights = {2.0, 0.5};
  const std::vector<std::uint64_t> trials = {6, 4};
  const std::vector<std::uint64_t> events = {3, 1};
  const WeightedEstimate est =
      EstimateFromClassCounts(weights, trials, events);

  EXPECT_EQ(est.trials, 10u);
  EXPECT_DOUBLE_EQ(est.estimate, 0.65);
  const double s2 = (3 * 4.0 + 1 * 0.25 - 10.0 * 0.65 * 0.65) / 9.0;
  EXPECT_NEAR(est.variance, s2 / 10.0, 1e-15);
  EXPECT_DOUBLE_EQ(est.std_error, std::sqrt(est.variance));
  EXPECT_DOUBLE_EQ(est.ess, 196.0 / 25.0);
  EXPECT_NEAR(est.relative_variance, est.variance / (0.65 * 0.65), 1e-15);
  EXPECT_NEAR(est.naive_equiv_trials, 0.65 * 0.35 / est.variance, 1e-9);
  EXPECT_NEAR(est.acceleration, est.naive_equiv_trials / 10.0, 1e-12);
}

TEST(VarianceReductionEstimator, DegenerateCases) {
  const WeightedEstimate empty = EstimateFromClassCounts({}, {}, {});
  EXPECT_EQ(empty.trials, 0u);
  EXPECT_EQ(empty.estimate, 0.0);
  EXPECT_EQ(empty.variance, 0.0);

  // One trial: the Bessel-corrected sample variance is undefined -> 0.
  const std::vector<double> w = {3.0};
  const std::vector<std::uint64_t> one = {1};
  const WeightedEstimate single = EstimateFromClassCounts(w, one, one);
  EXPECT_EQ(single.trials, 1u);
  EXPECT_DOUBLE_EQ(single.estimate, 3.0);
  EXPECT_EQ(single.variance, 0.0);
  EXPECT_NEAR(single.ess, 1.0, 1e-12);

  // No events: zero estimate, zero variance, no division by the estimate.
  const std::vector<std::uint64_t> none = {0};
  const std::vector<std::uint64_t> five = {5};
  const WeightedEstimate zero = EstimateFromClassCounts(w, five, none);
  EXPECT_EQ(zero.estimate, 0.0);
  EXPECT_EQ(zero.relative_variance, 0.0);
  EXPECT_EQ(zero.naive_equiv_trials, 0.0);
}

// --------------------------------------------------------------- sampler

TiltSpec ForcedTilt(double lambda, double proposal, unsigned min_f,
                    unsigned max_f) {
  TiltSpec tilt;
  tilt.kind = TiltKind::kForced;
  tilt.lambda = lambda;
  tilt.proposal_lambda = proposal;
  tilt.min_faults = min_f;
  tilt.max_faults = max_f;
  return tilt;
}

TEST(VarianceReductionSampler, WeightsAndTailsMatchPoissonClosedForm) {
  const TiltSpec tilt = ForcedTilt(0.5, 2.0, 1, 4);
  const TiltSampler sampler(tilt);

  double window_proposal = 0.0, window_target = 0.0;
  for (unsigned n = 1; n <= 4; ++n) window_proposal += Poisson(2.0, n);
  for (unsigned n = 1; n <= 4; ++n) window_target += Poisson(0.5, n);

  for (unsigned n = 1; n <= 4; ++n) {
    const double q = Poisson(2.0, n) / window_proposal;
    EXPECT_NEAR(sampler.Weight(sampler.ClassOf(n)), Poisson(0.5, n) / q,
                1e-12)
        << "n = " << n;
  }
  EXPECT_NEAR(sampler.TailMassBelow(), Poisson(0.5, 0), 1e-12);
  EXPECT_NEAR(sampler.TailMassAbove(),
              1.0 - Poisson(0.5, 0) - window_target, 1e-12);
  // The three pieces partition the target distribution.
  EXPECT_NEAR(sampler.TailMassBelow() + sampler.TailMassAbove() +
                  window_target,
              1.0, 1e-12);
}

TEST(VarianceReductionSampler, SampleFrequenciesMatchProposal) {
  const TiltSpec tilt = ForcedTilt(0.5, 2.0, 1, 4);
  const TiltSampler sampler(tilt);
  constexpr unsigned kDraws = 20000;

  util::Xoshiro256 rng(123);
  std::vector<unsigned> counts(5, 0);
  for (unsigned i = 0; i < kDraws; ++i) {
    const unsigned n = sampler.Sample(rng);
    ASSERT_GE(n, 1u);
    ASSERT_LE(n, 4u);
    ++counts[n];
  }

  double window = 0.0;
  for (unsigned n = 1; n <= 4; ++n) window += Poisson(2.0, n);
  for (unsigned n = 1; n <= 4; ++n) {
    const double q = Poisson(2.0, n) / window;
    const double sigma = std::sqrt(kDraws * q * (1.0 - q));
    EXPECT_NEAR(counts[n], kDraws * q, 4.0 * sigma) << "n = " << n;
  }
}

TEST(VarianceReductionSampler, SamplingIsDeterministic) {
  const TiltSpec tilt = ForcedTilt(1.0, 3.0, 2, 8);
  const TiltSampler a(tilt);
  const TiltSampler b(tilt);
  util::Xoshiro256 rng_a(7), rng_b(7);
  for (unsigned i = 0; i < 200; ++i)
    ASSERT_EQ(a.Sample(rng_a), b.Sample(rng_b)) << "draw " << i;
}

// ---------------------------------------------- identity / fingerprints

TEST(VarianceReductionIdentity, IdentityTiltIsInactiveAndFingerprintNoOp) {
  const TiltSpec identity;
  EXPECT_FALSE(identity.Active());
  identity.Validate();  // must not throw

  // AddTiltFingerprint must leave untilted fingerprints byte-identical, so
  // pre-IS campaigns keep their config hashes (and checkpoints resume).
  JsonValue fp = JsonValue::MakeObject();
  fp.Set("seed", JsonValue(std::uint64_t{11}));
  const std::string before = fp.Dump();
  AddTiltFingerprint(fp, identity);
  EXPECT_EQ(fp.Dump(), before);

  // A fingerprint without tilt fields reads back as the identity.
  EXPECT_EQ(TiltSpecFromFingerprint(fp), identity);
}

TEST(VarianceReductionIdentity, ActiveTiltRoundTripsThroughFingerprint) {
  const TiltSpec tilt = ForcedTilt(1.6e-5, 2.0, 2, 16);
  JsonValue fp = JsonValue::MakeObject();
  AddTiltFingerprint(fp, tilt);
  EXPECT_EQ(TiltSpecFromFingerprint(fp), tilt);

  SplitSpec split;
  split.thresholds = {1, 2, 4};
  split.replicas = 3;
  JsonValue sp = JsonValue::MakeObject();
  const std::string before = sp.Dump();
  AddSplitFingerprint(sp, SplitSpec{});  // inactive -> no-op
  EXPECT_EQ(sp.Dump(), before);
  AddSplitFingerprint(sp, split);
  EXPECT_EQ(SplitSpecFromFingerprint(sp), split);
  EXPECT_EQ(SplitSpecFromFingerprint(JsonValue::MakeObject()), SplitSpec{});
}

TEST(VarianceReductionIdentity, ValidateRejectsBadSpecs) {
  EXPECT_THROW(ForcedTilt(0.0, 2.0, 1, 4).Validate(), std::runtime_error);
  EXPECT_THROW(ForcedTilt(1.0, -1.0, 1, 4).Validate(), std::runtime_error);
  EXPECT_THROW(ForcedTilt(1.0, 2.0, 5, 4).Validate(), std::runtime_error);
  EXPECT_THROW(ForcedTilt(1.0, 2.0, 1, kMaxTiltFaults + 1).Validate(),
               std::runtime_error);
  EXPECT_THROW(ForcedTilt(1.0, 2.0, 0, 4).Validate(), std::runtime_error);
  EXPECT_THROW(TiltKindFromString("nonsense"), std::runtime_error);

  SplitSpec split;
  split.thresholds = {2, 2};
  EXPECT_THROW(split.Validate(), std::runtime_error);
  split.thresholds = {0};
  EXPECT_THROW(split.Validate(), std::runtime_error);
  split.thresholds = {1};
  split.replicas = 1;
  EXPECT_THROW(split.Validate(), std::runtime_error);
  split.replicas = kMaxSplitReplicas + 1;
  EXPECT_THROW(split.Validate(), std::runtime_error);
  EXPECT_THROW(ParseSplitLevels(""), std::runtime_error);
  EXPECT_THROW(ParseSplitLevels("1,,2"), std::runtime_error);
  EXPECT_THROW(ParseSplitLevels("1,a"), std::runtime_error);
  EXPECT_EQ(ParseSplitLevels("1,2,4"),
            (std::vector<std::uint64_t>{1, 2, 4}));
  EXPECT_EQ(FormatSplitLevels(std::vector<std::uint64_t>{1, 2, 4}), "1,2,4");
}

// ------------------------------------------------------ importance sampling

ScenarioConfig IsScenario(std::uint64_t seed, unsigned threads = 2) {
  ScenarioConfig cfg;
  cfg.scheme = ecc::SchemeKind::kPair4;
  cfg.faults_per_trial = 2;
  cfg.seed = seed;
  cfg.threads = threads;
  return cfg;
}

TEST(VarianceReductionIs, ThreadCountInvariantAndJsonRoundTrip) {
  const TiltSpec tilt = ForcedTilt(1.0, 2.0, 2, 6);
  const WeightedScenarioState one =
      RunWeightedMonteCarlo(IsScenario(11, /*threads=*/1), tilt, 64);
  const WeightedScenarioState three =
      RunWeightedMonteCarlo(IsScenario(11, /*threads=*/3), tilt, 64);
  EXPECT_EQ(one, three);
  ASSERT_GT(one.tally.TotalTrials(), 0u);

  const WeightedScenarioState back =
      WeightedScenarioStateFromJson(WeightedScenarioStateToJson(one));
  EXPECT_EQ(back, one);
  EXPECT_EQ(WeightedTallyFromJson(WeightedTallyToJson(one.tally)), one.tally);
}

TEST(VarianceReductionIs, DegenerateWindowMatchesNaiveWithinFourSigma) {
  // A [2, 2] window forces every trial to 2 faults, so the tilted run
  // measures the same conditional P(fail | 2 faults) as the naive engine
  // with faults_per_trial = 2 — the overlap regime where both estimators
  // see the same physics. Weights are then the constant pi_lambda(2).
  constexpr unsigned kTrials = 240;
  const TiltSpec tilt = ForcedTilt(1.0, 1.0, 2, 2);
  const WeightedScenarioState state =
      RunWeightedMonteCarlo(IsScenario(21), tilt, kTrials);
  const TiltSampler sampler(tilt);
  const WeightedEstimate est =
      EstimateWeightedRate(sampler, state.tally, WeightedEvent::kFailure);

  // Exactness first: one class, so the estimate factors into the constant
  // weight times the empirical conditional failure rate, and the Kish ESS
  // equals the trial count.
  ASSERT_EQ(state.tally.trials.size(), 1u);
  const double w = sampler.Weight(0);
  EXPECT_NEAR(w, Poisson(1.0, 2), 1e-12);
  EXPECT_DOUBLE_EQ(
      est.estimate,
      w * static_cast<double>(state.tally.failures[0]) / kTrials);
  EXPECT_NEAR(est.ess, kTrials, 1e-6);

  // Statistical agreement with an independent naive run of the same size.
  const OutcomeCounts naive = RunMonteCarlo(IsScenario(22), kTrials);
  const double p_naive = naive.TrialFailureRate();
  const double p_is = est.estimate / w;
  const double sigma =
      std::sqrt(2.0 * p_naive * (1.0 - p_naive) / kTrials);
  EXPECT_NEAR(p_is, p_naive, 4.0 * sigma)
      << "conditional P(fail|2) disagrees: IS " << p_is << " naive "
      << p_naive;
}

TEST(VarianceReductionIs, DifferentProposalsAgreeWithinFourSigma) {
  // Two proposals over the same window estimate the same window-restricted
  // probability; disagreement beyond combined 4 sigma means the weights are
  // wrong, not the sampling.
  constexpr unsigned kTrials = 240;
  const TiltSpec a = ForcedTilt(0.5, 2.0, 2, 6);
  const TiltSpec b = ForcedTilt(0.5, 4.0, 2, 6);
  const WeightedScenarioState sa =
      RunWeightedMonteCarlo(IsScenario(31), a, kTrials);
  const WeightedScenarioState sb =
      RunWeightedMonteCarlo(IsScenario(32), b, kTrials);
  const WeightedEstimate ea = EstimateWeightedRate(
      TiltSampler(a), sa.tally, WeightedEvent::kFailure);
  const WeightedEstimate eb = EstimateWeightedRate(
      TiltSampler(b), sb.tally, WeightedEvent::kFailure);
  ASSERT_GT(ea.estimate, 0.0);
  ASSERT_GT(eb.estimate, 0.0);
  const double sigma =
      std::sqrt(ea.variance + eb.variance);
  EXPECT_NEAR(ea.estimate, eb.estimate, 4.0 * sigma);
}

TEST(VarianceReductionIs, TallyMergeIsExact) {
  const TiltSpec tilt = ForcedTilt(1.0, 2.0, 2, 6);
  const WeightedScenarioState whole =
      RunWeightedMonteCarlo(IsScenario(41), tilt, 64);

  // Shard-order merge of engine halves must reproduce the one-shot state:
  // the engine's 16-trial shards make trials [0, 32) and [32, 64) exact
  // shard boundaries.
  const ScenarioConfig cfg = IsScenario(41);
  const TiltSampler sampler(tilt);
  const WorkingSet ws = MakeScenarioWorkingSet(cfg);
  const TrialEngine engine(cfg.threads);
  WeightedScenarioState merged;
  for (const auto& range : {std::pair<std::uint64_t, std::uint64_t>{0, 2},
                            std::pair<std::uint64_t, std::uint64_t>{2, 4}}) {
    engine.RunShardsObserved<WeightedScenarioState, ScenarioScratch>(
        cfg.seed, 64, range.first, range.second,
        [&](std::uint64_t, util::Xoshiro256& rng, WeightedScenarioState& acc,
            ScenarioScratch& scratch) {
          RunWeightedScenarioTrial(cfg, sampler, ws, rng, acc, scratch);
        },
        [&](std::uint64_t, const WeightedScenarioState& result) {
          merged += result;
        });
  }
  EXPECT_EQ(merged, whole);
}

// ------------------------------------------------------------- splitting

sim::SystemConfig SplitSystemConfig(std::uint64_t seed) {
  sim::SystemConfig cfg;
  cfg.scheme = ecc::SchemeKind::kSecDed;
  cfg.faults_per_mcycle = 200.0;
  cfg.seed = seed;
  cfg.threads = 1;
  return cfg;
}

/// Generates the split tests' demand and resolves `cfg`'s horizon from it.
timing::Trace SplitDemand(sim::SystemConfig& cfg, unsigned requests) {
  workload::WorkloadConfig wl;
  wl.num_requests = requests;
  wl.intensity = 0.05;
  wl.seed = cfg.seed;
  timing::Trace demand = workload::Generate(wl);
  cfg.horizon_cycles =
      sim::ScanDemand(cfg, sim::VectorSourceFactory(demand)).horizon_cycles;
  return demand;
}

TEST(VarianceReductionSplit, UnreachableThresholdReducesToNaiveExactly) {
  // With a threshold no trial can reach, every splitting tree is a single
  // root node replaying the naive trial's RNG stream — so per-seed failure
  // flags must match the full simulator bit for bit, and the estimate is
  // the plain failure frequency.
  sim::SystemConfig cfg = SplitSystemConfig(5);
  const timing::Trace demand = SplitDemand(cfg, 80);
  timing::VectorSource source(demand);
  const reliability::WorkingSet ws = sim::MakeSystemWorkingSet(cfg);
  SplitSpec split;
  split.thresholds = {1'000'000'000};
  split.replicas = 2;
  constexpr unsigned kTrials = 24;

  sim::SystemStats naive_stats;
  TrialTelemetry naive_tel;
  SplitTally tally;
  for (unsigned i = 0; i < kTrials; ++i) {
    const std::uint64_t seed = 1000 + i;
    util::Xoshiro256 rng(seed);
    sim::MemorySystem(cfg, ws, source, rng).Run(naive_stats, naive_tel);
    sim::RunSplitTrial(cfg, ws, source, split, seed, tally);
  }

  EXPECT_EQ(tally.root_trials, kTrials);
  EXPECT_EQ(tally.nodes, kTrials);
  EXPECT_EQ(tally.splits, 0u);
  EXPECT_EQ(tally.leaves[0], kTrials);
  EXPECT_EQ(tally.failures[0], naive_stats.trials_with_failure);
  EXPECT_EQ(tally.sdc[0], naive_stats.trials_with_sdc);
  EXPECT_EQ(tally.due[0], naive_stats.trials_with_due);

  const WeightedEstimate est = EstimateSplitRate(split, tally);
  EXPECT_DOUBLE_EQ(
      est.estimate,
      static_cast<double>(naive_stats.trials_with_failure) / kTrials);
}

TEST(VarianceReductionSplit, LeafWeightsSumToOnePerRootTrial) {
  // Every tree's leaf weights (replicas^-depth) must sum to exactly 1 —
  // the unbiasedness invariant — regardless of how many splits fired.
  sim::SystemConfig cfg = SplitSystemConfig(6);
  const timing::Trace demand = SplitDemand(cfg, 150);
  timing::VectorSource source(demand);
  const reliability::WorkingSet ws = sim::MakeSystemWorkingSet(cfg);
  SplitSpec split;
  split.thresholds = {1, 2, 4};
  split.replicas = 3;

  SplitTally tally;
  for (unsigned i = 0; i < 24; ++i)
    sim::RunSplitTrial(cfg, ws, source, split, 2000 + i, tally);

  ASSERT_GT(tally.splits, 0u) << "thresholds never fired; raise the rate";
  double weighted_leaves = 0.0;
  double rinv = 1.0;
  for (std::size_t d = 0; d < tally.leaves.size(); ++d) {
    weighted_leaves += static_cast<double>(tally.leaves[d]) * rinv;
    rinv /= split.replicas;
  }
  EXPECT_NEAR(weighted_leaves, static_cast<double>(tally.root_trials), 1e-9);
}

TEST(VarianceReductionSplit, EstimateMatchesNaiveWithinFourSigma) {
  sim::SystemConfig cfg = SplitSystemConfig(7);
  const timing::Trace demand = SplitDemand(cfg, 150);
  timing::VectorSource source(demand);
  const reliability::WorkingSet ws = sim::MakeSystemWorkingSet(cfg);
  SplitSpec split;
  split.thresholds = {1, 2, 4};
  split.replicas = 3;
  constexpr unsigned kTrials = 150;

  sim::SystemStats naive_stats;
  TrialTelemetry naive_tel;
  for (unsigned i = 0; i < kTrials; ++i) {
    util::Xoshiro256 rng(10'000 + i);
    sim::MemorySystem(cfg, ws, source, rng).Run(naive_stats, naive_tel);
  }
  const double p_naive =
      static_cast<double>(naive_stats.trials_with_failure) / kTrials;

  SplitTally tally;
  for (unsigned i = 0; i < kTrials; ++i)
    sim::RunSplitTrial(cfg, ws, source, split, 20'000 + i, tally);
  const WeightedEstimate est = EstimateSplitRate(split, tally);

  ASSERT_GT(naive_stats.trials_with_failure, 0u);
  ASSERT_GT(est.estimate, 0.0);
  const double sigma = std::sqrt(
      p_naive * (1.0 - p_naive) / kTrials + est.variance);
  EXPECT_NEAR(est.estimate, p_naive, 4.0 * sigma)
      << "split " << est.estimate << " +/- " << est.std_error << " vs naive "
      << p_naive;
}

TEST(VarianceReductionSplit, TreesAreDeterministicAndMergeIsExact) {
  sim::SystemConfig cfg = SplitSystemConfig(8);
  const timing::Trace demand = SplitDemand(cfg, 150);
  timing::VectorSource source(demand);
  const reliability::WorkingSet ws = sim::MakeSystemWorkingSet(cfg);
  SplitSpec split;
  split.thresholds = {1, 3};
  split.replicas = 4;

  SplitTally whole, again, first, second;
  for (unsigned i = 0; i < 16; ++i) {
    sim::RunSplitTrial(cfg, ws, source, split, 3000 + i, whole);
    sim::RunSplitTrial(cfg, ws, source, split, 3000 + i, again);
    sim::RunSplitTrial(cfg, ws, source, split, 3000 + i,
                       i < 8 ? first : second);
  }
  EXPECT_EQ(again, whole);  // same seeds -> bitwise identical trees

  SplitTally merged = first;
  merged += second;
  EXPECT_EQ(merged, whole);  // += is exact integer addition, any split point

  const SplitTally back = SplitTallyFromJson(SplitTallyToJson(whole));
  EXPECT_EQ(back, whole);
}

}  // namespace
}  // namespace pair_ecc::reliability
