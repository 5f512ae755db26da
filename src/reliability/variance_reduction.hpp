// Rare-event acceleration for the trial engine: importance sampling over
// the per-trial fault count, and multilevel splitting statistics for the
// system simulator path.
//
// Importance sampling. The naive engine estimates P(failure) where the
// per-trial fault count is fixed (faults_per_trial). At field FIT rates the
// interesting regime is a Poisson(lambda) fault count with lambda << 1 and
// failure needing >= 2 faults — probabilities of 1e-9..1e-15 that naive
// Monte-Carlo cannot reach. A TiltSpec replaces the fault-count
// distribution with a *proposal*: a Poisson(proposal_lambda) truncated to
// [min_faults, max_faults] (rate tilting when the window is wide, forced
// fault-count conditioning when min_faults >= 1). Each trial draws its
// count n from the proposal and contributes the likelihood ratio
//
//     w(n) = Poisson_lambda(n) / proposal(n)
//
// to the weighted estimators. The estimand is the window-restricted
// failure probability sum_{n in window} Poisson_lambda(n) P(fail | n);
// the excluded target mass is reported as tail_mass_below/above so the
// (deliberate, usually negligible) truncation bias is visible.
//
// Weight determinism contract. Per-trial weights are NEVER accumulated in
// floating point. The shard accumulator (WeightedTally) holds exact uint64
// counts per fault-count class; weights are a pure function of the
// TiltSpec applied at report time. Shard merge is therefore integer
// addition — bitwise identical for any thread count, resume point, or
// slice order, exactly like the unweighted engine. The identity tilt runs
// the unweighted trial body verbatim (zero extra RNG draws), so it
// reproduces existing goldens bitwise.
//
// Multilevel splitting. For the system simulator a trial's "distance to
// failure" is measured by a monotone level function (cumulative non-clean
// demand reads). A trial that crosses threshold k is split into `replicas`
// re-simulated children that share its history up to the crossing (same
// seeds) and diverge after it (fresh seed); each leaf at depth d carries
// weight replicas^-d. SplitTally keeps exact integer leaf counts by depth
// plus the per-root cross-moment matrix, so both the estimate and its
// variance are pure functions of integer state — same determinism contract
// as the tilted path. The tree runner itself lives in sim/splitting.{hpp,
// cpp} (the statistics here are simulator-agnostic).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "reliability/campaign.hpp"
#include "reliability/monte_carlo.hpp"
#include "telemetry/json.hpp"
#include "telemetry/report.hpp"

namespace pair_ecc::reliability {

// ---------------------------------------------------------------------------
// Importance sampling: tilted fault-count proposal + weighted accumulators
// ---------------------------------------------------------------------------

/// Hard cap on a tilt window's fault count: bounds per-trial work and keeps
/// Poisson pmf recurrences comfortably inside double range.
inline constexpr unsigned kMaxTiltFaults = 64;

enum class TiltKind : std::uint8_t {
  kIdentity,  ///< no tilt: the unweighted engine path, weights == 1
  kRate,      ///< rate tilting: Poisson(proposal_lambda) over [min, max]
  kForced,    ///< forced counts: like kRate but requires min_faults >= 1
};

std::string_view ToString(TiltKind kind) noexcept;
/// Throws std::runtime_error on anything but "identity" / "rate" / "forced".
TiltKind TiltKindFromString(std::string_view text);

struct TiltSpec {
  TiltKind kind = TiltKind::kIdentity;
  /// Target Poisson mean fault count per trial (the physical rate).
  double lambda = 1.0;
  /// Proposal Poisson mean (the tilted rate trials actually sample from).
  double proposal_lambda = 1.0;
  unsigned min_faults = 0;
  unsigned max_faults = kMaxTiltFaults;

  bool Active() const noexcept { return kind != TiltKind::kIdentity; }
  unsigned Classes() const noexcept { return max_faults - min_faults + 1; }
  /// Throws std::runtime_error with a one-line diagnostic on invalid
  /// parameters (non-positive lambdas, inverted/oversized window, forced
  /// tilt with min_faults == 0).
  void Validate() const;

  friend bool operator==(const TiltSpec&, const TiltSpec&) = default;
};

/// Precomputed proposal CDF and likelihood-ratio weights for a validated,
/// active TiltSpec. Sampling costs exactly one UniformDouble() per trial;
/// weights are pure functions of the spec, evaluated only at report time.
class TiltSampler {
 public:
  explicit TiltSampler(const TiltSpec& spec);

  const TiltSpec& spec() const noexcept { return spec_; }
  unsigned Classes() const noexcept { return spec_.Classes(); }

  /// Draws a fault count in [min_faults, max_faults] by CDF inversion.
  unsigned Sample(util::Xoshiro256& rng) const noexcept;

  /// Class index of fault count n (n must lie in the window).
  unsigned ClassOf(unsigned n) const noexcept { return n - spec_.min_faults; }

  /// Likelihood ratio w = target pmf / proposal pmf for class `cls`.
  double Weight(unsigned cls) const noexcept { return weights_[cls]; }
  double MaxWeight() const noexcept { return max_weight_; }
  std::span<const double> Weights() const noexcept { return weights_; }

  /// Target Poisson mass excluded below/above the window (truncation bias
  /// diagnostics; the estimand is the window-restricted probability).
  double TailMassBelow() const noexcept { return tail_mass_below_; }
  double TailMassAbove() const noexcept { return tail_mass_above_; }

 private:
  TiltSpec spec_;
  std::vector<double> cdf_;      ///< normalized proposal CDF per class
  std::vector<double> weights_;  ///< likelihood ratio per class
  double max_weight_ = 0.0;
  double tail_mass_below_ = 0.0;
  double tail_mass_above_ = 0.0;
};

/// Exact weighted accumulator: per fault-count-class uint64 tallies. All
/// floating-point estimator math happens at report time from these counts,
/// so shard merge (integer +=) preserves the engine's bitwise-determinism
/// contract. Vectors grow lazily to the highest class a trial sampled;
/// merging runs with identical trial populations yields identical sizes.
struct WeightedTally {
  std::vector<std::uint64_t> trials;    ///< trials per class
  std::vector<std::uint64_t> failures;  ///< trials with any SDC or DUE
  std::vector<std::uint64_t> sdc;       ///< trials with any SDC
  std::vector<std::uint64_t> due;       ///< trials with any DUE

  void Record(unsigned cls, bool failed, bool any_sdc, bool any_due);
  std::uint64_t TotalTrials() const noexcept;

  WeightedTally& operator+=(const WeightedTally& other);
  friend bool operator==(const WeightedTally&, const WeightedTally&) = default;
};

/// Report-time estimator summary for a weighted (IS or splitting) run.
struct WeightedEstimate {
  std::uint64_t trials = 0;   ///< independent root samples
  double estimate = 0.0;      ///< weighted mean probability
  double variance = 0.0;      ///< Var(estimate), sample form
  double std_error = 0.0;     ///< sqrt(variance)
  double ess = 0.0;           ///< Kish effective sample size
  double relative_variance = 0.0;  ///< variance / estimate^2
  double tail_mass_below = 0.0;
  double tail_mass_above = 0.0;
  /// Trials a naive (unweighted) run would need for the same variance:
  /// estimate*(1-estimate)/variance. `acceleration` divides by the actual
  /// simulation cost (trials for IS, nodes for splitting).
  double naive_equiv_trials = 0.0;
  double acceleration = 0.0;
};

/// Core weighted-mean estimator over per-class counts: sample i in class c
/// contributes value weights[c] * [i in events]. Exposed directly so the
/// toy-model tests can pin it against closed forms.
WeightedEstimate EstimateFromClassCounts(std::span<const double> weights,
                                         std::span<const std::uint64_t> trials,
                                         std::span<const std::uint64_t> events);

enum class WeightedEvent : std::uint8_t { kFailure, kSdc, kDue };

/// Full IS estimate (including tail-mass and acceleration diagnostics) for
/// one event kind of a tilted run.
WeightedEstimate EstimateWeightedRate(const TiltSampler& sampler,
                                      const WeightedTally& tally,
                                      WeightedEvent event);

/// Shard accumulator for tilted scenario campaigns: the unweighted counts +
/// telemetry (so accelerated reports keep the raw sections) plus the exact
/// weighted tally.
struct WeightedScenarioState {
  ScenarioShardState base;
  WeightedTally tally;

  WeightedScenarioState& operator+=(const WeightedScenarioState& other) {
    base += other.base;
    tally += other.tally;
    return *this;
  }

  friend bool operator==(const WeightedScenarioState&,
                         const WeightedScenarioState&) = default;
};

/// One tilted scenario trial: draw the fault count from the proposal (one
/// uniform), run the shared unweighted trial body with that count, record
/// the outcome in the weighted tally.
void RunWeightedScenarioTrial(const ScenarioConfig& config,
                              const TiltSampler& sampler, const WorkingSet& ws,
                              util::Xoshiro256& rng, WeightedScenarioState& acc,
                              ScenarioScratch& scratch);

/// Single-shot tilted Monte-Carlo run (pairsim reliability --tilt ...).
/// Deterministic in (config, tilt, trials) for any thread count.
WeightedScenarioState RunWeightedMonteCarlo(const ScenarioConfig& config,
                                            const TiltSpec& tilt,
                                            std::uint64_t trials,
                                            ScenarioTelemetry* telemetry = nullptr);

// ---- exact JSON round-trip (checkpoint state) ----

telemetry::JsonValue WeightedTallyToJson(const WeightedTally& tally);
WeightedTally WeightedTallyFromJson(const telemetry::JsonValue& value);

/// Scenario state + a "weighted" sub-object — untilted checkpoints stay
/// byte-identical to the pre-IS format.
telemetry::JsonValue WeightedScenarioStateToJson(
    const WeightedScenarioState& state);
WeightedScenarioState WeightedScenarioStateFromJson(
    const telemetry::JsonValue& value);

// ---- fingerprint + report plumbing ----

/// Adds tilt_* fields to a campaign fingerprint. No-op for the identity
/// tilt, so untilted fingerprints (and their config hashes) are unchanged.
void AddTiltFingerprint(telemetry::JsonValue& fingerprint,
                        const TiltSpec& tilt);
/// Reconstructs the TiltSpec from a fingerprint; identity when absent.
/// Throws std::runtime_error on malformed fields.
TiltSpec TiltSpecFromFingerprint(const telemetry::JsonValue& fingerprint);

/// Adds the is.* metrics (estimates, std errors, ESS, relative variance,
/// tail masses, naive-equivalent trials, acceleration) for a tilted run.
void AddWeightedMetrics(telemetry::Report& report, const TiltSpec& tilt,
                        const WeightedTally& tally);

// ---------------------------------------------------------------------------
// Multilevel splitting statistics
// ---------------------------------------------------------------------------

inline constexpr std::size_t kMaxSplitLevels = 6;
inline constexpr unsigned kMaxSplitReplicas = 16;

struct SplitSpec {
  /// Strictly increasing level thresholds (cumulative non-clean demand
  /// reads). Crossing thresholds[k] at depth k spawns `replicas` children.
  std::vector<std::uint64_t> thresholds;
  unsigned replicas = 4;

  bool Active() const noexcept { return !thresholds.empty(); }
  std::size_t Depths() const noexcept { return thresholds.size() + 1; }
  /// Throws std::runtime_error on a non-increasing/oversized threshold list
  /// or replicas outside [2, kMaxSplitReplicas].
  void Validate() const;

  friend bool operator==(const SplitSpec&, const SplitSpec&) = default;
};

/// Parses "1,2,4" into a threshold list (validated by SplitSpec::Validate).
std::vector<std::uint64_t> ParseSplitLevels(const std::string& text);
std::string FormatSplitLevels(std::span<const std::uint64_t> thresholds);

/// One root trial's tree, filled by the sim-layer runner: per-depth leaf
/// tallies plus node/split counts.
struct SplitTreeCounts {
  std::vector<std::uint64_t> leaves;    ///< completed leaves by depth
  std::vector<std::uint64_t> failures;  ///< failure leaves by depth
  std::vector<std::uint64_t> sdc;
  std::vector<std::uint64_t> due;
  std::uint64_t nodes = 0;
  std::uint64_t splits = 0;
};

/// Exact splitting accumulator. `failure_cross[d][d']` sums, over root
/// trials, the product of failure-leaf counts at depths d and d' — the
/// integer cross moments that make the estimator variance exact:
///   X_i = sum_d c_{i,d} R^-d,  sum_i X_i^2 = sum_{d,d'} R^-(d+d') cross.
struct SplitTally {
  std::uint64_t root_trials = 0;
  std::uint64_t nodes = 0;
  std::uint64_t splits = 0;
  std::vector<std::uint64_t> leaves;
  std::vector<std::uint64_t> failures;
  std::vector<std::uint64_t> sdc;
  std::vector<std::uint64_t> due;
  std::vector<std::vector<std::uint64_t>> failure_cross;

  void RecordRootTrial(const SplitTreeCounts& tree);
  SplitTally& operator+=(const SplitTally& other);
  friend bool operator==(const SplitTally&, const SplitTally&) = default;
};

/// Splitting estimate of the per-trial failure probability. `acceleration`
/// is charged against simulated nodes (each node is one functional pass),
/// not root trials.
WeightedEstimate EstimateSplitRate(const SplitSpec& spec,
                                   const SplitTally& tally);
/// Point estimate for SDC/DUE leaves (no cross moments -> no variance).
double SplitEventEstimate(const SplitSpec& spec, const SplitTally& tally,
                          WeightedEvent event);

telemetry::JsonValue SplitTallyToJson(const SplitTally& tally);
SplitTally SplitTallyFromJson(const telemetry::JsonValue& value);

/// Adds split_levels/split_replicas to a campaign fingerprint; no-op when
/// inactive, so unsplit system fingerprints are unchanged.
void AddSplitFingerprint(telemetry::JsonValue& fingerprint,
                         const SplitSpec& split);
/// Reconstructs the SplitSpec from a fingerprint; inactive when absent.
SplitSpec SplitSpecFromFingerprint(const telemetry::JsonValue& fingerprint);

/// Adds the split.* counters (root trials, nodes, splits, leaves) and
/// metrics (estimate, std error, ESS, relative variance) for a split run.
void AddSplitMetrics(telemetry::Report& report, const SplitSpec& split,
                     const SplitTally& tally);

}  // namespace pair_ecc::reliability
