#include "reliability/variance_reduction.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>

#include "reliability/engine.hpp"
#include "reliability/telemetry.hpp"
#include "telemetry/checkpoint.hpp"
#include "util/contract.hpp"
#include "util/parse.hpp"

namespace pair_ecc::reliability {

using telemetry::CountsFromJson;
using telemetry::CountsToJson;
using telemetry::JsonValue;
using telemetry::RequireField;
using telemetry::RequireU64;

namespace {

/// Poisson(lambda) pmf over n = 0..max via the stable multiplicative
/// recurrence. Validate() bounds lambda so exp(-lambda) never underflows.
std::vector<double> PoissonPmf(double lambda, unsigned max) {
  std::vector<double> pmf(static_cast<std::size_t>(max) + 1);
  pmf[0] = std::exp(-lambda);
  for (unsigned n = 1; n <= max; ++n)
    pmf[n] = pmf[n - 1] * lambda / static_cast<double>(n);
  return pmf;
}

unsigned RequireUnsigned(const JsonValue& object, std::string_view key,
                         const std::string& what) {
  const std::uint64_t v = RequireU64(object, key, what);
  if (v > std::numeric_limits<unsigned>::max())
    throw std::runtime_error(what + ": field '" + std::string(key) + "' is " +
                             std::to_string(v) + ", above the unsigned range");
  return static_cast<unsigned>(v);
}

/// The finish both weighted estimators share, over est.trials (> 0)
/// samples whose values sum to `sum` and their squares to `sum_sq`; ESS is
/// over `ess_sum`/`ess_sum_sq`, acceleration charged against `cost` (0: none).
void FinishEstimate(WeightedEstimate& est, double sum, double sum_sq,
                    double ess_sum, double ess_sum_sq, double cost) {
  const double n = static_cast<double>(est.trials);
  est.estimate = sum / n;
  if (est.trials > 1) {
    // Var(mean) = S^2 / n with the Bessel-corrected sample variance of the
    // per-sample values.
    const double s2 =
        std::max(0.0, (sum_sq - n * est.estimate * est.estimate) / (n - 1.0));
    est.variance = s2 / n;
  }
  est.std_error = std::sqrt(est.variance);
  est.ess = ess_sum_sq > 0.0 ? ess_sum * ess_sum / ess_sum_sq : 0.0;
  est.relative_variance =
      est.estimate > 0.0 ? est.variance / (est.estimate * est.estimate) : 0.0;
  est.naive_equiv_trials =
      est.variance > 0.0 ? est.estimate * (1.0 - est.estimate) / est.variance
                         : 0.0;
  est.acceleration = cost > 0.0 ? est.naive_equiv_trials / cost : 0.0;
}

double RequireReal(const JsonValue& object, std::string_view key,
                   const std::string& what) {
  const JsonValue& v = RequireField(object, key, what);
  if (!v.IsNumber())
    throw std::runtime_error(what + ": field '" + std::string(key) +
                             "' must be a number");
  return v.AsReal();
}

}  // namespace

// ---------------------------------------------------------------------------
// TiltSpec / TiltSampler
// ---------------------------------------------------------------------------

std::string_view ToString(TiltKind kind) noexcept {
  switch (kind) {
    case TiltKind::kIdentity: return "identity";
    case TiltKind::kRate:     return "rate";
    case TiltKind::kForced:   return "forced";
  }
  return "unknown";
}

TiltKind TiltKindFromString(std::string_view text) {
  if (text == "identity") return TiltKind::kIdentity;
  if (text == "rate") return TiltKind::kRate;
  if (text == "forced") return TiltKind::kForced;
  throw std::runtime_error("unknown tilt kind '" + std::string(text) +
                           "' (expected 'identity', 'rate' or 'forced')");
}

void TiltSpec::Validate() const {
  if (!Active()) return;
  if (!(lambda > 0.0) || !std::isfinite(lambda) || lambda > 500.0)
    throw std::runtime_error("tilt: lambda must be in (0, 500]");
  if (!(proposal_lambda > 0.0) || !std::isfinite(proposal_lambda) ||
      proposal_lambda > 500.0)
    throw std::runtime_error("tilt: proposal lambda must be in (0, 500]");
  if (min_faults > max_faults)
    throw std::runtime_error("tilt: min_faults " + std::to_string(min_faults) +
                             " exceeds max_faults " +
                             std::to_string(max_faults));
  if (max_faults > kMaxTiltFaults)
    throw std::runtime_error("tilt: max_faults " + std::to_string(max_faults) +
                             " exceeds the cap of " +
                             std::to_string(kMaxTiltFaults));
  if (kind == TiltKind::kForced && min_faults == 0)
    throw std::runtime_error(
        "tilt: forced fault-count conditioning requires min_faults >= 1");
}

TiltSampler::TiltSampler(const TiltSpec& spec) : spec_(spec) {
  PAIR_CHECK(spec.Active(), "TiltSampler requires an active (non-identity) "
                            "tilt spec");
  spec.Validate();
  const std::vector<double> target = PoissonPmf(spec.lambda, spec.max_faults);
  const std::vector<double> proposal =
      PoissonPmf(spec.proposal_lambda, spec.max_faults);

  double proposal_mass = 0.0;
  for (unsigned n = spec.min_faults; n <= spec.max_faults; ++n)
    proposal_mass += proposal[n];
  PAIR_CHECK(proposal_mass > 0.0,
             "tilt proposal has no mass on the window ["
                 << spec.min_faults << ", " << spec.max_faults
                 << "] — move proposal_lambda toward the window");

  const unsigned classes = spec.Classes();
  cdf_.resize(classes);
  weights_.resize(classes);
  double cum = 0.0;
  for (unsigned c = 0; c < classes; ++c) {
    const unsigned n = spec.min_faults + c;
    const double q = proposal[n] / proposal_mass;
    cum += q;
    cdf_[c] = cum;
    weights_[c] = q > 0.0 ? target[n] / q : 0.0;
    max_weight_ = std::max(max_weight_, weights_[c]);
  }
  cdf_[classes - 1] = 1.0;  // absorb rounding so Sample never falls off

  for (unsigned n = 0; n < spec.min_faults; ++n) tail_mass_below_ += target[n];
  double window_mass = 0.0;
  for (unsigned n = spec.min_faults; n <= spec.max_faults; ++n)
    window_mass += target[n];
  tail_mass_above_ =
      std::max(0.0, 1.0 - tail_mass_below_ - window_mass);
}

unsigned TiltSampler::Sample(util::Xoshiro256& rng) const noexcept {
  const double u = rng.UniformDouble();
  for (unsigned c = 0; c + 1 < cdf_.size(); ++c)
    if (u < cdf_[c]) return spec_.min_faults + c;
  return spec_.max_faults;
}

// ---------------------------------------------------------------------------
// ClassCounts + estimators
// ---------------------------------------------------------------------------

void ClassCounts::Grow(std::size_t classes) {
  if (Classes() >= classes) return;
  samples.resize(classes);
  failures.resize(classes);
  sdc.resize(classes);
  due.resize(classes);
}

void ClassCounts::Record(std::size_t cls, bool failed, bool any_sdc,
                         bool any_due) {
  Grow(cls + 1);
  ++samples[cls];
  failures[cls] += failed;
  sdc[cls] += any_sdc;
  due[cls] += any_due;
}

const std::vector<std::uint64_t>& ClassCounts::Events(
    WeightedEvent event) const noexcept {
  if (event == WeightedEvent::kSdc) return sdc;
  if (event == WeightedEvent::kDue) return due;
  return failures;
}

ClassCounts& ClassCounts::operator+=(const ClassCounts& other) {
  Grow(other.Classes());
  for (std::size_t c = 0; c < other.Classes(); ++c) {
    samples[c] += other.samples[c];
    failures[c] += other.failures[c];
    sdc[c] += other.sdc[c];
    due[c] += other.due[c];
  }
  return *this;
}

void ClassCountsToJson(const ClassCounts& counts, std::string_view samples_key,
                       JsonValue& obj) {
  obj.Set(std::string(samples_key), CountsToJson(counts.samples));
  obj.Set("failures", CountsToJson(counts.failures));
  obj.Set("sdc", CountsToJson(counts.sdc));
  obj.Set("due", CountsToJson(counts.due));
}

ClassCounts ClassCountsFromJson(const JsonValue& obj,
                                std::string_view samples_key,
                                const std::string& what) {
  ClassCounts counts;
  counts.samples = CountsFromJson(RequireField(obj, samples_key, what), what);
  counts.failures = CountsFromJson(RequireField(obj, "failures", what), what);
  counts.sdc = CountsFromJson(RequireField(obj, "sdc", what), what);
  counts.due = CountsFromJson(RequireField(obj, "due", what), what);
  const std::size_t classes = counts.Classes();
  if (counts.failures.size() != classes || counts.sdc.size() != classes ||
      counts.due.size() != classes)
    throw std::runtime_error(what + ": '" + std::string(samples_key) +
                             "', 'failures', 'sdc' and 'due' must have "
                             "equal lengths");
  return counts;
}

WeightedEstimate EstimateFromClassCounts(
    std::span<const double> weights, std::span<const std::uint64_t> trials,
    std::span<const std::uint64_t> events) {
  PAIR_CHECK(trials.size() == events.size() && trials.size() <= weights.size(),
             "EstimateFromClassCounts: class-count size mismatch ("
                 << weights.size() << " weights, " << trials.size()
                 << " trial classes, " << events.size() << " event classes)");
  double sum_w = 0.0, sum_w2 = 0.0, sum_wf = 0.0, sum_w2f = 0.0;
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < trials.size(); ++c) {
    const double w = weights[c];
    const auto t = static_cast<double>(trials[c]);
    const auto f = static_cast<double>(events[c]);
    total += trials[c];
    sum_w += w * t;
    sum_w2 += w * w * t;
    sum_wf += w * f;
    sum_w2f += w * w * f;
  }
  WeightedEstimate est;
  est.trials = total;
  // A trial's value is w * 1[event]; ESS is over the weights themselves.
  if (total != 0)
    FinishEstimate(est, sum_wf, sum_w2f, sum_w, sum_w2,
                   static_cast<double>(total));
  return est;
}

WeightedEstimate EstimateWeightedRate(const TiltSampler& sampler,
                                      const WeightedTally& tally,
                                      WeightedEvent event) {
  WeightedEstimate est = EstimateFromClassCounts(
      sampler.Weights(), tally.samples, tally.Events(event));
  est.tail_mass_below = sampler.TailMassBelow();
  est.tail_mass_above = sampler.TailMassAbove();
  return est;
}

// ---------------------------------------------------------------------------
// Tilted trial bodies
// ---------------------------------------------------------------------------

void RunWeightedScenarioTrial(const ScenarioConfig& config,
                              const TiltSampler& sampler, const WorkingSet& ws,
                              util::Xoshiro256& rng, WeightedScenarioState& acc,
                              ScenarioScratch& scratch) {
  const unsigned faults = sampler.Sample(rng);
  OutcomeCounts& counts = acc.base.counts;
  const std::uint64_t sdc_before = counts.trials_with_sdc;
  const std::uint64_t due_before = counts.trials_with_due;
  const std::uint64_t fail_before = counts.trials_with_failure;
  RunScenarioTrial(config, ws, rng, acc.base, scratch, faults);
  acc.tally.Record(sampler.ClassOf(faults),
                   counts.trials_with_failure != fail_before,
                   counts.trials_with_sdc != sdc_before,
                   counts.trials_with_due != due_before);
}

WeightedScenarioState RunWeightedMonteCarlo(const ScenarioConfig& config,
                                            const TiltSpec& tilt,
                                            std::uint64_t trials,
                                            ScenarioTelemetry* telemetry) {
  config.geometry.Validate();
  const TiltSampler sampler(tilt);
  const WorkingSet ws = MakeScenarioWorkingSet(config);

  const TrialEngine engine(config.threads);
  WeightedScenarioState accum =
      engine.RunWithScratch<WeightedScenarioState, ScenarioScratch>(
          config.seed, trials,
          [&config, &sampler, &ws](std::uint64_t /*trial*/,
                                   util::Xoshiro256& rng,
                                   WeightedScenarioState& acc,
                                   ScenarioScratch& scratch) {
            RunWeightedScenarioTrial(config, sampler, ws, rng, acc, scratch);
          },
          telemetry != nullptr ? &telemetry->engine : nullptr);
  if (telemetry != nullptr) telemetry->trial = accum.base.tel;
  return accum;
}

// ---------------------------------------------------------------------------
// JSON round-trip
// ---------------------------------------------------------------------------

JsonValue WeightedScenarioStateToJson(const WeightedScenarioState& state) {
  JsonValue obj = ScenarioStateToJson(state.base);
  JsonValue weighted = JsonValue::MakeObject();
  ClassCountsToJson(state.tally, "trials", weighted);
  obj.Set("weighted", std::move(weighted));
  return obj;
}

WeightedScenarioState WeightedScenarioStateFromJson(const JsonValue& value) {
  WeightedScenarioState state;
  state.base = ScenarioStateFromJson(value);
  state.tally = ClassCountsFromJson(
      RequireField(value, "weighted", "checkpoint weighted scenario state"),
      "trials", "checkpoint weighted tally");
  return state;
}

// ---------------------------------------------------------------------------
// Fingerprint + report plumbing
// ---------------------------------------------------------------------------

void AddTiltFingerprint(JsonValue& fingerprint, const TiltSpec& tilt) {
  if (!tilt.Active()) return;
  fingerprint.Set("tilt", JsonValue(ToString(tilt.kind)));
  fingerprint.Set("tilt_lambda", JsonValue(tilt.lambda));
  fingerprint.Set("tilt_proposal", JsonValue(tilt.proposal_lambda));
  fingerprint.Set("tilt_min", JsonValue(tilt.min_faults));
  fingerprint.Set("tilt_max", JsonValue(tilt.max_faults));
}

TiltSpec TiltSpecFromFingerprint(const JsonValue& fingerprint) {
  TiltSpec tilt;
  const JsonValue* kind = fingerprint.Find("tilt");
  if (kind == nullptr) return tilt;
  const std::string what = "campaign fingerprint tilt";
  tilt.kind = TiltKindFromString(kind->AsString());
  tilt.lambda = RequireReal(fingerprint, "tilt_lambda", what);
  tilt.proposal_lambda = RequireReal(fingerprint, "tilt_proposal", what);
  tilt.min_faults = RequireUnsigned(fingerprint, "tilt_min", what);
  tilt.max_faults = RequireUnsigned(fingerprint, "tilt_max", what);
  tilt.Validate();
  return tilt;
}

void AddWeightedMetrics(telemetry::Report& report, const TiltSpec& tilt,
                        const WeightedTally& tally) {
  const TiltSampler sampler(tilt);
  const auto add = [&](WeightedEvent event, const std::string& name) {
    const WeightedEstimate est = EstimateWeightedRate(sampler, tally, event);
    report.AddMetric("is.p_" + name, est.estimate);
    report.AddMetric("is.p_" + name + "_std_error", est.std_error);
    return est;
  };
  add(WeightedEvent::kSdc, "sdc");
  add(WeightedEvent::kDue, "due");
  const WeightedEstimate fail = add(WeightedEvent::kFailure, "failure");
  report.AddMetric("is.ess", fail.ess);
  report.AddMetric("is.relative_variance", fail.relative_variance);
  report.AddMetric("is.tail_mass_below", fail.tail_mass_below);
  report.AddMetric("is.tail_mass_above", fail.tail_mass_above);
  report.AddMetric("is.naive_equiv_trials", fail.naive_equiv_trials);
  report.AddMetric("is.acceleration", fail.acceleration);
}

// ---------------------------------------------------------------------------
// Multilevel splitting statistics
// ---------------------------------------------------------------------------

void SplitSpec::Validate() const {
  if (!Active()) return;
  if (thresholds.size() > kMaxSplitLevels)
    throw std::runtime_error("split: at most " +
                             std::to_string(kMaxSplitLevels) +
                             " levels are supported");
  if (thresholds.front() == 0)
    throw std::runtime_error("split: thresholds must be >= 1");
  for (std::size_t i = 1; i < thresholds.size(); ++i)
    if (thresholds[i] <= thresholds[i - 1])
      throw std::runtime_error(
          "split: thresholds must be strictly increasing (got " +
          FormatSplitLevels(thresholds) + ")");
  if (replicas < 2 || replicas > kMaxSplitReplicas)
    throw std::runtime_error("split: replicas must be in [2, " +
                             std::to_string(kMaxSplitReplicas) + "]");
}

std::vector<std::uint64_t> ParseSplitLevels(const std::string& text) {
  const auto fail = [&text] {
    throw std::runtime_error(
        "invalid split levels '" + text +
        "' (expected a comma-separated increasing list, e.g. 1,2,4)");
  };
  std::vector<std::uint64_t> levels;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    std::uint64_t value = 0;
    if (util::ParseU64(std::string_view(text).substr(pos, comma - pos),
                       value) != util::ParseStatus::kOk)
      fail();
    levels.push_back(value);
    pos = comma + 1;
    if (comma == text.size()) break;
  }
  if (levels.empty()) fail();
  return levels;
}

// PAIR_ANALYZE_ALLOW(CON-SPAN: whole-span iteration, any extent is legal)
std::string FormatSplitLevels(std::span<const std::uint64_t> thresholds) {
  std::string out;
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(thresholds[i]);
  }
  return out;
}

namespace {

void EnsureDepths(SplitTally& tally, std::size_t depths) {
  if (tally.Classes() >= depths) return;
  tally.Grow(depths);
  for (auto& row : tally.failure_cross) row.resize(depths);
  tally.failure_cross.resize(depths,
                             std::vector<std::uint64_t>(depths, 0));
}

}  // namespace

void SplitTally::RecordRootTrial(const SplitTreeCounts& tree) {
  const std::size_t depths = tree.Classes();
  PAIR_CHECK(tree.failures.size() == depths && tree.sdc.size() == depths &&
                 tree.due.size() == depths,
             "SplitTreeCounts depth vectors must have equal lengths");
  EnsureDepths(*this, depths);
  ++root_trials;
  nodes += tree.nodes;
  splits += tree.splits;
  ClassCounts::operator+=(tree);
  for (std::size_t d = 0; d < depths; ++d)
    for (std::size_t e = 0; e < depths; ++e)
      failure_cross[d][e] += tree.failures[d] * tree.failures[e];
}

SplitTally& SplitTally::operator+=(const SplitTally& other) {
  EnsureDepths(*this, other.Classes());
  root_trials += other.root_trials;
  nodes += other.nodes;
  splits += other.splits;
  ClassCounts::operator+=(other);
  for (std::size_t d = 0; d < other.Classes(); ++d)
    for (std::size_t e = 0; e < other.Classes(); ++e)
      failure_cross[d][e] += other.failure_cross[d][e];
  return *this;
}

WeightedEstimate EstimateSplitRate(const SplitSpec& spec,
                                   const SplitTally& tally) {
  WeightedEstimate est;
  est.trials = tally.root_trials;
  if (tally.root_trials == 0) return est;
  const std::size_t depths = tally.Classes();
  std::vector<double> rinv(depths);
  double p = 1.0;
  for (std::size_t d = 0; d < depths; ++d) {
    rinv[d] = p;
    p /= static_cast<double>(spec.replicas);
  }
  double sum_x = 0.0, sum_x2 = 0.0;
  for (std::size_t d = 0; d < depths; ++d) {
    sum_x += static_cast<double>(tally.failures[d]) * rinv[d];
    for (std::size_t e = 0; e < depths; ++e)
      sum_x2 +=
          static_cast<double>(tally.failure_cross[d][e]) * rinv[d] * rinv[e];
  }
  // A root's value is its weighted failure-leaf count X_i. Acceleration is
  // cost-honest: each tree node is one functional pass, the same unit of
  // work as one naive trial.
  FinishEstimate(est, sum_x, sum_x2, sum_x, sum_x2,
                 static_cast<double>(tally.nodes));
  return est;
}

double SplitEventEstimate(const SplitSpec& spec, const SplitTally& tally,
                          WeightedEvent event) {
  if (tally.root_trials == 0) return 0.0;
  const std::vector<std::uint64_t>& counts = tally.Events(event);
  double sum = 0.0;
  double rinv = 1.0;
  for (std::size_t d = 0; d < counts.size(); ++d) {
    sum += static_cast<double>(counts[d]) * rinv;
    rinv /= static_cast<double>(spec.replicas);
  }
  return sum / static_cast<double>(tally.root_trials);
}

JsonValue SplitTallyToJson(const SplitTally& tally) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("root_trials", JsonValue(tally.root_trials));
  obj.Set("nodes", JsonValue(tally.nodes));
  obj.Set("splits", JsonValue(tally.splits));
  ClassCountsToJson(tally, "leaves", obj);
  JsonValue cross = JsonValue::MakeArray();
  for (const auto& row : tally.failure_cross) cross.Append(CountsToJson(row));
  obj.Set("failure_cross", std::move(cross));
  return obj;
}

SplitTally SplitTallyFromJson(const JsonValue& value) {
  const std::string what = "checkpoint split tally";
  SplitTally tally;
  tally.root_trials = RequireU64(value, "root_trials", what);
  tally.nodes = RequireU64(value, "nodes", what);
  tally.splits = RequireU64(value, "splits", what);
  static_cast<ClassCounts&>(tally) = ClassCountsFromJson(value, "leaves", what);
  const std::size_t depths = tally.Classes();
  const JsonValue& cross = RequireField(value, "failure_cross", what);
  const auto not_square = [&what] {
    return std::runtime_error(what + ": failure_cross must be a square "
                                     "matrix with one row per depth");
  };
  if (cross.kind() != JsonValue::Kind::kArray ||
      cross.AsArray().size() != depths)
    throw not_square();
  for (const JsonValue& row : cross.AsArray()) {
    tally.failure_cross.push_back(CountsFromJson(row, what));
    if (tally.failure_cross.back().size() != depths) throw not_square();
  }
  return tally;
}

void AddSplitFingerprint(JsonValue& fingerprint, const SplitSpec& split) {
  if (!split.Active()) return;
  fingerprint.Set("split_levels", JsonValue(FormatSplitLevels(split.thresholds)));
  fingerprint.Set("split_replicas", JsonValue(split.replicas));
}

SplitSpec SplitSpecFromFingerprint(const JsonValue& fingerprint) {
  SplitSpec split;
  const JsonValue* levels = fingerprint.Find("split_levels");
  if (levels == nullptr) return split;
  split.thresholds = ParseSplitLevels(levels->AsString());
  split.replicas = RequireUnsigned(fingerprint, "split_replicas",
                                   "campaign fingerprint split");
  split.Validate();
  return split;
}

void AddSplitMetrics(telemetry::Report& report, const SplitSpec& split,
                     const SplitTally& tally) {
  std::uint64_t total_leaves = 0, total_failures = 0;
  for (const std::uint64_t v : tally.samples) total_leaves += v;
  for (const std::uint64_t v : tally.failures) total_failures += v;
  auto& c = report.counters();
  c.Set("split.root_trials", tally.root_trials);
  c.Set("split.nodes", tally.nodes);
  c.Set("split.splits", tally.splits);
  c.Set("split.leaves", total_leaves);
  c.Set("split.leaf_failures", total_failures);

  const WeightedEstimate fail = EstimateSplitRate(split, tally);
  report.AddMetric("split.p_failure", fail.estimate);
  report.AddMetric("split.p_failure_std_error", fail.std_error);
  report.AddMetric("split.p_sdc",
                   SplitEventEstimate(split, tally, WeightedEvent::kSdc));
  report.AddMetric("split.p_due",
                   SplitEventEstimate(split, tally, WeightedEvent::kDue));
  report.AddMetric("split.ess", fail.ess);
  report.AddMetric("split.relative_variance", fail.relative_variance);
  report.AddMetric("split.naive_equiv_trials", fail.naive_equiv_trials);
  report.AddMetric("split.acceleration", fail.acceleration);
}

}  // namespace pair_ecc::reliability
