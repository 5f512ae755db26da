#include "reliability/variance_reduction.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "reliability/engine.hpp"
#include "reliability/telemetry.hpp"
#include "telemetry/checkpoint.hpp"
#include "util/contract.hpp"
#include "util/parse.hpp"

namespace pair_ecc::reliability {

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

// PAIR_ANALYZE_ALLOW(CON-SPAN: whole-span iteration, any extent is legal)
JsonValue U64VecToJson(std::span<const std::uint64_t> values) {
  JsonValue arr = JsonValue::MakeArray();
  for (const std::uint64_t v : values) arr.Append(JsonValue(v));
  return arr;
}

std::vector<std::uint64_t> U64VecFromJson(const JsonValue& value,
                                          const std::string& what) {
  if (value.kind() != JsonValue::Kind::kArray)
    throw std::runtime_error(what + ": expected an array");
  std::vector<std::uint64_t> out;
  out.reserve(value.AsArray().size());
  for (const JsonValue& entry : value.AsArray()) {
    if (entry.kind() != JsonValue::Kind::kInt || entry.AsInt() < 0)
      throw std::runtime_error(what +
                               ": entries must be non-negative integers");
    out.push_back(static_cast<std::uint64_t>(entry.AsInt()));
  }
  return out;
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
// WeightedTally + estimators
// ---------------------------------------------------------------------------

void WeightedTally::Record(unsigned cls, bool failed, bool any_sdc,
                           bool any_due) {
  const std::size_t need = static_cast<std::size_t>(cls) + 1;
  if (trials.size() < need) {
    trials.resize(need);
    failures.resize(need);
    sdc.resize(need);
    due.resize(need);
  }
  ++trials[cls];
  failures[cls] += failed;
  sdc[cls] += any_sdc;
  due[cls] += any_due;
}

std::uint64_t WeightedTally::TotalTrials() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t t : trials) total += t;
  return total;
}

WeightedTally& WeightedTally::operator+=(const WeightedTally& other) {
  const std::size_t need = std::max(trials.size(), other.trials.size());
  trials.resize(need);
  failures.resize(need);
  sdc.resize(need);
  due.resize(need);
  for (std::size_t c = 0; c < other.trials.size(); ++c) {
    trials[c] += other.trials[c];
    failures[c] += other.failures[c];
    sdc[c] += other.sdc[c];
    due[c] += other.due[c];
  }
  return *this;
}

WeightedEstimate EstimateFromClassCounts(
    std::span<const double> weights, std::span<const std::uint64_t> trials,
    std::span<const std::uint64_t> events) {
  PAIR_CHECK(trials.size() == events.size() && trials.size() <= weights.size(),
             "EstimateFromClassCounts: class-count size mismatch ("
                 << weights.size() << " weights, " << trials.size()
                 << " trial classes, " << events.size() << " event classes)");
  WeightedEstimate est;
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
  est.trials = total;
  if (total == 0) return est;
  const double n = static_cast<double>(total);
  est.estimate = sum_wf / n;
  if (total > 1) {
    // Var(mean) = S^2 / n with the Bessel-corrected sample variance of the
    // per-trial values w * 1[event].
    const double s2 =
        std::max(0.0, (sum_w2f - n * est.estimate * est.estimate) / (n - 1.0));
    est.variance = s2 / n;
  }
  est.std_error = std::sqrt(est.variance);
  est.ess = sum_w2 > 0.0 ? sum_w * sum_w / sum_w2 : 0.0;
  est.relative_variance =
      est.estimate > 0.0 ? est.variance / (est.estimate * est.estimate) : 0.0;
  est.naive_equiv_trials =
      est.variance > 0.0 ? est.estimate * (1.0 - est.estimate) / est.variance
                         : 0.0;
  est.acceleration = est.naive_equiv_trials / n;
  return est;
}

WeightedEstimate EstimateWeightedRate(const TiltSampler& sampler,
                                      const WeightedTally& tally,
                                      WeightedEvent event) {
  const std::vector<std::uint64_t>* events = &tally.failures;
  if (event == WeightedEvent::kSdc) events = &tally.sdc;
  if (event == WeightedEvent::kDue) events = &tally.due;
  WeightedEstimate est =
      EstimateFromClassCounts(sampler.Weights(), tally.trials, *events);
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

JsonValue WeightedTallyToJson(const WeightedTally& tally) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("trials", U64VecToJson(tally.trials));
  obj.Set("failures", U64VecToJson(tally.failures));
  obj.Set("sdc", U64VecToJson(tally.sdc));
  obj.Set("due", U64VecToJson(tally.due));
  return obj;
}

WeightedTally WeightedTallyFromJson(const JsonValue& value) {
  const std::string what = "checkpoint weighted tally";
  WeightedTally tally;
  tally.trials = U64VecFromJson(RequireField(value, "trials", what), what);
  tally.failures = U64VecFromJson(RequireField(value, "failures", what), what);
  tally.sdc = U64VecFromJson(RequireField(value, "sdc", what), what);
  tally.due = U64VecFromJson(RequireField(value, "due", what), what);
  if (tally.failures.size() != tally.trials.size() ||
      tally.sdc.size() != tally.trials.size() ||
      tally.due.size() != tally.trials.size())
    throw std::runtime_error(what + ": class arrays must have equal lengths");
  return tally;
}

JsonValue WeightedScenarioStateToJson(const WeightedScenarioState& state) {
  JsonValue obj = ScenarioStateToJson(state.base);
  obj.Set("weighted", WeightedTallyToJson(state.tally));
  return obj;
}

WeightedScenarioState WeightedScenarioStateFromJson(const JsonValue& value) {
  WeightedScenarioState state;
  state.base = ScenarioStateFromJson(value);
  state.tally = WeightedTallyFromJson(
      RequireField(value, "weighted", "checkpoint weighted scenario state"));
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
  tilt.min_faults =
      static_cast<unsigned>(RequireU64(fingerprint, "tilt_min", what));
  tilt.max_faults =
      static_cast<unsigned>(RequireU64(fingerprint, "tilt_max", what));
  tilt.Validate();
  return tilt;
}

void AddWeightedMetrics(telemetry::Report& report, const TiltSpec& tilt,
                        const WeightedTally& tally) {
  const TiltSampler sampler(tilt);
  const WeightedEstimate fail =
      EstimateWeightedRate(sampler, tally, WeightedEvent::kFailure);
  const WeightedEstimate sdc =
      EstimateWeightedRate(sampler, tally, WeightedEvent::kSdc);
  const WeightedEstimate due =
      EstimateWeightedRate(sampler, tally, WeightedEvent::kDue);
  report.AddMetric("is.p_failure", fail.estimate);
  report.AddMetric("is.p_failure_std_error", fail.std_error);
  report.AddMetric("is.p_sdc", sdc.estimate);
  report.AddMetric("is.p_sdc_std_error", sdc.std_error);
  report.AddMetric("is.p_due", due.estimate);
  report.AddMetric("is.p_due_std_error", due.std_error);
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
  if (tally.leaves.size() >= depths) return;
  tally.leaves.resize(depths);
  tally.failures.resize(depths);
  tally.sdc.resize(depths);
  tally.due.resize(depths);
  for (auto& row : tally.failure_cross) row.resize(depths);
  tally.failure_cross.resize(depths,
                             std::vector<std::uint64_t>(depths, 0));
}

}  // namespace

void SplitTally::RecordRootTrial(const SplitTreeCounts& tree) {
  const std::size_t depths = tree.leaves.size();
  PAIR_CHECK(tree.failures.size() == depths && tree.sdc.size() == depths &&
                 tree.due.size() == depths,
             "SplitTreeCounts depth vectors must have equal lengths");
  EnsureDepths(*this, depths);
  ++root_trials;
  nodes += tree.nodes;
  splits += tree.splits;
  for (std::size_t d = 0; d < depths; ++d) {
    leaves[d] += tree.leaves[d];
    failures[d] += tree.failures[d];
    sdc[d] += tree.sdc[d];
    due[d] += tree.due[d];
    for (std::size_t e = 0; e < depths; ++e)
      failure_cross[d][e] += tree.failures[d] * tree.failures[e];
  }
}

SplitTally& SplitTally::operator+=(const SplitTally& other) {
  EnsureDepths(*this, other.leaves.size());
  root_trials += other.root_trials;
  nodes += other.nodes;
  splits += other.splits;
  for (std::size_t d = 0; d < other.leaves.size(); ++d) {
    leaves[d] += other.leaves[d];
    failures[d] += other.failures[d];
    sdc[d] += other.sdc[d];
    due[d] += other.due[d];
    for (std::size_t e = 0; e < other.leaves.size(); ++e)
      failure_cross[d][e] += other.failure_cross[d][e];
  }
  return *this;
}

WeightedEstimate EstimateSplitRate(const SplitSpec& spec,
                                   const SplitTally& tally) {
  WeightedEstimate est;
  est.trials = tally.root_trials;
  if (tally.root_trials == 0) return est;
  const std::size_t depths = tally.leaves.size();
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
  const double n = static_cast<double>(tally.root_trials);
  est.estimate = sum_x / n;
  if (tally.root_trials > 1) {
    const double s2 =
        std::max(0.0, (sum_x2 - n * est.estimate * est.estimate) / (n - 1.0));
    est.variance = s2 / n;
  }
  est.std_error = std::sqrt(est.variance);
  est.ess = sum_x2 > 0.0 ? sum_x * sum_x / sum_x2 : 0.0;
  est.relative_variance =
      est.estimate > 0.0 ? est.variance / (est.estimate * est.estimate) : 0.0;
  est.naive_equiv_trials =
      est.variance > 0.0 ? est.estimate * (1.0 - est.estimate) / est.variance
                         : 0.0;
  // Cost-honest acceleration: each tree node is one functional pass, the
  // same unit of work as one naive trial.
  est.acceleration = tally.nodes > 0
                         ? est.naive_equiv_trials /
                               static_cast<double>(tally.nodes)
                         : 0.0;
  return est;
}

double SplitEventEstimate(const SplitSpec& spec, const SplitTally& tally,
                          WeightedEvent event) {
  if (tally.root_trials == 0) return 0.0;
  const std::vector<std::uint64_t>* counts = &tally.failures;
  if (event == WeightedEvent::kSdc) counts = &tally.sdc;
  if (event == WeightedEvent::kDue) counts = &tally.due;
  double sum = 0.0;
  double rinv = 1.0;
  for (std::size_t d = 0; d < counts->size(); ++d) {
    sum += static_cast<double>((*counts)[d]) * rinv;
    rinv /= static_cast<double>(spec.replicas);
  }
  return sum / static_cast<double>(tally.root_trials);
}

JsonValue SplitTallyToJson(const SplitTally& tally) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("root_trials", JsonValue(tally.root_trials));
  obj.Set("nodes", JsonValue(tally.nodes));
  obj.Set("splits", JsonValue(tally.splits));
  obj.Set("leaves", U64VecToJson(tally.leaves));
  obj.Set("failures", U64VecToJson(tally.failures));
  obj.Set("sdc", U64VecToJson(tally.sdc));
  obj.Set("due", U64VecToJson(tally.due));
  JsonValue cross = JsonValue::MakeArray();
  for (const auto& row : tally.failure_cross) cross.Append(U64VecToJson(row));
  obj.Set("failure_cross", std::move(cross));
  return obj;
}

SplitTally SplitTallyFromJson(const JsonValue& value) {
  const std::string what = "checkpoint split tally";
  SplitTally tally;
  tally.root_trials = RequireU64(value, "root_trials", what);
  tally.nodes = RequireU64(value, "nodes", what);
  tally.splits = RequireU64(value, "splits", what);
  tally.leaves = U64VecFromJson(RequireField(value, "leaves", what), what);
  tally.failures = U64VecFromJson(RequireField(value, "failures", what), what);
  tally.sdc = U64VecFromJson(RequireField(value, "sdc", what), what);
  tally.due = U64VecFromJson(RequireField(value, "due", what), what);
  const std::size_t depths = tally.leaves.size();
  if (tally.failures.size() != depths || tally.sdc.size() != depths ||
      tally.due.size() != depths)
    throw std::runtime_error(what + ": depth arrays must have equal lengths");
  const JsonValue& cross = RequireField(value, "failure_cross", what);
  if (cross.kind() != JsonValue::Kind::kArray ||
      cross.AsArray().size() != depths)
    throw std::runtime_error(what +
                             ": failure_cross must be a square matrix with "
                             "one row per depth");
  for (const JsonValue& row : cross.AsArray()) {
    std::vector<std::uint64_t> r = U64VecFromJson(row, what);
    if (r.size() != depths)
      throw std::runtime_error(what +
                               ": failure_cross must be a square matrix with "
                               "one row per depth");
    tally.failure_cross.push_back(std::move(r));
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
  if (levels == nullptr) {
    split.thresholds.clear();
    return split;
  }
  split.thresholds = ParseSplitLevels(levels->AsString());
  split.replicas = static_cast<unsigned>(RequireU64(
      fingerprint, "split_replicas", "campaign fingerprint split"));
  split.Validate();
  return split;
}

void AddSplitMetrics(telemetry::Report& report, const SplitSpec& split,
                     const SplitTally& tally) {
  std::uint64_t total_leaves = 0, total_failures = 0;
  for (const std::uint64_t v : tally.leaves) total_leaves += v;
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
