#include "sim/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "sim/splitting.hpp"
#include "telemetry/checkpoint.hpp"
#include "telemetry/fields.hpp"
#include "util/atomic_file.hpp"
#include "util/parse.hpp"
#include "util/stats.hpp"

namespace pair_ecc::sim {

using reliability::ScenarioScratch;
using reliability::ScenarioShardState;
using reliability::TrialEngine;
using telemetry::JsonValue;
using telemetry::RequireField;
using telemetry::RequireString;
using telemetry::RequireU64;

std::string_view ToString(CampaignMode mode) noexcept {
  switch (mode) {
    case CampaignMode::kReliability: return "reliability";
    case CampaignMode::kSystem:      return "system";
  }
  return "unknown";
}

CampaignMode CampaignModeFromString(std::string_view text) {
  if (text == "reliability") return CampaignMode::kReliability;
  if (text == "system") return CampaignMode::kSystem;
  throw std::runtime_error("unknown campaign mode '" + std::string(text) +
                           "' (expected 'reliability' or 'system')");
}

ShardSlice ParseShardSlice(const std::string& text) {
  const std::string_view spec = text;
  const std::size_t slash = spec.find('/');
  ShardSlice slice;
  if (slash == spec.npos ||
      util::ParseU64(spec.substr(0, slash), slice.index) !=
          util::ParseStatus::kOk ||
      util::ParseU64(spec.substr(slash + 1), slice.count) !=
          util::ParseStatus::kOk ||
      slice.count == 0 || slice.index >= slice.count)
    throw std::runtime_error("invalid shard spec '" + text +
                             "' (expected i/N with 0 <= i < N, e.g. 0/4)");
  return slice;
}

reliability::WorkingSet MakeSystemWorkingSet(const SystemConfig& config) {
  return reliability::MakeWorkingSet(config.geometry, config.working_rows,
                                     config.lines_per_row,
                                     /*row_mul=*/37, /*row_off=*/5);
}

JsonValue SystemStateToJson(const SystemShardState& state) {
  return telemetry::FieldsToJson(state);
}

SystemShardState SystemStateFromJson(const JsonValue& value) {
  return telemetry::FieldsFromJson<SystemShardState>(
      value, "checkpoint system state");
}

namespace {

struct SliceBounds {
  std::uint64_t total = 0;
  std::uint64_t first = 0;
  std::uint64_t end = 0;
};

SliceBounds ComputeSlice(std::uint64_t trials, const ShardSlice& slice) {
  if (slice.count == 0 || slice.index >= slice.count)
    throw std::runtime_error(
        "invalid shard slice " + std::to_string(slice.index) + "/" +
        std::to_string(slice.count) + " (requires N >= 1 and i < N)");
  SliceBounds b;
  b.total = TrialEngine::ShardCount(trials);
  b.first = slice.index * b.total / slice.count;
  b.end = (slice.index + 1) * b.total / slice.count;
  return b;
}

std::uint64_t CampaignSeed(const CampaignSpec& spec) {
  return spec.mode == CampaignMode::kReliability ? spec.scenario.seed
                                                 : spec.system.seed;
}

unsigned CampaignThreads(const CampaignSpec& spec) {
  return spec.mode == CampaignMode::kReliability ? spec.scenario.threads
                                                 : spec.system.threads;
}

bool RequireBool(const JsonValue& object, std::string_view key,
                 const std::string& what) {
  const JsonValue& v = RequireField(object, key, what);
  if (v.kind() != JsonValue::Kind::kBool)
    throw std::runtime_error(what + ": field '" + std::string(key) +
                             "' has the wrong type (expected a bool)");
  return v.AsBool();
}

JsonValue MakeCheckpointBody(const CampaignSpec& spec,
                             const std::string& config_hash,
                             const SliceBounds& bounds,
                             std::uint64_t next_shard, JsonValue state) {
  JsonValue body = JsonValue::MakeObject();
  body.Set("mode", JsonValue(ToString(spec.mode)));
  body.Set("config_hash", JsonValue(config_hash));
  body.Set("seed", JsonValue(CampaignSeed(spec)));
  body.Set("trials", JsonValue(spec.trials));
  body.Set("total_shards", JsonValue(bounds.total));
  body.Set("slice_index", JsonValue(spec.slice.index));
  body.Set("slice_count", JsonValue(spec.slice.count));
  body.Set("first_shard", JsonValue(bounds.first));
  body.Set("end_shard", JsonValue(bounds.end));
  body.Set("next_shard", JsonValue(next_shard));
  body.Set("complete", JsonValue(next_shard == bounds.end));
  body.Set("config", spec.fingerprint);
  body.Set("state", std::move(state));
  return body;
}

/// One checkpoint file as resume and merge read it; `what` ("checkpoint
/// '<path>'") prefixes every diagnostic about it.
struct SliceDoc {
  std::string path;
  std::string what;
  std::string mode;
  std::string config_hash;
  std::uint64_t total = 0;
  std::uint64_t first = 0;
  std::uint64_t end = 0;
  std::uint64_t next = 0;
  bool complete = false;
  JsonValue config;
  JsonValue state;
};

/// Reads `path`, refusing a checkpoint that disagrees with itself: its
/// config_hash is not its config's CRC32 (one was edited), its next_shard
/// lies outside its slice, or it is marked complete short of its end.
SliceDoc ReadSlice(const std::string& path) {
  const JsonValue body = telemetry::ReadCheckpointFile(path);
  SliceDoc doc;
  doc.path = path;
  doc.what = "checkpoint '" + path + "'";
  const std::string& what = doc.what;
  doc.mode = RequireString(body, "mode", what);
  doc.config_hash = RequireString(body, "config_hash", what);
  doc.config = RequireField(body, "config", what);
  const std::string own = util::Crc32Hex(doc.config.Dump());
  if (own != doc.config_hash)
    throw std::runtime_error(what + ": config_hash " + doc.config_hash +
                             " is not the CRC32 of its own config (" + own +
                             ") — refusing an edited checkpoint");
  doc.total = RequireU64(body, "total_shards", what);
  doc.first = RequireU64(body, "first_shard", what);
  doc.end = RequireU64(body, "end_shard", what);
  doc.next = RequireU64(body, "next_shard", what);
  doc.complete = RequireBool(body, "complete", what);
  if (doc.next < doc.first || doc.next > doc.end)
    throw std::runtime_error(what + ": next_shard " + std::to_string(doc.next) +
                             " outside its slice [" +
                             std::to_string(doc.first) + ", " +
                             std::to_string(doc.end) + "]");
  if (doc.complete && doc.next != doc.end)
    throw std::runtime_error(what + ": marked complete, but next_shard " +
                             std::to_string(doc.next) + " is not end_shard " +
                             std::to_string(doc.end));
  doc.state = RequireField(body, "state", what);
  return doc;
}

// The four campaign kinds (campaign.hpp); WithKind picks one.

struct NoScratch {};

/// Wilson, or the exact one-sided upper bound when no trial failed (the
/// symmetric interval's upper limit would be an artifact of z).
util::Proportion CountedInterval(std::uint64_t failures,
                                 std::uint64_t trials) {
  if (failures != 0 || trials == 0)
    return util::WilsonInterval(failures, trials);
  util::Proportion p;
  p.upper = util::ZeroEventUpperBound(trials);
  return p;
}

/// Wilson from a weighted estimator's variance; with no failure weight seen,
/// the zero-event bound scaled by the largest per-trial value, plus
/// `allowance` for target mass the estimand leaves out.
util::Proportion WeightedInterval(const reliability::WeightedEstimate& est,
                                  double max_value, double allowance) {
  util::Proportion p;
  if (est.trials > 0 && est.estimate <= 0.0)
    p.upper = std::min(
        1.0, max_value * util::ZeroEventUpperBound(est.trials) + allowance);
  else if (est.trials > 0)
    p = util::WilsonIntervalFromVariance(est.estimate, est.variance);
  return p;
}

/// Untilted scenario campaign.
struct ScenarioKind {
  using State = ScenarioShardState;
  using Scratch = ScenarioScratch;
  static constexpr auto Save = &reliability::ScenarioStateToJson;

  auto Trial(const CampaignSpec& spec) const {
    spec.scenario.geometry.Validate();
    return [&spec, ws = reliability::MakeScenarioWorkingSet(spec.scenario)](
               std::uint64_t, util::Xoshiro256& rng, State& acc, Scratch& s) {
      reliability::RunScenarioTrial(spec.scenario, ws, rng, acc, s);
    };
  }
  State Load(const JsonValue& state, const std::string&) const {
    return reliability::ScenarioStateFromJson(state);
  }
  void Report(telemetry::Report& report, const State& total,
              const JsonValue&) const {
    reliability::AddScenarioCounters(report, total.counts);
    reliability::AddTrialTelemetry(report, total.tel);
  }
  util::Proportion FailureInterval(const State& total) const {
    return CountedInterval(total.counts.trials_with_failure,
                           total.counts.trials);
  }
};

/// Importance-sampled scenario campaign: the untilted sections plus the
/// exact weighted tally.
struct TiltedKind {
  using State = reliability::WeightedScenarioState;
  using Scratch = ScenarioScratch;
  static constexpr auto Save = &reliability::WeightedScenarioStateToJson;
  reliability::TiltSpec tilt;

  auto Trial(const CampaignSpec& spec) const {
    spec.scenario.geometry.Validate();
    reliability::WorkingSet ws =
        reliability::MakeScenarioWorkingSet(spec.scenario);
    reliability::TiltSampler sampler(tilt);
    return [&spec, ws = std::move(ws), sampler = std::move(sampler)](
               std::uint64_t, util::Xoshiro256& rng, State& acc, Scratch& s) {
      reliability::RunWeightedScenarioTrial(spec.scenario, sampler, ws, rng,
                                            acc, s);
    };
  }
  State Load(const JsonValue& state, const std::string& what) const {
    State loaded = reliability::WeightedScenarioStateFromJson(state);
    if (loaded.tally.Classes() > tilt.Classes())
      throw std::runtime_error(
          what + ": weighted tally has " +
          std::to_string(loaded.tally.Classes()) +
          " classes, more than the tilt window [" +
          std::to_string(tilt.min_faults) + ", " +
          std::to_string(tilt.max_faults) + "] holds");
    return loaded;
  }
  void Report(telemetry::Report& report, const State& total,
              const JsonValue& fingerprint) const {
    ScenarioKind{}.Report(report, total.base, fingerprint);
    reliability::AddWeightedMetrics(report, tilt, total.tally);
  }
  /// A trial's value is at most the largest likelihood ratio; the excluded
  /// upper-tail target mass is the conservative bias allowance.
  util::Proportion FailureInterval(const State& total) const {
    const reliability::TiltSampler sampler(tilt);
    return WeightedInterval(
        reliability::EstimateWeightedRate(sampler, total.tally,
                                          reliability::WeightedEvent::kFailure),
        sampler.MaxWeight(), sampler.TailMassAbove());
  }
};

/// The config a system trial runs: the horizon a zero horizon_cycles
/// resolves to is run state, not campaign identity, so the fingerprint
/// and config hash never see it.
SystemConfig ResolvedSystem(const CampaignSpec& spec) {
  SystemConfig system = spec.system;
  system.horizon_cycles = ScanDemand(spec.system, spec.demand).horizon_cycles;
  return system;
}

/// Full-system lifetime campaign.
struct SystemKind {
  using State = SystemShardState;
  using Scratch = NoScratch;
  static constexpr auto Save = &SystemStateToJson;

  auto Trial(const CampaignSpec& spec) const {
    SystemConfig system = ResolvedSystem(spec);
    reliability::WorkingSet ws = MakeSystemWorkingSet(system);
    return [&spec, system = std::move(system), ws = std::move(ws)](
               std::uint64_t, util::Xoshiro256& rng, State& acc, Scratch&) {
      const std::unique_ptr<timing::RequestSource> source = spec.demand();
      MemorySystem(system, ws, *source, rng).Run(acc.stats, acc.tel);
    };
  }
  State Load(const JsonValue& state, const std::string&) const {
    return SystemStateFromJson(state);
  }
  void Report(telemetry::Report& report, const State& total,
              const JsonValue& fingerprint) const {
    const JsonValue* tck = fingerprint.Find("tck_ns");
    if (tck == nullptr || !tck->IsNumber())
      throw std::runtime_error(
          "merge: system campaign fingerprint is missing 'tck_ns'");
    AddSystemStats(report, total.stats, tck->AsReal());
    reliability::AddTrialTelemetry(report, total.tel);
  }
  util::Proportion FailureInterval(const State& total) const {
    return CountedInterval(total.stats.trials_with_failure,
                           total.stats.trials);
  }
};

/// Multilevel-split system campaign. It reports the splitting estimator
/// only: interior and per-node system stats are biased by construction
/// (trees oversample near-failure trajectories) and are not kept.
struct SplitKind {
  using State = reliability::SplitTally;
  using Scratch = NoScratch;
  reliability::SplitSpec split;

  auto Trial(const CampaignSpec& spec) const {
    SystemConfig system = ResolvedSystem(spec);
    reliability::WorkingSet ws = MakeSystemWorkingSet(system);
    split.Validate();
    return [this, &spec, system = std::move(system), ws = std::move(ws)](
               std::uint64_t, util::Xoshiro256& rng, State& acc, Scratch&) {
      // One draw from the engine's per-trial stream seeds the whole
      // splitting tree; the tree re-derives node streams itself.
      const std::uint64_t root_seed = rng();
      const std::unique_ptr<timing::RequestSource> source = spec.demand();
      RunSplitTrial(system, ws, *source, split, root_seed, acc);
    };
  }
  JsonValue Save(const State& state) const {
    JsonValue obj = JsonValue::MakeObject();
    obj.Set("split", reliability::SplitTallyToJson(state));
    return obj;
  }
  State Load(const JsonValue& state, const std::string& what) const {
    State loaded = reliability::SplitTallyFromJson(
        RequireField(state, "split", what + " split state"));
    if (loaded.Classes() != 0 && loaded.Classes() != split.Depths())
      throw std::runtime_error(
          what + ": split tally has " + std::to_string(loaded.Classes()) +
          " depths, but split levels " +
          reliability::FormatSplitLevels(split.thresholds) + " make " +
          std::to_string(split.Depths()));
    return loaded;
  }
  void Report(telemetry::Report& report, const State& total,
              const JsonValue&) const {
    reliability::AddSplitMetrics(report, split, total);
  }
  /// A root's leaf weights sum to exactly 1, so its value lies in [0, 1].
  util::Proportion FailureInterval(const State& total) const {
    return WeightedInterval(reliability::EstimateSplitRate(split, total), 1.0,
                            0.0);
  }
};

/// Calls `fn` with the kind that (mode, tilt, split) describe. A tilt
/// belongs to reliability mode and a split to system mode; the other two
/// combinations describe no kind and are refused under `what`.
template <typename Fn>
auto WithKind(CampaignMode mode, const reliability::TiltSpec& tilt,
              const reliability::SplitSpec& split, const std::string& what,
              Fn&& fn) {
  if (mode == CampaignMode::kSystem && tilt.Active())
    throw std::runtime_error(what + ": a tilt applies to reliability "
                                    "campaigns, not to system mode");
  if (mode == CampaignMode::kReliability && split.Active())
    throw std::runtime_error(what + ": a split applies to system "
                                    "campaigns, not to reliability mode");
  if (tilt.Active()) return fn(TiltedKind{tilt});
  if (split.Active()) return fn(SplitKind{split});
  if (mode == CampaignMode::kReliability) return fn(ScenarioKind{});
  return fn(SystemKind{});
}

/// The one run/resume body over every kind.
template <typename Kind>
CampaignProgress RunKind(const Kind& kind, const CampaignSpec& spec,
                         const std::atomic<bool>* stop,
                         std::uint64_t max_shards) {
  using State = typename Kind::State;
  const auto trial = kind.Trial(spec);
  const SliceBounds bounds = ComputeSlice(spec.trials, spec.slice);
  const std::string config_hash = util::Crc32Hex(spec.fingerprint.Dump());
  if (spec.checkpoint_path.empty())
    throw std::runtime_error("campaign: no checkpoint path configured");

  State total{};
  std::uint64_t next = bounds.first;
  bool resumed = false;
  if (std::ifstream(spec.checkpoint_path).good()) {
    const SliceDoc doc = ReadSlice(spec.checkpoint_path);
    const std::string& what = doc.what;
    if (doc.mode != ToString(spec.mode))
      throw std::runtime_error(what + ": records mode '" + doc.mode +
                               "' but this run is mode '" +
                               std::string(ToString(spec.mode)) + "'");
    if (doc.config_hash != config_hash)
      throw std::runtime_error(
          what + ": config hash mismatch (checkpoint " + doc.config_hash +
          ", current run " + config_hash +
          ") — refusing to resume with different parameters");
    if (doc.first != bounds.first || doc.end != bounds.end)
      throw std::runtime_error(
          what + ": covers shards [" + std::to_string(doc.first) + ", " +
          std::to_string(doc.end) + ") but this run's slice is [" +
          std::to_string(bounds.first) + ", " + std::to_string(bounds.end) +
          ")");
    next = doc.next;
    total = kind.Load(doc.state, what);
    resumed = true;
  }

  const auto write_checkpoint = [&](std::uint64_t next_shard) {
    telemetry::WriteCheckpointFile(
        MakeCheckpointBody(spec, config_hash, bounds, next_shard,
                           kind.Save(total)),
        spec.checkpoint_path);
  };

  const auto externally_stopped = [stop] {
    return stop != nullptr && stop->load(std::memory_order_relaxed);
  };

  if (next < bounds.end && !externally_stopped()) {
    std::atomic<bool> halt{false};
    std::uint64_t shards_done = 0;
    const TrialEngine engine(CampaignThreads(spec));
    next = engine.RunShardsObserved<State, typename Kind::Scratch>(
        CampaignSeed(spec), spec.trials, next, bounds.end, trial,
        [&](std::uint64_t shard, const State& shard_state) {
          total += shard_state;
          ++shards_done;
          if (externally_stopped() ||
              (max_shards != 0 && shards_done >= max_shards))
            halt.store(true, std::memory_order_relaxed);
          const std::uint64_t after = shard + 1;
          if (spec.checkpoint_every != 0 && after < bounds.end &&
              shards_done % spec.checkpoint_every == 0)
            write_checkpoint(after);
        },
        &halt);
  }

  // Final flush — unconditional, so even a zero-shard session leaves a
  // valid (possibly freshly created) checkpoint behind.
  write_checkpoint(next);

  CampaignProgress progress;
  progress.complete = next == bounds.end;
  progress.resumed = resumed;
  progress.total_shards = bounds.total;
  progress.first_shard = bounds.first;
  progress.end_shard = bounds.end;
  progress.next_shard = next;
  const auto trials_before = [&spec](std::uint64_t shard) {
    return std::min(shard * TrialEngine::kShardTrials, spec.trials);
  };
  progress.trials_done = trials_before(next) - trials_before(bounds.first);
  return progress;
}

}  // namespace

CampaignProgress RunCampaign(const CampaignSpec& spec,
                             const std::atomic<bool>* stop,
                             std::uint64_t max_shards) {
  return WithKind(spec.mode, spec.tilt, spec.split, "campaign",
                  [&](const auto& kind) {
                    return RunKind(kind, spec, stop, max_shards);
                  });
}

namespace {

/// Meta section from the fingerprint's scalar entries, in insertion order
/// — the campaign analogue of the per-tool Build*Report meta blocks.
void AddFingerprintMeta(telemetry::Report& report,
                        const JsonValue& fingerprint) {
  for (const auto& [key, value] : fingerprint.AsObject()) {
    switch (value.kind()) {
      case JsonValue::Kind::kString:
        report.MetaString(key, value.AsString());
        break;
      case JsonValue::Kind::kInt:
        report.MetaInt(key, value.AsInt());
        break;
      case JsonValue::Kind::kReal:
        report.MetaReal(key, value.AsReal());
        break;
      default:
        throw std::runtime_error(
            "campaign fingerprint entry '" + key +
            "' is not a scalar (string/int/real)");
    }
  }
}

/// Fleet projection is enabled iff devices and years are both positive;
/// trial_years must then also be positive.
bool FleetEnabled(const FleetSpec& fleet) {
  if (!(fleet.devices > 0.0) || !(fleet.years > 0.0)) return false;
  if (!(fleet.trial_years > 0.0))
    throw std::runtime_error("fleet projection: trial-years must be > 0");
  return true;
}

/// The fleet.* emitter: scales a kind's per-trial failure interval up to
/// the fleet. One trial models `trial_years` device-years; a device
/// surviving `years` must survive years/trial_years independent trials.
void AddFleetProjection(telemetry::Report& report, const FleetSpec& fleet,
                        const util::Proportion& p) {
  const auto project = [&fleet](double prob) {
    return fleet.devices *
           (1.0 - std::pow(1.0 - prob, fleet.years / fleet.trial_years));
  };
  report.AddMetric("fleet.devices", fleet.devices);
  report.AddMetric("fleet.years", fleet.years);
  report.AddMetric("fleet.trial_years", fleet.trial_years);
  report.AddMetric("fleet.p_trial_failure", p.estimate);
  report.AddMetric("fleet.p_trial_failure_lo", p.lower);
  report.AddMetric("fleet.p_trial_failure_hi", p.upper);
  report.AddMetric("fleet.expected_failures", project(p.estimate));
  report.AddMetric("fleet.expected_failures_lo", project(p.lower));
  report.AddMetric("fleet.expected_failures_hi", project(p.upper));
}

}  // namespace

telemetry::Report MergeCampaignCheckpoints(
    const std::vector<std::string>& paths, const FleetSpec& fleet) {
  if (paths.empty())
    throw std::runtime_error("merge: no checkpoint files given");

  std::vector<SliceDoc> docs;
  docs.reserve(paths.size());
  for (const std::string& path : paths) {
    SliceDoc doc = ReadSlice(path);
    const std::string& what = doc.what;
    if (!doc.complete)
      throw std::runtime_error(
          what + ": slice incomplete (resumable at shard " +
          std::to_string(doc.next) +
          ") — resume it to completion before merging");
    if (docs.empty()) {
      CampaignModeFromString(doc.mode);  // reject unknown modes up front
    } else {
      const SliceDoc& ref = docs.front();
      if (doc.mode != ref.mode)
        throw std::runtime_error(what + ": mode '" + doc.mode +
                                 "' differs from '" + ref.mode + "' in '" +
                                 ref.path + "'");
      if (doc.config_hash != ref.config_hash)
        throw std::runtime_error(
            what + ": config hash mismatch (" + doc.config_hash + " vs " +
            ref.config_hash + " from '" + ref.path +
            "') — slices from different campaigns cannot be merged");
      if (doc.total != ref.total)
        throw std::runtime_error(
            what + ": total_shards " + std::to_string(doc.total) +
            " differs from " + std::to_string(ref.total) + " in '" +
            ref.path + "'");
    }
    docs.push_back(std::move(doc));
  }

  std::sort(docs.begin(), docs.end(),
            [](const SliceDoc& a, const SliceDoc& b) {
              return a.first < b.first;
            });
  // Every slice agrees with itself and with the first, so all carry the
  // same config bytes, mode and shard count.
  const std::uint64_t total_shards = docs.front().total;
  const JsonValue& fingerprint = docs.front().config;
  std::uint64_t cursor = 0;
  for (const SliceDoc& doc : docs) {
    if (doc.first > cursor)
      throw std::runtime_error(
          "merge: gap — shards [" + std::to_string(cursor) + ", " +
          std::to_string(doc.first) + ") of " + std::to_string(total_shards) +
          " are not covered by any checkpoint");
    if (doc.first < cursor)
      throw std::runtime_error(
          "merge: overlap — checkpoint '" + doc.path +
          "' re-covers shards already merged (its slice starts at " +
          std::to_string(doc.first) + ", merged through " +
          std::to_string(cursor) + ")");
    cursor = doc.end;
  }
  if (cursor != total_shards)
    throw std::runtime_error(
        "merge: gap — shards [" + std::to_string(cursor) + ", " +
        std::to_string(total_shards) + ") of " +
        std::to_string(total_shards) + " are not covered by any checkpoint");

  telemetry::Report report("pairsim-campaign");
  AddFingerprintMeta(report, fingerprint);
  report.MetaInt("shards", static_cast<std::int64_t>(total_shards));

  WithKind(CampaignModeFromString(docs.front().mode),
           reliability::TiltSpecFromFingerprint(fingerprint),
           reliability::SplitSpecFromFingerprint(fingerprint),
           docs.front().what, [&](const auto& kind) {
             typename std::remove_cvref_t<decltype(kind)>::State total{};
             for (const SliceDoc& doc : docs)
               total += kind.Load(doc.state, doc.what);
             kind.Report(report, total, fingerprint);
             if (FleetEnabled(fleet))
               AddFleetProjection(report, fleet, kind.FailureInterval(total));
           });
  return report;
}

}  // namespace pair_ecc::sim
