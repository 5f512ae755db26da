#include "sim/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <utility>

#include "sim/splitting.hpp"
#include "telemetry/checkpoint.hpp"
#include "util/atomic_file.hpp"
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
  const auto fail = [&text] {
    throw std::runtime_error("invalid shard spec '" + text +
                             "' (expected i/N with 0 <= i < N, e.g. 0/4)");
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 == text.size())
    fail();
  const auto parse_u64 = [&fail](const std::string& part) {
    if (part.empty() ||
        part.find_first_not_of("0123456789") != std::string::npos)
      fail();
    std::uint64_t value = 0;
    for (const char c : part) {
      if (value > (UINT64_MAX - static_cast<std::uint64_t>(c - '0')) / 10)
        fail();
      value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return value;
  };
  ShardSlice slice;
  slice.index = parse_u64(text.substr(0, slash));
  slice.count = parse_u64(text.substr(slash + 1));
  if (slice.count == 0 || slice.index >= slice.count) fail();
  return slice;
}

reliability::WorkingSet MakeSystemWorkingSet(const SystemConfig& config) {
  return reliability::MakeWorkingSet(config.geometry, config.working_rows,
                                     config.lines_per_row,
                                     /*row_mul=*/37, /*row_off=*/5);
}

JsonValue SystemStatsToJson(const SystemStats& stats) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("trials", JsonValue(stats.trials));
  obj.Set("demand_reads", JsonValue(stats.demand_reads));
  obj.Set("demand_writes", JsonValue(stats.demand_writes));
  obj.Set("no_error", JsonValue(stats.no_error));
  obj.Set("corrected", JsonValue(stats.corrected));
  obj.Set("due", JsonValue(stats.due));
  obj.Set("sdc_miscorrected", JsonValue(stats.sdc_miscorrected));
  obj.Set("sdc_undetected", JsonValue(stats.sdc_undetected));
  obj.Set("trials_with_sdc", JsonValue(stats.trials_with_sdc));
  obj.Set("trials_with_due", JsonValue(stats.trials_with_due));
  obj.Set("trials_with_failure", JsonValue(stats.trials_with_failure));
  obj.Set("first_sdc_cycle_sum", JsonValue(stats.first_sdc_cycle_sum));
  obj.Set("faults_injected", JsonValue(stats.faults_injected));
  obj.Set("scrub_steps", JsonValue(stats.scrub_steps));
  obj.Set("scrub_rows_scrubbed", JsonValue(stats.scrub_rows_scrubbed));
  obj.Set("demand_writebacks", JsonValue(stats.demand_writebacks));
  JsonValue repair = JsonValue::MakeObject();
  repair.Set("repairs_attempted", JsonValue(stats.repair.repairs_attempted));
  repair.Set("symbols_marked", JsonValue(stats.repair.symbols_marked));
  repair.Set("rows_spared", JsonValue(stats.repair.rows_spared));
  repair.Set("sparing_exhausted", JsonValue(stats.repair.sparing_exhausted));
  repair.Set("lines_lost", JsonValue(stats.repair.lines_lost));
  repair.Set("generic_row_scrubs",
             JsonValue(stats.repair.generic_row_scrubs));
  obj.Set("repair", std::move(repair));
  obj.Set("sim_cycles", JsonValue(stats.sim_cycles));
  obj.Set("bus_reads", JsonValue(stats.bus_reads));
  obj.Set("bus_writes", JsonValue(stats.bus_writes));
  obj.Set("row_hits", JsonValue(stats.row_hits));
  obj.Set("row_misses", JsonValue(stats.row_misses));
  obj.Set("row_conflicts", JsonValue(stats.row_conflicts));
  obj.Set("refreshes", JsonValue(stats.refreshes));
  obj.Set("read_latency_sum", JsonValue(stats.read_latency_sum));
  obj.Set("read_latency", telemetry::HistogramToJson(stats.read_latency));
  obj.Set("protocol_violations", JsonValue(stats.protocol_violations));
  return obj;
}

SystemStats SystemStatsFromJson(const JsonValue& value) {
  const std::string what = "checkpoint system stats";
  SystemStats stats;
  stats.trials = RequireU64(value, "trials", what);
  stats.demand_reads = RequireU64(value, "demand_reads", what);
  stats.demand_writes = RequireU64(value, "demand_writes", what);
  stats.no_error = RequireU64(value, "no_error", what);
  stats.corrected = RequireU64(value, "corrected", what);
  stats.due = RequireU64(value, "due", what);
  stats.sdc_miscorrected = RequireU64(value, "sdc_miscorrected", what);
  stats.sdc_undetected = RequireU64(value, "sdc_undetected", what);
  stats.trials_with_sdc = RequireU64(value, "trials_with_sdc", what);
  stats.trials_with_due = RequireU64(value, "trials_with_due", what);
  stats.trials_with_failure = RequireU64(value, "trials_with_failure", what);
  stats.first_sdc_cycle_sum = RequireU64(value, "first_sdc_cycle_sum", what);
  stats.faults_injected = RequireU64(value, "faults_injected", what);
  stats.scrub_steps = RequireU64(value, "scrub_steps", what);
  stats.scrub_rows_scrubbed = RequireU64(value, "scrub_rows_scrubbed", what);
  stats.demand_writebacks = RequireU64(value, "demand_writebacks", what);
  const JsonValue& repair = RequireField(value, "repair", what);
  stats.repair.repairs_attempted =
      RequireU64(repair, "repairs_attempted", what);
  stats.repair.symbols_marked = RequireU64(repair, "symbols_marked", what);
  stats.repair.rows_spared = RequireU64(repair, "rows_spared", what);
  stats.repair.sparing_exhausted =
      RequireU64(repair, "sparing_exhausted", what);
  stats.repair.lines_lost = RequireU64(repair, "lines_lost", what);
  stats.repair.generic_row_scrubs =
      RequireU64(repair, "generic_row_scrubs", what);
  stats.sim_cycles = RequireU64(value, "sim_cycles", what);
  stats.bus_reads = RequireU64(value, "bus_reads", what);
  stats.bus_writes = RequireU64(value, "bus_writes", what);
  stats.row_hits = RequireU64(value, "row_hits", what);
  stats.row_misses = RequireU64(value, "row_misses", what);
  stats.row_conflicts = RequireU64(value, "row_conflicts", what);
  stats.refreshes = RequireU64(value, "refreshes", what);
  stats.read_latency_sum = RequireU64(value, "read_latency_sum", what);
  stats.read_latency = telemetry::HistogramFromJson(
      RequireField(value, "read_latency", what), what + ": read_latency");
  stats.protocol_violations = RequireU64(value, "protocol_violations", what);
  return stats;
}

JsonValue SystemStateToJson(const SystemShardState& state) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("stats", SystemStatsToJson(state.stats));
  obj.Set("telemetry", reliability::TrialTelemetryToJson(state.tel));
  return obj;
}

SystemShardState SystemStateFromJson(const JsonValue& value) {
  const std::string what = "checkpoint system state";
  SystemShardState state;
  state.stats = SystemStatsFromJson(RequireField(value, "stats", what));
  state.tel = reliability::TrialTelemetryFromJson(
      RequireField(value, "telemetry", what));
  return state;
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

/// Trials covered by shards [first, next) of a `trials`-trial campaign.
std::uint64_t TrialsInShards(std::uint64_t trials, std::uint64_t first,
                             std::uint64_t next) {
  const std::uint64_t a =
      std::min(first * TrialEngine::kShardTrials, trials);
  const std::uint64_t b = std::min(next * TrialEngine::kShardTrials, trials);
  return b - a;
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
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

/// Mode-agnostic driver. `StateTraits` supplies the accumulator type, its
/// (de)serializers, and the per-trial body.
template <typename State, typename Scratch, typename TrialFn,
          typename StateToJson, typename StateFromJson>
CampaignProgress RunCampaignImpl(const CampaignSpec& spec,
                                 const std::atomic<bool>* stop,
                                 std::uint64_t max_shards, TrialFn&& trial_fn,
                                 StateToJson&& state_to_json,
                                 StateFromJson&& state_from_json) {
  const SliceBounds bounds = ComputeSlice(spec.trials, spec.slice);
  const std::string config_hash = util::Crc32Hex(spec.fingerprint.Dump());
  if (spec.checkpoint_path.empty())
    throw std::runtime_error("campaign: no checkpoint path configured");

  State total{};
  std::uint64_t next = bounds.first;
  bool resumed = false;
  if (FileExists(spec.checkpoint_path)) {
    const JsonValue body = telemetry::ReadCheckpointFile(spec.checkpoint_path);
    const std::string what = "checkpoint '" + spec.checkpoint_path + "'";
    const std::string mode = RequireString(body, "mode", what);
    if (mode != ToString(spec.mode))
      throw std::runtime_error(what + ": records mode '" + mode +
                               "' but this run is mode '" +
                               std::string(ToString(spec.mode)) + "'");
    const std::string stored_hash = RequireString(body, "config_hash", what);
    if (stored_hash != config_hash)
      throw std::runtime_error(
          what + ": config hash mismatch (checkpoint " + stored_hash +
          ", current run " + config_hash +
          ") — refusing to resume with different parameters");
    const std::uint64_t first = RequireU64(body, "first_shard", what);
    const std::uint64_t end = RequireU64(body, "end_shard", what);
    if (first != bounds.first || end != bounds.end)
      throw std::runtime_error(
          what + ": covers shards [" + std::to_string(first) + ", " +
          std::to_string(end) + ") but this run's slice is [" +
          std::to_string(bounds.first) + ", " + std::to_string(bounds.end) +
          ")");
    next = RequireU64(body, "next_shard", what);
    if (next < bounds.first || next > bounds.end)
      throw std::runtime_error(what + ": next_shard " + std::to_string(next) +
                               " outside the slice [" +
                               std::to_string(bounds.first) + ", " +
                               std::to_string(bounds.end) + "]");
    total = state_from_json(RequireField(body, "state", what));
    resumed = true;
  }

  const auto write_checkpoint = [&](std::uint64_t next_shard) {
    telemetry::WriteCheckpointFile(
        MakeCheckpointBody(spec, config_hash, bounds, next_shard,
                           state_to_json(total)),
        spec.checkpoint_path);
  };

  const auto externally_stopped = [stop] {
    return stop != nullptr && stop->load(std::memory_order_relaxed);
  };

  if (next < bounds.end && !externally_stopped()) {
    std::atomic<bool> halt{false};
    std::uint64_t shards_done = 0;
    const TrialEngine engine(CampaignThreads(spec));
    next = engine.RunShardsObserved<State, Scratch>(
        CampaignSeed(spec), spec.trials, next, bounds.end, trial_fn,
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
  progress.trials_done = TrialsInShards(spec.trials, bounds.first, next);
  return progress;
}

}  // namespace

CampaignProgress RunCampaign(const CampaignSpec& spec,
                             const std::atomic<bool>* stop,
                             std::uint64_t max_shards) {
  if (spec.mode == CampaignMode::kReliability) {
    spec.scenario.geometry.Validate();
    const reliability::WorkingSet ws =
        reliability::MakeScenarioWorkingSet(spec.scenario);
    if (spec.tilt.Active()) {
      const reliability::TiltSampler sampler(spec.tilt);
      return RunCampaignImpl<reliability::WeightedScenarioState,
                             ScenarioScratch>(
          spec, stop, max_shards,
          [&spec, &sampler, &ws](std::uint64_t /*trial*/,
                                 util::Xoshiro256& rng,
                                 reliability::WeightedScenarioState& acc,
                                 ScenarioScratch& scratch) {
            reliability::RunWeightedScenarioTrial(spec.scenario, sampler, ws,
                                                  rng, acc, scratch);
          },
          [](const reliability::WeightedScenarioState& s) {
            return reliability::WeightedScenarioStateToJson(s);
          },
          [](const JsonValue& v) {
            return reliability::WeightedScenarioStateFromJson(v);
          });
    }
    return RunCampaignImpl<ScenarioShardState, ScenarioScratch>(
        spec, stop, max_shards,
        [&spec, &ws](std::uint64_t /*trial*/, util::Xoshiro256& rng,
                     ScenarioShardState& acc, ScenarioScratch& scratch) {
          reliability::RunScenarioTrial(spec.scenario, ws, rng, acc, scratch);
        },
        [](const ScenarioShardState& s) {
          return reliability::ScenarioStateToJson(s);
        },
        [](const JsonValue& v) {
          return reliability::ScenarioStateFromJson(v);
        });
  }

  // The horizon a zero horizon_cycles resolves to is run state, not
  // campaign identity: the fingerprint and config hash never see it.
  SystemConfig system = spec.system;
  system.horizon_cycles = ScanDemand(spec.system, spec.demand).horizon_cycles;
  const reliability::WorkingSet ws = MakeSystemWorkingSet(system);
  struct None {};
  if (spec.split.Active()) {
    spec.split.Validate();
    return RunCampaignImpl<reliability::SplitTally, None>(
        spec, stop, max_shards,
        [&spec, &system, &ws](std::uint64_t /*trial*/, util::Xoshiro256& rng,
                              reliability::SplitTally& acc, None&) {
          // One draw from the engine's per-trial stream seeds the whole
          // splitting tree; the tree re-derives node streams itself.
          const std::uint64_t root_seed = rng();
          const std::unique_ptr<timing::RequestSource> source = spec.demand();
          RunSplitTrial(system, ws, *source, spec.split, root_seed, acc);
        },
        [](const reliability::SplitTally& s) {
          JsonValue obj = JsonValue::MakeObject();
          obj.Set("split", reliability::SplitTallyToJson(s));
          return obj;
        },
        [](const JsonValue& v) {
          return reliability::SplitTallyFromJson(
              RequireField(v, "split", "checkpoint split state"));
        });
  }
  return RunCampaignImpl<SystemShardState, None>(
      spec, stop, max_shards,
      [&spec, &system, &ws](std::uint64_t /*trial*/, util::Xoshiro256& rng,
                            SystemShardState& acc, None&) {
        const std::unique_ptr<timing::RequestSource> source = spec.demand();
        MemorySystem(system, ws, *source, rng).Run(acc.stats, acc.tel);
      },
      [](const SystemShardState& s) { return SystemStateToJson(s); },
      [](const JsonValue& v) { return SystemStateFromJson(v); });
}

namespace {

struct SliceDoc {
  std::string path;
  std::uint64_t first = 0;
  std::uint64_t end = 0;
  JsonValue state;
};

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

/// Shared fleet.* emitter: scales a per-trial failure interval up to the
/// fleet. One trial models `trial_years` device-years; a device surviving
/// `years` must survive years/trial_years independent trials.
void EmitFleetProjection(telemetry::Report& report, const FleetSpec& fleet,
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

void AddFleetProjection(telemetry::Report& report, const FleetSpec& fleet,
                        std::uint64_t trials_with_failure,
                        std::uint64_t trials) {
  if (!FleetEnabled(fleet)) return;
  util::Proportion p;
  if (trials_with_failure == 0 && trials > 0) {
    // Zero observed failures: the symmetric Wilson interval is the wrong
    // shape (its upper limit is an artifact of z, not of the data). Report
    // the exact one-sided upper bound instead.
    p.upper = util::ZeroEventUpperBound(trials);
  } else {
    p = util::WilsonInterval(trials_with_failure, trials);
  }
  EmitFleetProjection(report, fleet, p);
}

/// Weighted (importance-sampled) fleet projection: the CI comes from the
/// weighted estimator's actual variance, not unit-weight binomial counts.
void AddWeightedFleetProjection(telemetry::Report& report,
                                const FleetSpec& fleet,
                                const reliability::TiltSpec& tilt,
                                const reliability::WeightedTally& tally) {
  if (!FleetEnabled(fleet)) return;
  const reliability::TiltSampler sampler(tilt);
  const reliability::WeightedEstimate est = reliability::EstimateWeightedRate(
      sampler, tally, reliability::WeightedEvent::kFailure);
  util::Proportion p;
  if (est.trials > 0 && est.estimate <= 0.0) {
    // No weighted failure mass observed. Per-trial values are bounded by
    // the largest likelihood ratio, so the one-sided zero-event bound on
    // the proposal's failure rate scales by that weight; the excluded
    // upper-tail target mass is added as a conservative bias allowance.
    p.upper = std::min(1.0, sampler.MaxWeight() *
                                    util::ZeroEventUpperBound(est.trials) +
                                sampler.TailMassAbove());
  } else if (est.trials > 0) {
    p = util::WilsonIntervalFromVariance(est.estimate, est.variance);
  }
  EmitFleetProjection(report, fleet, p);
}

/// Splitting fleet projection. Per-root contributions lie in [0, 1] (leaf
/// weights under one root sum to exactly 1), so the unscaled zero-event
/// bound applies when no failure leaf was seen.
void AddSplitFleetProjection(telemetry::Report& report, const FleetSpec& fleet,
                             const reliability::SplitSpec& split,
                             const reliability::SplitTally& tally) {
  if (!FleetEnabled(fleet)) return;
  const reliability::WeightedEstimate est =
      reliability::EstimateSplitRate(split, tally);
  util::Proportion p;
  if (est.trials > 0 && est.estimate <= 0.0) {
    p.upper = util::ZeroEventUpperBound(est.trials);
  } else if (est.trials > 0) {
    p = util::WilsonIntervalFromVariance(est.estimate, est.variance);
  }
  EmitFleetProjection(report, fleet, p);
}

}  // namespace

telemetry::Report MergeCampaignCheckpoints(
    const std::vector<std::string>& paths, const FleetSpec& fleet) {
  if (paths.empty())
    throw std::runtime_error("merge: no checkpoint files given");

  std::string mode;
  std::string config_hash;
  std::string reference_path;
  std::uint64_t total_shards = 0;
  JsonValue fingerprint;
  std::vector<SliceDoc> docs;
  docs.reserve(paths.size());

  for (const std::string& path : paths) {
    const JsonValue body = telemetry::ReadCheckpointFile(path);
    const std::string what = "checkpoint '" + path + "'";
    SliceDoc doc;
    doc.path = path;
    doc.first = RequireU64(body, "first_shard", what);
    doc.end = RequireU64(body, "end_shard", what);
    const std::uint64_t next = RequireU64(body, "next_shard", what);
    if (!RequireBool(body, "complete", what))
      throw std::runtime_error(
          what + ": slice incomplete (resumable at shard " +
          std::to_string(next) +
          ") — resume it to completion before merging");
    const std::string doc_mode = RequireString(body, "mode", what);
    const std::string doc_hash = RequireString(body, "config_hash", what);
    const std::uint64_t doc_total = RequireU64(body, "total_shards", what);
    if (docs.empty()) {
      CampaignModeFromString(doc_mode);  // reject unknown modes up front
      mode = doc_mode;
      config_hash = doc_hash;
      total_shards = doc_total;
      reference_path = path;
      fingerprint = RequireField(body, "config", what);
    } else {
      if (doc_mode != mode)
        throw std::runtime_error(what + ": mode '" + doc_mode +
                                 "' differs from '" + mode + "' in '" +
                                 reference_path + "'");
      if (doc_hash != config_hash)
        throw std::runtime_error(
            what + ": config hash mismatch (" + doc_hash + " vs " +
            config_hash + " from '" + reference_path +
            "') — slices from different campaigns cannot be merged");
      if (doc_total != total_shards)
        throw std::runtime_error(
            what + ": total_shards " + std::to_string(doc_total) +
            " differs from " + std::to_string(total_shards) + " in '" +
            reference_path + "'");
    }
    doc.state = RequireField(body, "state", what);
    docs.push_back(std::move(doc));
  }

  std::sort(docs.begin(), docs.end(),
            [](const SliceDoc& a, const SliceDoc& b) {
              return a.first < b.first;
            });
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

  if (mode == "reliability") {
    // An active tilt in the fingerprint means every slice carries the
    // weighted tally (the config hash guarantees slices agree on it).
    const reliability::TiltSpec tilt =
        reliability::TiltSpecFromFingerprint(fingerprint);
    if (tilt.Active()) {
      reliability::WeightedScenarioState total;
      for (const SliceDoc& doc : docs)
        total += reliability::WeightedScenarioStateFromJson(doc.state);
      reliability::AddScenarioCounters(report, total.base.counts);
      reliability::AddTrialTelemetry(report, total.base.tel);
      reliability::AddWeightedMetrics(report, tilt, total.tally);
      AddWeightedFleetProjection(report, fleet, tilt, total.tally);
    } else {
      ScenarioShardState total;
      for (const SliceDoc& doc : docs)
        total += reliability::ScenarioStateFromJson(doc.state);
      reliability::AddScenarioCounters(report, total.counts);
      reliability::AddTrialTelemetry(report, total.tel);
      AddFleetProjection(report, fleet, total.counts.trials_with_failure,
                         total.counts.trials);
    }
  } else {
    const reliability::SplitSpec split =
        reliability::SplitSpecFromFingerprint(fingerprint);
    if (split.Active()) {
      // Split campaigns report the splitting estimator only: interior and
      // per-node system stats are biased by construction (trees oversample
      // near-failure trajectories) and are deliberately not kept.
      reliability::SplitTally total;
      for (const SliceDoc& doc : docs)
        total += reliability::SplitTallyFromJson(RequireField(
            doc.state, "split", "checkpoint '" + doc.path + "' split state"));
      reliability::AddSplitMetrics(report, split, total);
      AddSplitFleetProjection(report, fleet, split, total);
    } else {
      SystemShardState total;
      for (const SliceDoc& doc : docs)
        total += SystemStateFromJson(doc.state);
      const JsonValue* tck = fingerprint.Find("tck_ns");
      if (tck == nullptr || !tck->IsNumber())
        throw std::runtime_error(
            "merge: system campaign fingerprint is missing 'tck_ns'");
      AddSystemStats(report, total.stats, tck->AsReal());
      reliability::AddTrialTelemetry(report, total.tel);
      AddFleetProjection(report, fleet, total.stats.trials_with_failure,
                         total.stats.trials);
    }
  }
  return report;
}

}  // namespace pair_ecc::sim
