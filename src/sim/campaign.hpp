// Crash-safe, resumable, shardable campaign runner.
//
// A *campaign* is a large trial population (reliability scenarios or
// full-system lifetimes) whose accumulator state is periodically persisted
// to a checksummed checkpoint (telemetry/checkpoint.hpp), so the run
// survives SIGKILL, graceful SIGINT/SIGTERM drains, and splitting across
// processes or machines:
//
//   checkpoint body (schema "pair-checkpoint" v1, see WriteCheckpointFile)
//   {
//     "mode":         "reliability" | "system",
//     "config_hash":  crc32 of the config fingerprint's serialized form,
//     "seed":         campaign seed,
//     "trials":       total campaign trials (all slices),
//     "total_shards": TrialEngine::ShardCount(trials),
//     "slice_index":  i, "slice_count": N        (--shard i/N),
//     "first_shard":  a, "end_shard": b,         (slice covers [a, b))
//     "next_shard":   first shard NOT yet folded into "state",
//     "complete":     next_shard == end_shard,
//     "config":       the fingerprint object (also the merge report meta),
//     "state":        mode-specific accumulator serialization
//   }
//
// Determinism contract: the engine derives trial i's RNG purely from
// (seed, i) and reduces shard results serially in shard order
// (engine.hpp), so a checkpoint needs no RNG state — only next_shard.
// Resuming, re-slicing, or merging slices in shard order therefore yields
// an accumulator bitwise identical to the uninterrupted run, and the
// merge report (timing section excluded) is byte-identical.
//
// Campaign kinds: untilted scenario, tilted scenario (reliability mode),
// system and split system (system mode). campaign.cpp describes each kind
// once (state, scratch, trial body, state codec, report section, failure
// interval); RunCampaign picks it from the spec, the merge from the
// checkpoint's mode and fingerprint. A tilt in system mode or a split in
// reliability mode is no kind and is refused.
//
// Graceful degradation: RunCampaign polls `stop` between shards; on
// interruption the in-flight shard completes, a final checkpoint is
// flushed, and the caller sees complete == false — rerunning the same
// command resumes at next_shard. Merging refuses incomplete, corrupt,
// overlapping, or gapped slices with distinct diagnostics, and resume
// and merge both refuse a checkpoint that disagrees with itself (a
// config_hash that is not its config's CRC32, a tally shaped unlike its
// tilt window or split levels).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "reliability/campaign.hpp"
#include "reliability/monte_carlo.hpp"
#include "reliability/variance_reduction.hpp"
#include "sim/memory_system.hpp"
#include "telemetry/json.hpp"
#include "telemetry/report.hpp"
#include "util/fields.hpp"

namespace pair_ecc::sim {

enum class CampaignMode : std::uint8_t { kReliability, kSystem };

std::string_view ToString(CampaignMode mode) noexcept;
/// Throws std::runtime_error on anything but "reliability" / "system".
CampaignMode CampaignModeFromString(std::string_view text);

/// --shard i/N: this process runs slice i of N (shards [i*S/N, (i+1)*S/N)
/// of the campaign's S shards).
struct ShardSlice {
  std::uint64_t index = 0;
  std::uint64_t count = 1;
};

/// Parses "i/N". Throws std::runtime_error with a one-line diagnostic on
/// malformed text, N == 0, or i >= N.
ShardSlice ParseShardSlice(const std::string& text);

/// Fleet projection: scale the per-trial failure probability up to
/// `devices` devices over `years` years, where one trial models
/// `trial_years` device-years. Disabled unless devices and years are
/// both positive.
struct FleetSpec {
  double devices = 0.0;
  double years = 0.0;
  double trial_years = 5.0;
};

/// Shard accumulator for system campaigns (the sim-layer analogue of
/// reliability::ScenarioShardState): integer counters and fixed-bucket
/// histograms, merged fieldwise. Its checkpoint form is FieldsToJson of
/// the table; the stats report under "system.".
struct SystemShardState {
  SystemStats stats;
  reliability::TrialTelemetry tel;

  static constexpr auto kFields = std::tuple{
      util::Field{&SystemShardState::stats, "stats", "system."},
      util::Field{&SystemShardState::tel, "telemetry", ""},
  };

  SystemShardState& operator+=(const SystemShardState& other) {
    return util::MergeFields(*this, other);
  }

  friend bool operator==(const SystemShardState&,
                         const SystemShardState&) = default;
};

/// The working set every system campaign simulates over — the affine
/// spread RunSystemCampaignStreaming and RunCampaign share (row_mul 37,
/// row_off 5).
reliability::WorkingSet MakeSystemWorkingSet(const SystemConfig& config);

// ---- exact JSON round-trip of the system accumulator ----

telemetry::JsonValue SystemStateToJson(const SystemShardState& state);
SystemShardState SystemStateFromJson(const telemetry::JsonValue& value);

/// Everything RunCampaign needs. `scenario` drives kReliability mode;
/// `system` + `demand` drive kSystem mode (the other is ignored). In
/// kSystem mode RunCampaign scans the demand once (ScanDemand) for
/// validation and the horizon, then builds one source per trial.
/// `fingerprint` is the campaign's config identity: a flat JSON object of
/// scalars (scheme, seed, trials, ... — built by the CLI) whose serialized
/// CRC becomes config_hash, and whose entries become the merge report's
/// meta section in insertion order. It must NOT include per-process knobs
/// (threads, slice, checkpoint cadence): any slicing of the same
/// fingerprint must merge.
struct CampaignSpec {
  CampaignMode mode = CampaignMode::kReliability;
  reliability::ScenarioConfig scenario;
  SystemConfig system;
  RequestSourceFactory demand;
  /// Importance sampling for kReliability mode: an active tilt swaps the
  /// fixed faults_per_trial for the tilted fault-count proposal and makes
  /// the checkpoint state carry the exact weighted tally. The identity
  /// tilt takes the pre-existing unweighted path verbatim (bitwise).
  /// Tilt parameters must appear in `fingerprint` (AddTiltFingerprint) so
  /// mismatched tilts refuse to resume/merge via the config hash. An
  /// active tilt in kSystem mode is refused.
  reliability::TiltSpec tilt;
  /// Multilevel splitting for kSystem mode: an active split runs each
  /// engine trial as a splitting tree (sim/splitting.hpp) and the state
  /// becomes the exact SplitTally. Must appear in `fingerprint` via
  /// AddSplitFingerprint, same refusal contract as tilt. An active split
  /// in kReliability mode is refused.
  reliability::SplitSpec split;
  std::uint64_t trials = 0;
  ShardSlice slice;
  /// Flush a checkpoint every this many completed shards (plus always one
  /// final flush). 0 = final flush only.
  std::uint64_t checkpoint_every = 4;
  std::string checkpoint_path;
  telemetry::JsonValue fingerprint;
};

struct CampaignProgress {
  bool complete = false;  ///< slice fully covered (checkpoint is mergeable)
  bool resumed = false;   ///< started from an existing checkpoint
  std::uint64_t total_shards = 0;
  std::uint64_t first_shard = 0;
  std::uint64_t end_shard = 0;
  std::uint64_t next_shard = 0;  ///< resume point when !complete
  std::uint64_t trials_done = 0; ///< slice trials folded into the state
};

/// Runs (or resumes) the spec's slice, checkpointing to
/// spec.checkpoint_path via atomic replace. `stop` requests a graceful
/// drain (the in-flight shard finishes, a final checkpoint is written);
/// `max_shards` != 0 additionally stops after that many newly completed
/// shards (deterministic interruption for tests/CI). Throws
/// std::runtime_error on an unusable or mismatched existing checkpoint —
/// never silently restarts a campaign.
CampaignProgress RunCampaign(const CampaignSpec& spec,
                             const std::atomic<bool>* stop = nullptr,
                             std::uint64_t max_shards = 0);

/// Validates and merges completed slice checkpoints into the campaign
/// report ("pairsim-campaign"). All slices must carry the same config
/// hash; together they must cover [0, total_shards) exactly — gaps,
/// overlaps, incomplete or corrupt slices are distinct errors. States are
/// folded in shard order, so the report's deterministic sections are
/// byte-identical to an uninterrupted single-process run. `fleet` adds
/// fleet.* projection metrics when enabled.
telemetry::Report MergeCampaignCheckpoints(
    const std::vector<std::string>& paths, const FleetSpec& fleet = {});

}  // namespace pair_ecc::sim
