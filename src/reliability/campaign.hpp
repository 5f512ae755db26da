// Scenario campaign building blocks: the shard accumulator + trial body
// RunMonteCarlo and the crash-safe campaign runner share, and the exact
// JSON (de)serialization of that accumulator for checkpoints.
//
// The single-shot entry point (monte_carlo.cpp) and the resumable campaign
// driver (sim/campaign.cpp) must produce bitwise-identical counts for the
// same (config, trials) — the kill-and-resume determinism contract is only
// as strong as the guarantee that both run the *same* trial body through
// the engine. That body therefore lives here, once, and monte_carlo.cpp
// delegates to it.
//
// Serialization is exact: every accumulator member is a uint64 count (or a
// fixed-bucket histogram of them), written through the field tables
// (util/fields.hpp), so ToJson/FromJson round-trips state
// with no precision loss and a resumed accumulator continues from exactly
// the in-memory value the checkpoint captured.
#pragma once

#include <tuple>
#include <vector>

#include "ecc/scheme.hpp"
#include "reliability/engine.hpp"
#include "reliability/monte_carlo.hpp"
#include "reliability/telemetry.hpp"
#include "telemetry/json.hpp"
#include "util/fields.hpp"

namespace pair_ecc::reliability {

/// Shard accumulator for scenario campaigns: the headline counts plus the
/// per-trial telemetry, merged together in shard order so both honour the
/// same determinism contract. Its checkpoint form is FieldsToJson of the
/// table; both members report unprefixed.
struct ScenarioShardState {
  OutcomeCounts counts;
  TrialTelemetry tel;

  static constexpr auto kFields = std::tuple{
      util::Field{&ScenarioShardState::counts, "counts", ""},
      util::Field{&ScenarioShardState::tel, "telemetry", ""},
  };

  ScenarioShardState& operator+=(const ScenarioShardState& other) {
    return util::MergeFields(*this, other);
  }

  friend bool operator==(const ScenarioShardState&,
                         const ScenarioShardState&) = default;
};

/// Per-worker staging for the batch demand-read path: the ReadLines result
/// vector and the classified reads are reused across a worker's trials
/// (every trial overwrites every slot), so the steady state allocates
/// nothing per trial.
struct ScenarioScratch {
  std::vector<ecc::ReadResult> results;
  std::vector<LineRead> reads;
};

/// The working set a scenario campaign reads and writes — the affine
/// spread RunMonteCarlo has always used (row_mul 37, row_off 11).
WorkingSet MakeScenarioWorkingSet(const ScenarioConfig& config);

/// One scenario trial: fresh rank + scheme + working set, inject
/// `config.faults_per_trial` faults, read everything back, classify.
/// This is the body both RunMonteCarlo and the campaign runner hand to the
/// engine — identical RNG draw sequence, identical counts.
void RunScenarioTrial(const ScenarioConfig& config, const WorkingSet& ws,
                      util::Xoshiro256& rng, ScenarioShardState& acc,
                      ScenarioScratch& scratch);

/// Same trial body with an explicit fault count — the hook the importance
/// sampler uses to run one trial conditioned on `faults` injected faults.
/// The default entry point above delegates here with
/// `config.faults_per_trial`, so the two draw identical RNG sequences for
/// the same count.
void RunScenarioTrial(const ScenarioConfig& config, const WorkingSet& ws,
                      util::Xoshiro256& rng, ScenarioShardState& acc,
                      ScenarioScratch& scratch, unsigned faults);

// ---- exact JSON round-trip of the accumulator (checkpoint state) ----

telemetry::JsonValue ScenarioStateToJson(const ScenarioShardState& state);
ScenarioShardState ScenarioStateFromJson(const telemetry::JsonValue& value);

}  // namespace pair_ecc::reliability
