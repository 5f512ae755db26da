// Deterministic telemetry for reliability runs, and the builders that turn
// a finished run into a versioned pair-report JSON document.
//
// TrialTelemetry rides inside the trial engine's shard accumulators: every
// trial harvests its scheme's CodecCounters and its injector's
// InjectionCounters after the trial body finishes, and the engine merges
// the per-shard sums serially in shard order. Harvesting reads counters
// only — it never draws from the trial RNG and never reorders reads or
// writes — so instrumented runs reproduce the uninstrumented goldens
// bitwise, for any thread count.
//
// Report layout ("pair-report" schema, see telemetry/report.hpp):
//   counters.*    outcome tallies, codec.* host-op counts, faults.* mix
//   metrics.*     derived per-trial rates
//   histograms.*  corrected-units-per-read distribution
//   timing.*      wall-clock only (non-deterministic; diff-ignored)
#pragma once

#include "ecc/scheme.hpp"
#include "faults/injector.hpp"
#include "reliability/engine.hpp"
#include "reliability/lifetime.hpp"
#include "reliability/monte_carlo.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"

namespace pair_ecc::reliability {

/// Upper bound of the last finite bucket of the corrected-units histogram;
/// reads repairing more units land in the overflow bucket.
inline constexpr unsigned kCorrectedUnitsBuckets = 8;

/// Per-trial telemetry merged by the engine's shard-ordered reduce. All
/// members are exact integer counts, so the merge is order-independent in
/// value and shard-ordered by construction — bitwise reproducible.
struct TrialTelemetry {
  ecc::CodecCounters codec;             ///< host-visible scheme operations
  faults::InjectionCounters injection;  ///< injected fault mix
  /// Distribution of ReadResult::corrected_units over demand reads.
  telemetry::Histogram corrected_units =
      telemetry::Histogram::UpTo(kCorrectedUnitsBuckets);

  TrialTelemetry& operator+=(const TrialTelemetry& other) {
    codec += other.codec;
    injection += other.injection;
    corrected_units += other.corrected_units;
    return *this;
  }

  friend bool operator==(const TrialTelemetry&,
                         const TrialTelemetry&) = default;
};

/// Everything a reliability run can report beyond its headline statistics:
/// the deterministic per-trial telemetry plus the engine's (wall-clock,
/// non-deterministic) execution metrics.
struct ScenarioTelemetry {
  TrialTelemetry trial;
  EngineMetrics engine;
};

/// Adds `trial` telemetry to `report` as counters.codec.* /
/// counters.faults.* entries and the corrected_units histogram.
void AddTrialTelemetry(telemetry::Report& report, const TrialTelemetry& trial);

/// Adds the headline scenario counters (trials, reads, outcome.*) and the
/// derived per-trial rate metrics. Shared by the single-shot scenario
/// report and the campaign merge report so both emit identical sections.
void AddScenarioCounters(telemetry::Report& report,
                         const OutcomeCounts& counts);

/// Adds `engine` wall-clock observations to the report's timing section
/// (trials_per_sec, shard stats, imbalance).
void AddEngineTiming(telemetry::Report& report, const EngineMetrics& engine);

/// Builds the full pair-report for a single-shot Monte-Carlo run
/// (pairsim reliability --json).
telemetry::Report BuildScenarioReport(const ScenarioConfig& config,
                                      std::uint64_t trials,
                                      const OutcomeCounts& counts,
                                      const ScenarioTelemetry& telemetry);

/// Builds the full pair-report for a lifetime run (pairsim lifetime --json).
telemetry::Report BuildLifetimeReport(const LifetimeConfig& config,
                                      std::uint64_t trials,
                                      const LifetimeStats& stats,
                                      const ScenarioTelemetry& telemetry);

}  // namespace pair_ecc::reliability
