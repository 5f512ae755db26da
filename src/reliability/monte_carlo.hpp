// Monte-Carlo reliability evaluation.
//
// A *trial* is one independent fault scenario: a fresh rank is written with
// a random working set, `faults_per_trial` inherent faults are drawn from
// the fault mix and injected, and every working-set line is read back and
// classified. Running trials conditioned on an exact fault count N keeps
// rare-event statistics cheap; `CombinePoisson` then folds the conditional
// results over a Poisson fault-count distribution to produce the absolute
// failure probabilities the F1 sweep plots (faults arrive independently
// over a device's life, so their count in a fixed window is Poisson).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dram/geometry.hpp"
#include "ecc/scheme.hpp"
#include "faults/fault_model.hpp"
#include "reliability/outcome.hpp"
#include "util/fields.hpp"
#include "util/stats.hpp"

namespace pair_ecc::reliability {

struct ScenarioConfig {
  ecc::SchemeKind scheme = ecc::SchemeKind::kPair4;
  dram::RankGeometry geometry;
  faults::FaultMix mix = faults::FaultMix::Inherent();
  unsigned faults_per_trial = 1;
  unsigned working_rows = 2;   ///< rows in the working set, spread over banks
  unsigned lines_per_row = 8;  ///< lines written + read back per row
  std::uint64_t seed = 1;
  /// Worker threads for the trial engine; 0 = hardware_concurrency. Results
  /// are bitwise identical for every thread count (see engine.hpp).
  unsigned threads = 0;
};

struct OutcomeCounts {
  std::uint64_t trials = 0;
  std::uint64_t reads = 0;
  std::uint64_t no_error = 0;
  std::uint64_t corrected = 0;
  std::uint64_t due = 0;
  std::uint64_t sdc_miscorrected = 0;
  std::uint64_t sdc_undetected = 0;
  std::uint64_t trials_with_sdc = 0;
  std::uint64_t trials_with_due = 0;
  std::uint64_t trials_with_failure = 0;

  std::uint64_t Sdc() const noexcept {
    return sdc_miscorrected + sdc_undetected;
  }
  /// Per-trial probabilities (the scenario-level metrics the paper uses).
  double TrialSdcRate() const noexcept {
    return trials ? static_cast<double>(trials_with_sdc) /
                        static_cast<double>(trials)
                  : 0.0;
  }
  double TrialDueRate() const noexcept {
    return trials ? static_cast<double>(trials_with_due) /
                        static_cast<double>(trials)
                  : 0.0;
  }
  double TrialFailureRate() const noexcept {
    return trials ? static_cast<double>(trials_with_failure) /
                        static_cast<double>(trials)
                  : 0.0;
  }
  util::Proportion TrialSdcInterval() const {
    return util::WilsonInterval(trials_with_sdc, trials);
  }

  void Add(Outcome outcome);

  static constexpr auto kFields = std::tuple{
      util::Field{&OutcomeCounts::trials, "trials"},
      util::Field{&OutcomeCounts::reads, "reads"},
      util::Field{&OutcomeCounts::no_error, "no_error", "outcome.no_error"},
      util::Field{&OutcomeCounts::corrected, "corrected", "outcome.corrected"},
      util::Field{&OutcomeCounts::due, "due", "outcome.due"},
      util::Field{&OutcomeCounts::sdc_miscorrected, "sdc_miscorrected",
                  "outcome.sdc_miscorrected"},
      util::Field{&OutcomeCounts::sdc_undetected, "sdc_undetected",
                  "outcome.sdc_undetected"},
      util::Field{&OutcomeCounts::trials_with_sdc, "trials_with_sdc"},
      util::Field{&OutcomeCounts::trials_with_due, "trials_with_due"},
      util::Field{&OutcomeCounts::trials_with_failure, "trials_with_failure"},
  };

  /// Order-independent merge of disjoint trial populations — the reduction
  /// the trial engine applies to per-shard accumulators.
  OutcomeCounts& operator+=(const OutcomeCounts& other) noexcept {
    return util::MergeFields(*this, other);
  }

  friend bool operator==(const OutcomeCounts&, const OutcomeCounts&) = default;
};

struct ScenarioTelemetry;  // reliability/telemetry.hpp

/// Runs `trials` independent scenarios. Deterministic in (config, trials).
/// When `telemetry` is non-null it is filled with the run's deterministic
/// per-trial telemetry (codec + injection counters, shard-order merged) and
/// the engine's wall-clock metrics; collection never perturbs the counts.
OutcomeCounts RunMonteCarlo(const ScenarioConfig& config, std::uint64_t trials,
                            ScenarioTelemetry* telemetry = nullptr);

/// Folds conditional per-trial rates P(event | N faults), N = 1..K (the
/// index into `conditional` is N-1), over Poisson(lambda) fault counts.
/// Counts above K reuse the K-fault rate (documented approximation; the
/// Poisson tail beyond K is negligible for the lambdas swept).
struct LifetimeEstimate {
  double p_sdc = 0.0;
  double p_due = 0.0;
  double p_failure = 0.0;
};

LifetimeEstimate CombinePoisson(std::span<const OutcomeCounts> conditional,
                                double lambda);

}  // namespace pair_ecc::reliability
