// Temporal reliability: fault accumulation over a deployment window with
// optional patrol scrubbing.
//
// Unlike the single-shot Monte-Carlo in monte_carlo.hpp, a lifetime trial
// advances through epochs: each epoch a Poisson-distributed number of new
// inherent faults lands, the working set is read (demand traffic), and —
// every `scrub_interval` epochs — a patrol scrub rewrites every line whose
// read decodes, clearing accumulated *transient* errors (stuck-at defects
// survive scrubbing, as in real machines). The scrub is scheme-generic:
// read, and if the scheme did not flag the line, write the delivered data
// back. A trial ends at the first silent corruption or at the horizon.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "dram/geometry.hpp"
#include "ecc/scheme.hpp"
#include "faults/fault_model.hpp"
#include "reliability/outcome.hpp"
#include "util/fields.hpp"

namespace pair_ecc::reliability {

struct LifetimeConfig {
  ecc::SchemeKind scheme = ecc::SchemeKind::kPair4;
  dram::RankGeometry geometry;
  faults::FaultMix mix = faults::FaultMix::Inherent();
  unsigned epochs = 50;               ///< horizon, in epochs
  double faults_per_epoch = 0.05;     ///< Poisson arrival rate
  unsigned scrub_interval = 0;        ///< 0 = never scrub
  /// Audit every column of the working rows at the horizon (models the
  /// eventual consumption of cold data; without it, damage outside the hot
  /// lines would go silently unmeasured).
  bool final_audit = true;
  unsigned working_rows = 1;
  unsigned lines_per_row = 4;
  std::uint64_t seed = 1;
  /// Worker threads for the trial engine; 0 = hardware_concurrency. Results
  /// are bitwise identical for every thread count (see engine.hpp).
  unsigned threads = 0;
};

struct LifetimeStats {
  std::uint64_t trials = 0;
  std::uint64_t trials_with_sdc = 0;  ///< silent corruption before horizon
  std::uint64_t trials_with_due = 0;  ///< at least one detected failure
  std::uint64_t total_corrections = 0;
  std::uint64_t total_scrub_writebacks = 0;
  /// Mean epoch of the first SDC over all trials, an SDC-free trial
  /// counting as `epochs` (so it equals `epochs` when no trial failed).
  /// Derived after the reduce; not part of the field table.
  double mean_sdc_epoch = 0.0;

  static constexpr auto kFields = std::tuple{
      util::Field{&LifetimeStats::trials, "trials"},
      util::Field{&LifetimeStats::trials_with_sdc, "trials_with_sdc"},
      util::Field{&LifetimeStats::trials_with_due, "trials_with_due"},
      util::Field{&LifetimeStats::total_corrections, "total_corrections"},
      util::Field{&LifetimeStats::total_scrub_writebacks,
                  "total_scrub_writebacks"},
  };

  /// Sums the counters; mean_sdc_epoch is left as it is.
  LifetimeStats& operator+=(const LifetimeStats& other) {
    return util::MergeFields(*this, other);
  }

  double SdcProbability() const noexcept {
    return trials ? static_cast<double>(trials_with_sdc) /
                        static_cast<double>(trials)
                  : 0.0;
  }
  double DueProbability() const noexcept {
    return trials ? static_cast<double>(trials_with_due) /
                        static_cast<double>(trials)
                  : 0.0;
  }
};

struct ScenarioTelemetry;  // reliability/telemetry.hpp

/// When `telemetry` is non-null it is filled with the run's deterministic
/// per-trial telemetry and the engine's wall-clock metrics; collection
/// never perturbs the stats.
LifetimeStats RunLifetime(const LifetimeConfig& config, std::uint64_t trials,
                          ScenarioTelemetry* telemetry = nullptr);

}  // namespace pair_ecc::reliability
