#include "reliability/monte_carlo.hpp"

#include <cmath>
#include <utility>

#include "reliability/campaign.hpp"
#include "reliability/engine.hpp"
#include "reliability/telemetry.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace pair_ecc::reliability {

std::string ToString(Outcome outcome) {
  switch (outcome) {
    case Outcome::kNoError:         return "no-error";
    case Outcome::kCorrected:       return "corrected";
    case Outcome::kDue:             return "DUE";
    case Outcome::kSdcMiscorrected: return "SDC(miscorrect)";
    case Outcome::kSdcUndetected:   return "SDC(undetected)";
  }
  return "unknown";
}

void OutcomeCounts::Add(Outcome outcome) {
  ++reads;
  switch (outcome) {
    case Outcome::kNoError:         ++no_error; break;
    case Outcome::kCorrected:       ++corrected; break;
    case Outcome::kDue:             ++due; break;
    case Outcome::kSdcMiscorrected: ++sdc_miscorrected; break;
    case Outcome::kSdcUndetected:   ++sdc_undetected; break;
  }
}

OutcomeCounts& OutcomeCounts::operator+=(const OutcomeCounts& other) noexcept {
  trials += other.trials;
  reads += other.reads;
  no_error += other.no_error;
  corrected += other.corrected;
  due += other.due;
  sdc_miscorrected += other.sdc_miscorrected;
  sdc_undetected += other.sdc_undetected;
  trials_with_sdc += other.trials_with_sdc;
  trials_with_due += other.trials_with_due;
  trials_with_failure += other.trials_with_failure;
  return *this;
}

OutcomeCounts RunMonteCarlo(const ScenarioConfig& config, std::uint64_t trials,
                            ScenarioTelemetry* telemetry) {
  config.geometry.Validate();
  const WorkingSet ws = MakeScenarioWorkingSet(config);

  const TrialEngine engine(config.threads);
  ScenarioShardState accum =
      engine.RunWithScratch<ScenarioShardState, ScenarioScratch>(
          config.seed, trials,
          [&config, &ws](std::uint64_t /*trial*/, util::Xoshiro256& rng,
                         ScenarioShardState& acc, ScenarioScratch& scratch) {
            RunScenarioTrial(config, ws, rng, acc, scratch);
          },
          telemetry != nullptr ? &telemetry->engine : nullptr);

  if (telemetry != nullptr) telemetry->trial = std::move(accum.tel);
  return accum.counts;
}

LifetimeEstimate CombinePoisson(std::span<const OutcomeCounts> conditional,
                                double lambda) {
  PAIR_CHECK(std::isfinite(lambda),
             "CombinePoisson lambda " << lambda << " is not finite");
  LifetimeEstimate est;
  if (conditional.empty() || lambda <= 0.0) return est;
  // P(N = n) for Poisson(lambda); the N = 0 term contributes nothing.
  double pmf = std::exp(-lambda);  // P(0)
  double tail = 1.0 - pmf;
  for (std::size_t n = 1; n <= conditional.size(); ++n) {
    pmf *= lambda / static_cast<double>(n);
    const auto& c = conditional[n - 1];
    const double weight =
        n == conditional.size() ? tail : pmf;  // last bucket absorbs tail
    est.p_sdc += weight * c.TrialSdcRate();
    est.p_due += weight * c.TrialDueRate();
    est.p_failure += weight * c.TrialFailureRate();
    tail -= pmf;
  }
  return est;
}

}  // namespace pair_ecc::reliability
