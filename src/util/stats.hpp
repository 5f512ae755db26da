// Confidence bounds for simulation output: binomial proportions with Wilson
// score intervals (the right interval for the very small failure
// probabilities reliability simulation produces), the variance-driven
// interval for weighted estimators, and the zero-event upper bound.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace pair_ecc::util {

/// Wilson score interval for a binomial proportion.
struct Proportion {
  double estimate = 0.0;
  double lower = 0.0;
  double upper = 0.0;
};

/// Returns the Wilson interval for `successes` out of `trials` at ~95%
/// confidence (z = 1.96). Well-behaved near 0 and 1, unlike the normal
/// approximation — essential for rare-event (SDC) probabilities.
inline Proportion WilsonInterval(std::uint64_t successes, std::uint64_t trials,
                                 double z = 1.96) {
  Proportion p;
  if (trials == 0) return p;
  const double n = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = phat + z2 / (2.0 * n);
  const double spread =
      z * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n));
  p.estimate = phat;
  p.lower = std::max(0.0, (center - spread) / denom);
  p.upper = std::min(1.0, (center + spread) / denom);
  return p;
}

/// Wilson interval driven by an estimator's actual variance instead of
/// unit-weight binomial counts: maps (estimate, variance) onto the
/// effective binomial sample size n* = p(1-p)/Var with matching moments
/// and applies the standard interval at that n*. This is the right CI for
/// importance-sampled / splitting estimators, whose per-trial values are
/// weighted — feeding their raw success counts to WilsonInterval silently
/// understates (or overstates) the width.
inline Proportion WilsonIntervalFromVariance(double estimate, double variance,
                                             double z = 1.96) {
  Proportion p;
  const double clamped = std::clamp(estimate, 0.0, 1.0);
  p.estimate = clamped;
  const double p1p = clamped * (1.0 - clamped);
  if (!(variance > 0.0) || !(p1p > 0.0)) {
    p.lower = p.upper = clamped;
    return p;
  }
  const double n = p1p / variance;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = clamped + z2 / (2.0 * n);
  const double spread = z * std::sqrt(variance + z2 / (4.0 * n * n));
  p.lower = std::max(0.0, (center - spread) / denom);
  p.upper = std::min(1.0, (center + spread) / denom);
  return p;
}

/// Exact one-sided upper confidence bound for a probability when ZERO
/// events were observed in `trials` Bernoulli trials (Clopper-Pearson /
/// "rule of three"): the largest p with (1-p)^n >= alpha. The symmetric
/// Wilson interval is the wrong shape here — zero successes is a one-sided
/// problem.
inline double ZeroEventUpperBound(std::uint64_t trials, double alpha = 0.05) {
  if (trials == 0) return 1.0;
  return 1.0 - std::pow(alpha, 1.0 / static_cast<double>(trials));
}

}  // namespace pair_ecc::util
