#include "telemetry/metrics.hpp"

#include "util/contract.hpp"

namespace pair_ecc::telemetry {

Histogram& Histogram::operator+=(const Histogram& other) {
  if (other.sum_ == 0 && other.TotalCount() == 0)
    return *this;  // the other side never recorded, whatever its bounds
  if (bounds_.empty() && TotalCount() == 0 && sum_ == 0) {
    // A default-constructed accumulator adopts the first real histogram's
    // shape (the engine default-constructs one per trial).
    *this = other;
    return *this;
  }
  PAIR_CHECK(bounds_ == other.bounds_,
             "Histogram: merging histograms with different bucket bounds");
  if (counts_.empty()) counts_.assign(bounds_.size() + 1, 0);
  for (std::size_t i = 0; i < other.counts_.size(); ++i)
    counts_[i] += other.counts_[i];
  sum_ += other.sum_;
  return *this;
}

}  // namespace pair_ecc::telemetry
