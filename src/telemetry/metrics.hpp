// Deterministic metric primitives: named counters and fixed-bucket
// histograms.
//
// Both types follow the trial engine's determinism contract (see
// reliability/engine.hpp): they are plain value types that accumulate
// exact integers and merge with `operator+=`, so per-shard instances
// reduced in shard order produce bitwise-identical totals for any thread
// count. Counters store their entries sorted by name (not by insertion),
// which makes the merged set independent of the order different shards
// first touched a name.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pair_ecc::telemetry {

/// A bag of named uint64 counters. Absent names read as zero.
class Counters {
 public:
  void Add(std::string_view name, std::uint64_t delta = 1) {
    if (const auto it = values_.find(name); it != values_.end())
      it->second += delta;
    else
      values_.emplace(std::string(name), delta);
  }

  void Set(std::string_view name, std::uint64_t value) {
    if (const auto it = values_.find(name); it != values_.end())
      it->second = value;
    else
      values_.emplace(std::string(name), value);
  }

  std::uint64_t Get(std::string_view name) const noexcept {
    const auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second;
  }

  bool Empty() const noexcept { return values_.empty(); }
  std::size_t Size() const noexcept { return values_.size(); }

  /// Order-independent merge (name-wise sum).
  Counters& operator+=(const Counters& other) {
    for (const auto& [name, value] : other.values_) Add(name, value);
    return *this;
  }

  /// Sorted by name — the deterministic iteration/serialisation order.
  const std::map<std::string, std::uint64_t, std::less<>>& items() const noexcept {
    return values_;
  }

  friend bool operator==(const Counters&, const Counters&) = default;

 private:
  std::map<std::string, std::uint64_t, std::less<>> values_;
};

/// Histogram over fixed integer bucket upper bounds (inclusive), plus an
/// overflow bucket. Bounds are part of the value: merging two histograms
/// requires identical bounds, except that a histogram that never recorded
/// merges as the identity — on the right it leaves the target unchanged,
/// and as a default-constructed target it adopts the other side's bounds,
/// which lets shard accumulators be default-constructible as the engine
/// requires.
class Histogram {
 public:
  Histogram() = default;

  /// `upper_bounds` must be strictly increasing. Bucket i counts values
  /// v <= upper_bounds[i] (and > upper_bounds[i-1]); values beyond the last
  /// bound land in the overflow bucket.
  explicit Histogram(std::vector<std::uint64_t> upper_bounds)
      : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {}

  /// Reconstructs a histogram from its serialized parts (checkpoint
  /// resume). `counts` must be empty or sized bounds.size() + 1; `sum` is
  /// trusted — it cannot be recomputed from bucketed counts.
  static Histogram FromParts(std::vector<std::uint64_t> bounds,
                             std::vector<std::uint64_t> counts,
                             std::uint64_t sum) {
    Histogram h(std::move(bounds));
    if (!counts.empty()) h.counts_ = std::move(counts);
    h.sum_ = sum;
    return h;
  }

  /// Convenience: one bucket per value in [0, max], plus overflow.
  static Histogram UpTo(std::uint64_t max) {
    std::vector<std::uint64_t> bounds(static_cast<std::size_t>(max) + 1);
    for (std::size_t i = 0; i < bounds.size(); ++i)
      bounds[i] = static_cast<std::uint64_t>(i);
    return Histogram(std::move(bounds));
  }

  void Record(std::uint64_t value) {
    std::size_t bucket = bounds_.size();  // overflow by default
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
      if (value <= bounds_[i]) {
        bucket = i;
        break;
      }
    }
    if (counts_.empty()) counts_.assign(bounds_.size() + 1, 0);
    ++counts_[bucket];
    sum_ += value;
  }

  std::uint64_t TotalCount() const noexcept {
    std::uint64_t total = 0;
    for (const auto c : counts_) total += c;
    return total;
  }
  std::uint64_t Sum() const noexcept { return sum_; }

  const std::vector<std::uint64_t>& bounds() const noexcept { return bounds_; }
  /// counts().size() == bounds().size() + 1; the last entry is overflow.
  /// Empty for a default-constructed histogram that never recorded.
  const std::vector<std::uint64_t>& counts() const noexcept { return counts_; }

  Histogram& operator+=(const Histogram& other);

  friend bool operator==(const Histogram&, const Histogram&) = default;

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t sum_ = 0;
};

}  // namespace pair_ecc::telemetry
