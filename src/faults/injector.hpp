// Deterministic fault injection into a Rank's devices.
//
// The injector is scoped to a working set of (bank, row) pairs — the rows
// the experiment actually reads — so that large-footprint faults (row, bank)
// are materialised only where they can be observed. All randomness comes
// from the caller's RNG, making every injection replayable from a seed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "dram/rank.hpp"
#include "faults/fault_model.hpp"
#include "util/rng.hpp"

namespace pair_ecc::faults {

struct RowRef {
  unsigned bank;
  unsigned row;
};

/// Deterministic record of what an Injector has done: the injected fault
/// mix broken down by type and persistence. Accumulated by the injection
/// entry points; the reliability layer harvests these per trial and merges
/// them shard-ordered (same determinism contract as ecc::CodecCounters).
struct InjectionCounters {
  std::array<std::uint64_t, kAllFaultTypes.size()> by_type{};
  std::uint64_t total = 0;
  std::uint64_t permanent = 0;
  std::uint64_t transient = 0;

  void Record(const InjectedFault& fault) noexcept {
    ++by_type[static_cast<std::size_t>(fault.type)];
    ++total;
    ++(fault.permanent ? permanent : transient);
  }

  InjectionCounters& operator+=(const InjectionCounters& other) noexcept {
    for (std::size_t i = 0; i < by_type.size(); ++i)
      by_type[i] += other.by_type[i];
    total += other.total;
    permanent += other.permanent;
    transient += other.transient;
    return *this;
  }

  friend bool operator==(const InjectionCounters&,
                         const InjectionCounters&) = default;
};

class Injector {
 public:
  /// Called with a row's index in working_set() before the injector
  /// changes any bit of that row, once per fault (a single-bank fault calls
  /// it for every working row of its bank). It must draw no randomness.
  using TouchHook = std::function<void(std::size_t row)>;

  /// `working_set`: rows eligible for fault placement; must be non-empty.
  Injector(dram::Rank& rank, std::vector<RowRef> working_set,
           TouchHook on_touch = {});

  /// Samples a fault type from `mix`, a device uniformly, a location within
  /// the working set, and applies it. Returns the record of what was done.
  InjectedFault InjectFromMix(const FaultMix& mix, util::Xoshiro256& rng);

  /// Applies one fault of a specific type (used by the per-class breakdown
  /// experiment F2 and the burst sweep F3).
  InjectedFault Inject(FaultType type, bool permanent, util::Xoshiro256& rng);

  /// Pin-burst with an explicit length (beats along one pin line).
  InjectedFault InjectPinBurst(unsigned device, unsigned length,
                               util::Xoshiro256& rng);

  const std::vector<RowRef>& working_set() const noexcept { return rows_; }

  /// Injection telemetry accumulated since construction.
  const InjectionCounters& counters() const noexcept { return counters_; }

 private:
  std::size_t RandomRow(util::Xoshiro256& rng) const;
  /// Runs the touch hook for working row `i`; returns the row.
  RowRef Touch(std::size_t i);
  void CorruptBit(unsigned device, const RowRef& where, unsigned bit,
                  bool permanent, util::Xoshiro256& rng);
  void ApplySingleBit(InjectedFault& f, util::Xoshiro256& rng);
  void ApplySingleWord(InjectedFault& f, util::Xoshiro256& rng);
  void ApplySinglePin(InjectedFault& f, util::Xoshiro256& rng);
  void ApplyRowFootprint(unsigned device, const RowRef& where, bool permanent,
                         util::Xoshiro256& rng);
  void ApplySingleRow(InjectedFault& f, util::Xoshiro256& rng);
  void ApplySingleBank(InjectedFault& f, util::Xoshiro256& rng);
  void ApplyPinBurst(InjectedFault& f, util::Xoshiro256& rng);

  dram::Rank& rank_;
  std::vector<RowRef> rows_;
  TouchHook on_touch_;
  InjectionCounters counters_;
};

/// Samples a fault type according to the (normalised) mix weights.
FaultType SampleType(const FaultMix& mix, util::Xoshiro256& rng);

}  // namespace pair_ecc::faults
