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
#include <vector>

#include "dram/rank.hpp"
#include "faults/fault_model.hpp"
#include "util/fields.hpp"
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

  /// by_type is positional in kAllFaultTypes order (util/fields.hpp).
  static constexpr auto kFields = std::tuple{
      util::Field{&InjectionCounters::total, "total", "injected"},
      util::Field{&InjectionCounters::permanent, "permanent"},
      util::Field{&InjectionCounters::transient, "transient"},
      util::Field{&InjectionCounters::by_type, "by_type", "type.",
                  [](std::size_t i) { return ToString(kAllFaultTypes[i]); },
                  "fault type"},
  };

  InjectionCounters& operator+=(const InjectionCounters& other) noexcept {
    return util::MergeFields(*this, other);
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
  /// The cells a fault reaches in one row (fault_model.hpp's table):
  /// `count` bits from `first`, `stride` apart. Each is hit (`every`) or
  /// hit with p = 1/2.
  struct Footprint {
    unsigned first;
    unsigned count;
    unsigned stride;
    bool every;
  };

  std::size_t RandomRow(util::Xoshiro256& rng) const;
  /// Runs the touch hook for working row `i`, then walks `cells` in order,
  /// drawing each hit and, for a permanent fault, the hit cell's stuck
  /// value right after it; one overlay write per 64-bit word.
  void Corrupt(unsigned device, std::size_t i, const Footprint& cells,
               bool permanent, util::Xoshiro256& rng);

  dram::Rank& rank_;
  std::vector<RowRef> rows_;
  TouchHook on_touch_;
  InjectionCounters counters_;
};

/// Samples a fault type according to the (normalised) mix weights.
FaultType SampleType(const FaultMix& mix, util::Xoshiro256& rng);

}  // namespace pair_ecc::faults
