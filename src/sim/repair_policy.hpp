// Threshold-driven repair policy: when demand reads of a working-set row
// keep coming back detected-uncorrectable, schedule maintenance on that row
// and run the strongest remediation the scheme supports.
//
// Escalation ladder (mirrors the field flow sketched in core/repair.hpp):
//
//  1. For PAIR schemes, a BIST-style march diagnosis
//     (core::DiagnoseAndRepairRow) finds the permanently defective cells
//     and registers them on the erasure list — correction power rises
//     toward r for exactly the damaged codewords.
//  2. If the march reports codewords damaged beyond the erasure budget and
//     sparing is enabled, escalate to post-package repair
//     (core::SpareRow): salvage what still decodes, retire the physical
//     row, re-write onto the spare. A device out of spare rows marks the
//     attempt exhausted — the row stays broken for the rest of the trial.
//  3. Schemes without a repair list (IECC, XED, DUO, SECDED stacks) get a
//     full-row scrub instead: transient damage is flushed, stuck cells
//     remain. This is what a conventional controller can actually do.
//
// The policy is deterministic bookkeeping: per-row DUE counters, a pending
// flag so a row is repaired once per threshold crossing, and exact event
// counters merged shard-ordered by the campaign accumulators.
#pragma once

#include <cstdint>
#include <vector>

#include "ecc/scheme.hpp"
#include "util/fields.hpp"

namespace pair_ecc::sim {

struct RepairConfig {
  /// Demand-read DUEs observed on one working-set row before maintenance
  /// is scheduled. 0 disables the repair path entirely.
  unsigned due_threshold = 3;
  /// Delay between crossing the threshold and the repair executing (the
  /// maintenance engine is not instantaneous in real parts).
  std::uint64_t repair_latency_cycles = 2000;
  /// Escalate march-unrepairable rows to post-package row sparing.
  bool enable_sparing = true;
};

/// Exact counts of what the policy did; merged with += in shard order.
struct RepairCounters {
  std::uint64_t repairs_attempted = 0;   ///< maintenance events executed
  std::uint64_t symbols_marked = 0;      ///< erasures registered by marches
  std::uint64_t rows_spared = 0;         ///< successful PPR row sparings
  std::uint64_t sparing_exhausted = 0;   ///< PPR refused: no spare rows left
  std::uint64_t lines_lost = 0;          ///< lines lost across sparings
  std::uint64_t generic_row_scrubs = 0;  ///< non-PAIR fallback remediations

  static constexpr auto kFields = std::tuple{
      util::Field{&RepairCounters::repairs_attempted, "repairs_attempted",
                  "attempted"},
      util::Field{&RepairCounters::symbols_marked, "symbols_marked"},
      util::Field{&RepairCounters::rows_spared, "rows_spared"},
      util::Field{&RepairCounters::sparing_exhausted, "sparing_exhausted"},
      util::Field{&RepairCounters::lines_lost, "lines_lost"},
      util::Field{&RepairCounters::generic_row_scrubs, "generic_row_scrubs"},
  };

  RepairCounters& operator+=(const RepairCounters& other) noexcept {
    return util::MergeFields(*this, other);
  }

  friend bool operator==(const RepairCounters&,
                         const RepairCounters&) = default;
};

class RepairPolicy {
 public:
  RepairPolicy(const RepairConfig& config, unsigned total_rows);

  bool Enabled() const noexcept { return config_.due_threshold != 0; }
  std::uint64_t Latency() const noexcept {
    return config_.repair_latency_cycles;
  }

  /// Records one demand-read DUE on row `slot`. Returns true exactly when
  /// the threshold is crossed and no repair is already pending — the caller
  /// then schedules a kRepair event for the slot.
  bool OnDue(unsigned slot);

  /// Executes the maintenance on (bank, row) of `slot` against `scheme`
  /// (the escalation ladder above), then re-arms the slot's threshold.
  void Execute(unsigned slot, ecc::Scheme& scheme, unsigned bank,
               unsigned row);

  const RepairCounters& counters() const noexcept { return counters_; }

 private:
  RepairConfig config_;
  std::vector<unsigned> due_counts_;
  std::vector<bool> pending_;
  RepairCounters counters_;
};

}  // namespace pair_ecc::sim
