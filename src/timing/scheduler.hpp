// Scheduling policies for the memory controller.
//
// The policies differ only in two pieces of Controller state — how far
// into the queue the pick passes may reorder, and whether per-bank
// activation counts arm refresh-management traffic:
//
//   kFrFcfs — classic first-ready FCFS: row hits anywhere in the
//             reorder window beat older row misses (the historical
//             behaviour, bitwise-identical to the pre-refactor code).
//   kFcfs   — strict in-order baseline: the window collapses to the
//             queue head, so requests issue in arrival order.
//   kPrac   — FR-FCFS plus PRAC-style refresh management: per-bank
//             activation counters; when a bank's count crosses the RFM
//             threshold the controller drains it with an RFM command
//             (refresh-priority), bounding activation-driven disturbance
//             the way DDR5 PRAC does.
#pragma once

#include <cstdint>
#include <string>

namespace pair_ecc::timing {

enum class SchedulerKind : std::uint8_t { kFrFcfs, kFcfs, kPrac };

const char* ToString(SchedulerKind kind);

/// Parses "frfcfs" | "fcfs" | "prac" (throws on anything else).
SchedulerKind SchedulerKindFromString(const std::string& name);

}  // namespace pair_ecc::timing
