// Inherent-fault taxonomy and field-rate presets.
//
// The taxonomy follows the fault classes used by DRAM field studies
// (Sridharan et al.) and by the XED/DUO/PAIR line of work: faults are
// classified by the physical structure they disable. The paper's premise is
// that process scaling makes *inherent* (manufacturing-time) faults
// numerous and widely distributed; the mix below is the configurable model
// standing in for the paper's "latest DRAM model" (see DESIGN.md,
// substitutions).
//
// Spatial semantics (within one device):
//   kSingleBit  — one cell anywhere in a row (data or spare region)
//   kSingleWord — one aligned 128-bit internal-fetch word (failed local
//                 wordline driver)
//   kSinglePin  — one DQ pin's entire pin line within a row (broken column
//                 select / local I/O). Affects the data region only: spare
//                 (parity) cells are fed by their own column lines and
//                 survive a DQ-path defect
//   kSingleRow  — every bit of one row (failed master wordline)
//   kSingleBank — a row-fault footprint in every *touched* row of one bank
//                 (failed bank-level logic; restricted to the working set
//                 for tractability — untouched rows are never read, so the
//                 restriction does not change any observable outcome)
//   kPinBurst   — L consecutive bits along one pin line flipped (transient
//                 burst noise on the array-to-I/O path; the burst-error
//                 class the abstract's claim C3 targets)
//
// Footprints and hit rules. Every footprint is `count` row bits from
// `first`, `stride` apart. Each cell is hit either always or with p = 1/2.
// A hit cell is flipped (transient) or stuck at a Bernoulli(1/2) value
// drawn right after its hit draw (permanent):
//
//   type         first bit               count           stride   cells hit
//   single-bit   drawn bit               1               1        every
//   single-word  128 * w                 128             1        p = 1/2
//   single-pin   pin                     PinLineBits()   dq_pins  (a)
//   single-row   0                       TotalRowBits()  1        (a)
//   single-bank  single-row's, on each working row of the bank in turn;
//                the touch hook runs before each row
//   pin-burst    PinLineBit(pin, start)  L               dq_pins  every
//
//   (a) permanent: every cell; transient: each cell with p = 1/2.
//   A pin burst is always transient.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace pair_ecc::faults {

enum class FaultType : std::uint8_t {
  kSingleBit,
  kSingleWord,
  kSinglePin,
  kSingleRow,
  kSingleBank,
  kPinBurst,
};

inline constexpr std::array<FaultType, 6> kAllFaultTypes = {
    FaultType::kSingleBit, FaultType::kSingleWord, FaultType::kSinglePin,
    FaultType::kSingleRow, FaultType::kSingleBank, FaultType::kPinBurst,
};

std::string ToString(FaultType type);

/// Relative frequency of each fault class plus the permanent/transient
/// split. Weights need not sum to 1; they are normalised on use.
struct FaultMix {
  double single_bit = 0.70;
  double single_word = 0.10;
  double single_pin = 0.10;
  double single_row = 0.08;
  double single_bank = 0.02;
  double pin_burst = 0.0;  // burst noise studied separately (F3)
  /// Probability an injected fault is permanent (stuck-at) rather than a
  /// transient flip. Field studies attribute the majority of inherent
  /// faults to permanent defects.
  double permanent_fraction = 0.8;

  double WeightOf(FaultType type) const;
  double TotalWeight() const;

  /// Field-style inherent-fault mix (default; distributed, cell-dominant).
  static FaultMix Inherent() { return {}; }
  /// Only single-cell faults — the best case for conventional IECC.
  static FaultMix CellOnly() {
    return {1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.8};
  }
  /// Clustered mix emphasising pin/row structure — the regime PAIR targets.
  static FaultMix Clustered() {
    return {0.30, 0.15, 0.35, 0.15, 0.05, 0.0, 0.9};
  }
};

/// A fault drawn from the mix, fully describing what was injected (for
/// logging and for classifying outcomes per fault class).
struct InjectedFault {
  FaultType type = FaultType::kSingleBit;
  bool permanent = true;
  unsigned device = 0;
  unsigned bank = 0;
  unsigned row = 0;    // representative row (kSingleBank touches several)
  unsigned bit = 0;    // representative bit / pin index / burst start
  unsigned length = 1; // burst length for kPinBurst
};

}  // namespace pair_ecc::faults
