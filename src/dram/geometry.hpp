// DRAM device and rank geometry, column-access addressing, and the
// bit <-> (column, beat, pin) mapping every ECC layout is defined against.
//
// Physical convention (documented once, used everywhere): within a row, the
// data region is laid out *beat-major* —
//
//   bit(col, beat, pin) = col * AccessBits() + beat * dq_pins + pin
//
// i.e. the dq_pins bits transferred in one bus beat are adjacent. A "pin
// line" is the subsequence of row bits with bit % dq_pins == p: exactly the
// bits that leave the die through DQ pin p. PAIR's codewords are built along
// pin lines; conventional on-die ECC codewords are built over contiguous
// 128-bit internal fetches (and therefore stripe across all pins).
//
// Each row additionally carries a spare (ECC) region of `spare_row_bits`
// bits at indices [row_bits, row_bits + spare_row_bits) that never crosses
// the bus; schemes allocate their parity there.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "util/contract.hpp"

namespace pair_ecc::dram {

/// Geometry of one DRAM device (die). Defaults model a DDR4-style x8 die
/// with 1 KiB rows and a 6.25 % on-die ECC spare region.
struct DeviceGeometry {
  unsigned dq_pins = 8;         ///< device width (x4/x8/x16)
  unsigned burst_length = 8;    ///< beats per column access (BL8)
  unsigned banks = 16;
  unsigned rows_per_bank = 1u << 16;
  unsigned row_bits = 8192;     ///< data bits per row (excludes spare)
  unsigned spare_row_bits = 512;///< on-die ECC region per row (6.25 %)

  /// DDR5-style x8 die: BL16, so one column access moves 128 bits and the
  /// conventional (136,128) on-die codeword equals the access width.
  static DeviceGeometry Ddr5x8() {
    DeviceGeometry g;
    g.burst_length = 16;
    return g;
  }

  /// HBM3-style wide die: a 16-bit slice of a pseudo channel at BL8, so a
  /// column access still moves 128 bits but across twice the pins. Pin
  /// lines are 512 bits, which keeps PAIR's parity budget exactly inside
  /// the 6.25 % spare region (16 pins x 1 codeword x 4 checks x 8 bits).
  static DeviceGeometry Hbm3() {
    DeviceGeometry g;
    g.dq_pins = 16;
    g.burst_length = 8;
    g.banks = 32;
    return g;
  }

  /// Data bits moved by one column access: dq_pins * burst_length.
  unsigned AccessBits() const noexcept { return dq_pins * burst_length; }
  /// Column accesses per row.
  unsigned ColumnsPerRow() const noexcept { return row_bits / AccessBits(); }
  /// First row bit of column `col`; throws std::out_of_range for a column
  /// past the row.
  unsigned ColumnBit(unsigned col) const {
    PAIR_CHECK_RANGE(col < ColumnsPerRow(), "DeviceGeometry: column out of range");
    return col * AccessBits();
  }
  /// Bits of one row that travel on a single DQ pin.
  unsigned PinLineBits() const noexcept { return row_bits / dq_pins; }
  /// Total row storage including the spare region.
  unsigned TotalRowBits() const noexcept { return row_bits + spare_row_bits; }

  /// Throws std::invalid_argument when fields are inconsistent (row not a
  /// whole number of column accesses, zero sizes, ...).
  void Validate() const {
    PAIR_CHECK(!(dq_pins == 0 || burst_length == 0 || banks == 0 || rows_per_bank == 0), "DeviceGeometry: zero-sized field");
    PAIR_CHECK(!(row_bits == 0 || row_bits % AccessBits() != 0), "DeviceGeometry: row_bits must be a positive multiple of AccessBits");
  }
};

/// A rank: `data_devices` dies operated in lockstep carrying the cache line,
/// plus `ecc_devices` sidecar dies (the 9th chip of an ECC DIMM).
struct RankGeometry {
  DeviceGeometry device;
  unsigned data_devices = 8;
  unsigned ecc_devices = 1;

  unsigned TotalDevices() const noexcept { return data_devices + ecc_devices; }
  /// Bits of one cache line (one column access across the data devices).
  unsigned LineBits() const noexcept {
    return data_devices * device.AccessBits();
  }

  void Validate() const {
    device.Validate();
    PAIR_CHECK(data_devices != 0, "RankGeometry: need at least one data device");
  }
};

/// Address of one column access, shared by all devices of the rank.
struct Address {
  unsigned bank = 0;
  unsigned row = 0;
  unsigned col = 0;

  friend bool operator==(const Address&, const Address&) = default;
};

/// Bit <-> (col, beat, pin) conversions for the beat-major data region.
struct BitPlace {
  unsigned col;
  unsigned beat;
  unsigned pin;
};

inline unsigned ToBit(const DeviceGeometry& g, const BitPlace& p) noexcept {
  return p.col * g.AccessBits() + p.beat * g.dq_pins + p.pin;
}

inline BitPlace ToPlace(const DeviceGeometry& g, unsigned bit) noexcept {
  BitPlace p{};
  p.col = bit / g.AccessBits();
  const unsigned within = bit % g.AccessBits();
  p.beat = within / g.dq_pins;
  p.pin = within % g.dq_pins;
  return p;
}

/// Index of `bit` along its pin line (0 .. PinLineBits()-1). The i-th bit of
/// pin line p is the physical bit i * dq_pins + p.
inline unsigned PinLineIndex(const DeviceGeometry& g, unsigned bit) noexcept {
  return bit / g.dq_pins;
}

inline unsigned PinOfBit(const DeviceGeometry& g, unsigned bit) noexcept {
  return bit % g.dq_pins;
}

/// Physical bit of pin line `pin` at position `index` along the pin.
inline unsigned PinLineBit(const DeviceGeometry& g, unsigned pin,
                           unsigned index) noexcept {
  return index * g.dq_pins + pin;
}

}  // namespace pair_ecc::dram
