// Functional (data-accurate) model of one DRAM device with a fault overlay.
//
// Rows are allocated lazily and zero-filled, so simulations touch only the
// working set they address. Two fault mechanisms are modelled:
//
//  * transient flips — the stored value is inverted once (a disturbed cell);
//    a subsequent write repairs it;
//  * stuck-at bits — reads always return the stuck value regardless of what
//    was written (a permanently defective cell / column / row). Writes
//    still land in the storage underneath; the overlay masks them on read.
//
// Bit indices run over the *entire* row including the spare ECC region
// [row_bits, row_bits + spare_row_bits) — inherent faults do not spare the
// parity cells, and several of the paper's failure modes come precisely
// from corrupted parity.
//
// Every cell access goes through one handle, Device::Row: FindRow (creates
// nothing; an untouched row reads all-zero) or GetRow (creates it), each
// checking the address and resolving post-package repair once, then up to
// 64 bits per Read/Write. ReadBits/WriteBits copy longer ranges.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dram/geometry.hpp"
#include "util/bitvec.hpp"
#include "util/contract.hpp"

namespace pair_ecc::dram {

class Device {
 public:
  explicit Device(const DeviceGeometry& geometry);

  const DeviceGeometry& geometry() const noexcept { return geom_; }

  /// One row's cells: the stored bits (spare region included) under the
  /// stuck-at overlay, which stays private to the row and Device. Reached
  /// through FindRow/GetRow; valid until the row is retired by
  /// PostPackageRepair.
  class Row {
   public:
    /// Bits [offset, offset + count), count <= 64, as a read delivers them
    /// (a stuck bit reads its forced value, every other bit its stored
    /// one), bit `offset` being the least-significant. Throws
    /// std::out_of_range for a range outside the row.
    std::uint64_t Read(unsigned offset, unsigned count) const {
      CheckRange(offset, count);
      const std::uint64_t stored = data_.GetWord(offset, count);
      if (stuck_mask_.empty()) return stored;
      const std::uint64_t mask = stuck_mask_.GetWord(offset, count);
      return (stored & ~mask) | (stuck_value_.GetWord(offset, count) & mask);
    }

    /// Stores the low `count` <= 64 bits of `value` at `offset`. A stuck
    /// bit's storage takes the write too; only reads see the stuck value.
    void Write(unsigned offset, unsigned count, std::uint64_t value) {
      CheckRange(offset, count);
      data_.SetWord(offset, count, value);
    }

    /// True when some bit is stuck: then a read may differ from what was
    /// last written.
    bool HasStuckBits() const noexcept { return !stuck_mask_.empty(); }

    /// The underlying storage. Writes through it are storage writes, as
    /// Write's; reads through it see no stuck bit.
    util::BitVec& Stored() noexcept { return data_; }
    const util::BitVec& Stored() const noexcept { return data_; }

   private:
    friend class Device;

    void CheckRange(unsigned offset, unsigned count) const {
      PAIR_CHECK_RANGE(count <= 64 && offset + count <= data_.size(),
                       "Device::Row: range out of row");
    }

    util::BitVec data_;
    // Stuck overlay: stuck_mask_ marks the stuck bits and stuck_value_
    // holds their forced values. Both stay empty until the first stuck bit.
    util::BitVec stuck_mask_;
    util::BitVec stuck_value_;
  };

  /// The row at (bank, row) after post-package repair, or nullptr while
  /// nothing has touched it (it then reads all-zero). Creates nothing.
  /// Throws std::out_of_range for an address outside the device.
  const Row* FindRow(unsigned bank, unsigned row) const;

  /// The row at (bank, row), created zero-filled on first touch.
  Row& GetRow(unsigned bank, unsigned row);

  /// Reads `count` bits starting at `offset` within the row.
  util::BitVec ReadBits(unsigned bank, unsigned row, unsigned offset,
                        unsigned count) const;

  /// Writes `bits` at `offset` within the row.
  void WriteBits(unsigned bank, unsigned row, unsigned offset,
                 const util::BitVec& bits);

  // -- fault overlay -------------------------------------------------------

  /// The one overlay writer: corrupts up to 64 bits [offset, offset + count)
  /// of the row, bit `offset` being each mask's least-significant bit. Bits
  /// set in `flip` have their stored value inverted once (transient fault);
  /// bits set in `stuck` read as the matching bit of `value` forever
  /// (permanent fault). Sticking a stuck bit again changes only its value,
  /// so StuckCount counts newly stuck bits. Masks with no bit set create
  /// no row. Throws std::out_of_range for an address or range outside the
  /// row, and for a mask bit at or past `count`.
  void Corrupt(unsigned bank, unsigned row, unsigned offset, unsigned count,
               std::uint64_t flip, std::uint64_t stuck, std::uint64_t value);

  /// One-bit Corrupt: inverts the stored value once.
  void InjectFlip(unsigned bank, unsigned row, unsigned bit) {
    Corrupt(bank, row, bit, 1, 1, 0, 0);
  }

  /// One-bit Corrupt: the bit reads as `value` forever.
  void SetStuck(unsigned bank, unsigned row, unsigned bit, bool value) {
    Corrupt(bank, row, bit, 1, 0, 1, value ? 1 : 0);
  }

  /// Number of stuck bits currently registered (diagnostics).
  std::size_t StuckCount() const noexcept { return stuck_count_; }

  // -- post-package repair ---------------------------------------------------

  /// JEDEC-style row sparing: retires (bank, row) onto a fresh spare row.
  /// Subsequent accesses to the address reach defect-free cells; previously
  /// stored content does NOT follow (the caller re-writes what it could
  /// recover, as real hPPR flows do). Each bank has kSpareRowsPerBank
  /// repairs and returns false once they are used up; there is no per-row
  /// limit, so repairing a row again spends another spare of its bank.
  bool PostPackageRepair(unsigned bank, unsigned row);

  /// Spare rows still available in `bank`.
  unsigned SpareRowsLeft(unsigned bank) const;

  static constexpr unsigned kSpareRowsPerBank = 4;

 private:
  std::uint64_t RowKey(unsigned bank, unsigned row) const {
    CheckAddress(bank, row);
    return (static_cast<std::uint64_t>(bank) << 32) | row;
  }

  /// Resolves the logical address through the PPR remap table.
  std::uint64_t PhysicalKey(unsigned bank, unsigned row) const;

  void CheckAddress(unsigned bank, unsigned row) const;

  DeviceGeometry geom_;
  std::unordered_map<std::uint64_t, Row> rows_;
  // PPR: logical row key -> spare physical id (top bit set to stay out of
  // the logical key space), plus the per-bank repair budget consumed.
  std::unordered_map<std::uint64_t, std::uint64_t> remap_;
  std::vector<unsigned> spares_used_;
  std::uint64_t next_spare_id_ = std::uint64_t{1} << 63;
  std::size_t stuck_count_ = 0;
};

}  // namespace pair_ecc::dram
