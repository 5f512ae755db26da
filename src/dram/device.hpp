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
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dram/geometry.hpp"
#include "util/bitvec.hpp"

namespace pair_ecc::dram {

class Device {
 public:
  explicit Device(const DeviceGeometry& geometry);

  const DeviceGeometry& geometry() const noexcept { return geom_; }

  /// Reads one bit as the memory array would deliver it (stuck-at overlay
  /// applied). `bit` may address the spare region.
  bool ReadBit(unsigned bank, unsigned row, unsigned bit) const;

  /// Writes one bit of the underlying storage. A stuck bit's storage takes
  /// the write too; only reads see the stuck value.
  void WriteBit(unsigned bank, unsigned row, unsigned bit, bool value);

  /// Reads `count` bits starting at `offset` within the row.
  util::BitVec ReadBits(unsigned bank, unsigned row, unsigned offset,
                        unsigned count) const;

  /// Writes `bits` at `offset` within the row.
  void WriteBits(unsigned bank, unsigned row, unsigned offset,
                 const util::BitVec& bits);

  /// ReadBits of `count` <= 64 bits as an integer, bit `offset` being the
  /// least-significant bit; allocates nothing.
  std::uint64_t ReadWord(unsigned bank, unsigned row, unsigned offset,
                         unsigned count) const;

  /// WriteBits of the low `count` <= 64 bits of `value` at `offset`.
  void WriteWord(unsigned bank, unsigned row, unsigned offset, unsigned count,
                 std::uint64_t value);

  /// The row's underlying storage (spare region included), created
  /// zero-filled on first touch. For callers that write many scattered
  /// bits of one row: writes through the reference are storage writes,
  /// exactly as WriteBit's, and the stuck overlay still masks them on read.
  /// Valid until the row is retired by PostPackageRepair.
  util::BitVec& StoredRow(unsigned bank, unsigned row);

  /// The row's underlying storage, or nullptr while nothing has touched
  /// the row (it then stores all-zero). Unlike StoredRow it creates
  /// nothing. Valid until the next non-const call.
  const util::BitVec* FindStoredRow(unsigned bank, unsigned row) const;

  /// One column access worth of data (AccessBits bits, beat-major).
  util::BitVec ReadColumn(const Address& addr) const;
  void WriteColumn(const Address& addr, const util::BitVec& data);

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

  /// True when (bank, row) has at least one stuck bit: then a read of the
  /// row may differ from what was last written to it.
  bool HasStuckBits(unsigned bank, unsigned row) const;

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
  struct RowState {
    util::BitVec data;
    // Stuck overlay: stuck_mask marks the stuck bits and stuck_value holds
    // their forced values. Both stay empty until the row's first stuck bit.
    util::BitVec stuck_mask;
    util::BitVec stuck_value;

    /// The one stuck-at merge: bits [offset, offset + count), count <= 64,
    /// as a read delivers them (a stuck bit reads its forced value, every
    /// other bit its stored one).
    std::uint64_t Read(unsigned offset, unsigned count) const {
      const std::uint64_t stored = data.GetWord(offset, count);
      if (stuck_mask.empty()) return stored;
      const std::uint64_t mask = stuck_mask.GetWord(offset, count);
      return (stored & ~mask) | (stuck_value.GetWord(offset, count) & mask);
    }
  };

  std::uint64_t RowKey(unsigned bank, unsigned row) const {
    CheckAddress(bank, row);
    return (static_cast<std::uint64_t>(bank) << 32) | row;
  }

  /// Resolves the logical address through the PPR remap table.
  std::uint64_t PhysicalKey(unsigned bank, unsigned row) const;

  void CheckAddress(unsigned bank, unsigned row) const;

  RowState& GetRow(unsigned bank, unsigned row);
  const RowState* FindRow(unsigned bank, unsigned row) const;

  DeviceGeometry geom_;
  mutable std::unordered_map<std::uint64_t, RowState> rows_;
  // PPR: logical row key -> spare physical id (top bit set to stay out of
  // the logical key space), plus the per-bank repair budget consumed.
  std::unordered_map<std::uint64_t, std::uint64_t> remap_;
  std::vector<unsigned> spares_used_;
  std::uint64_t next_spare_id_ = std::uint64_t{1} << 63;
  std::size_t stuck_count_ = 0;
};

}  // namespace pair_ecc::dram
