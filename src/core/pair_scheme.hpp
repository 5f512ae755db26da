// PAIR: Pin-Aligned In-dram ecc using the expandability of Reed-Solomon
// codes — the paper's primary contribution.
//
// Layout (per device, per row; defaults for an x8 BL8 die with 8 Kib rows):
//
//   pin line p          = row bits { i : i mod dq_pins == p }   (1024 bits)
//   symbol (p, s)       = pin-line bits [8s, 8s+8)              (128 / pin)
//   codeword (p, w)     = symbols  [w*k, (w+1)*k) of pin p + r check
//                         symbols in the row's spare region      (k=64: 2 / pin)
//
// With BL8 a symbol is exactly one column access's worth of pin p, so:
//
//  * a cache-line write changes whole symbols only -> the linear RS parity
//    is updated incrementally from the sensed old value (delta encoding),
//    with no internal read-modify-write column cycle;
//  * an I/O-path burst along a pin lands in adjacent symbols of ONE
//    codeword — inside t for bursts up to 8(t-1)+1 bits;
//  * a whole-pin fault corrupts one codeword per segment and leaves the
//    other 8*dq_pins-ish codewords of the row clean, so the damage is
//    contained and (being far beyond t) reliably *detected* rather than
//    miscorrected — while conventional bit-interleaved SEC smears the same
//    fault across every codeword as a miscorrectable multi-bit pattern.
//
// A read decodes, for every device and pin, every codeword of the pin line
// under decode_full_pin_line (the default: the whole pin line is latched in
// the sense amplifiers of the open row), else the codewords covering the
// addressed column. The line's claim aggregates those decodes; any failing
// decode poisons the line. Consecutive accesses to one row share one
// staging of the row and one batch decode (DoReadLines / DoWriteLines).
//
// The first write to a row no data device holds yet skips the staging: the
// row is all zero, so each changed symbol's delta is its new value. The
// data is copied in and each codeword's parity is the sum of its symbols'
// delta parities (DoWriteLines says when, and why it is exact).
//
// The code is the process-wide rs::Gf256Code of the configured shape, built
// once and shared by every instance.
//
// Known-bad cells/columns can be registered per codeword position
// (MarkSymbolErased) and are handed to the decoder as erasures, raising
// correction power toward r per codeword — the repair-list extension.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/pair_config.hpp"
#include "ecc/scheme.hpp"
#include "rs/rs_code.hpp"

namespace pair_ecc::core {

class PairScheme final : public ecc::Scheme {
 public:
  PairScheme(dram::Rank& rank, const PairConfig& config);

  std::string Name() const override { return config_.Name(); }
  ecc::PerfDescriptor Perf() const override;

  const PairConfig& config() const noexcept { return config_; }
  const rs::RsCode& code() const noexcept { return code_; }
  /// Codewords per pin per row.
  unsigned CodewordsPerPin() const noexcept { return cw_per_pin_; }

  /// Registers codeword position `position` (0..n-1; data or check symbol)
  /// of codeword (device, pin, w) as known-bad. Subsequent decodes treat it
  /// as an erasure. Returns false when the position was already registered.
  bool MarkSymbolErased(unsigned device, unsigned pin, unsigned w,
                        unsigned position);

  /// The codeword symbol a row bit is stored in: pin, codeword w and
  /// position (0..n-1), the coordinates MarkSymbolErased takes.
  struct SymbolRef {
    unsigned pin;
    unsigned w;
    unsigned position;
  };
  /// Maps `bit` of a device row (spare region included) to its symbol, or
  /// to nothing for a spare cell past the check symbols (an RS(n, k) whose
  /// parity does not fill the spare region leaves such cells unused).
  std::optional<SymbolRef> SymbolOfBit(unsigned bit) const;

  /// Patrol scrub: decodes every codeword of the row and writes corrected
  /// data + parity back, clearing accumulated transient errors.
  struct ScrubStats {
    unsigned codewords = 0;
    unsigned corrected = 0;
    unsigned uncorrectable = 0;
  };
  ScrubStats ScrubRow(unsigned bank, unsigned row);

  /// The one staging routine behind every read, write and scrub: codewords
  /// [w_begin, w_begin + wcount) of every pin of every data device of
  /// (bank, row), as the array delivers them (stuck overlay applied), as
  /// the lanes of one SoA block. Lane ((w - w_begin) * DataDevices() +
  /// device) * dq_pins + pin holds codeword (device, pin, w). The row is
  /// beat-major, so symbol s of all pins is one contiguous run of
  /// 8 * dq_pins bits; one 8x8 bit-matrix transpose per group of 8 pins
  /// turns it into those pins' symbols. The view is valid until the next
  /// call into this scheme.
  rs::CodewordBlock StageCodewords(unsigned bank, unsigned row,
                                   unsigned w_begin, unsigned wcount);

 protected:
  /// The line path, row-batched: each run of consecutive addresses on one
  /// (bank, row) stages the codewords it covers once, decodes them as one
  /// rs::DecodeBatch block (lanes with registered erasures decode with
  /// their lists), then delivers or stores them with word operations. The
  /// per-line virtuals are one-lane calls into the same bodies, so a batch
  /// is observably the per-line sequence: same stored bits, results and
  /// counters.
  ///
  /// A read run stages every codeword of the row under
  /// decode_full_pin_line (the whole pin line is latched in the open row's
  /// sense amplifiers), else the union of the lines' covering codewords;
  /// each line folds its claim over its own lanes.
  ///
  /// A write takes, per covering codeword, the delta-parity fast path when
  /// the codeword is currently consistent: the parity moves by the
  /// precomputed per-symbol delta, with no decode and no internal column
  /// cycle (everything is in the open row's sense amplifiers). A pure delta
  /// update over an *inconsistent* codeword would carry the old error into
  /// the new parity and resurrect it as a miscorrection on the next read,
  /// so a dirty codeword takes the slow path: decode, splice, re-encode.
  /// The syndrome check reuses the read datapath and errors are rare, so
  /// the slow path is off the performance model (scrub_on_write forces it
  /// always, with the RMW timing cost, as the F6 ablation). A write run
  /// applies its lines to the staged block in order, each to its own
  /// lanes, tracking which lanes are consistent, and stores every changed
  /// symbol once. On a row with a stuck cell the block would drift from
  /// what the array returns, so there each line stages afresh.
  ///
  /// A run onto a pristine row, one that no data device holds yet, with no
  /// registered erasure, no scrub_on_write and no column twice, is written
  /// without staging (WritePristine) and stores the same bits. The absent
  /// row reads all zero and has no stuck cell, so every covered codeword is
  /// the zero codeword, each symbol's delta is its new value, and, the code
  /// being linear, the delta path's parity is the XOR of the new symbols'
  /// delta parities. A device gets its row exactly when the staged path
  /// would first store to it: when some line's slice for it is nonzero.
  void DoWriteLines(std::span<const dram::Address> addrs,
                    std::span<const util::BitVec> lines) override;
  void DoReadLines(std::span<const dram::Address> addrs,
                   std::span<ecc::ReadResult> results) override;
  void DoWriteLine(const dram::Address& addr,
                   const util::BitVec& line) override {
    DoWriteLines({&addr, 1}, {&line, 1});
  }
  ecc::ReadResult DoReadLine(const dram::Address& addr) override {
    ecc::ReadResult result;
    DoReadLines({&addr, 1}, {&result, 1});
    return result;
  }

  /// In-DRAM patrol scrub of the codewords covering `addr`: decode and
  /// restore data AND check symbols (the delta-parity write path cannot
  /// clear latent errors, so PAIR scrubs below the controller).
  void DoScrubLine(const dram::Address& addr) override;

  /// One decode-and-restore pass over every codeword of the row.
  void DoScrubRowFull(unsigned bank, unsigned row) override {
    ScrubRow(bank, row);
  }

 private:
  struct CodewordRef {
    unsigned device;
    unsigned pin;
    unsigned w;
    bool operator<(const CodewordRef& o) const {
      return std::tie(device, pin, w) < std::tie(o.device, o.pin, o.w);
    }
  };

  /// Codewords of a pin holding column `col`'s symbols: [first, first +
  /// count).
  std::pair<unsigned, unsigned> CoveringCodewords(unsigned col) const;
  /// The smallest such range covering every column of `run`.
  std::pair<unsigned, unsigned> CoveringCodewords(
      std::span<const dram::Address> run) const;

  /// Throws std::logic_error unless codewords [w_begin, w_begin + wcount)
  /// lie in the pin line, as they do for every column of the row.
  void CheckCodewords(unsigned w_begin, unsigned wcount) const;

  /// (bank, row) on the data devices, from one FindRow each.
  struct RowState {
    bool absent = true;  ///< no data device holds the row
    bool stuck = false;  ///< some data device has a stuck bit in it
  };
  RowState DataRowState(unsigned bank, unsigned row) const;

  /// True when `run` addresses some column twice.
  bool RepeatsColumn(std::span<const dram::Address> run);

  /// Writes `lines` to `run` (one row) from one staging.
  void WriteRun(std::span<const dram::Address> run,
                std::span<const util::BitVec> lines);

  /// Writes `lines` to `run`, on a row no data device holds and with no
  /// column twice: copies each nonzero device slice into the row and stores
  /// each touched codeword's parity, summed from its symbols' delta
  /// parities. Stores what WriteRun would.
  void WritePristine(std::span<const dram::Address> run,
                     std::span<const util::BitVec> lines);

  /// Applies one line to its lanes of the staged block: delta parity on
  /// consistent lanes, splice and re-encode on the others; marks what
  /// changed in store_.
  void WriteStaged(const rs::CodewordBlock& block, unsigned w_begin,
                   const dram::Address& addr, const util::BitVec& line);

  /// Staged lane of codeword (w_begin + wi, device, pin).
  unsigned Lane(unsigned wi, unsigned device, unsigned pin) const;

  /// Spare-region bit offset of check symbol `j` of codeword (pin, w).
  unsigned ParityBitOffset(unsigned pin, unsigned w, unsigned j) const;

  /// rs::DecodeBatch over the staged block, handing each lane its
  /// registered erasure list.
  void DecodeStaged(const rs::CodewordBlock& block, unsigned w_begin,
                    unsigned wcount);

  /// Decodes codewords [w_begin, w_begin + wcount) of the row and writes
  /// every corrected one back.
  ScrubStats ScrubCodewords(unsigned bank, unsigned row, unsigned w_begin,
                            unsigned wcount);

  /// Marks every symbol of staged lane `l` for StoreMarked.
  void MarkLane(unsigned l, unsigned lanes);

  /// Writes the staged symbols marked in store_ back to the array, and no
  /// other cell: data symbols through one transpose per group of 8 pins,
  /// check symbols as 8-bit words.
  void StoreMarked(unsigned bank, unsigned row,
                   const rs::CodewordBlock& block, unsigned w_begin,
                   unsigned wcount);

  PairConfig config_;
  const rs::RsCode& code_;
  unsigned symbols_per_pin_;      // per row
  unsigned cw_per_pin_;           // per row
  unsigned subsymbols_per_col_;   // burst_length / 8
  std::map<CodewordRef, std::vector<unsigned>> erasures_;

  // Reusable hot-path buffers. A Scheme instance is not thread-safe; the
  // trial engine gives every worker its own rank + scheme, so these are
  // touched by one thread only.
  rs::DecodeScratch scratch_;
  std::vector<gf::Elem> word_;
  std::vector<gf::Elem> pdelta_;
  // Staging: one SoA codeword block, its per-lane decode results and
  // erasure lists, and a same-shaped mask of the symbols to store back.
  std::vector<gf::Elem> block_buf_;
  std::vector<rs::BatchLineResult> line_res_;
  std::vector<std::span<const unsigned>> lane_erasures_;
  std::vector<std::uint8_t> store_;
  // Per staged lane of a write run: nonzero while the lane is a codeword.
  std::vector<std::uint8_t> consistent_;
  // A pristine write's sorted columns, and one device's check symbols:
  // r per (codeword - w_begin, pin), in that order.
  std::vector<unsigned> cols_;
  std::vector<gf::Elem> parity_;
};

}  // namespace pair_ecc::core
