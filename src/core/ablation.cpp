#include "core/ablation.hpp"

#include <stdexcept>

#include "hamming/hamming.hpp"
#include "rs/rs_code.hpp"

#include "util/contract.hpp"

namespace pair_ecc::core {
namespace {

constexpr unsigned kSymbolBits = 8;

// ---------------------------------------------------------------------------
// PinAlignedSecScheme: one Hamming SEC codeword per 512-bit pin-line
// segment (k = 512 data bits -> 10 parity bits; 8 pins x 2 segments x 10
// bits = 160 parity bits per row, comfortably inside the 512-bit spare).
// ---------------------------------------------------------------------------

class PinAlignedSecScheme final : public ecc::Scheme {
 public:
  static constexpr unsigned kSegmentBits = 512;

  explicit PinAlignedSecScheme(dram::Rank& rank)
      : Scheme(rank), code_(kSegmentBits, /*extended=*/false) {
    const auto& g = rank.geometry().device;
    PAIR_CHECK(!(g.PinLineBits() % kSegmentBits != 0), "PinAlignedSec: segments must tile the pin line");
    segments_per_pin_ = g.PinLineBits() / kSegmentBits;
    const unsigned parity_bits =
        g.dq_pins * segments_per_pin_ * code_.ParityBits();
    PAIR_CHECK(parity_bits <= g.spare_row_bits, "PinAlignedSec: spare region too small");
  }

  std::string Name() const override { return "PA-SEC"; }

  ecc::PerfDescriptor Perf() const override {
    ecc::PerfDescriptor p;
    p.read_decode_ns = 2.0;
    p.write_encode_ns = 1.0;
    p.storage_overhead = code_.Overhead();
    return p;
  }

  void DoWriteLine(const dram::Address& addr, const util::BitVec& line) override {
    const auto& g = rank().geometry().device;
    // The column's first pin-line index is its first row bit over dq_pins.
    const unsigned index = g.ColumnBit(addr.col) / g.dq_pins;
    const unsigned seg = index / kSegmentBits, base = index % kSegmentBits;
    for (unsigned d = 0; d < rank().DataDevices(); ++d) {
      dram::Device::Row& row = rank().device(d).GetRow(addr.bank, addr.row);
      // Read-correct-modify-write per covering segment (reliability
      // ablation: the write path is functional, not timing-modelled). Pins
      // own disjoint bits, so each senses what the others left untouched.
      for (unsigned pin = 0; pin < g.dq_pins; ++pin) {
        util::BitVec cw = Sense(&row, pin, seg);
        code_.Decode(cw);  // best effort
        for (unsigned beat = 0; beat < g.burst_length; ++beat)
          cw.Set(base + beat,
                 line.Get(d * g.AccessBits() + beat * g.dq_pins + pin));
        code_.EncodeInPlace(cw);
        for (unsigned i = 0; i < kSegmentBits; ++i)
          row.Stored().Set(dram::PinLineBit(g, pin, seg * kSegmentBits + i),
                           cw.Get(i));
        row.Write(ParityOffset(pin, seg), code_.ParityBits(),
                  cw.GetWord(kSegmentBits, code_.ParityBits()));
      }
    }
  }

  ecc::ReadResult DoReadLine(const dram::Address& addr) override {
    const auto& g = rank().geometry().device;
    // The column's first pin-line index is its first row bit over dq_pins.
    const unsigned index = g.ColumnBit(addr.col) / g.dq_pins;
    const unsigned seg = index / kSegmentBits, base = index % kSegmentBits;
    ecc::ReadResult result;
    result.data = util::BitVec(rank().geometry().LineBits());
    for (unsigned d = 0; d < rank().DataDevices(); ++d) {
      const dram::Device::Row* row =
          rank().device(d).FindRow(addr.bank, addr.row);
      for (unsigned pin = 0; pin < g.dq_pins; ++pin) {
        util::BitVec cw = Sense(row, pin, seg);
        result.Fold(code_.Decode(cw).status);
        // Deliver this pin's share of the addressed column.
        for (unsigned beat = 0; beat < g.burst_length; ++beat)
          result.data.Set(d * g.AccessBits() + beat * g.dq_pins + pin,
                          cw.Get(base + beat));
      }
    }
    return result;
  }

 private:
  unsigned ParityOffset(unsigned pin, unsigned seg) const {
    const auto& g = rank().geometry().device;
    return g.row_bits +
           (pin * segments_per_pin_ + seg) * code_.ParityBits();
  }

  /// Codeword (pin, seg) as sensed: the segment's 512 consecutive pin-line
  /// bits, then its parity. A null `row` is untouched and senses zero.
  util::BitVec Sense(const dram::Device::Row* row, unsigned pin,
                     unsigned seg) const {
    const auto& g = rank().geometry().device;
    util::BitVec cw(code_.n());
    if (row == nullptr) return cw;
    for (unsigned i = 0; i < kSegmentBits; ++i)
      cw.Set(i, row->Read(dram::PinLineBit(g, pin, seg * kSegmentBits + i),
                          1) != 0);
    cw.SetWord(kSegmentBits, code_.ParityBits(),
               row->Read(ParityOffset(pin, seg), code_.ParityBits()));
    return cw;
  }

  hamming::HammingCode code_;
  unsigned segments_per_pin_ = 0;
};

// ---------------------------------------------------------------------------
// InterleavedRsScheme: RS(68,64) over beat-major chunks — symbol i of chunk
// c is row bits [c*512 + i*8, c*512 + i*8 + 8), i.e. one beat across all
// pins. 16 chunks per row x 32 parity bits = 512 spare bits (same budget
// as PAIR-4).
// ---------------------------------------------------------------------------

class InterleavedRsScheme final : public ecc::Scheme {
 public:
  static constexpr unsigned kChunkBits = 512;

  explicit InterleavedRsScheme(dram::Rank& rank)
      : Scheme(rank), code_(rs::Gf256Code(68, 64)), scratch_(code_) {
    const auto& g = rank.geometry().device;
    PAIR_CHECK(!(g.row_bits % kChunkBits != 0), "InterleavedRs: chunks must tile the row");
    chunks_ = g.row_bits / kChunkBits;
    PAIR_CHECK(!(chunks_ * code_.r() * kSymbolBits > g.spare_row_bits), "InterleavedRs: spare region too small");
  }

  std::string Name() const override { return "IL-RS"; }

  ecc::PerfDescriptor Perf() const override {
    ecc::PerfDescriptor p;
    p.read_decode_ns = 2.8;
    p.write_encode_ns = 0.8;
    p.storage_overhead = code_.Overhead();
    return p;
  }

  void DoWriteLine(const dram::Address& addr, const util::BitVec& line) override {
    const auto& g = rank().geometry().device;
    const unsigned chunk = g.ColumnBit(addr.col) / kChunkBits;
    const unsigned base_bit = addr.col * g.AccessBits() - chunk * kChunkBits;
    std::vector<gf::Elem> word(code_.n());
    for (unsigned d = 0; d < rank().DataDevices(); ++d) {
      dram::Device::Row& row = rank().device(d).GetRow(addr.bank, addr.row);
      // Read-correct-modify-write on the covering chunk.
      Sense(&row, chunk, word);
      code_.Decode(std::span<gf::Elem>(word), {}, scratch_);  // best effort
      for (unsigned b = 0; b < g.AccessBits(); ++b) {
        auto& sym = word[(base_bit + b) / kSymbolBits];
        const unsigned bit = (base_bit + b) % kSymbolBits;
        sym = static_cast<gf::Elem>(
            (sym & ~(1u << bit)) |
            (unsigned{line.Get(d * g.AccessBits() + b)} << bit));
      }
      code_.ComputeParityInto(
          std::span<const gf::Elem>(word.data(), code_.k()),
          std::span<gf::Elem>(word.data() + code_.k(), code_.r()));
      for (unsigned i = 0; i < code_.n(); ++i)
        row.Write(SymbolBit(chunk, i), kSymbolBits, word[i]);
    }
  }

  ecc::ReadResult DoReadLine(const dram::Address& addr) override {
    const auto& g = rank().geometry().device;
    const unsigned chunk = g.ColumnBit(addr.col) / kChunkBits;
    const unsigned base_bit = addr.col * g.AccessBits() - chunk * kChunkBits;
    ecc::ReadResult result;
    result.data = util::BitVec(rank().geometry().LineBits());
    std::vector<gf::Elem> word(code_.n());
    for (unsigned d = 0; d < rank().DataDevices(); ++d) {
      Sense(rank().device(d).FindRow(addr.bank, addr.row), chunk, word);
      const rs::DecodeStatus status =
          code_.Decode(std::span<gf::Elem>(word), {}, scratch_);
      result.Fold(status, scratch_.NumCorrected());
      // Deliver the column's bits from the (corrected) chunk.
      for (unsigned b = 0; b < g.AccessBits(); ++b) {
        const unsigned bit = base_bit + b;
        result.data.Set(d * g.AccessBits() + b,
                        (static_cast<unsigned>(word[bit / kSymbolBits]) >>
                         (bit % kSymbolBits)) &
                            1u);
      }
    }
    return result;
  }

 private:
  /// Row bit of symbol `i` of `chunk`'s codeword: data symbols tile the
  /// chunk, check symbols the chunk's share of the spare region.
  unsigned SymbolBit(unsigned chunk, unsigned i) const {
    if (i < code_.k()) return chunk * kChunkBits + i * kSymbolBits;
    return rank().geometry().device.row_bits +
           (chunk * code_.r() + i - code_.k()) * kSymbolBits;
  }

  /// `chunk`'s codeword as sensed into `word` (fully overwritten). A null
  /// `row` is untouched and senses zero.
  void Sense(const dram::Device::Row* row, unsigned chunk,
             std::vector<gf::Elem>& word) const {
    for (unsigned i = 0; i < code_.n(); ++i)
      word[i] = row == nullptr ? 0
                               : static_cast<gf::Elem>(row->Read(
                                     SymbolBit(chunk, i), kSymbolBits));
  }

  const rs::RsCode& code_;
  // Decoder workspace; a Scheme instance is single-threaded.
  rs::DecodeScratch scratch_;
  unsigned chunks_ = 0;
};

}  // namespace

std::unique_ptr<ecc::Scheme> MakePinAlignedSec(dram::Rank& rank) {
  return std::make_unique<PinAlignedSecScheme>(rank);
}

std::unique_ptr<ecc::Scheme> MakeInterleavedRs(dram::Rank& rank) {
  return std::make_unique<InterleavedRsScheme>(rank);
}

}  // namespace pair_ecc::core
