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
    for (unsigned d = 0; d < rank().DataDevices(); ++d) {
      auto& dev = rank().device(d);
      const util::BitVec col = rank().DeviceSlice(line, d);
      const util::BitVec row =
          dev.ReadBits(addr.bank, addr.row, 0, g.TotalRowBits());
      // Read-correct-modify-write per covering segment (reliability
      // ablation: the write path is functional, not timing-modelled).
      for (unsigned pin = 0; pin < g.dq_pins; ++pin) {
        const unsigned seg = (addr.col * g.burst_length) / kSegmentBits;
        util::BitVec cw(code_.n());
        cw.Splice(0, GatherSegment(row, pin, seg));
        cw.Splice(kSegmentBits,
                  row.Slice(ParityOffset(pin, seg), code_.ParityBits()));
        code_.Decode(cw);  // best effort
        const unsigned base = addr.col * g.burst_length - seg * kSegmentBits;
        for (unsigned beat = 0; beat < g.burst_length; ++beat)
          cw.Set(base + beat, col.Get(beat * g.dq_pins + pin));
        const util::BitVec reenc = code_.Encode(cw.Slice(0, kSegmentBits));
        for (unsigned i = 0; i < kSegmentBits; ++i)
          dev.WriteBit(addr.bank, addr.row,
                       dram::PinLineBit(g, pin, seg * kSegmentBits + i),
                       reenc.Get(i));
        dev.WriteBits(addr.bank, addr.row, ParityOffset(pin, seg),
                      reenc.Slice(kSegmentBits, code_.ParityBits()));
      }
    }
  }

  ecc::ReadResult DoReadLine(const dram::Address& addr) override {
    const auto& g = rank().geometry().device;
    ecc::ReadResult result;
    result.data = util::BitVec(rank().geometry().LineBits());
    for (unsigned d = 0; d < rank().DataDevices(); ++d) {
      auto& dev = rank().device(d);
      const util::BitVec row =
          dev.ReadBits(addr.bank, addr.row, 0, g.TotalRowBits());
      util::BitVec col_slice(g.AccessBits());
      const unsigned seg = (addr.col * g.burst_length) / kSegmentBits;
      for (unsigned pin = 0; pin < g.dq_pins; ++pin) {
        util::BitVec cw(code_.n());
        cw.Splice(0, GatherSegment(row, pin, seg));
        cw.Splice(kSegmentBits,
                  row.Slice(ParityOffset(pin, seg), code_.ParityBits()));
        result.Fold(code_.Decode(cw).status);
        // Deliver this pin's share of the addressed column.
        const unsigned base =
            addr.col * g.burst_length - seg * kSegmentBits;
        for (unsigned beat = 0; beat < g.burst_length; ++beat)
          col_slice.Set(beat * g.dq_pins + pin, cw.Get(base + beat));
      }
      rank().SetDeviceSlice(result.data, d, col_slice);
    }
    return result;
  }

 private:
  unsigned ParityOffset(unsigned pin, unsigned seg) const {
    const auto& g = rank().geometry().device;
    return g.row_bits +
           (pin * segments_per_pin_ + seg) * code_.ParityBits();
  }

  /// 512 consecutive pin-line bits of `pin`, segment `seg`.
  util::BitVec GatherSegment(const util::BitVec& row, unsigned pin,
                             unsigned seg) const {
    const auto& g = rank().geometry().device;
    util::BitVec out(kSegmentBits);
    for (unsigned i = 0; i < kSegmentBits; ++i)
      out.Set(i, row.Get(dram::PinLineBit(g, pin, seg * kSegmentBits + i)));
    return out;
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
      : Scheme(rank), code_(rs::Gf256Code(68, 64)) {
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
    const unsigned chunk = addr.col * g.AccessBits() / kChunkBits;
    for (unsigned d = 0; d < rank().DataDevices(); ++d) {
      auto& dev = rank().device(d);
      // Read-correct-modify-write on the covering chunk.
      const util::BitVec chunk_bits =
          dev.ReadBits(addr.bank, addr.row, chunk * kChunkBits, kChunkBits);
      const util::BitVec pbits_in =
          dev.ReadBits(addr.bank, addr.row,
                       g.row_bits + chunk * code_.r() * kSymbolBits,
                       code_.r() * kSymbolBits);
      std::vector<gf::Elem> word(code_.n());
      for (unsigned i = 0; i < code_.k(); ++i)
        word[i] = static_cast<gf::Elem>(
            chunk_bits.GetWord(i * kSymbolBits, kSymbolBits));
      for (unsigned j = 0; j < code_.r(); ++j)
        word[code_.k() + j] = static_cast<gf::Elem>(
            pbits_in.GetWord(j * kSymbolBits, kSymbolBits));
      code_.Decode(std::span<gf::Elem>(word));  // best effort
      const util::BitVec col = rank().DeviceSlice(line, d);
      const unsigned base_bit = addr.col * g.AccessBits() - chunk * kChunkBits;
      for (unsigned b = 0; b < g.AccessBits(); ++b) {
        auto& sym = word[(base_bit + b) / kSymbolBits];
        const unsigned bit = (base_bit + b) % kSymbolBits;
        sym = static_cast<gf::Elem>((sym & ~(1u << bit)) |
                                    (unsigned{col.Get(b)} << bit));
      }
      const auto parity = code_.ComputeParity(
          std::span<const gf::Elem>(word.data(), code_.k()));
      util::BitVec data_out(kChunkBits);
      for (unsigned i = 0; i < code_.k(); ++i)
        data_out.SetWord(i * kSymbolBits, kSymbolBits, word[i]);
      util::BitVec pbits(code_.r() * kSymbolBits);
      for (unsigned j = 0; j < code_.r(); ++j)
        pbits.SetWord(j * kSymbolBits, kSymbolBits, parity[j]);
      dev.WriteBits(addr.bank, addr.row, chunk * kChunkBits, data_out);
      dev.WriteBits(addr.bank, addr.row,
                    g.row_bits + chunk * code_.r() * kSymbolBits, pbits);
    }
  }

  ecc::ReadResult DoReadLine(const dram::Address& addr) override {
    const auto& g = rank().geometry().device;
    const unsigned chunk = addr.col * g.AccessBits() / kChunkBits;
    ecc::ReadResult result;
    result.data = util::BitVec(rank().geometry().LineBits());
    for (unsigned d = 0; d < rank().DataDevices(); ++d) {
      auto& dev = rank().device(d);
      const util::BitVec chunk_bits =
          dev.ReadBits(addr.bank, addr.row, chunk * kChunkBits, kChunkBits);
      const util::BitVec pbits =
          dev.ReadBits(addr.bank, addr.row,
                       g.row_bits + chunk * code_.r() * kSymbolBits,
                       code_.r() * kSymbolBits);
      std::vector<gf::Elem> word(code_.n());
      for (unsigned i = 0; i < code_.k(); ++i)
        word[i] = static_cast<gf::Elem>(
            chunk_bits.GetWord(i * kSymbolBits, kSymbolBits));
      for (unsigned j = 0; j < code_.r(); ++j)
        word[code_.k() + j] = static_cast<gf::Elem>(
            pbits.GetWord(j * kSymbolBits, kSymbolBits));
      const auto decode = code_.Decode(std::span<gf::Elem>(word));
      result.Fold(decode.status, decode.NumCorrected());
      // Deliver the column's 64 bits from the (corrected) chunk.
      const unsigned base_bit = addr.col * g.AccessBits() - chunk * kChunkBits;
      util::BitVec col_slice(g.AccessBits());
      for (unsigned b = 0; b < g.AccessBits(); ++b) {
        const unsigned bit = base_bit + b;
        col_slice.Set(b, (static_cast<unsigned>(word[bit / kSymbolBits]) >>
                          (bit % kSymbolBits)) &
                             1u);
      }
      rank().SetDeviceSlice(result.data, d, col_slice);
    }
    return result;
  }

 private:
  const rs::RsCode& code_;
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
