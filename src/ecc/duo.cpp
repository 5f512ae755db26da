// DUO (Gong et al., HPCA 2018) — "Dual Use of On-chip redundancy" —
// modelled at functional granularity (assumption [A2] in DESIGN.md):
//
//  * on-die correction is disabled; the on-die spare cells are repurposed
//    as extra check symbols of a *rank-level* Reed-Solomon code;
//  * one RS(76,64) codeword over GF(2^8) covers the whole cache line:
//    64 data symbols (one per device beat), 8 check symbols stored in the
//    sidecar chip's column, and 4 check symbols packed into the data
//    devices' spare nibbles (4 bits per device per column);
//  * the spare-resident symbols cross the bus through a burst extension
//    (BL8 -> BL9), which is DUO's bandwidth cost; decode happens at the
//    memory controller (t = 6 symbol correction).
//
// Because the codeword equals one cache line, writes are full-codeword
// writes: DUO pays no internal read-modify-write, only the longer burst.
#include <stdexcept>

#include "ecc/scheme.hpp"
#include "ecc/schemes_internal.hpp"
#include "rs/rs_code.hpp"

#include "util/contract.hpp"

namespace pair_ecc::ecc {
namespace {

class DuoScheme final : public Scheme {
 public:
  static constexpr unsigned kSymbolBits = 8;
  static constexpr unsigned kSidecarSymbols = 8;   // parity in the ECC chip
  static constexpr unsigned kSpareSymbols = 4;     // parity in spare nibbles
  static constexpr unsigned kSpareBitsPerDevice = 4;

  explicit DuoScheme(dram::Rank& rank)
      : Scheme(rank),
        code_(rs::RsCode::Gf256(
            rank.geometry().LineBits() / kSymbolBits + kSidecarSymbols +
                kSpareSymbols,
            rank.geometry().LineBits() / kSymbolBits)) {
    const auto& g = rank.geometry().device;
    PAIR_CHECK(rank.EccDevices() >= 1, "DUO: rank has no sidecar device");
    PAIR_CHECK(!(rank.geometry().LineBits() % kSymbolBits != 0), "DUO: line not a whole number of symbols");
    PAIR_CHECK(!(kSidecarSymbols * kSymbolBits != g.AccessBits()), "DUO: sidecar column must hold 8 symbols");
    PAIR_CHECK(!(rank.DataDevices() * kSpareBitsPerDevice !=
        kSpareSymbols * kSymbolBits), "DUO: spare nibbles must pack 4 symbols");
    PAIR_CHECK(!(g.ColumnsPerRow() * kSpareBitsPerDevice > g.spare_row_bits), "DUO: spare region too small");
  }

  std::string Name() const override { return "DUO"; }

  PerfDescriptor Perf() const override {
    PerfDescriptor p;
    p.extra_read_beats = 1;   // BL9 ships the spare-resident symbols
    p.extra_write_beats = 1;
    p.write_rmw = false;      // codeword == cache line
    p.read_decode_ns = 3.6;   // RS t=6 decode at the controller
    p.write_encode_ns = 1.5;
    p.storage_overhead =
        static_cast<double>(code_.r()) / static_cast<double>(code_.k());
    return p;
  }

  void DoWriteLine(const dram::Address& addr, const util::BitVec& line) override {
    const auto& g = rank().geometry().device;
    data_.resize(code_.k());
    for (unsigned s = 0; s < code_.k(); ++s)
      data_[s] =
          static_cast<gf::Elem>(line.GetWord(s * kSymbolBits, kSymbolBits));
    parity_.resize(code_.r());
    code_.ComputeParityInto(data_, parity_);

    rank().WriteLine(addr, line);

    // Check symbols 0..7 -> sidecar column.
    util::BitVec sidecar(g.AccessBits());
    for (unsigned j = 0; j < kSidecarSymbols; ++j)
      sidecar.SetWord(j * kSymbolBits, kSymbolBits, parity_[j]);
    rank().device(rank().DataDevices()).WriteColumn(addr, sidecar);

    // Check symbols 8..11 -> one nibble per data device.
    for (unsigned d = 0; d < rank().DataDevices(); ++d) {
      const unsigned sym = kSidecarSymbols + d / 2;
      const unsigned nibble =
          (parity_[sym] >> ((d % 2) * kSpareBitsPerDevice)) & 0xF;
      util::BitVec bits(kSpareBitsPerDevice);
      bits.SetWord(0, kSpareBitsPerDevice, nibble);
      rank().device(d).WriteBits(
          addr.bank, addr.row,
          g.row_bits + addr.col * kSpareBitsPerDevice, bits);
    }
  }

  ReadResult DoReadLine(const dram::Address& addr) override {
    const auto& g = rank().geometry().device;
    word_.assign(code_.n(), 0);

    const util::BitVec raw = rank().ReadLine(addr);
    for (unsigned s = 0; s < code_.k(); ++s)
      word_[s] =
          static_cast<gf::Elem>(raw.GetWord(s * kSymbolBits, kSymbolBits));

    const util::BitVec sidecar =
        rank().device(rank().DataDevices()).ReadColumn(addr);
    for (unsigned j = 0; j < kSidecarSymbols; ++j)
      word_[code_.k() + j] =
          static_cast<gf::Elem>(sidecar.GetWord(j * kSymbolBits, kSymbolBits));

    for (unsigned d = 0; d < rank().DataDevices(); ++d) {
      const util::BitVec bits = rank().device(d).ReadBits(
          addr.bank, addr.row, g.row_bits + addr.col * kSpareBitsPerDevice,
          kSpareBitsPerDevice);
      const unsigned sym = code_.k() + kSidecarSymbols + d / 2;
      word_[sym] = static_cast<gf::Elem>(
          word_[sym] |
          (bits.GetWord(0, kSpareBitsPerDevice) << ((d % 2) * kSpareBitsPerDevice)));
    }

    ReadResult result;
    const auto status =
        code_.Decode(std::span<gf::Elem>(word_), erased_devices_, scratch_);
    switch (status) {
      case rs::DecodeStatus::kNoError:
        break;
      case rs::DecodeStatus::kCorrected:
        result.claim = Claim::kCorrected;
        result.corrected_units = scratch_.NumCorrected();
        break;
      case rs::DecodeStatus::kFailure:
        result.claim = Claim::kDetected;
        break;
    }
    result.data = util::BitVec(rank().geometry().LineBits());
    for (unsigned s = 0; s < code_.k(); ++s)
      result.data.SetWord(s * kSymbolBits, kSymbolBits, word_[s]);
    return result;
  }

  // Batch write: every line's 64 data symbols become one lane of an SoA
  // block, one EncodeBatchInto computes all parities through the GF
  // kernels, then each lane scatters exactly as the per-line writer does.
  // Batch encode is bitwise-equal to ComputeParityInto per lane, so the
  // stored state is identical.
  void DoWriteLines(std::span<const dram::Address> addrs,
                    std::span<const util::BitVec> lines) override {
    PAIR_DCHECK(addrs.size() == lines.size(), "span extents rechecked in NVI");
    const auto& g = rank().geometry().device;
    const unsigned lanes = static_cast<unsigned>(addrs.size());
    if (lanes == 0) return;
    block_buf_.assign(std::size_t{code_.n()} * lanes, 0);
    const rs::CodewordBlock block{block_buf_.data(), lanes, code_.n(), lanes};
    for (unsigned l = 0; l < lanes; ++l)
      for (unsigned s = 0; s < code_.k(); ++s)
        block.Row(s)[l] = static_cast<gf::Elem>(
            lines[l].GetWord(s * kSymbolBits, kSymbolBits));
    code_.EncodeBatchInto(block);

    for (unsigned l = 0; l < lanes; ++l) {
      const dram::Address& addr = addrs[l];
      rank().WriteLine(addr, lines[l]);

      util::BitVec sidecar(g.AccessBits());
      for (unsigned j = 0; j < kSidecarSymbols; ++j)
        sidecar.SetWord(j * kSymbolBits, kSymbolBits,
                        block.Row(code_.k() + j)[l]);
      rank().device(rank().DataDevices()).WriteColumn(addr, sidecar);

      for (unsigned d = 0; d < rank().DataDevices(); ++d) {
        const unsigned pos = code_.k() + kSidecarSymbols + d / 2;
        const unsigned nibble =
            (block.Row(pos)[l] >> ((d % 2) * kSpareBitsPerDevice)) & 0xF;
        util::BitVec bits(kSpareBitsPerDevice);
        bits.SetWord(0, kSpareBitsPerDevice, nibble);
        rank().device(d).WriteBits(
            addr.bank, addr.row,
            g.row_bits + addr.col * kSpareBitsPerDevice, bits);
      }
    }
  }

  // Batch read: assemble every address's 76-symbol word into a block lane,
  // one DecodeBatch classifies/repairs all lanes, then per-lane claims and
  // data delivery replicate the per-line reader. Erasure decoding (chip
  // kill) stays on the per-line path — DecodeBatch is errors-only.
  void DoReadLines(std::span<const dram::Address> addrs,
                   std::span<ReadResult> results) override {
    PAIR_DCHECK(addrs.size() == results.size(),
                "span extents rechecked in NVI");
    if (!erased_devices_.empty()) {
      Scheme::DoReadLines(addrs, results);
      return;
    }
    const auto& g = rank().geometry().device;
    const unsigned lanes = static_cast<unsigned>(addrs.size());
    if (lanes == 0) return;
    block_buf_.assign(std::size_t{code_.n()} * lanes, 0);
    const rs::CodewordBlock block{block_buf_.data(), lanes, code_.n(), lanes};
    for (unsigned l = 0; l < lanes; ++l) {
      const dram::Address& addr = addrs[l];
      const util::BitVec raw = rank().ReadLine(addr);
      for (unsigned s = 0; s < code_.k(); ++s)
        block.Row(s)[l] = static_cast<gf::Elem>(
            raw.GetWord(s * kSymbolBits, kSymbolBits));

      const util::BitVec sidecar =
          rank().device(rank().DataDevices()).ReadColumn(addr);
      for (unsigned j = 0; j < kSidecarSymbols; ++j)
        block.Row(code_.k() + j)[l] = static_cast<gf::Elem>(
            sidecar.GetWord(j * kSymbolBits, kSymbolBits));

      for (unsigned d = 0; d < rank().DataDevices(); ++d) {
        const util::BitVec bits = rank().device(d).ReadBits(
            addr.bank, addr.row, g.row_bits + addr.col * kSpareBitsPerDevice,
            kSpareBitsPerDevice);
        const unsigned pos = code_.k() + kSidecarSymbols + d / 2;
        block.Row(pos)[l] = static_cast<gf::Elem>(
            block.Row(pos)[l] |
            (bits.GetWord(0, kSpareBitsPerDevice)
             << ((d % 2) * kSpareBitsPerDevice)));
      }
    }

    line_res_.resize(lanes);
    code_.DecodeBatch(block, line_res_, scratch_);
    for (unsigned l = 0; l < lanes; ++l) {
      ReadResult& result = results[l];
      result.claim = Claim::kClean;
      result.corrected_units = 0;
      switch (line_res_[l].status) {
        case rs::DecodeStatus::kNoError:
          break;
        case rs::DecodeStatus::kCorrected:
          result.claim = Claim::kCorrected;
          result.corrected_units = line_res_[l].corrected;
          break;
        case rs::DecodeStatus::kFailure:
          result.claim = Claim::kDetected;
          break;
      }
      result.data = util::BitVec(rank().geometry().LineBits());
      for (unsigned s = 0; s < code_.k(); ++s)
        result.data.SetWord(s * kSymbolBits, kSymbolBits, block.Row(s)[l]);
    }
  }

  /// Chip-kill mode: treat every symbol of `device` as an erasure (used
  /// after a device has been diagnosed as failed). DUO's 12 check symbols
  /// cover a full 8-symbol device erasure with budget to spare — but only
  /// for one device; a second kill would exceed r.
  bool DoMarkDeviceErased(unsigned device) override {
    if (device >= rank().DataDevices()) return false;
    const auto& g = rank().geometry().device;
    const unsigned symbols_per_device = g.AccessBits() / kSymbolBits;
    if (erased_devices_.size() + symbols_per_device > code_.r()) return false;
    for (unsigned b = 0; b < symbols_per_device; ++b)
      erased_devices_.push_back(device * symbols_per_device + b);
    return true;
  }

 private:
  rs::RsCode code_;
  std::vector<unsigned> erased_devices_;
  // Reusable hot-path buffers; a Scheme instance is single-threaded (the
  // trial engine builds one per worker).
  rs::DecodeScratch scratch_;
  std::vector<gf::Elem> word_;
  std::vector<gf::Elem> data_;
  std::vector<gf::Elem> parity_;
  // Batch staging: one SoA codeword block plus per-lane decode results,
  // reused across calls.
  std::vector<gf::Elem> block_buf_;
  std::vector<rs::BatchLineResult> line_res_;
};

}  // namespace

std::unique_ptr<Scheme> MakeDuo(dram::Rank& rank) {
  return std::make_unique<DuoScheme>(rank);
}

}  // namespace pair_ecc::ecc
