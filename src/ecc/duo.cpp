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
#include <cstdint>
#include <stdexcept>
#include <utility>

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
        code_(rs::Gf256Code(
            rank.geometry().LineBits() / kSymbolBits + kSidecarSymbols +
                kSpareSymbols,
            rank.geometry().LineBits() / kSymbolBits)),
        scratch_(code_) {
    const auto& g = rank.geometry().device;
    PAIR_CHECK(rank.EccDevices() >= 1, "DUO: rank has no sidecar device");
    PAIR_CHECK(!(rank.geometry().LineBits() % kSymbolBits != 0), "DUO: line not a whole number of symbols");
    PAIR_CHECK(!(kSidecarSymbols * kSymbolBits != g.AccessBits()), "DUO: sidecar column must hold 8 symbols");
    PAIR_CHECK(!(rank.DataDevices() * kSpareBitsPerDevice !=
        kSpareSymbols * kSymbolBits), "DUO: spare nibbles must pack 4 symbols");
    PAIR_CHECK(!(g.ColumnsPerRow() * kSpareBitsPerDevice > g.spare_row_bits), "DUO: spare region too small");
    // A line access is a one-lane block: size its staging now, as the
    // scratch is, so the first one allocates only its result line.
    block_buf_.reserve(code_.n());
    lane_erasures_.reserve(1);
    line_res_.reserve(1);
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

  // The per-line virtuals are one-lane batches.
  void DoWriteLine(const dram::Address& addr, const util::BitVec& line) override {
    DoWriteLines({&addr, 1}, {&line, 1});
  }

  ReadResult DoReadLine(const dram::Address& addr) override {
    ReadResult result;
    DoReadLines({&addr, 1}, {&result, 1});
    return result;
  }

  // Write: every line's 64 data symbols become one lane of an SoA block,
  // one EncodeBatchInto computes all parities through the GF kernels, then
  // each lane scatters its data, sidecar and spare-nibble symbols.
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

      // The sidecar column is one 64-bit word: eight check symbols.
      std::uint64_t sidecar = 0;
      for (unsigned j = 0; j < kSidecarSymbols; ++j)
        sidecar |= std::uint64_t{block.Row(code_.k() + j)[l]}
                   << (j * kSymbolBits);
      rank().device(rank().DataDevices()).GetRow(addr.bank, addr.row).Write(
          g.ColumnBit(addr.col), g.AccessBits(), sidecar);

      for (unsigned d = 0; d < rank().DataDevices(); ++d) {
        const unsigned pos = code_.k() + kSidecarSymbols + d / 2;
        const unsigned symbol = block.Row(pos)[l];
        rank().device(d).GetRow(addr.bank, addr.row).Write(
            SpareBit(addr), kSpareBitsPerDevice,
            symbol >> ((d % 2) * kSpareBitsPerDevice));
      }
    }
  }

  // Read: assemble every address's 76-symbol word into a block lane, and
  // one DecodeBatch classifies/repairs all lanes. After a chip kill every
  // lane carries the erased device's symbols as its erasure list.
  void DoReadLines(std::span<const dram::Address> addrs,
                   std::span<ReadResult> results) override {
    PAIR_DCHECK(addrs.size() == results.size(),
                "span extents rechecked in NVI");
    const auto& g = rank().geometry().device;
    const unsigned lanes = static_cast<unsigned>(addrs.size());
    if (lanes == 0) return;
    block_buf_.assign(std::size_t{code_.n()} * lanes, 0);
    const rs::CodewordBlock block{block_buf_.data(), lanes, code_.n(), lanes};
    for (unsigned l = 0; l < lanes; ++l) {
      const dram::Address& addr = addrs[l];
      // The raw line is the result line; the decode below overwrites it.
      results[l].data = rank().ReadLine(addr);
      const util::BitVec& raw = results[l].data;
      for (unsigned s = 0; s < code_.k(); ++s)
        block.Row(s)[l] = static_cast<gf::Elem>(
            raw.GetWord(s * kSymbolBits, kSymbolBits));

      // An untouched row leaves its symbols zero.
      if (const dram::Device::Row* sidecar =
              rank().device(rank().DataDevices()).FindRow(addr.bank, addr.row)) {
        const std::uint64_t word =
            sidecar->Read(g.ColumnBit(addr.col), g.AccessBits());
        for (unsigned j = 0; j < kSidecarSymbols; ++j)
          block.Row(code_.k() + j)[l] =
              static_cast<gf::Elem>((word >> (j * kSymbolBits)) & 0xFF);
      }

      for (unsigned d = 0; d < rank().DataDevices(); ++d) {
        const dram::Device::Row* row =
            rank().device(d).FindRow(addr.bank, addr.row);
        if (row == nullptr) continue;
        const unsigned pos = code_.k() + kSidecarSymbols + d / 2;
        block.Row(pos)[l] = static_cast<gf::Elem>(
            block.Row(pos)[l] |
            (row->Read(SpareBit(addr), kSpareBitsPerDevice)
             << ((d % 2) * kSpareBitsPerDevice)));
      }
    }

    line_res_.resize(lanes);
    lane_erasures_.assign(lanes, erased_devices_);
    code_.DecodeBatch(block, line_res_, scratch_, lane_erasures_);
    for (unsigned l = 0; l < lanes; ++l) {
      ReadResult result;
      result.Fold(line_res_[l].status, line_res_[l].corrected);
      result.data = std::move(results[l].data);
      for (unsigned s = 0; s < code_.k(); ++s)
        result.data.SetWord(s * kSymbolBits, kSymbolBits, block.Row(s)[l]);
      results[l] = std::move(result);
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
  /// First row bit of `addr`'s spare nibble in every data device.
  unsigned SpareBit(const dram::Address& addr) const {
    return rank().geometry().device.row_bits + addr.col * kSpareBitsPerDevice;
  }

  const rs::RsCode& code_;
  std::vector<unsigned> erased_devices_;
  // Reusable hot-path buffers; a Scheme instance is single-threaded (the
  // trial engine builds one per worker).
  rs::DecodeScratch scratch_;
  // Staging: one SoA codeword block plus per-lane erasure lists and decode
  // results, reused across calls.
  std::vector<gf::Elem> block_buf_;
  std::vector<std::span<const unsigned>> lane_erasures_;
  std::vector<rs::BatchLineResult> line_res_;
};

}  // namespace

std::unique_ptr<Scheme> MakeDuo(dram::Rank& rank) {
  return std::make_unique<DuoScheme>(rank);
}

}  // namespace pair_ecc::ecc
