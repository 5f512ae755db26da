// XED (Nair et al., ISCA 2016) — "eXposing on-Die ECC" — modelled at
// functional granularity:
//
//  * every device (including the sidecar) keeps conventional on-die SEC
//    (136,128) over its internal 128-bit words;
//  * the sidecar device stores the bitwise XOR (RAID-3) of the eight data
//    devices' columns;
//  * on a read, each device decodes its own word. A device whose decoder
//    reports *uncorrectable* exposes that fact to the controller (the
//    catch-word signal), which then treats the device as an erasure and
//    reconstructs its column from the XOR parity. Two or more signalling
//    devices are an uncorrectable (detected) error.
//
// The SDC path the paper attacks is inherited faithfully: a multi-bit error
// inside one device that the SEC code *miscorrects* produces no signal, so
// the controller trusts and consumes corrupted data. The XOR parity is
// consulted only on a signal — matching XED's decode flow — so it cannot
// catch silent miscorrections (assumption [A3] in DESIGN.md).
//
// Performance: the on-die codeword (128 bits) is wider than a per-device
// column write (64 bits), so every write pays the internal read-modify-
// write, exactly like conventional IECC.
#include <optional>
#include <stdexcept>

#include "ecc/scheme.hpp"
#include "ecc/schemes_internal.hpp"
#include "hamming/hamming.hpp"

#include "util/contract.hpp"

namespace pair_ecc::ecc {
namespace {

class XedScheme final : public Scheme {
 public:
  static constexpr unsigned kWordBits = 128;

  explicit XedScheme(dram::Rank& rank)
      : Scheme(rank), code_(hamming::HammingCode::OnDie136()) {
    const auto& g = rank.geometry().device;
    PAIR_CHECK(rank.EccDevices() >= 1, "XED: rank has no XOR sidecar device");
    PAIR_CHECK(!(g.row_bits % kWordBits != 0 || kWordBits % g.AccessBits() != 0), "XED: geometry incompatible with 128b words");
    PAIR_CHECK(!((g.row_bits / kWordBits) * code_.ParityBits() > g.spare_row_bits), "XED: spare region too small");
  }

  std::string Name() const override { return "XED"; }

  PerfDescriptor Perf() const override {
    PerfDescriptor p;
    // RMW only while the on-die codeword is wider than the write (see IECC).
    p.write_rmw = rank().geometry().device.AccessBits() < kWordBits;
    p.read_decode_ns = 1.9;    // on-die SEC; reconstruction is off the
                               // common path (only on a catch-word)
    p.write_encode_ns = 1.9;
    p.storage_overhead = code_.Overhead() + 1.0 / 8.0;  // on-die + XOR chip
    return p;
  }

  void DoWriteLine(const dram::Address& addr, const util::BitVec& line) override {
    const auto& g = rank().geometry().device;
    util::BitVec xor_col(g.AccessBits());
    for (unsigned d = 0; d < rank().DataDevices(); ++d)
      xor_col ^= rank().DeviceSlice(line, d);
    for (unsigned d = 0; d < rank().DataDevices(); ++d)
      WriteDeviceColumn(d, addr, rank().DeviceSlice(line, d));
    WriteDeviceColumn(rank().DataDevices(), addr, xor_col);
  }

  ReadResult DoReadLine(const dram::Address& addr) override {
    ReadResult result;
    result.data = util::BitVec(rank().geometry().LineBits());

    std::vector<util::BitVec> columns(rank().DataDevices());
    std::vector<unsigned> flagged;
    bool any_corrected = false;
    for (unsigned d = 0; d < rank().DataDevices(); ++d) {
      auto col = ReadDeviceColumn(d, addr);
      if (!col.has_value()) {
        flagged.push_back(d);
        columns[d] = rank().device(d).ReadColumn(addr);  // raw, for best effort
      } else {
        any_corrected |= col->second;
        columns[d] = std::move(col->first);
      }
    }

    if (flagged.size() == 1) {
      // Erasure repair via the XOR chip (itself protected by on-die SEC).
      auto parity = ReadDeviceColumn(rank().DataDevices(), addr);
      if (!parity.has_value()) {
        result.claim = Claim::kDetected;  // data chip + parity chip signalled
      } else {
        util::BitVec rebuilt = parity->first;
        for (unsigned d = 0; d < rank().DataDevices(); ++d)
          if (d != flagged[0]) rebuilt ^= columns[d];
        columns[flagged[0]] = std::move(rebuilt);
        result.claim = Claim::kCorrected;
        ++result.corrected_units;
      }
    } else if (flagged.size() >= 2) {
      result.claim = Claim::kDetected;
    } else if (any_corrected) {
      result.claim = Claim::kCorrected;
      ++result.corrected_units;
    }

    for (unsigned d = 0; d < rank().DataDevices(); ++d)
      rank().SetDeviceSlice(result.data, d, columns[d]);
    return result;
  }

 private:
  /// Writes one column through the device's on-die ECC — an internal
  /// read-CORRECT-modify-write, like conventional IECC (re-encoding over a
  /// stale error would launder it into valid-looking corruption).
  void WriteDeviceColumn(unsigned d, const dram::Address& addr,
                         const util::BitVec& data) {
    const auto& g = rank().geometry().device;
    const unsigned cols_per_word = kWordBits / g.AccessBits();
    const unsigned word = addr.col / cols_per_word;
    const unsigned slot = addr.col % cols_per_word;
    auto& dev = rank().device(d);
    util::BitVec& cw = cw_;  // fully overwritten below
    cw.Splice(0,
              dev.ReadBits(addr.bank, addr.row, word * kWordBits, kWordBits));
    cw.Splice(kWordBits,
              dev.ReadBits(addr.bank, addr.row,
                           g.row_bits + word * code_.ParityBits(),
                           code_.ParityBits()));
    code_.Decode(cw);  // best effort
    util::BitVec word_bits = cw.Slice(0, kWordBits);
    word_bits.Splice(slot * g.AccessBits(), data);
    const util::BitVec reenc = code_.Encode(word_bits);
    dev.WriteBits(addr.bank, addr.row, word * kWordBits, word_bits);
    dev.WriteBits(addr.bank, addr.row, g.row_bits + word * code_.ParityBits(),
                  reenc.Slice(kWordBits, code_.ParityBits()));
  }

  /// Reads and on-die-decodes the column. Returns {column, was_corrected},
  /// or nullopt when the device signals an uncorrectable error.
  std::optional<std::pair<util::BitVec, bool>> ReadDeviceColumn(
      unsigned d, const dram::Address& addr) {
    const auto& g = rank().geometry().device;
    const unsigned cols_per_word = kWordBits / g.AccessBits();
    const unsigned word = addr.col / cols_per_word;
    const unsigned slot = addr.col % cols_per_word;
    auto& dev = rank().device(d);
    util::BitVec& cw = cw_;  // fully overwritten below
    cw.Splice(0, dev.ReadBits(addr.bank, addr.row, word * kWordBits, kWordBits));
    cw.Splice(kWordBits,
              dev.ReadBits(addr.bank, addr.row,
                           g.row_bits + word * code_.ParityBits(),
                           code_.ParityBits()));
    const auto decode = code_.Decode(cw);
    if (decode.status == hamming::HammingStatus::kDetected) return std::nullopt;
    return std::make_pair(cw.Slice(slot * g.AccessBits(), g.AccessBits()),
                          decode.status == hamming::HammingStatus::kCorrected);
  }

  hamming::HammingCode code_;
  // Reusable on-die codeword buffer; a Scheme instance is single-threaded
  // (the trial engine builds one per worker). Sized once: every use fully
  // overwrites bits [0, n).
  util::BitVec cw_{code_.n()};
};

}  // namespace

std::unique_ptr<Scheme> MakeXed(dram::Rank& rank) {
  return std::make_unique<XedScheme>(rank);
}

}  // namespace pair_ecc::ecc
