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
#include <stdexcept>
#include <vector>

#include "ecc/scheme.hpp"
#include "ecc/schemes_internal.hpp"
#include "hamming/hamming.hpp"

#include "util/contract.hpp"

namespace pair_ecc::ecc {
namespace {

class XedScheme final : public Scheme {
 public:
  explicit XedScheme(dram::Rank& rank)
      : Scheme(rank), sec_(rank.geometry().device) {
    PAIR_CHECK(rank.EccDevices() >= 1, "XED: rank has no XOR sidecar device");
  }

  std::string Name() const override { return "XED"; }

  PerfDescriptor Perf() const override {
    PerfDescriptor p;
    // RMW only while the on-die codeword is wider than the write (see IECC).
    p.write_rmw = rank().geometry().device.AccessBits() < OnDieSec::kWordBits;
    p.read_decode_ns = 1.9;    // on-die SEC; reconstruction is off the
                               // common path (only on a catch-word)
    p.write_encode_ns = 1.9;
    p.storage_overhead = sec_.code().Overhead() + 1.0 / 8.0;  // + XOR chip
    return p;
  }

  void DoWriteLine(const dram::Address& addr, const util::BitVec& line) override {
    const auto& g = rank().geometry().device;
    util::BitVec xor_col(g.AccessBits());
    for (unsigned d = 0; d < rank().DataDevices(); ++d)
      xor_col ^= rank().DeviceSlice(line, d);
    for (unsigned d = 0; d < rank().DataDevices(); ++d)
      sec_.WriteColumn(rank().device(d), addr, rank().DeviceSlice(line, d));
    sec_.WriteColumn(rank().device(rank().DataDevices()), addr, xor_col);
  }

  ReadResult DoReadLine(const dram::Address& addr) override {
    ReadResult result;
    result.data = util::BitVec(rank().geometry().LineBits());

    std::vector<util::BitVec> columns(rank().DataDevices());
    std::vector<unsigned> flagged;
    bool any_corrected = false;
    for (unsigned d = 0; d < rank().DataDevices(); ++d) {
      // A signalling device's word is left as sensed: its column is the raw
      // one, kept for best effort.
      OnDieSec::Column col = sec_.ReadColumn(rank().device(d), addr);
      if (col.status == hamming::HammingStatus::kDetected) flagged.push_back(d);
      any_corrected |= col.status == hamming::HammingStatus::kCorrected;
      columns[d] = std::move(col.bits);
    }

    if (flagged.size() == 1) {
      // Erasure repair via the XOR chip (itself protected by on-die SEC).
      OnDieSec::Column parity =
          sec_.ReadColumn(rank().device(rank().DataDevices()), addr);
      if (parity.status == hamming::HammingStatus::kDetected) {
        result.claim = Claim::kDetected;  // data chip + parity chip signalled
      } else {
        util::BitVec rebuilt = std::move(parity.bits);
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
  OnDieSec sec_;
};

}  // namespace

std::unique_ptr<Scheme> MakeXed(dram::Rank& rank) {
  return std::make_unique<XedScheme>(rank);
}

}  // namespace pair_ecc::ecc
