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
// Performance: on a BL8 x8 die the on-die codeword (128 bits) is wider
// than a per-device column write (64 bits), so every write pays the
// internal read-modify-write, exactly like conventional IECC; a BL16 x8 or
// HBM3 x16 column is the whole word and pays none.
#include <algorithm>
#include <cstdint>
#include <stdexcept>

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
    const unsigned access = rank().geometry().device.AccessBits();
    for (unsigned at = 0; at < access; at += 64) {
      const unsigned n = std::min(64u, access - at);
      std::uint64_t x = 0;
      for (unsigned d = 0; d < rank().DataDevices(); ++d)
        x ^= line.GetWord(d * access + at, n);
      column_.SetWord(at, n, x);
    }
    for (unsigned d = 0; d < rank().DataDevices(); ++d)
      sec_.WriteColumn(rank().device(d), addr, line, d * access);
    sec_.WriteColumn(rank().device(rank().DataDevices()), addr, column_, 0);
  }

  ReadResult DoReadLine(const dram::Address& addr) override {
    const unsigned access = rank().geometry().device.AccessBits();
    ReadResult result;
    result.data = util::BitVec(rank().geometry().LineBits());

    // A signalling device's word is left as sensed: its column is the raw
    // one, kept for best effort.
    unsigned flagged = 0;
    unsigned first_flagged = 0;
    bool any_corrected = false;
    for (unsigned d = 0; d < rank().DataDevices(); ++d) {
      const hamming::HammingStatus status =
          sec_.ReadColumn(rank().device(d), addr, result.data, d * access);
      if (status == hamming::HammingStatus::kDetected && flagged++ == 0)
        first_flagged = d;
      any_corrected |= status == hamming::HammingStatus::kCorrected;
    }

    if (flagged == 1) {
      // Erasure repair via the XOR chip (itself protected by on-die SEC).
      if (sec_.ReadColumn(rank().device(rank().DataDevices()), addr, column_,
                          0) == hamming::HammingStatus::kDetected) {
        result.claim = Claim::kDetected;  // data chip + parity chip signalled
      } else {
        for (unsigned at = 0; at < access; at += 64) {
          const unsigned n = std::min(64u, access - at);
          std::uint64_t x = column_.GetWord(at, n);
          for (unsigned d = 0; d < rank().DataDevices(); ++d)
            if (d != first_flagged) x ^= result.data.GetWord(d * access + at, n);
          result.data.SetWord(first_flagged * access + at, n, x);
        }
        result.claim = Claim::kCorrected;
        ++result.corrected_units;
      }
    } else if (flagged >= 2) {
      result.claim = Claim::kDetected;
    } else if (any_corrected) {
      result.claim = Claim::kCorrected;
      ++result.corrected_units;
    }
    return result;
  }

 private:
  OnDieSec sec_;
  // The XOR chip's column: what a write stores there, and what a read
  // rebuilds a signalling device's column from.
  util::BitVec column_{rank().geometry().device.AccessBits()};
};

}  // namespace

std::unique_ptr<Scheme> MakeXed(dram::Rank& rank) {
  return std::make_unique<XedScheme>(rank);
}

}  // namespace pair_ecc::ecc
