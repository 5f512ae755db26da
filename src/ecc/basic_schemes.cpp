// NoECC, conventional on-die SEC ("IECC"), and the rank-level SEC-DED
// wrapper. XED and DUO live in their own translation units; PAIR lives in
// src/core.
#include <stdexcept>

#include "ecc/scheme.hpp"
#include "ecc/schemes_internal.hpp"
#include "hamming/hamming.hpp"

#include "util/contract.hpp"

namespace pair_ecc::ecc {

// Default scrubs go through the Do* virtuals directly: internal scrub
// traffic is not host traffic, so it must not inflate the host-operation
// counters the public NVI wrappers maintain (see scheme.hpp).
void Scheme::DoScrubLine(const dram::Address& addr) {
  const ReadResult read = DoReadLine(addr);
  if (read.claim != Claim::kDetected) DoWriteLine(addr, read.data);
}

void Scheme::DoScrubRowFull(unsigned bank, unsigned row) {
  const unsigned cols = rank().geometry().device.ColumnsPerRow();
  for (unsigned col = 0; col < cols; ++col) DoScrubLine({bank, row, col});
}

bool Scheme::DoMarkDeviceErased(unsigned) { return false; }

// Batch defaults: the per-line loop is the semantic definition; schemes
// with a batch codec override these with something observably identical.
void Scheme::DoWriteLines(std::span<const dram::Address> addrs,
                          std::span<const util::BitVec> lines) {
  PAIR_DCHECK(addrs.size() == lines.size(), "span extents rechecked in NVI");
  for (std::size_t i = 0; i < addrs.size(); ++i)
    DoWriteLine(addrs[i], lines[i]);
}

void Scheme::DoReadLines(std::span<const dram::Address> addrs,
                         std::span<ReadResult> results) {
  PAIR_DCHECK(addrs.size() == results.size(), "span extents rechecked in NVI");
  for (std::size_t i = 0; i < addrs.size(); ++i)
    results[i] = DoReadLine(addrs[i]);
}

std::string ToString(Claim claim) {
  switch (claim) {
    case Claim::kClean:     return "clean";
    case Claim::kCorrected: return "corrected";
    case Claim::kDetected:  return "detected";
  }
  return "unknown";
}

std::string ToString(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kNoEcc:       return "No-ECC";
    case SchemeKind::kIecc:        return "IECC";
    case SchemeKind::kSecDed:      return "SECDED";
    case SchemeKind::kIeccSecDed:  return "IECC+SECDED";
    case SchemeKind::kXed:         return "XED";
    case SchemeKind::kDuo:         return "DUO";
    case SchemeKind::kPair2:       return "PAIR-2";
    case SchemeKind::kPair4:       return "PAIR-4";
    case SchemeKind::kPair4SecDed: return "PAIR-4+SECDED";
  }
  return "unknown";
}

namespace {

// ---------------------------------------------------------------------------
// NoEcc: raw storage, always claims clean.
// ---------------------------------------------------------------------------

class NoEccScheme final : public Scheme {
 public:
  explicit NoEccScheme(dram::Rank& rank) : Scheme(rank) {}

  std::string Name() const override { return "No-ECC"; }

  PerfDescriptor Perf() const override { return {}; }

  void DoWriteLine(const dram::Address& addr, const util::BitVec& line) override {
    rank().WriteLine(addr, line);
  }

  ReadResult DoReadLine(const dram::Address& addr) override {
    ReadResult r;
    r.data = rank().ReadLine(addr);
    return r;
  }
};

// ---------------------------------------------------------------------------
// IeccScheme: conventional on-die ECC (OnDieSec) in every data device. Every
// write narrower than the 128-bit codeword is a partial-codeword write: the
// die senses the buddy half, re-encodes, and rewrites parity — the internal
// read-modify-write that costs performance.
// ---------------------------------------------------------------------------

class IeccScheme final : public Scheme {
 public:
  explicit IeccScheme(dram::Rank& rank)
      : Scheme(rank), sec_(rank.geometry().device) {}

  std::string Name() const override { return "IECC"; }

  PerfDescriptor Perf() const override {
    PerfDescriptor p;
    // The internal RMW exists only while the write is narrower than the
    // codeword (DDR4 x8 BL8: 64-bit writes into 128-bit words). With a
    // BL16 access the codeword is written whole and the penalty vanishes —
    // the DDR5 design point.
    p.write_rmw = rank().geometry().device.AccessBits() < OnDieSec::kWordBits;
    p.read_decode_ns = 1.9;      // SEC syndrome + correct, on-die
    p.write_encode_ns = 1.9;
    p.storage_overhead = sec_.code().Overhead();
    return p;
  }

  void DoWriteLine(const dram::Address& addr, const util::BitVec& line) override {
    for (unsigned d = 0; d < rank().DataDevices(); ++d)
      sec_.WriteColumn(rank().device(d), addr, rank().DeviceSlice(line, d));
  }

  ReadResult DoReadLine(const dram::Address& addr) override {
    ReadResult result;
    result.data = util::BitVec(rank().geometry().LineBits());
    for (unsigned d = 0; d < rank().DataDevices(); ++d) {
      const OnDieSec::Column col = sec_.ReadColumn(rank().device(d), addr);
      result.Fold(col.status);
      rank().SetDeviceSlice(result.data, d, col.bits);
    }
    return result;
  }

 private:
  OnDieSec sec_;
};

// ---------------------------------------------------------------------------
// RankSecDedScheme: classic (72,64)-style SEC-DED across the rank, layered
// over an inner scheme. Each bus beat's 64 data bits are protected by 8
// parity bits stored in the sidecar device (the standard ECC-DIMM layout:
// parity travels on the dedicated bus lanes, costing no extra beats).
// ---------------------------------------------------------------------------

class RankSecDedScheme final : public Scheme {
 public:
  RankSecDedScheme(dram::Rank& rank, std::unique_ptr<Scheme> inner)
      : Scheme(rank),
        inner_(std::move(inner)),
        code_(rank.DataDevices() * rank.geometry().device.dq_pins,
              /*extended=*/true) {
    PAIR_CHECK(rank.EccDevices() >= 1, "SECDED: rank has no sidecar device");
    PAIR_CHECK(code_.ParityBits() <= rank.geometry().device.dq_pins, "SECDED: parity does not fit the sidecar device's beat width");
  }

  std::string Name() const override {
    return inner_->Name() == "No-ECC" ? "SECDED" : inner_->Name() + "+SECDED";
  }

  PerfDescriptor Perf() const override {
    PerfDescriptor p = inner_->Perf();
    p.read_decode_ns += 1.5;  // rank SEC-DED at the controller, pipelined
    p.write_encode_ns += 1.0;
    p.storage_overhead += static_cast<double>(code_.ParityBits()) /
                          static_cast<double>(code_.k());
    return p;
  }

  void DoWriteLine(const dram::Address& addr, const util::BitVec& line) override {
    inner_->WriteLine(addr, line);
    const auto& g = rank().geometry().device;
    util::BitVec parity_col(g.AccessBits());
    for (unsigned beat = 0; beat < g.burst_length; ++beat) {
      const util::BitVec data = GatherBeat(line, beat);
      const util::BitVec cw = code_.Encode(data);
      parity_col.Splice(beat * g.dq_pins,
                        cw.Slice(code_.k(), code_.ParityBits()));
    }
    rank().device(EccDevice()).WriteColumn(addr, parity_col);
  }

  void DoScrubLine(const dram::Address& addr) override {
    // Let the inner (on-die) scheme repair its own codewords first; then a
    // read-and-writeback through this wrapper refreshes the rank parity.
    // After the inner scrub the stored data is clean, so the writeback's
    // incremental updates (if any) are no-ops on the inner check symbols.
    inner_->ScrubLine(addr);
    Scheme::DoScrubLine(addr);
  }

  ReadResult DoReadLine(const dram::Address& addr) override {
    ReadResult result = inner_->ReadLine(addr);
    if (result.claim == Claim::kDetected) return result;  // chip-level DUE

    const auto& g = rank().geometry().device;
    const util::BitVec parity_col =
        rank().device(EccDevice()).ReadColumn(addr);
    for (unsigned beat = 0; beat < g.burst_length; ++beat) {
      util::BitVec& cw = cw_;  // fully overwritten below
      cw.Splice(0, GatherBeat(result.data, beat));
      cw.Splice(code_.k(),
                parity_col.Slice(beat * g.dq_pins, code_.ParityBits()));
      const auto decode = code_.Decode(cw);
      if (decode.status == hamming::HammingStatus::kCorrected &&
          decode.corrected_bit < code_.k())
        result.data.Flip(LineBitOf(beat, decode.corrected_bit));
      result.Fold(decode.status);
    }
    return result;
  }

 private:
  unsigned EccDevice() const { return rank().DataDevices(); }

  /// Line bit carrying (beat, i-th bus lane) under the device-major layout.
  unsigned LineBitOf(unsigned beat, unsigned lane) const {
    const auto& g = rank().geometry().device;
    const unsigned device = lane / g.dq_pins;
    const unsigned pin = lane % g.dq_pins;
    return device * g.AccessBits() + beat * g.dq_pins + pin;
  }

  util::BitVec GatherBeat(const util::BitVec& line, unsigned beat) const {
    util::BitVec out(code_.k());
    for (unsigned lane = 0; lane < code_.k(); ++lane)
      out.Set(lane, line.Get(LineBitOf(beat, lane)));
    return out;
  }

  std::unique_ptr<Scheme> inner_;
  hamming::HammingCode code_;
  // Reusable beat codeword; single-threaded per instance, fully overwritten
  // on every use.
  util::BitVec cw_{code_.n()};
};

}  // namespace

OnDieSec::OnDieSec(const dram::DeviceGeometry& g)
    : code_(hamming::HammingCode::OnDie136()) {
  PAIR_CHECK(g.row_bits % kWordBits == 0,
             "on-die SEC: row must hold whole 128-bit words");
  PAIR_CHECK(kWordBits % g.AccessBits() == 0,
             "on-die SEC: column access must divide the word");
  PAIR_CHECK((g.row_bits / kWordBits) * code_.ParityBits() <= g.spare_row_bits,
             "on-die SEC: spare region too small for parity");
}

unsigned OnDieSec::Sense(const dram::Device& dev, const dram::Address& addr) {
  const auto& g = dev.geometry();
  const unsigned word = addr.col / (kWordBits / g.AccessBits());
  cw_.Splice(0, dev.ReadBits(addr.bank, addr.row, word * kWordBits, kWordBits));
  cw_.Splice(kWordBits, dev.ReadBits(addr.bank, addr.row,
                                     g.row_bits + word * code_.ParityBits(),
                                     code_.ParityBits()));
  return word;
}

void OnDieSec::WriteColumn(dram::Device& dev, const dram::Address& addr,
                           const util::BitVec& column) {
  const auto& g = dev.geometry();
  const unsigned word = Sense(dev, addr);
  const unsigned slot = addr.col % (kWordBits / g.AccessBits());
  code_.Decode(cw_);  // best effort; may itself miscorrect on multi-bit
  util::BitVec word_bits = cw_.Slice(0, kWordBits);
  word_bits.Splice(slot * g.AccessBits(), column);
  const util::BitVec reenc = code_.Encode(word_bits);
  // Restore the whole corrected word, not just the written column.
  dev.WriteBits(addr.bank, addr.row, word * kWordBits, word_bits);
  dev.WriteBits(addr.bank, addr.row, g.row_bits + word * code_.ParityBits(),
                reenc.Slice(kWordBits, code_.ParityBits()));
}

OnDieSec::Column OnDieSec::ReadColumn(const dram::Device& dev,
                                      const dram::Address& addr) {
  const auto& g = dev.geometry();
  Sense(dev, addr);
  const unsigned slot = addr.col % (kWordBits / g.AccessBits());
  const hamming::HammingStatus status = code_.Decode(cw_).status;
  return {cw_.Slice(slot * g.AccessBits(), g.AccessBits()), status};
}

std::unique_ptr<Scheme> MakeNoEcc(dram::Rank& rank) {
  return std::make_unique<NoEccScheme>(rank);
}

std::unique_ptr<Scheme> MakeIecc(dram::Rank& rank) {
  return std::make_unique<IeccScheme>(rank);
}

std::unique_ptr<Scheme> MakeRankSecDed(dram::Rank& rank,
                                       std::unique_ptr<Scheme> inner) {
  return std::make_unique<RankSecDedScheme>(rank, std::move(inner));
}

}  // namespace pair_ecc::ecc
