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
    const unsigned access = rank().geometry().device.AccessBits();
    for (unsigned d = 0; d < rank().DataDevices(); ++d)
      sec_.WriteColumn(rank().device(d), addr, line, d * access);
  }

  ReadResult DoReadLine(const dram::Address& addr) override {
    const unsigned access = rank().geometry().device.AccessBits();
    ReadResult result;
    result.data = util::BitVec(rank().geometry().LineBits());
    for (unsigned d = 0; d < rank().DataDevices(); ++d)
      result.Fold(sec_.ReadColumn(rank().device(d), addr, result.data,
                                  d * access));
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
    for (unsigned beat = 0; beat < g.burst_length; ++beat) {
      GatherBeat(line, beat);
      code_.EncodeInPlace(cw_);
      parity_col_.SpliceFrom(beat * g.dq_pins, cw_, code_.k(),
                             code_.ParityBits());
    }
    rank().device(EccDevice()).WriteColumn(addr, parity_col_);
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
      GatherBeat(result.data, beat);
      cw_.SpliceFrom(code_.k(), parity_col, beat * g.dq_pins,
                     code_.ParityBits());
      const auto decode = code_.Decode(cw_);
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

  /// Copies one beat's k bus lanes of `line` into cw_'s data bits: each
  /// device's dq_pins lanes of the beat are adjacent in the line.
  void GatherBeat(const util::BitVec& line, unsigned beat) {
    const auto& g = rank().geometry().device;
    for (unsigned d = 0; d < rank().DataDevices(); ++d)
      cw_.SetWord(d * g.dq_pins, g.dq_pins,
                  line.GetWord(d * g.AccessBits() + beat * g.dq_pins,
                               g.dq_pins));
  }

  std::unique_ptr<Scheme> inner_;
  hamming::HammingCode code_;
  // Reusable beat codeword and parity column; single-threaded per
  // instance. cw_ is fully overwritten on every use; parity_col_'s lanes
  // past each beat's parity bits stay zero.
  util::BitVec cw_{code_.n()};
  util::BitVec parity_col_{rank().geometry().device.AccessBits()};
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

void OnDieSec::Sense(const dram::Device& dev, const dram::Address& addr) {
  const auto& g = dev.geometry();
  const unsigned word = WordOf(g, addr.col);
  for (unsigned at = 0; at < kWordBits; at += 64)
    cw_.SetWord(at, 64,
                dev.ReadWord(addr.bank, addr.row, word * kWordBits + at, 64));
  cw_.SetWord(kWordBits, code_.ParityBits(),
              dev.ReadWord(addr.bank, addr.row,
                           g.row_bits + word * code_.ParityBits(),
                           code_.ParityBits()));
}

void OnDieSec::WriteColumn(dram::Device& dev, const dram::Address& addr,
                           const util::BitVec& line, unsigned at) {
  const auto& g = dev.geometry();
  const unsigned access = g.AccessBits();
  const unsigned word = WordOf(g, addr.col);
  if (access < kWordBits) {
    Sense(dev, addr);
    code_.Decode(cw_);  // best effort; may itself miscorrect on multi-bit
  }
  cw_.SpliceFrom(addr.col * access % kWordBits, line, at, access);
  code_.EncodeInPlace(cw_);
  // Restore the whole corrected word, not just the written column.
  for (unsigned bit = 0; bit < kWordBits; bit += 64)
    dev.WriteWord(addr.bank, addr.row, word * kWordBits + bit, 64,
                  cw_.GetWord(bit, 64));
  dev.WriteWord(addr.bank, addr.row, g.row_bits + word * code_.ParityBits(),
                code_.ParityBits(), cw_.GetWord(kWordBits, code_.ParityBits()));
}

hamming::HammingStatus OnDieSec::ReadColumn(const dram::Device& dev,
                                            const dram::Address& addr,
                                            util::BitVec& line, unsigned at) {
  const unsigned access = dev.geometry().AccessBits();
  Sense(dev, addr);
  const hamming::HammingStatus status = code_.Decode(cw_).status;
  line.SpliceFrom(at, cw_, addr.col * access % kWordBits, access);
  return status;
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
