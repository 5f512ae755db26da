// Common interface for every memory-protection scheme in the study.
//
// A scheme owns the full data path of one rank: how a cache line is encoded
// on write (and where parity lives — on-die spare region, sidecar chip, or
// both) and how a read is decoded. Schemes report a *claim* about each
// read; the reliability engine compares the delivered line against ground
// truth to classify the claim into the outcome taxonomy (a scheme that
// claims kClean/kCorrected while delivering wrong bits is silent data
// corruption).
//
// Schemes also publish a PerfDescriptor — the handful of mechanical
// overheads (extra burst beats, internal read-modify-write, decode latency)
// through which ECC architecture shows up in the timing simulation. The
// descriptor is the contract between this layer and src/timing.
#pragma once

#include <memory>
#include <span>
#include <string>

#include "dram/rank.hpp"
#include "hamming/hamming.hpp"
#include "rs/rs_code.hpp"
#include "util/bitvec.hpp"
#include "util/contract.hpp"
#include "util/fields.hpp"

namespace pair_ecc::ecc {

/// What the scheme believes happened on a read.
enum class Claim : std::uint8_t {
  kClean,      // no error observed
  kCorrected,  // error observed and (believed) repaired
  kDetected,   // uncorrectable error signalled to the host
};

std::string ToString(Claim claim);

struct ReadResult {
  Claim claim = Claim::kClean;
  /// The cache line as delivered to the host (LineBits wide). On kDetected
  /// it is the best-effort raw data (hosts usually get poison + the bits).
  util::BitVec data;
  /// Diagnostic: symbols (RS) or bits (Hamming) repaired across the line.
  unsigned corrected_units = 0;

  /// Folds one decoded codeword into the line's claim. A Hamming
  /// correction repairs one bit.
  void Fold(hamming::HammingStatus codeword) {
    using hamming::HammingStatus;
    Fold(codeword == HammingStatus::kDetected    ? Claim::kDetected
         : codeword == HammingStatus::kCorrected ? Claim::kCorrected
                                                 : Claim::kClean,
         1);
  }
  /// An RS correction repairs `corrected` symbols.
  void Fold(rs::DecodeStatus codeword, unsigned corrected) {
    using rs::DecodeStatus;
    Fold(codeword == DecodeStatus::kFailure     ? Claim::kDetected
         : codeword == DecodeStatus::kCorrected ? Claim::kCorrected
                                                : Claim::kClean,
         corrected);
  }

 private:
  /// The claim rule of every scheme: a failed codeword makes the line
  /// kDetected; otherwise a corrected one makes it kCorrected (the enum is
  /// ordered clean < corrected < detected). Corrected codewords' units add
  /// up. The fold is order-independent.
  void Fold(Claim codeword, unsigned units) {
    if (codeword == Claim::kCorrected) corrected_units += units;
    if (codeword > claim) claim = codeword;
  }
};

/// Mechanical overheads consumed by the timing model (see src/timing).
struct PerfDescriptor {
  /// Bus beats beyond the base burst per read / write transfer (DUO's
  /// redundancy shipping costs +1 beat each way).
  unsigned extra_read_beats = 0;
  unsigned extra_write_beats = 0;
  /// Writes narrower than the ECC codeword force an internal
  /// read-modify-write cycle inside the die (conventional IECC, XED).
  bool write_rmw = false;
  /// Added latency on the read critical path (decode), nanoseconds.
  double read_decode_ns = 0.0;
  /// Added latency before write data can be committed (encode), ns.
  double write_encode_ns = 0.0;
  /// Parity bits per data bit, for the overhead table (T3).
  double storage_overhead = 0.0;
};

/// Deterministic per-scheme codec event counts, accumulated by the Scheme
/// base class around every host-visible operation (non-virtual-interface
/// wrappers below). A Scheme instance is single-threaded, so the counters
/// are plain integers; the reliability layer harvests them per trial and
/// merges shard-ordered, keeping instrumented runs bitwise reproducible
/// for any thread count (see reliability/engine.hpp).
///
/// For a layered scheme (e.g. PAIR-4+SECDED) the outer scheme's counters
/// record host-level operations; the wrapped inner scheme keeps its own
/// counters for the operations delegated to it.
struct CodecCounters {
  std::uint64_t writes = 0;           ///< WriteLine calls (encodes)
  std::uint64_t decodes = 0;          ///< ReadLine calls
  std::uint64_t claim_clean = 0;      ///< reads claiming kClean
  std::uint64_t claim_corrected = 0;  ///< reads claiming kCorrected
  std::uint64_t claim_detected = 0;   ///< detected-uncorrectable reads
  std::uint64_t corrected_units = 0;  ///< symbols/bits repaired, summed
  std::uint64_t scrub_lines = 0;      ///< ScrubLine calls
  std::uint64_t scrub_rows = 0;       ///< ScrubRowFull calls
  std::uint64_t devices_erased = 0;   ///< successful MarkDeviceErased calls

  static constexpr auto kFields = std::tuple{
      util::Field{&CodecCounters::writes, "writes"},
      util::Field{&CodecCounters::decodes, "decodes"},
      util::Field{&CodecCounters::claim_clean, "claim_clean"},
      util::Field{&CodecCounters::claim_corrected, "claim_corrected"},
      util::Field{&CodecCounters::claim_detected, "claim_detected"},
      util::Field{&CodecCounters::corrected_units, "corrected_units"},
      util::Field{&CodecCounters::scrub_lines, "scrub_lines"},
      util::Field{&CodecCounters::scrub_rows, "scrub_rows"},
      util::Field{&CodecCounters::devices_erased, "devices_erased"},
  };

  /// Counts one ReadLine that returned this claim.
  void CountRead(Claim claim, unsigned units) noexcept {
    ++decodes;
    switch (claim) {
      case Claim::kClean:     ++claim_clean; break;
      case Claim::kCorrected: ++claim_corrected; break;
      case Claim::kDetected:  ++claim_detected; break;
    }
    corrected_units += units;
  }

  CodecCounters& operator+=(const CodecCounters& other) noexcept {
    return util::MergeFields(*this, other);
  }

  friend bool operator==(const CodecCounters&, const CodecCounters&) = default;
};

class Scheme {
 public:
  virtual ~Scheme() = default;

  Scheme(const Scheme&) = delete;
  Scheme& operator=(const Scheme&) = delete;

  virtual std::string Name() const = 0;
  virtual PerfDescriptor Perf() const = 0;

  // Host-visible data path. Non-virtual interface: these wrappers maintain
  // the CodecCounters and delegate to the protected Do* virtuals, so every
  // scheme is instrumented identically and none can forget to count.

  /// Writes one cache line (rank LineBits wide) with all encoding side
  /// effects (parity updates, sidecar-chip writes). A line of another
  /// width throws before any cell is touched.
  void WriteLine(const dram::Address& addr, const util::BitVec& line) {
    CheckLineWidth(line);
    ++counters_.writes;
    DoWriteLine(addr, line);
  }

  /// Reads and decodes one cache line.
  ReadResult ReadLine(const dram::Address& addr) {
    ReadResult result = DoReadLine(addr);
    counters_.CountRead(result.claim, result.corrected_units);
    return result;
  }

  // Batch data path. Semantically identical to calling the per-line
  // wrappers once per address, in order — same stored state, same results,
  // same counter totals. Each scheme implements each operation once: a
  // per-line scheme (No-ECC, IECC, SEC-DED, XED and the ablations)
  // overrides DoWriteLine/DoReadLine and inherits the batch loops, while
  // DUO and PAIR override DoWriteLines/DoReadLines and their per-line
  // virtuals are one-lane calls into them. DUO runs one EncodeBatchInto or
  // rs::DecodeBatch over many lines; PAIR stages each run of addresses on
  // one row once and decodes all its codewords as one batch.

  /// Writes lines[i] to addrs[i] for every i, in order.
  void WriteLines(std::span<const dram::Address> addrs,
                  std::span<const util::BitVec> lines) {
    PAIR_CHECK(addrs.size() == lines.size(),
               "WriteLines got " << addrs.size() << " addresses but "
                                 << lines.size() << " lines");
    for (const util::BitVec& line : lines) CheckLineWidth(line);
    counters_.writes += addrs.size();
    DoWriteLines(addrs, lines);
  }

  /// Reads and decodes addrs[i] into results[i] for every i, in order.
  void ReadLines(std::span<const dram::Address> addrs,
                 std::span<ReadResult> results) {
    PAIR_CHECK(addrs.size() == results.size(),
               "ReadLines got " << addrs.size() << " addresses but "
                                << results.size() << " result slots");
    DoReadLines(addrs, results);
    for (const ReadResult& result : results)
      counters_.CountRead(result.claim, result.corrected_units);
  }

  /// Patrol-scrubs one line: repairs whatever is repairable and restores
  /// clean stored state for transient damage (stuck cells stay stuck).
  void ScrubLine(const dram::Address& addr) {
    ++counters_.scrub_lines;
    DoScrubLine(addr);
  }

  /// Patrol-scrubs an entire row.
  void ScrubRowFull(unsigned bank, unsigned row) {
    ++counters_.scrub_rows;
    DoScrubRowFull(bank, row);
  }

  /// Chip-kill: declares an entire device failed so the scheme treats its
  /// contribution as erasures. Returns true if the scheme supports it with
  /// remaining correction budget (DUO: a full device is 8 of 12 check
  /// symbols' worth of erasures).
  bool MarkDeviceErased(unsigned device) {
    const bool supported = DoMarkDeviceErased(device);
    counters_.devices_erased += supported;
    return supported;
  }

  /// Codec telemetry accumulated since construction.
  /// Note: reads/writes issued internally by Do* implementations (e.g. a
  /// scrub's read-decode-writeback) do not re-enter the public wrappers, so
  /// each host operation counts exactly once.
  const CodecCounters& counters() const noexcept { return counters_; }

  dram::Rank& rank() noexcept { return rank_; }
  const dram::Rank& rank() const noexcept { return rank_; }

 protected:
  explicit Scheme(dram::Rank& rank) : rank_(rank) {}

  virtual void DoWriteLine(const dram::Address& addr,
                           const util::BitVec& line) = 0;
  virtual ReadResult DoReadLine(const dram::Address& addr) = 0;

  /// Default: read, and write the delivered data back unless the line was
  /// flagged uncorrectable. Schemes whose write path is incremental (PAIR's
  /// delta parity) override this with a decode-and-restore that also
  /// refreshes the stored check symbols — a controller-style writeback
  /// through a delta encoder would carry the parity mismatch along instead
  /// of clearing it.
  virtual void DoScrubLine(const dram::Address& addr);

  /// Default: DoScrubLine over every column. PAIR overrides this with a
  /// single decode-and-restore pass over the row's codewords (each codeword
  /// spans many columns, so per-column scrubbing would decode each one
  /// repeatedly).
  virtual void DoScrubRowFull(unsigned bank, unsigned row);

  /// Batch defaults: loop the per-line virtuals. Overrides must be
  /// observably identical to this loop (the WriteLines/ReadLines wrappers
  /// already account the counters, assuming exactly that equivalence).
  virtual void DoWriteLines(std::span<const dram::Address> addrs,
                            std::span<const util::BitVec> lines);
  virtual void DoReadLines(std::span<const dram::Address> addrs,
                           std::span<ReadResult> results);

  /// Default: unsupported.
  virtual bool DoMarkDeviceErased(unsigned device);

 private:
  void CheckLineWidth(const util::BitVec& line) const {
    PAIR_CHECK(line.size() == rank_.geometry().LineBits(),
               Name() << ": a " << line.size() << "-bit line, not "
                      << rank_.geometry().LineBits());
  }

  dram::Rank& rank_;
  CodecCounters counters_;
};

/// Every protection configuration the benchmarks compare.
enum class SchemeKind : std::uint8_t {
  kNoEcc,
  kIecc,         // conventional on-die SEC (136,128)
  kSecDed,       // rank-level SEC-DED (72,64) only
  kIeccSecDed,   // conventional stack: on-die SEC + rank SEC-DED
  kXed,          // exposed on-die detection + RAID-3 XOR chip
  kDuo,          // on-die redundancy shipped to a rank-level RS(76,64)
  kPair2,        // PAIR, RS(34,32) t=1 pin-aligned
  kPair4,        // PAIR, RS(68,64) t=2 pin-aligned (paper default)
  kPair4SecDed,  // PAIR + rank SEC-DED
};

std::string ToString(SchemeKind kind);

/// Every SchemeKind, in declaration order — a plain table next to the
/// MakeScheme switch (core/factory.cpp). Parameterised tests iterate this
/// instead of hand-copying the enum.
std::span<const SchemeKind> AllSchemeKinds() noexcept;

/// Builds a scheme over `rank`. The rank must have the sidecar devices the
/// scheme needs (one ECC device for SECDED/XED/DUO variants).
std::unique_ptr<Scheme> MakeScheme(SchemeKind kind, dram::Rank& rank);

}  // namespace pair_ecc::ecc
