// Construction helpers shared between the scheme implementation files and
// the MakeScheme factory (which lives in src/core, the top-level library,
// because it must also construct PAIR). Not part of the public API.
#pragma once

#include <memory>

#include "ecc/scheme.hpp"
#include "hamming/hamming.hpp"

namespace pair_ecc::ecc {

/// Conventional on-die SEC, the one word path of IECC and XED: a device
/// protects every aligned 128-bit internal-fetch word of a row with a
/// (136,128) SEC Hamming code whose 8 parity bits live in the row's spare
/// region. Columns travel as bits [at, at + AccessBits) of the caller's
/// line, and each access resolves the device row once and moves the word
/// through it 64 bits at a time, so a column costs no allocation. Holds a reusable codeword buffer, so an
/// instance belongs to one single-threaded Scheme (the trial engine builds
/// one per worker).
class OnDieSec {
 public:
  static constexpr unsigned kWordBits = 128;

  /// Checks that `geometry` holds whole words, that a column access
  /// divides a word and that the spare region holds every word's parity.
  explicit OnDieSec(const dram::DeviceGeometry& geometry);

  const hamming::HammingCode& code() const noexcept { return code_; }

  /// Writes bits [at, at + AccessBits) of `line` as `addr`'s column of
  /// `dev` through the on-die code. Where the codeword is wider than a
  /// column access (BL8 x4/x8: 32 or 64 bits) this is the internal
  /// read-CORRECT-modify-write: the covering word is sensed and decoded
  /// before the column is spliced in, since re-encoding over a stale error
  /// would launder it into a valid-looking corrupted codeword. A column as
  /// wide as the word (DDR5 x8 BL16, HBM3 x16 BL8) senses nothing: the
  /// write replaces every data bit and recomputes the parity from them, so
  /// what was stored, errors and all, cannot reach the result, and the
  /// stored bits are the same as after a sense and decode.
  void WriteColumn(dram::Device& dev, const dram::Address& addr,
                   const util::BitVec& line, unsigned at);

  /// Decodes the word covering `addr`'s column of `dev` and delivers the
  /// column into bits [at, at + AccessBits) of `line`. Single-bit errors
  /// are repaired; multi-bit errors either alias to a wrong single-bit
  /// syndrome (miscorrection, adding a third error silently) or fall
  /// outside the position range (kDetected, the word left as sensed, so
  /// the column is the raw one).
  hamming::HammingStatus ReadColumn(const dram::Device& dev,
                                    const dram::Address& addr,
                                    util::BitVec& line, unsigned at);

 private:
  /// The index within its row of the word covering column `col`; throws
  /// std::out_of_range for a column past the row.
  static unsigned WordOf(const dram::DeviceGeometry& g, unsigned col) {
    return g.ColumnBit(col) / kWordBits;
  }

  /// Senses word `word` of `row` and its parity into cw_ (fully
  /// overwritten); a null `row` is an untouched one and senses zero.
  void Sense(const dram::Device::Row* row, const dram::DeviceGeometry& g,
             unsigned word);

  hamming::HammingCode code_;
  util::BitVec cw_{code_.n()};
};

std::unique_ptr<Scheme> MakeNoEcc(dram::Rank& rank);
std::unique_ptr<Scheme> MakeIecc(dram::Rank& rank);
std::unique_ptr<Scheme> MakeXed(dram::Rank& rank);
std::unique_ptr<Scheme> MakeDuo(dram::Rank& rank);

/// Wraps `inner` with a rank-level SEC-DED (72,64)-style code whose parity
/// lives in the first sidecar device.
std::unique_ptr<Scheme> MakeRankSecDed(dram::Rank& rank,
                                       std::unique_ptr<Scheme> inner);

}  // namespace pair_ecc::ecc
