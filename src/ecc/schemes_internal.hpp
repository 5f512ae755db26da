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
/// region. Holds a reusable codeword buffer, so an instance belongs to one
/// single-threaded Scheme (the trial engine builds one per worker).
class OnDieSec {
 public:
  static constexpr unsigned kWordBits = 128;

  /// Checks that `geometry` holds whole words, that a column access
  /// divides a word and that the spare region holds every word's parity.
  explicit OnDieSec(const dram::DeviceGeometry& geometry);

  const hamming::HammingCode& code() const noexcept { return code_; }

  /// Writes one column through the on-die code. The codeword is wider than
  /// a column access on a BL8 die (64 bits on x8), so this is the internal
  /// read-CORRECT-modify-write: the covering word is sensed and decoded
  /// before the column is spliced in, since re-encoding over a stale error
  /// would launder it into a valid-looking corrupted codeword.
  void WriteColumn(dram::Device& dev, const dram::Address& addr,
                   const util::BitVec& column);

  struct Column {
    util::BitVec bits;
    hamming::HammingStatus status;
  };

  /// Decodes the word covering the column and returns the column's slice.
  /// Single-bit errors are repaired; multi-bit errors either alias to a
  /// wrong single-bit syndrome (miscorrection, adding a third error
  /// silently) or fall outside the position range (kDetected, the word
  /// left as sensed, so the slice is the raw column).
  Column ReadColumn(const dram::Device& dev, const dram::Address& addr);

 private:
  /// Senses the word covering `addr`'s column and its parity into cw_
  /// (fully overwritten); returns the word's index within the row.
  unsigned Sense(const dram::Device& dev, const dram::Address& addr);

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
