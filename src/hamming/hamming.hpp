// Binary Hamming SEC and extended-Hamming SEC-DED codecs.
//
// These model (a) the conventional in-DRAM ECC the paper argues against —
// a (136,128) single-error-correcting Hamming code per internal 128-bit
// fetch — and (b) the classic (72,64) SEC-DED rank-level ECC used as the
// sidecar code in several baseline configurations.
//
// The decoder faithfully reproduces the *miscorrection* behaviour that
// motivates PAIR: a multi-bit error whose syndrome aliases onto a valid bit
// position is "corrected" into a third wrong bit and reported as a clean
// single-bit fix. The reliability layer classifies that against ground
// truth as silent data corruption.
//
// Syndrome and parity are computed a storage word at a time: syndrome bit j
// is the parity of the codeword ANDed with a precomputed mask of the bits
// whose Hamming position has bit j set, so a (136,128) syndrome is 24
// AND/XOR steps and 8 parities, and the k = 512 ablation code needs no
// per-byte table.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bitvec.hpp"

namespace pair_ecc::hamming {

enum class HammingStatus : std::uint8_t {
  kNoError,     // syndrome zero
  kCorrected,   // single-bit syndrome; one bit flipped (may be a miscorrection)
  kDetected,    // non-zero syndrome that cannot be a single-bit error
};

struct HammingResult {
  HammingStatus status = HammingStatus::kNoError;
  // Codeword index flipped when status == kCorrected.
  unsigned corrected_bit = 0;
};

/// Hamming code over k data bits; `extended` adds an overall parity bit for
/// double-error detection (SEC-DED). Codeword layout is systematic: data
/// bits [0, k), then parity bits, then (if extended) the overall parity.
class HammingCode {
 public:
  /// Throws std::invalid_argument if k == 0.
  explicit HammingCode(unsigned k, bool extended = false);

  /// Conventional on-die ECC of modern DRAM: SEC (136,128).
  static HammingCode OnDie136() { return HammingCode(128, /*extended=*/false); }
  /// Rank-level sidecar ECC: SEC-DED (72,64).
  static HammingCode SecDed72() { return HammingCode(64, /*extended=*/true); }

  unsigned k() const noexcept { return k_; }
  unsigned n() const noexcept { return n_; }
  unsigned ParityBits() const noexcept { return n_ - k_; }
  bool extended() const noexcept { return extended_; }
  double Overhead() const noexcept {
    return static_cast<double>(n_ - k_) / static_cast<double>(k_);
  }

  /// Encodes k data bits into an n-bit codeword.
  util::BitVec Encode(const util::BitVec& data) const;

  /// Rewrites the parity bits (and the overall parity, if extended) of the
  /// n-bit `word` from its data bits [0, k), which it leaves as they are.
  void EncodeInPlace(util::BitVec& word) const;

  /// Decodes in place. On kCorrected the word is a codeword again (though
  /// possibly the wrong one if >1 bit was in error); on kDetected the word
  /// is untouched.
  HammingResult Decode(util::BitVec& word) const;

  /// Extracts the data bits from a codeword.
  util::BitVec ExtractData(const util::BitVec& word) const;

  bool IsCodeword(const util::BitVec& word) const;

  /// Exact probability that a uniformly random double-bit error pattern is
  /// miscorrected (aliases to a single-bit syndrome) — computed by
  /// enumeration. Used by the T2 miscorrection table.
  double DoubleErrorMiscorrectionRate() const;

 private:
  unsigned Syndrome(const util::BitVec& word) const;
  /// Parity of all n bits of `word`.
  static bool Parity(const util::BitVec& word) noexcept;

  unsigned k_;
  bool extended_;
  unsigned hamming_parity_;  // parity bits excluding the overall-parity bit
  unsigned n_;
  // position_[i]: Hamming position (1-based) of codeword bit i, for the
  // non-extended portion. Parity bits sit at power-of-two positions.
  std::vector<unsigned> position_;
  // index_of_position_[p]: codeword bit index holding Hamming position p.
  std::vector<unsigned> index_of_position_;
  // syndrome_masks_[j * words + w]: bit i set when codeword bit 64w + i's
  // Hamming position has bit j set (words = the codeword's storage words).
  std::vector<std::uint64_t> syndrome_masks_;
};

}  // namespace pair_ecc::hamming
