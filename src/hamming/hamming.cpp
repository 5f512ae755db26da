#include "hamming/hamming.hpp"

#include <span>
#include <stdexcept>

#include "util/contract.hpp"

namespace pair_ecc::hamming {

namespace {

bool IsPowerOfTwo(unsigned v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

HammingCode::HammingCode(unsigned k, bool extended)
    : k_(k), extended_(extended) {
  PAIR_CHECK(k != 0, "HammingCode: k must be > 0");

  // Smallest p with 2^p >= k + p + 1.
  unsigned p = 1;
  while ((1u << p) < k + p + 1) ++p;
  hamming_parity_ = p;
  const unsigned base_n = k + p;
  n_ = base_n + (extended_ ? 1 : 0);

  // Codeword layout: data bits 0..k-1 take the non-power-of-two Hamming
  // positions in ascending order; parity bit j (codeword index k+j) takes
  // position 2^j. The optional overall-parity bit has no Hamming position.
  position_.assign(base_n, 0);
  index_of_position_.assign(base_n + 1, 0);
  unsigned pos = 1;
  for (unsigned d = 0; d < k; ++d) {
    while (IsPowerOfTwo(pos)) ++pos;
    position_[d] = pos;
    index_of_position_[pos] = d;
    ++pos;
  }
  for (unsigned j = 0; j < p; ++j) {
    position_[k + j] = 1u << j;
    index_of_position_[1u << j] = k + j;
  }

  const unsigned words = (n_ + 63) / 64;
  syndrome_masks_.assign(p * words, 0);
  for (unsigned i = 0; i < base_n; ++i) {
    for (unsigned bits = position_[i]; bits != 0; bits &= bits - 1) {
      const auto j = static_cast<unsigned>(__builtin_ctz(bits));
      syndrome_masks_[j * words + i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
}

util::BitVec HammingCode::Encode(const util::BitVec& data) const {
  PAIR_CHECK(data.size() == k_, "HammingCode::Encode: wrong data length");
  util::BitVec cw(n_);
  cw.Splice(0, data);
  EncodeInPlace(cw);
  return cw;
}

void HammingCode::EncodeInPlace(util::BitVec& word) const {
  PAIR_CHECK(word.size() == n_, "HammingCode::EncodeInPlace: wrong word length");
  // Parity bit j sits at position 2^j, so it adds exactly bit j to the
  // syndrome: the data bits' syndrome is the whole word's syndrome with
  // the stored parity bits XORed back out. Parity bit j makes syndrome
  // bit j zero.
  word.SetWord(k_, hamming_parity_,
               Syndrome(word) ^ word.GetWord(k_, hamming_parity_));
  if (extended_) word.Set(n_ - 1, Parity(word) != word.Get(n_ - 1));
}

unsigned HammingCode::Syndrome(const util::BitVec& word) const {
  const std::span<const std::uint64_t> words = word.Words();
  const std::uint64_t* mask = syndrome_masks_.data();
  unsigned s = 0;
  for (unsigned j = 0; j < hamming_parity_; ++j) {
    std::uint64_t acc = 0;
    for (const std::uint64_t w : words) acc ^= w & *mask++;
    s |= static_cast<unsigned>(__builtin_parityll(acc)) << j;
  }
  return s;
}

bool HammingCode::Parity(const util::BitVec& word) noexcept {
  std::uint64_t acc = 0;
  for (const std::uint64_t w : word.Words()) acc ^= w;
  return __builtin_parityll(acc) != 0;
}

HammingResult HammingCode::Decode(util::BitVec& word) const {
  PAIR_CHECK(word.size() == n_, "HammingCode::Decode: wrong word length");

  const unsigned s = Syndrome(word);
  HammingResult result;

  if (!extended_) {
    if (s == 0) return result;
    if (s <= k_ + hamming_parity_) {
      const unsigned idx = index_of_position_[s];
      word.Flip(idx);
      result.status = HammingStatus::kCorrected;
      result.corrected_bit = idx;
    } else {
      // Syndrome outside the position range: cannot be one bit.
      result.status = HammingStatus::kDetected;
    }
    return result;
  }

  // Extended (SEC-DED): overall parity distinguishes odd- from even-weight
  // error patterns.
  const bool parity = Parity(word);

  if (s == 0 && !parity) return result;  // clean (or undetectable pattern)

  if (parity) {
    // Odd number of errors; assume one.
    if (s == 0) {
      // The overall-parity bit itself flipped.
      word.Flip(n_ - 1);
      result.status = HammingStatus::kCorrected;
      result.corrected_bit = n_ - 1;
    } else if (s <= k_ + hamming_parity_) {
      const unsigned idx = index_of_position_[s];
      word.Flip(idx);
      result.status = HammingStatus::kCorrected;
      result.corrected_bit = idx;
    } else {
      result.status = HammingStatus::kDetected;
    }
  } else {
    // Even error count with non-zero syndrome: double error detected.
    result.status = HammingStatus::kDetected;
  }
  return result;
}

util::BitVec HammingCode::ExtractData(const util::BitVec& word) const {
  PAIR_CHECK(word.size() == n_, "HammingCode::ExtractData: wrong word length");
  return word.Slice(0, k_);
}

bool HammingCode::IsCodeword(const util::BitVec& word) const {
  if (word.size() != n_) return false;
  if (Syndrome(word) != 0) return false;
  return !extended_ || !Parity(word);
}

double HammingCode::DoubleErrorMiscorrectionRate() const {
  // For a plain SEC code, a double error at positions (a, b) yields syndrome
  // a ^ b; it is miscorrected iff that syndrome is a valid occupied position
  // (always != 0 since a != b). For SEC-DED, any double error has even
  // parity and is detected, never miscorrected.
  if (extended_) return 0.0;
  const unsigned base_n = k_ + hamming_parity_;
  std::uint64_t miscorrect = 0;
  std::uint64_t total = 0;
  for (unsigned i = 0; i < base_n; ++i) {
    for (unsigned j = i + 1; j < base_n; ++j) {
      ++total;
      const unsigned s = position_[i] ^ position_[j];
      if (s != 0 && s <= base_n) ++miscorrect;
    }
  }
  return static_cast<double>(miscorrect) / static_cast<double>(total);
}

}  // namespace pair_ecc::hamming
