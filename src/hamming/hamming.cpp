#include "hamming/hamming.hpp"

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
}

util::BitVec HammingCode::Encode(const util::BitVec& data) const {
  PAIR_CHECK(data.size() == k_, "HammingCode::Encode: wrong data length");
  util::BitVec cw(n_);
  unsigned syndrome_acc = 0;
  for (unsigned d = 0; d < k_; ++d) {
    if (data.Get(d)) {
      cw.Set(d, true);
      syndrome_acc ^= position_[d];
    }
  }
  // Parity bit j makes syndrome bit j zero.
  for (unsigned j = 0; j < hamming_parity_; ++j)
    cw.Set(k_ + j, (syndrome_acc >> j) & 1u);
  if (extended_) {
    bool overall = false;
    for (unsigned i = 0; i + 1 < n_; ++i) overall ^= cw.Get(i);
    cw.Set(n_ - 1, overall);
  }
  return cw;
}

unsigned HammingCode::Syndrome(const util::BitVec& word) const {
  unsigned s = 0;
  const unsigned base_n = k_ + hamming_parity_;
  for (unsigned i = 0; i < base_n; ++i)
    if (word.Get(i)) s ^= position_[i];
  return s;
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
  bool parity = false;
  for (unsigned i = 0; i < n_; ++i) parity ^= word.Get(i);

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
  if (extended_) {
    bool parity = false;
    for (unsigned i = 0; i < n_; ++i) parity ^= word.Get(i);
    if (parity) return false;
  }
  return true;
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
