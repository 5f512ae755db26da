// Fixed-size dynamic bit vector used as the universal data container for
// codewords, DRAM row images and fault masks.
//
// std::vector<bool> is avoided (no data(), proxy references); this class
// stores 64-bit words, supports XOR composition (error injection is XOR),
// popcount, and sub-range extraction, which are the operations the codecs
// and the fault injector need on their hot paths. Range operations
// (GetWord/SetWord, Slice/Splice/SpliceFrom) shift and mask whole words.
// Bits past size() in the last storage word are always zero.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/contract.hpp"

namespace pair_ecc::util {

class BitVec {
 public:
  BitVec() = default;

  /// Creates an all-zero vector of `size` bits.
  explicit BitVec(std::size_t size) : size_(size), words_((size + 63) / 64) {}

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  bool Get(std::size_t i) const noexcept {
    PAIR_DCHECK(i < size_, "bit " << i << " out of " << size_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void Set(std::size_t i, bool value) noexcept {
    PAIR_DCHECK(i < size_, "bit " << i << " out of " << size_);
    const std::uint64_t mask = std::uint64_t{1} << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  void Flip(std::size_t i) noexcept {
    PAIR_DCHECK(i < size_, "bit " << i << " out of " << size_);
    words_[i >> 6] ^= std::uint64_t{1} << (i & 63);
  }

  /// Number of set bits.
  std::size_t Popcount() const noexcept {
    std::size_t n = 0;
    for (auto w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
    return n;
  }

  bool AnySet() const noexcept {
    for (auto w : words_)
      if (w != 0) return true;
    return false;
  }

  /// In-place XOR with another vector of identical size (error injection,
  /// parity accumulation). Asserts on size mismatch.
  BitVec& operator^=(const BitVec& other) noexcept {
    PAIR_DCHECK(size_ == other.size_,
                "XOR of " << size_ << "-bit and " << other.size_ << "-bit vectors");
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
    return *this;
  }

  friend BitVec operator^(BitVec a, const BitVec& b) noexcept {
    a ^= b;
    return a;
  }

  friend bool operator==(const BitVec& a, const BitVec& b) noexcept {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

  /// Indices of all set bits, ascending.
  std::vector<std::size_t> SetBits() const {
    std::vector<std::size_t> out;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int tz = __builtin_ctzll(bits);
        out.push_back(w * 64 + static_cast<std::size_t>(tz));
        bits &= bits - 1;
      }
    }
    return out;
  }

  /// Extracts `count` bits starting at `offset` into a new vector.
  BitVec Slice(std::size_t offset, std::size_t count) const {
    PAIR_DCHECK(offset + count <= size_,
                "slice [" << offset << ", " << offset + count << ") out of " << size_);
    BitVec out(count);
    for (std::size_t w = 0; w < out.words_.size(); ++w)
      out.words_[w] = GetWord(offset + w * 64, std::min<std::size_t>(64, count - w * 64));
    return out;
  }

  /// Overwrites bits [offset, offset+src.size()) with `src`.
  void Splice(std::size_t offset, const BitVec& src) {
    PAIR_DCHECK(offset + src.size() <= size_,
                "splice [" << offset << ", " << offset + src.size() << ") out of " << size_);
    for (std::size_t w = 0; w < src.words_.size(); ++w)
      SetWord(offset + w * 64, std::min<std::size_t>(64, src.size_ - w * 64),
              src.words_[w]);
  }

  /// Overwrites bits [offset, offset+count) with `src`'s bits
  /// [src_offset, src_offset+count): Splice of a range, with no Slice.
  void SpliceFrom(std::size_t offset, const BitVec& src, std::size_t src_offset,
                  std::size_t count) noexcept {
    PAIR_DCHECK(src_offset + count <= src.size_,
                "splice source [" << src_offset << ", " << src_offset + count
                                  << ") out of " << src.size_);
    for (std::size_t at = 0; at < count; at += 64) {
      const std::size_t n = std::min<std::size_t>(64, count - at);
      SetWord(offset + at, n, src.GetWord(src_offset + at, n));
    }
  }

  /// The storage words, bit i being bit i % 64 of word i / 64; the last
  /// word's bits past size() read as zero.
  std::span<const std::uint64_t> Words() const noexcept { return words_; }

  /// Reads `count` bits (count <= 64) starting at `offset` as an integer,
  /// bit `offset` becoming the least-significant bit.
  std::uint64_t GetWord(std::size_t offset, std::size_t count) const noexcept {
    PAIR_DCHECK(count <= 64 && offset + count <= size_,
                "word access [" << offset << ", +" << count << ") out of " << size_);
    if (count == 0) return 0;
    const std::size_t w = offset >> 6;
    const std::size_t shift = offset & 63;
    std::uint64_t v = words_[w] >> shift;
    if (shift + count > 64) v |= words_[w + 1] << (64 - shift);
    return v & LowMask(count);
  }

  /// Writes the low `count` bits of `value` (count <= 64) at `offset`;
  /// every other bit, the tail past size() included, keeps its value.
  void SetWord(std::size_t offset, std::size_t count, std::uint64_t value) noexcept {
    PAIR_DCHECK(count <= 64 && offset + count <= size_,
                "word access [" << offset << ", +" << count << ") out of " << size_);
    if (count == 0) return;
    const std::uint64_t mask = LowMask(count);
    value &= mask;
    const std::size_t w = offset >> 6;
    const std::size_t shift = offset & 63;
    words_[w] = (words_[w] & ~(mask << shift)) | (value << shift);
    if (shift + count > 64) {
      const std::size_t spill = 64 - shift;
      words_[w + 1] = (words_[w + 1] & ~(mask >> spill)) | (value >> spill);
    }
  }

  /// "0101..." rendering, bit 0 first; for diagnostics and test failure text.
  std::string ToString() const {
    std::string s;
    s.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) s.push_back(Get(i) ? '1' : '0');
    return s;
  }

  /// Fills from a RNG (random payload generation in tests/benches).
  template <typename Rng>
  static BitVec Random(std::size_t size, Rng& rng) {
    BitVec v(size);
    for (std::size_t w = 0; w < v.words_.size(); ++w) v.words_[w] = rng();
    v.MaskTail();
    return v;
  }

 private:
  static std::uint64_t LowMask(std::size_t count) noexcept {
    return count == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
  }

  void MaskTail() noexcept {
    const std::size_t tail = size_ & 63;
    if (tail != 0 && !words_.empty())
      words_.back() &= (std::uint64_t{1} << tail) - 1;
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace pair_ecc::util
