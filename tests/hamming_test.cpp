// Hamming SEC / extended-Hamming SEC-DED tests, including the exhaustive
// miscorrection behaviour the paper's motivation rests on.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hamming/hamming.hpp"
#include "util/rng.hpp"

namespace pair_ecc::hamming {
namespace {

using pair_ecc::util::BitVec;
using pair_ecc::util::Xoshiro256;

class HammingParamTest
    : public ::testing::TestWithParam<std::pair<unsigned, bool>> {
 protected:
  HammingParamTest() : code_(GetParam().first, GetParam().second) {}
  HammingCode code_;
};

TEST_P(HammingParamTest, CodewordSizeIsMinimal) {
  // n = k + p (+1 if extended) with p minimal s.t. 2^p >= k + p + 1.
  const unsigned k = code_.k();
  unsigned p = 1;
  while ((1u << p) < k + p + 1) ++p;
  EXPECT_EQ(code_.n(), k + p + (code_.extended() ? 1 : 0));
}

TEST_P(HammingParamTest, EncodeYieldsCodeword) {
  Xoshiro256 rng(50);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec data = BitVec::Random(code_.k(), rng);
    const BitVec cw = code_.Encode(data);
    EXPECT_TRUE(code_.IsCodeword(cw));
    EXPECT_EQ(code_.ExtractData(cw), data);
  }
}

TEST_P(HammingParamTest, CleanDecodeReportsNoError) {
  Xoshiro256 rng(51);
  BitVec cw = code_.Encode(BitVec::Random(code_.k(), rng));
  const auto res = code_.Decode(cw);
  EXPECT_EQ(res.status, HammingStatus::kNoError);
}

TEST_P(HammingParamTest, EverySingleBitErrorIsCorrected) {
  Xoshiro256 rng(52);
  const BitVec data = BitVec::Random(code_.k(), rng);
  const BitVec clean = code_.Encode(data);
  for (unsigned bit = 0; bit < code_.n(); ++bit) {
    BitVec word = clean;
    word.Flip(bit);
    const auto res = code_.Decode(word);
    ASSERT_EQ(res.status, HammingStatus::kCorrected) << "bit " << bit;
    EXPECT_EQ(res.corrected_bit, bit);
    EXPECT_EQ(word, clean);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HammingParamTest,
    ::testing::Values(std::make_pair(128u, false),  // on-die (136,128) SEC
                      std::make_pair(64u, true),    // rank (72,64) SEC-DED
                      std::make_pair(64u, false),
                      std::make_pair(32u, false),
                      std::make_pair(16u, true),
                      std::make_pair(8u, false),
                      std::make_pair(4u, true),
                      std::make_pair(1u, false)));

TEST(HammingCode, OnDie136HasExpectedGeometry) {
  const auto code = HammingCode::OnDie136();
  EXPECT_EQ(code.k(), 128u);
  EXPECT_EQ(code.n(), 136u);
  EXPECT_EQ(code.ParityBits(), 8u);
  EXPECT_DOUBLE_EQ(code.Overhead(), 0.0625);
}

TEST(HammingCode, SecDed72HasExpectedGeometry) {
  const auto code = HammingCode::SecDed72();
  EXPECT_EQ(code.k(), 64u);
  EXPECT_EQ(code.n(), 72u);
  EXPECT_EQ(code.ParityBits(), 8u);
}

TEST(HammingCode, RejectsZeroK) {
  EXPECT_THROW(HammingCode(0), std::invalid_argument);
}

TEST(HammingCode, RejectsWrongLengths) {
  const auto code = HammingCode::SecDed72();
  BitVec wrong(10);
  EXPECT_THROW(code.Encode(wrong), std::invalid_argument);
  EXPECT_THROW(code.Decode(wrong), std::invalid_argument);
  EXPECT_THROW(code.ExtractData(wrong), std::invalid_argument);
}

// --------------------------------------------------- double-error behaviour

TEST(HammingSec, DoubleErrorsMiscorrectOrDetect_Exhaustive) {
  // For the plain SEC on-die code, every double error must be either
  // miscorrected (reported kCorrected, word now differs from clean in three
  // bits) or detected — never reported clean.
  const auto code = HammingCode::OnDie136();
  Xoshiro256 rng(60);
  const BitVec clean = code.Encode(BitVec::Random(code.k(), rng));
  std::uint64_t miscorrected = 0, detected = 0;
  for (unsigned i = 0; i < code.n(); ++i) {
    for (unsigned j = i + 1; j < code.n(); ++j) {
      BitVec word = clean;
      word.Flip(i);
      word.Flip(j);
      const auto res = code.Decode(word);
      ASSERT_NE(res.status, HammingStatus::kNoError) << i << "," << j;
      if (res.status == HammingStatus::kCorrected) {
        ++miscorrected;
        // Miscorrection adds a third wrong bit (word is a codeword again
        // but not the right one).
        EXPECT_TRUE(code.IsCodeword(word));
        EXPECT_NE(word, clean);
      } else {
        ++detected;
      }
    }
  }
  // The (136,128) SEC code miscorrects the large majority of double errors —
  // the behaviour PAIR's motivation quantifies.
  const double rate = static_cast<double>(miscorrected) /
                      static_cast<double>(miscorrected + detected);
  EXPECT_GT(rate, 0.4);
  EXPECT_LT(rate, 1.0);
  EXPECT_NEAR(rate, code.DoubleErrorMiscorrectionRate(), 1e-12);
}

TEST(HammingSecDed, AllDoubleErrorsDetected_Exhaustive) {
  const auto code = HammingCode::SecDed72();
  Xoshiro256 rng(61);
  const BitVec clean = code.Encode(BitVec::Random(code.k(), rng));
  for (unsigned i = 0; i < code.n(); ++i) {
    for (unsigned j = i + 1; j < code.n(); ++j) {
      BitVec word = clean;
      word.Flip(i);
      word.Flip(j);
      const auto res = code.Decode(word);
      EXPECT_EQ(res.status, HammingStatus::kDetected) << i << "," << j;
      // Word untouched on detection.
      BitVec expect = clean;
      expect.Flip(i);
      expect.Flip(j);
      EXPECT_EQ(word, expect);
    }
  }
  EXPECT_EQ(code.DoubleErrorMiscorrectionRate(), 0.0);
}

TEST(HammingSecDed, TripleErrorsOftenMiscorrect) {
  // SEC-DED guarantees stop at 2 errors: odd-weight >= 3 patterns look like
  // single errors. Verify the codec exhibits (rather than hides) this.
  const auto code = HammingCode::SecDed72();
  Xoshiro256 rng(62);
  const BitVec clean = code.Encode(BitVec::Random(code.k(), rng));
  int miscorrected = 0, total = 0;
  for (int trial = 0; trial < 500; ++trial) {
    BitVec word = clean;
    // Three distinct bits.
    unsigned a = static_cast<unsigned>(rng.UniformBelow(code.n())), b, c;
    do { b = static_cast<unsigned>(rng.UniformBelow(code.n())); } while (b == a);
    do { c = static_cast<unsigned>(rng.UniformBelow(code.n())); } while (c == a || c == b);
    word.Flip(a); word.Flip(b); word.Flip(c);
    const auto res = code.Decode(word);
    ++total;
    if (res.status == HammingStatus::kCorrected && word != clean) ++miscorrected;
  }
  EXPECT_GT(miscorrected, total / 2);
}

TEST(HammingSec, ParityBitErrorsAreCorrectedToo) {
  const auto code = HammingCode::OnDie136();
  Xoshiro256 rng(63);
  const BitVec data = BitVec::Random(code.k(), rng);
  const BitVec clean = code.Encode(data);
  for (unsigned j = code.k(); j < code.n(); ++j) {
    BitVec word = clean;
    word.Flip(j);
    const auto res = code.Decode(word);
    EXPECT_EQ(res.status, HammingStatus::kCorrected);
    EXPECT_EQ(code.ExtractData(word), data);
  }
}

TEST(HammingCode, MiscorrectionRateMatchesCountingArgument) {
  // Independent check for a small code where we can reason by hand:
  // Hamming (7,4): positions 1..7; every XOR of two distinct positions is a
  // valid position, so ALL double errors miscorrect.
  const HammingCode code(4, false);
  EXPECT_EQ(code.n(), 7u);
  EXPECT_DOUBLE_EQ(code.DoubleErrorMiscorrectionRate(), 1.0);
}

TEST(HammingCode, AllZerosAndAllOnesDataRoundTrip) {
  const auto code = HammingCode::OnDie136();
  BitVec zeros(code.k());
  BitVec cw = code.Encode(zeros);
  EXPECT_EQ(code.Decode(cw).status, HammingStatus::kNoError);

  BitVec ones(code.k());
  for (unsigned i = 0; i < code.k(); ++i) ones.Set(i, true);
  cw = code.Encode(ones);
  EXPECT_EQ(code.Decode(cw).status, HammingStatus::kNoError);
  EXPECT_EQ(code.ExtractData(cw), ones);
}

TEST(HammingSecDed, OverallParityBitErrorIsCorrected) {
  const auto code = HammingCode::SecDed72();
  Xoshiro256 rng(64);
  const BitVec clean = code.Encode(BitVec::Random(code.k(), rng));
  BitVec word = clean;
  word.Flip(code.n() - 1);  // the overall-parity bit itself
  const auto res = code.Decode(word);
  EXPECT_EQ(res.status, HammingStatus::kCorrected);
  EXPECT_EQ(res.corrected_bit, code.n() - 1);
  EXPECT_EQ(word, clean);
}

// ------------------------------------------- independent bit-serial codec
//
// The codec as first written: syndrome and parities one bit at a time over
// the layout HammingCode documents (data bits take the non-power-of-two
// positions in order, parity bit j position 2^j, then the overall parity).
// The word-at-a-time codec must agree with it on every output.

class BitSerialHamming {
 public:
  BitSerialHamming(unsigned k, bool extended) : k_(k), extended_(extended) {
    while ((1u << p_) < k + p_ + 1) ++p_;
    n_ = k + p_ + (extended ? 1 : 0);
    unsigned pos = 1;
    for (unsigned d = 0; d < k; ++d) {
      while ((pos & (pos - 1)) == 0) ++pos;
      position_.push_back(pos++);
    }
    for (unsigned j = 0; j < p_; ++j) position_.push_back(1u << j);
  }

  unsigned n() const { return n_; }

  BitVec Encode(const BitVec& data) const {
    BitVec cw(n_);
    unsigned s = 0;
    for (unsigned d = 0; d < k_; ++d) {
      cw.Set(d, data.Get(d));
      if (data.Get(d)) s ^= position_[d];
    }
    for (unsigned j = 0; j < p_; ++j) cw.Set(k_ + j, (s >> j) & 1u);
    if (extended_) {
      bool overall = false;
      for (unsigned i = 0; i + 1 < n_; ++i) overall ^= cw.Get(i);
      cw.Set(n_ - 1, overall);
    }
    return cw;
  }

  unsigned Syndrome(const BitVec& word) const {
    unsigned s = 0;
    for (unsigned i = 0; i < k_ + p_; ++i)
      if (word.Get(i)) s ^= position_[i];
    return s;
  }

  bool Parity(const BitVec& word) const {
    bool parity = false;
    for (unsigned i = 0; i < n_; ++i) parity ^= word.Get(i);
    return parity;
  }

  /// The bit a single-error assumption flips, or -1 when the pattern is
  /// clean (kNoError) and -2 when it is detected.
  int Locate(const BitVec& word) const {
    const unsigned s = Syndrome(word);
    if (extended_) {
      const bool parity = Parity(word);
      if (s == 0 && !parity) return -1;
      if (!parity) return -2;
      if (s == 0) return static_cast<int>(n_ - 1);
    } else if (s == 0) {
      return -1;
    }
    for (unsigned i = 0; i < k_ + p_; ++i)
      if (position_[i] == s) return static_cast<int>(i);
    return -2;
  }

  bool IsCodeword(const BitVec& word) const {
    return Syndrome(word) == 0 && !(extended_ && Parity(word));
  }

 private:
  unsigned k_;
  bool extended_;
  unsigned p_ = 1;
  unsigned n_ = 0;
  std::vector<unsigned> position_;
};

TEST(HammingCode, MatchesBitSerialReference) {
  Xoshiro256 rng(70);
  for (const unsigned k : {1u, 4u, 11u, 26u, 57u, 64u, 120u, 128u, 512u}) {
    for (const bool extended : {false, true}) {
      const HammingCode code(k, extended);
      const BitSerialHamming reference(k, extended);
      ASSERT_EQ(code.n(), reference.n());
      for (int trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE("k " + std::to_string(k) + (extended ? " ext" : "") +
                     " trial " + std::to_string(trial));
        const BitVec data = BitVec::Random(k, rng);
        const BitVec clean = reference.Encode(data);
        ASSERT_EQ(code.Encode(data), clean);

        // EncodeInPlace ignores whatever the parity bits held.
        BitVec in_place = BitVec::Random(code.n(), rng);
        in_place.Splice(0, data);
        code.EncodeInPlace(in_place);
        ASSERT_EQ(in_place, clean);

        // 0-3 distinct bit errors anywhere in the codeword.
        BitVec word = clean;
        const unsigned errors =
            std::min<unsigned>(static_cast<unsigned>(trial % 4), code.n());
        for (unsigned e = 0; e < errors;) {
          const auto bit = static_cast<unsigned>(rng.UniformBelow(code.n()));
          if (word.Get(bit) == clean.Get(bit)) {
            word.Flip(bit);
            ++e;
          }
        }
        EXPECT_EQ(code.IsCodeword(word), reference.IsCodeword(word));

        BitVec expect = word;
        const int bit = reference.Locate(word);
        if (bit >= 0) expect.Flip(static_cast<unsigned>(bit));
        const HammingResult res = code.Decode(word);
        EXPECT_EQ(res.status, bit == -1   ? HammingStatus::kNoError
                              : bit == -2 ? HammingStatus::kDetected
                                          : HammingStatus::kCorrected);
        if (bit >= 0) {
          EXPECT_EQ(res.corrected_bit, static_cast<unsigned>(bit));
        }
        EXPECT_EQ(word, expect);
      }
    }
  }
}

}  // namespace
}  // namespace pair_ecc::hamming
