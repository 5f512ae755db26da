// Reed-Solomon codec tests: polynomial arithmetic, encode/decode round
// trips, guaranteed correction up to t errors, errors-and-erasures bound
// 2e + f <= r, shortening/expansion consistency, and the incremental
// parity-delta update that backs PAIR's write path.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "rs/poly.hpp"
#include "rs/rs_code.hpp"
#include "util/rng.hpp"

namespace pair_ecc::rs {
namespace {

using pair_ecc::util::Xoshiro256;

std::vector<Elem> RandomData(const GfField& f, unsigned k, Xoshiro256& rng) {
  std::vector<Elem> d(k);
  for (auto& s : d) s = static_cast<Elem>(rng.UniformBelow(f.Size()));
  return d;
}

// Injects `count` errors at distinct random positions; returns positions.
std::vector<unsigned> InjectErrors(const GfField& f, std::vector<Elem>& word,
                                   unsigned count, Xoshiro256& rng) {
  std::set<unsigned> positions;
  while (positions.size() < count)
    positions.insert(static_cast<unsigned>(rng.UniformBelow(word.size())));
  for (unsigned pos : positions) {
    const auto delta = static_cast<Elem>(1 + rng.UniformBelow(f.Size() - 1));
    word[pos] ^= delta;
  }
  return {positions.begin(), positions.end()};
}

// ---------------------------------------------------------------- Polynomial

TEST(Poly, DegreeAndNormalize) {
  Poly p = {1, 2, 0, 0};
  EXPECT_EQ(Degree(p), 1);
  Normalize(p);
  EXPECT_EQ(p.size(), 2u);
  Poly zero = {0, 0};
  EXPECT_EQ(Degree(zero), -1);
}

TEST(Poly, EvalHorner) {
  const auto& f = GfField::Get(8);
  // p(x) = 3 + 2x + x^2 at x=1: 3^2^1 = 0; at x=0: 3.
  const Poly p = {3, 2, 1};
  EXPECT_EQ(Eval(f, p, 0), 3);
  EXPECT_EQ(Eval(f, p, 1), 3 ^ 2 ^ 1);
}

TEST(Poly, MulDegreesAdd) {
  const auto& f = GfField::Get(8);
  Xoshiro256 rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    Poly a = {static_cast<Elem>(1 + rng.UniformBelow(255)),
              static_cast<Elem>(1 + rng.UniformBelow(255))};
    Poly b = {static_cast<Elem>(1 + rng.UniformBelow(255)),
              static_cast<Elem>(1 + rng.UniformBelow(255)),
              static_cast<Elem>(1 + rng.UniformBelow(255))};
    EXPECT_EQ(Degree(Mul(f, a, b)), Degree(a) + Degree(b));
  }
}

TEST(Poly, MulByZeroIsZero) {
  const auto& f = GfField::Get(8);
  EXPECT_TRUE(Mul(f, {}, {1, 2}).empty());
  EXPECT_TRUE(Mul(f, {0}, {1, 2}).empty());
}

TEST(Poly, ModReturnsZeroForMultiples) {
  const auto& f = GfField::Get(8);
  const Poly a = {5, 7, 1};
  const Poly b = {9, 3};
  const Poly prod = Mul(f, a, b);
  EXPECT_EQ(Degree(Mod(f, prod, b)), -1);
  EXPECT_EQ(Degree(Mod(f, prod, a)), -1);
}

TEST(Poly, ModDegreeBelowDivisor) {
  const auto& f = GfField::Get(8);
  Xoshiro256 rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    Poly a(10);
    for (auto& c : a) c = static_cast<Elem>(rng.UniformBelow(256));
    Poly b = {static_cast<Elem>(rng.UniformBelow(256)),
              static_cast<Elem>(rng.UniformBelow(256)),
              static_cast<Elem>(1 + rng.UniformBelow(255))};
    EXPECT_LT(Degree(Mod(f, a, b)), Degree(b));
  }
}

TEST(Poly, DivisionIdentity) {
  // a = q*b + r implies a + r is a multiple of b (char 2): check a ^ Mod == multiple.
  const auto& f = GfField::Get(8);
  Xoshiro256 rng(3);
  Poly a(8);
  for (auto& c : a) c = static_cast<Elem>(rng.UniformBelow(256));
  const Poly b = {7, 0, 1};  // x^2 + 7
  const Poly r = Mod(f, a, b);
  Poly diff = a;
  for (std::size_t i = 0; i < r.size(); ++i) diff[i] ^= r[i];
  EXPECT_EQ(Degree(Mod(f, diff, b)), -1);
}

TEST(Poly, ShiftUpMultipliesByXPow) {
  const auto& f = GfField::Get(8);
  const Poly p = {3, 1};
  const Poly shifted = ShiftUp(p, 2);
  EXPECT_EQ(Degree(shifted), 3);
  EXPECT_EQ(Eval(f, shifted, 2), f.Mul(Eval(f, p, 2), f.Pow(2, 2)));
}

// ------------------------------------------------------------- Construction

TEST(RsCode, RejectsInvalidParameters) {
  const auto& f = GfField::Get(8);
  EXPECT_THROW(RsCode(f, 10, 10), std::invalid_argument);
  EXPECT_THROW(RsCode(f, 10, 11), std::invalid_argument);
  EXPECT_THROW(RsCode(f, 256, 200), std::invalid_argument);
  EXPECT_THROW(RsCode(f, 5, 0), std::invalid_argument);
}

TEST(RsCode, ParametersAndOverhead) {
  const auto code = Gf256Code(68, 64);
  EXPECT_EQ(code.n(), 68u);
  EXPECT_EQ(code.k(), 64u);
  EXPECT_EQ(code.r(), 4u);
  EXPECT_EQ(code.t(), 2u);
  EXPECT_DOUBLE_EQ(code.Overhead(), 0.0625);
  EXPECT_EQ(code.MaxK(), 251u);
}

// -------------------------------------------------------------- Encode paths

struct CodeParams {
  unsigned m, n, k;
};

class RsRoundTripTest : public ::testing::TestWithParam<CodeParams> {
 protected:
  RsRoundTripTest()
      : field_(GfField::Get(GetParam().m)),
        code_(field_, GetParam().n, GetParam().k) {}
  const GfField& field_;
  RsCode code_;
};

TEST_P(RsRoundTripTest, GeneratorHasDegreeRAndRootsAtAlphaPowers) {
  // Narrow-sense: monic of degree r, roots exactly at alpha^1 .. alpha^r,
  // so neither alpha^0 nor alpha^(r+1) is a root.
  const Poly& g = code_.Generator();
  ASSERT_EQ(Degree(g), static_cast<int>(code_.r()));
  EXPECT_EQ(g.back(), 1);
  for (unsigned i = 0; i <= code_.r() + 1; ++i) {
    const bool design_root = i >= 1 && i <= code_.r();
    EXPECT_EQ(Eval(field_, g, field_.AlphaPow(i)) == 0, design_root)
        << "alpha^" << i;
  }
}

TEST_P(RsRoundTripTest, SameGeneratorAcrossExpansion) {
  // Full-length shapes (MaxK() == k) expand to themselves.
  EXPECT_EQ(code_.Expanded(code_.MaxK()).Generator(), code_.Generator());
}

TEST_P(RsRoundTripTest, ParityDeltaMatchesFullReencode) {
  Xoshiro256 rng(3000);
  for (int trial = 0; trial < 50; ++trial) {
    auto data = RandomData(field_, code_.k(), rng);
    auto parity = code_.ComputeParity(data);
    // Mutate one random data symbol and apply the delta update.
    const auto idx = static_cast<unsigned>(rng.UniformBelow(code_.k()));
    const auto new_val = static_cast<Elem>(rng.UniformBelow(field_.Size()));
    const auto pdelta = code_.ParityDelta(idx, data[idx] ^ new_val);
    for (unsigned j = 0; j < code_.r(); ++j) parity[j] ^= pdelta[j];
    data[idx] = new_val;
    EXPECT_EQ(parity, code_.ComputeParity(data)) << "trial " << trial;
  }
}

TEST_P(RsRoundTripTest, EncodeProducesCodeword) {
  Xoshiro256 rng(1000);
  for (int trial = 0; trial < 20; ++trial) {
    const auto data = RandomData(field_, code_.k(), rng);
    const auto cw = code_.Encode(data);
    ASSERT_EQ(cw.size(), code_.n());
    EXPECT_TRUE(code_.IsCodeword(cw));
    // Systematic: data appears verbatim.
    EXPECT_TRUE(std::equal(data.begin(), data.end(), cw.begin()));
  }
}

TEST_P(RsRoundTripTest, CleanWordDecodesAsNoError) {
  Xoshiro256 rng(1001);
  auto cw = code_.Encode(RandomData(field_, code_.k(), rng));
  const auto res = code_.Decode(cw);
  EXPECT_EQ(res.status, DecodeStatus::kNoError);
}

TEST_P(RsRoundTripTest, CorrectsUpToTErrors) {
  Xoshiro256 rng(1002);
  for (unsigned e = 1; e <= code_.t(); ++e) {
    for (int trial = 0; trial < 25; ++trial) {
      const auto data = RandomData(field_, code_.k(), rng);
      const auto clean = code_.Encode(data);
      auto word = clean;
      InjectErrors(field_, word, e, rng);
      const auto res = code_.Decode(word);
      ASSERT_EQ(res.status, DecodeStatus::kCorrected)
          << "e=" << e << " trial=" << trial;
      EXPECT_EQ(res.NumCorrected(), e);
      EXPECT_EQ(word, clean);
    }
  }
}

TEST_P(RsRoundTripTest, ErasuresUpToRAreRecovered) {
  Xoshiro256 rng(1003);
  for (unsigned fcount = 1; fcount <= code_.r(); ++fcount) {
    const auto data = RandomData(field_, code_.k(), rng);
    const auto clean = code_.Encode(data);
    auto word = clean;
    std::set<unsigned> unique;
    while (unique.size() < fcount)
      unique.insert(static_cast<unsigned>(rng.UniformBelow(code_.n())));
    std::vector<unsigned> erasures(unique.begin(), unique.end());
    for (unsigned pos : erasures)
      word[pos] ^= static_cast<Elem>(1 + rng.UniformBelow(field_.Size() - 1));
    const auto res = code_.Decode(word, erasures);
    ASSERT_NE(res.status, DecodeStatus::kFailure) << "f=" << fcount;
    EXPECT_EQ(word, clean);
  }
}

TEST_P(RsRoundTripTest, ErrorsPlusErasuresWithinBound) {
  Xoshiro256 rng(1004);
  const unsigned r = code_.r();
  for (unsigned f_count = 0; f_count <= r; ++f_count) {
    const unsigned max_e = (r - f_count) / 2;
    for (unsigned e = 0; e <= max_e; ++e) {
      if (e + f_count == 0 || e + f_count > code_.n()) continue;
      const auto data = RandomData(field_, code_.k(), rng);
      const auto clean = code_.Encode(data);
      auto word = clean;
      // Pick disjoint erasure and error positions.
      std::set<unsigned> all;
      while (all.size() < f_count + e)
        all.insert(static_cast<unsigned>(rng.UniformBelow(code_.n())));
      std::vector<unsigned> positions(all.begin(), all.end());
      std::vector<unsigned> erasures(positions.begin(),
                                     positions.begin() + f_count);
      for (unsigned i = 0; i < f_count + e; ++i)
        word[positions[i]] ^=
            static_cast<Elem>(1 + rng.UniformBelow(field_.Size() - 1));
      const auto res = code_.Decode(word, erasures);
      ASSERT_NE(res.status, DecodeStatus::kFailure)
          << "f=" << f_count << " e=" << e;
      EXPECT_EQ(word, clean) << "f=" << f_count << " e=" << e;
    }
  }
}

TEST_P(RsRoundTripTest, BeyondBoundIsNeverSilentlyWrongAboutStatus) {
  // With > t errors the decoder must either fail (detected) or land on some
  // codeword (miscorrection). It must never return kCorrected with a
  // non-codeword, nor corrupt the word on failure.
  Xoshiro256 rng(1005);
  const unsigned overload = code_.t() + 1;
  for (int trial = 0; trial < 40; ++trial) {
    const auto data = RandomData(field_, code_.k(), rng);
    const auto clean = code_.Encode(data);
    auto word = clean;
    InjectErrors(field_, word, overload, rng);
    const auto received = word;
    const auto res = code_.Decode(word);
    if (res.status == DecodeStatus::kFailure) {
      EXPECT_EQ(word, received);  // untouched on failure
    } else {
      EXPECT_TRUE(code_.IsCodeword(word));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RsRoundTripTest,
    ::testing::Values(CodeParams{8, 68, 64},    // PAIR-4
                      CodeParams{8, 34, 32},    // PAIR-2
                      CodeParams{8, 76, 64},    // DUO rank code
                      CodeParams{8, 255, 247},  // full-length
                      CodeParams{8, 255, 223},  // full-length, t=16
                      CodeParams{8, 18, 10},    // heavily shortened, t=4
                      CodeParams{4, 15, 11},    // small field, full length
                      CodeParams{4, 15, 9},
                      CodeParams{4, 15, 7},
                      CodeParams{4, 12, 6},     // small field, shortened
                      CodeParams{10, 100, 90}));  // wide field

// ------------------------------------------------------------- Expandability

TEST(RsExpandability, ExpandedCodeKeepsRedundancyAndT) {
  const auto base = Gf256Code(34, 32);
  const auto wide = base.Expanded(128);
  EXPECT_EQ(wide.r(), base.r());
  EXPECT_EQ(wide.t(), base.t());
  EXPECT_EQ(wide.k(), 128u);
  EXPECT_EQ(wide.n(), 130u);
}

TEST(RsExpandability, ZeroPaddedDataGivesSameParity) {
  // Shortening semantics: encoding data in the long code with leading zeros
  // must produce the same parity as the short code. This is the property
  // that lets PAIR grow a codeword along the pin line while reusing the
  // encoder/decoder hardware.
  Xoshiro256 rng(2000);
  const auto short_code = Gf256Code(34, 32);
  const auto long_code = short_code.Expanded(64);
  const auto& f = short_code.field();
  const auto data = RandomData(f, 32, rng);
  std::vector<Elem> padded(64, 0);
  std::copy(data.begin(), data.end(), padded.begin() + 32);
  const auto p_short = short_code.ComputeParity(data);
  const auto p_long = long_code.ComputeParity(padded);
  EXPECT_EQ(p_short, p_long);
}

TEST(RsExpandability, OverheadShrinksAsKGrows) {
  const auto base = Gf256Code(20, 16);
  double prev = base.Overhead();
  for (unsigned k : {32u, 64u, 128u, base.MaxK()}) {
    const auto code = base.Expanded(k);
    EXPECT_LT(code.Overhead(), prev);
    prev = code.Overhead();
  }
}

TEST(RsExpandability, ExpandedStillCorrectsTErrors) {
  Xoshiro256 rng(2001);
  const auto code = Gf256Code(34, 32).Expanded(251);  // max expansion
  EXPECT_EQ(code.n(), 253u);
  const auto data = RandomData(code.field(), code.k(), rng);
  const auto clean = code.Encode(data);
  auto word = clean;
  InjectErrors(code.field(), word, code.t(), rng);
  EXPECT_EQ(code.Decode(word).status, DecodeStatus::kCorrected);
  EXPECT_EQ(word, clean);
}

TEST(RsExpandability, RejectsOverExpansion) {
  const auto code = Gf256Code(34, 32);
  EXPECT_THROW(code.Expanded(code.MaxK() + 1), std::invalid_argument);
}

// -------------------------------------------------------------- Parity delta

TEST(RsParityDelta, SequenceOfUpdatesStaysConsistent) {
  // Models PAIR's write path: many independent symbol writes into the same
  // codeword, parity maintained incrementally throughout.
  Xoshiro256 rng(3001);
  const auto code = Gf256Code(68, 64);
  const auto& f = code.field();
  auto data = RandomData(f, code.k(), rng);
  auto parity = code.ComputeParity(data);
  for (int write = 0; write < 200; ++write) {
    const auto idx = static_cast<unsigned>(rng.UniformBelow(code.k()));
    const auto new_val = static_cast<Elem>(rng.UniformBelow(f.Size()));
    const auto pdelta = code.ParityDelta(idx, data[idx] ^ new_val);
    for (unsigned j = 0; j < code.r(); ++j) parity[j] ^= pdelta[j];
    data[idx] = new_val;
  }
  EXPECT_EQ(parity, code.ComputeParity(data));
  std::vector<Elem> cw(data);
  cw.insert(cw.end(), parity.begin(), parity.end());
  EXPECT_TRUE(code.IsCodeword(cw));
}

TEST(RsParityDelta, ZeroDeltaIsNoOp) {
  const auto code = Gf256Code(34, 32);
  const auto d = code.ParityDelta(5, 0);
  EXPECT_TRUE(std::all_of(d.begin(), d.end(), [](Elem e) { return e == 0; }));
}

TEST(RsParityDelta, RejectsOutOfRangeIndex) {
  const auto code = Gf256Code(34, 32);
  EXPECT_THROW(code.ParityDelta(32, 1), std::invalid_argument);
}

// ----------------------------------------------------------- Shape fuzzing

// Randomly generated (m, n, k) shapes, each hammered with round trips,
// within-budget corrections, and erasure fills — the broad-coverage net
// behind the targeted suites above.
class RsShapeFuzzTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RsShapeFuzzTest, RandomShapeHoldsAllGuarantees) {
  Xoshiro256 rng(77000 + GetParam());
  const unsigned m = 3 + static_cast<unsigned>(rng.UniformBelow(8));  // 3..10
  const auto& f = GfField::Get(m);
  const unsigned max_n = f.Order();
  const unsigned n = 4 + static_cast<unsigned>(rng.UniformBelow(max_n - 3));
  const unsigned r = 1 + static_cast<unsigned>(rng.UniformBelow(
                             std::min(n - 1, 12u)));
  const unsigned k = n - r;
  const RsCode code(f, n, k);
  SCOPED_TRACE("GF(2^" + std::to_string(m) + ") RS(" + std::to_string(n) +
               "," + std::to_string(k) + ")");

  for (int trial = 0; trial < 8; ++trial) {
    const auto data = RandomData(f, k, rng);
    const auto clean = code.Encode(data);
    ASSERT_TRUE(code.IsCodeword(clean));

    // Errors up to t.
    if (code.t() > 0) {
      auto word = clean;
      const unsigned e =
          1 + static_cast<unsigned>(rng.UniformBelow(code.t()));
      InjectErrors(f, word, e, rng);
      ASSERT_EQ(code.Decode(word).status, DecodeStatus::kCorrected);
      ASSERT_EQ(word, clean);
    }

    // Full-budget erasures.
    {
      auto word = clean;
      std::set<unsigned> unique;
      while (unique.size() < code.r() && unique.size() < code.n())
        unique.insert(static_cast<unsigned>(rng.UniformBelow(code.n())));
      std::vector<unsigned> erasures(unique.begin(), unique.end());
      for (unsigned pos : erasures)
        word[pos] ^= static_cast<Elem>(1 + rng.UniformBelow(f.Size() - 1));
      ASSERT_NE(code.Decode(word, erasures).status, DecodeStatus::kFailure);
      ASSERT_EQ(word, clean);
    }

    // Parity delta equivalence on one random symbol.
    {
      auto data2 = data;
      auto parity = code.ComputeParity(data2);
      const auto idx = static_cast<unsigned>(rng.UniformBelow(k));
      const auto nv = static_cast<Elem>(rng.UniformBelow(f.Size()));
      const auto pd = code.ParityDelta(idx, data2[idx] ^ nv);
      for (unsigned j = 0; j < code.r(); ++j) parity[j] ^= pd[j];
      data2[idx] = nv;
      ASSERT_EQ(parity, code.ComputeParity(data2));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TwentyShapes, RsShapeFuzzTest,
                         ::testing::Range(0u, 20u));

// ------------------------------------------------------------------- Decode

TEST(RsDecode, RejectsWrongLengthAndBadErasures) {
  const auto code = Gf256Code(34, 32);
  std::vector<Elem> too_short(10, 0);
  EXPECT_THROW(code.Decode(too_short), std::invalid_argument);
  std::vector<Elem> word(34, 0);
  const std::vector<unsigned> bad = {34};
  EXPECT_THROW(code.Decode(word, bad), std::invalid_argument);
}

TEST(RsDecode, RejectsDuplicateErasures) {
  const auto code = Gf256Code(68, 64);
  std::vector<Elem> word(68, 0);
  const std::vector<unsigned> dup = {3, 7, 3};
  EXPECT_THROW(code.Decode(word, dup), std::invalid_argument);
}

TEST(RsDecode, DecodeIsDeterministic) {
  Xoshiro256 rng(4242);
  const auto code = Gf256Code(68, 64);
  const auto clean = code.Encode(RandomData(code.field(), 64, rng));
  auto w1 = clean, w2 = clean;
  InjectErrors(code.field(), w1, 3, rng);  // beyond t
  w2 = w1;
  const auto r1 = code.Decode(w1);
  const auto r2 = code.Decode(w2);
  EXPECT_EQ(r1.status, r2.status);
  EXPECT_EQ(w1, w2);
}

TEST(RsDecode, ShortenedAndExpandedAgreeOnSharedPrefix) {
  // Decoding a shortened word must behave exactly like decoding the
  // expanded word with zero padding — the invariant that lets PAIR reuse
  // one decoder for every k.
  Xoshiro256 rng(4343);
  const auto short_code = Gf256Code(34, 32);
  const auto long_code = short_code.Expanded(64);
  const auto data = RandomData(short_code.field(), 32, rng);
  auto short_word = short_code.Encode(data);
  std::vector<Elem> padded(64, 0);
  std::copy(data.begin(), data.end(), padded.begin() + 32);
  auto long_word = long_code.Encode(padded);
  // Same two errors at corresponding positions.
  short_word[5] ^= 0x21;
  long_word[32 + 5] ^= 0x21;
  const auto rs = short_code.Decode(short_word);
  const auto rl = long_code.Decode(long_word);
  EXPECT_EQ(rs.status, DecodeStatus::kCorrected);
  EXPECT_EQ(rl.status, DecodeStatus::kCorrected);
  EXPECT_TRUE(std::equal(short_word.begin(), short_word.begin() + 32,
                         long_word.begin() + 32));
}

TEST(RsDecode, MoreErasuresThanRFails) {
  Xoshiro256 rng(4000);
  const auto code = Gf256Code(34, 32);
  auto word = code.Encode(RandomData(code.field(), 32, rng));
  std::vector<unsigned> erasures = {0, 1, 2};  // r = 2
  word[0] ^= 1;
  EXPECT_EQ(code.Decode(word, erasures).status, DecodeStatus::kFailure);
}

TEST(RsDecode, ErasureFlagOnCleanWordIsNoError) {
  Xoshiro256 rng(4001);
  const auto code = Gf256Code(68, 64);
  auto word = code.Encode(RandomData(code.field(), 64, rng));
  const std::vector<unsigned> erasures = {3, 10};
  EXPECT_EQ(code.Decode(word, erasures).status, DecodeStatus::kNoError);
}

TEST(RsDecode, BurstWithinOneSymbolIsOneSymbolError) {
  // An 8-bit burst confined to one symbol is a single symbol error — the
  // alignment property PAIR builds on.
  Xoshiro256 rng(4002);
  const auto code = Gf256Code(68, 64);
  const auto clean = code.Encode(RandomData(code.field(), 64, rng));
  auto word = clean;
  word[17] ^= 0xFF;  // all 8 bits of the symbol flipped
  const auto res = code.Decode(word);
  ASSERT_EQ(res.status, DecodeStatus::kCorrected);
  EXPECT_EQ(res.NumCorrected(), 1u);
  EXPECT_EQ(word, clean);
}

TEST(RsDecode, CorrectionsReportAccuratePositionsAndMagnitudes) {
  Xoshiro256 rng(4003);
  const auto code = Gf256Code(68, 64);
  const auto clean = code.Encode(RandomData(code.field(), 64, rng));
  auto word = clean;
  word[5] ^= 0x3C;
  word[40] ^= 0x81;
  const auto res = code.Decode(word);
  ASSERT_EQ(res.status, DecodeStatus::kCorrected);
  ASSERT_EQ(res.corrections.size(), 2u);
  std::set<unsigned> pos;
  for (const auto& c : res.corrections) pos.insert(c.position);
  EXPECT_TRUE(pos.count(5));
  EXPECT_TRUE(pos.count(40));
  for (const auto& c : res.corrections) {
    if (c.position == 5) {
      EXPECT_EQ(c.magnitude, 0x3C);
    } else if (c.position == 40) {
      EXPECT_EQ(c.magnitude, 0x81);
    }
  }
}

TEST(RsDecode, ParityOnlyErrorsAreCorrected) {
  Xoshiro256 rng(4004);
  const auto code = Gf256Code(68, 64);
  const auto clean = code.Encode(RandomData(code.field(), 64, rng));
  auto word = clean;
  word[64] ^= 0x10;
  word[67] ^= 0x02;
  EXPECT_EQ(code.Decode(word).status, DecodeStatus::kCorrected);
  EXPECT_EQ(word, clean);
}

TEST(RsDecode, OddRedundancyCorrectsFloorHalf) {
  // r = 3 gives t = 1 with one extra detection symbol.
  Xoshiro256 rng(4005);
  const auto& f = GfField::Get(8);
  const RsCode code(f, 35, 32);
  EXPECT_EQ(code.t(), 1u);
  const auto clean = code.Encode(RandomData(f, 32, rng));
  auto word = clean;
  InjectErrors(f, word, 1, rng);
  EXPECT_EQ(code.Decode(word).status, DecodeStatus::kCorrected);
  EXPECT_EQ(word, clean);
}

}  // namespace
}  // namespace pair_ecc::rs
