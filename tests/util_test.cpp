// Tests for the utility layer: RNG determinism and distribution sanity,
// BitVec semantics, statistics accumulators and table rendering.
#include <gtest/gtest.h>

#include <fstream>
#include <random>
#include <set>
#include <sstream>

#include "util/atomic_file.hpp"
#include "util/bitvec.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace pair_ecc::util {
namespace {

// ---------------------------------------------------------------- SplitMix64

TEST(SplitMix64, MixMatchesReferenceVectors) {
  // Reference outputs of the standard SplitMix64 for seed 0: the first three
  // operator() results (i.e. Mix(kGamma), Mix(2*kGamma), Mix(3*kGamma)).
  SplitMix64 sm(0);
  EXPECT_EQ(sm(), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(sm(), 0x6E789E6AA1B965F4ull);
  EXPECT_EQ(sm(), 0x06C45D188009454Full);
}

TEST(SplitMix64, AtIndexesTheStream) {
  SplitMix64 sm(0x1234);
  for (std::uint64_t i = 0; i < 20; ++i)
    EXPECT_EQ(sm(), SplitMix64::At(0x1234, i)) << "index " << i;
}

TEST(SplitMix64, SatisfiesUniformRandomBitGenerator) {
  static_assert(
      std::uniform_random_bit_generator<SplitMix64>,
      "SplitMix64 must be usable with <random> distributions");
  EXPECT_EQ(SplitMix64::min(), 0u);
  EXPECT_EQ(SplitMix64::max(), ~0ull);
}

TEST(SplitMix64, SeedsXoshiroStateWords) {
  // Xoshiro256's constructor documents its state as the first four outputs
  // of SplitMix64(seed) — the derivation the trial engine's determinism
  // contract (engine.hpp) relies on.
  SplitMix64 sm(99);
  const std::uint64_t w0 = sm(), w1 = sm(), w2 = sm(), w3 = sm();
  // xoshiro256** first output = rotl(s1 * 5, 7) * 9 on the initial state.
  const auto rotl = [](std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  };
  Xoshiro256 rng(99);
  EXPECT_EQ(rng(), rotl(w1 * 5, 7) * 9);
  (void)w0;
  (void)w2;
  (void)w3;
}

// ---------------------------------------------------------------- Xoshiro256

TEST(Xoshiro256, SameSeedSameStream) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int differ = 0;
  for (int i = 0; i < 100; ++i) differ += (a() != b());
  EXPECT_GT(differ, 90);
}

TEST(Xoshiro256, UniformBelowStaysInRange) {
  Xoshiro256 rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.UniformBelow(bound), bound);
  }
}

TEST(Xoshiro256, UniformBelowCoversAllResidues) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformBelow(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Xoshiro256, UniformDoubleInHalfOpenUnitInterval) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.UniformDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Xoshiro256, UniformDoubleMeanNearHalf) {
  Xoshiro256 rng(13);
  const int draws = 100000;
  double sum = 0.0;
  for (int i = 0; i < draws; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / draws, 0.5, 0.01);
}

TEST(Xoshiro256, BernoulliMatchesProbability) {
  Xoshiro256 rng(17);
  int hits = 0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Xoshiro256, ForkProducesIndependentStream) {
  Xoshiro256 parent(21);
  Xoshiro256 child = parent.Fork();
  int differ = 0;
  for (int i = 0; i < 100; ++i) differ += (parent() != child());
  EXPECT_GT(differ, 90);
}

TEST(Xoshiro256, SatisfiesUniformRandomBitGenerator) {
  // Must be usable with <random> distributions.
  Xoshiro256 rng(3);
  std::uniform_int_distribution<int> dist(0, 9);
  for (int i = 0; i < 100; ++i) {
    const int v = dist(rng);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 9);
  }
}

// -------------------------------------------------------------------- BitVec

TEST(ParseU64, AcceptsDigitsOnlyAndFlagsOverflow) {
  using util::ParseStatus;
  std::uint64_t v = 7;
  EXPECT_EQ(util::ParseU64("4294967296", v), ParseStatus::kOk);
  EXPECT_EQ(v, 4294967296ull);
  EXPECT_EQ(util::ParseU64("18446744073709551615", v), ParseStatus::kOk);
  EXPECT_EQ(v, UINT64_MAX);
  for (const char* bad : {"", "10k", "-1", "+1", " 1", "1 ", "0x10", "1.0"}) {
    EXPECT_EQ(util::ParseU64(bad, v), ParseStatus::kInvalid) << bad;
    EXPECT_EQ(v, UINT64_MAX) << bad;
  }
  EXPECT_EQ(util::ParseU64("18446744073709551616", v),
            ParseStatus::kOutOfRange);
  EXPECT_EQ(v, UINT64_MAX);
}

TEST(BitVec, StartsAllZero) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.Popcount(), 0u);
  EXPECT_FALSE(v.AnySet());
}

TEST(BitVec, SetGetFlipRoundTrip) {
  BitVec v(100);
  v.Set(0, true);
  v.Set(63, true);
  v.Set(64, true);
  v.Set(99, true);
  EXPECT_TRUE(v.Get(0));
  EXPECT_TRUE(v.Get(63));
  EXPECT_TRUE(v.Get(64));
  EXPECT_TRUE(v.Get(99));
  EXPECT_FALSE(v.Get(1));
  EXPECT_EQ(v.Popcount(), 4u);
  v.Flip(63);
  EXPECT_FALSE(v.Get(63));
  EXPECT_EQ(v.Popcount(), 3u);
}

TEST(BitVec, XorActsAsErrorInjection) {
  BitVec data(72);
  data.Set(3, true);
  BitVec err(72);
  err.Set(3, true);
  err.Set(10, true);
  const BitVec corrupted = data ^ err;
  EXPECT_FALSE(corrupted.Get(3));
  EXPECT_TRUE(corrupted.Get(10));
  // XOR-ing the same error again restores the original.
  EXPECT_EQ(corrupted ^ err, data);
}

TEST(BitVec, SetBitsReturnsAscendingIndices) {
  BitVec v(200);
  for (std::size_t i : {5u, 64u, 70u, 199u}) v.Set(i, true);
  const auto bits = v.SetBits();
  ASSERT_EQ(bits.size(), 4u);
  EXPECT_EQ(bits[0], 5u);
  EXPECT_EQ(bits[1], 64u);
  EXPECT_EQ(bits[2], 70u);
  EXPECT_EQ(bits[3], 199u);
}

TEST(BitVec, SliceAndSpliceAreInverse) {
  Xoshiro256 rng(31);
  BitVec v = BitVec::Random(256, rng);
  const BitVec mid = v.Slice(100, 40);
  BitVec copy = v;
  copy.Splice(100, mid);
  EXPECT_EQ(copy, v);
}

TEST(BitVec, GetWordSetWordRoundTrip) {
  BitVec v(128);
  v.SetWord(5, 17, 0x1ABCD);
  EXPECT_EQ(v.GetWord(5, 17), 0x1ABCDull & ((1ull << 17) - 1));
  v.SetWord(60, 10, 0x3FF);
  EXPECT_EQ(v.GetWord(60, 10), 0x3FFull);
}

// Per-bit references for the word-wide range operations. Every comparison
// below goes through operator==, which compares whole storage words, so a
// stray write to a neighbouring bit or to the tail past size() fails it.
std::uint64_t RefGetWord(const BitVec& v, std::size_t offset,
                         std::size_t count) {
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < count; ++i)
    word |= static_cast<std::uint64_t>(v.Get(offset + i)) << i;
  return word;
}

TEST(BitVec, WordAccessMatchesPerBitReference) {
  Xoshiro256 rng(41);
  // 255 ends a word short (offset 191 + 64 bits reaches the last bit), 256
  // fills whole words, 300 leaves a partial tail word past every access.
  for (std::size_t size : {255u, 256u, 300u}) {
    const BitVec base = BitVec::Random(size, rng);
    for (std::size_t offset = 0; offset < 192; ++offset) {
      for (std::size_t count = 0; count <= 64; ++count) {
        if (offset + count > size) continue;
        ASSERT_EQ(base.GetWord(offset, count), RefGetWord(base, offset, count))
            << "size " << size << " offset " << offset << " count " << count;
        // Bits of `value` past `count` are set too and must be ignored.
        const std::uint64_t value = rng();
        BitVec got = base;
        got.SetWord(offset, count, value);
        BitVec want = base;
        for (std::size_t i = 0; i < count; ++i)
          want.Set(offset + i, (value >> i) & 1u);
        ASSERT_EQ(got, want)
            << "size " << size << " offset " << offset << " count " << count;
      }
    }
  }
}

TEST(BitVec, SliceAndSpliceMatchPerBitReference) {
  Xoshiro256 rng(43);
  for (std::size_t size : {200u, 256u}) {
    const BitVec base = BitVec::Random(size, rng);
    for (std::size_t offset = 0; offset <= size; ++offset) {
      for (std::size_t count : {0u, 1u, 7u, 63u, 64u, 65u, 127u, 128u, 129u,
                                199u}) {
        if (offset + count > size) continue;
        BitVec want_slice(count);
        for (std::size_t i = 0; i < count; ++i)
          want_slice.Set(i, base.Get(offset + i));
        ASSERT_EQ(base.Slice(offset, count), want_slice)
            << "size " << size << " offset " << offset << " count " << count;

        const BitVec src = BitVec::Random(count, rng);
        BitVec got = base;
        got.Splice(offset, src);
        BitVec want = base;
        for (std::size_t i = 0; i < count; ++i)
          want.Set(offset + i, src.Get(i));
        ASSERT_EQ(got, want)
            << "size " << size << " offset " << offset << " count " << count;
      }
    }
  }
}

TEST(BitVec, RandomMasksTailBits) {
  Xoshiro256 rng(37);
  for (std::size_t size : {1u, 7u, 63u, 65u, 127u}) {
    BitVec v = BitVec::Random(size, rng);
    // Popcount must not exceed size (would indicate stray tail bits).
    EXPECT_LE(v.Popcount(), size);
  }
}

TEST(BitVec, EqualityRequiresSameSize) {
  BitVec a(10), b(11);
  EXPECT_FALSE(a == b);
}

TEST(BitVec, ToStringShowsBitZeroFirst) {
  BitVec v(4);
  v.Set(0, true);
  v.Set(2, true);
  EXPECT_EQ(v.ToString(), "1010");
}

// --------------------------------------------------------------------- Stats

TEST(WilsonInterval, ContainsPointEstimate) {
  const auto p = WilsonInterval(3, 1000);
  EXPECT_GT(p.estimate, p.lower);
  EXPECT_LT(p.estimate, p.upper);
  EXPECT_NEAR(p.estimate, 0.003, 1e-12);
}

TEST(WilsonInterval, ZeroSuccessesHasPositiveUpperBound) {
  const auto p = WilsonInterval(0, 1000);
  EXPECT_EQ(p.estimate, 0.0);
  EXPECT_EQ(p.lower, 0.0);
  EXPECT_GT(p.upper, 0.0);
  EXPECT_LT(p.upper, 0.01);
}

TEST(WilsonInterval, ZeroTrialsReturnsZeros) {
  const auto p = WilsonInterval(0, 0);
  EXPECT_EQ(p.estimate, 0.0);
  EXPECT_EQ(p.upper, 0.0);
}

TEST(WilsonInterval, AllSuccessesHasUpperOne) {
  const auto p = WilsonInterval(50, 50);
  EXPECT_EQ(p.estimate, 1.0);
  EXPECT_LT(p.lower, 1.0);
  EXPECT_DOUBLE_EQ(p.upper, 1.0);
}

// --------------------------------------------------------------------- Table

TEST(Table, AlignsColumnsAndPrintsRule) {
  Table t({"name", "value"});
  t.AddRowValues("alpha", 3.5);
  t.AddRowValues("b", 10);
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, CsvHasCommaSeparatedCells) {
  Table t({"a", "b"});
  t.AddRowValues(1, 2);
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, SciAndFixedFormatting) {
  EXPECT_EQ(Table::Sci(0.000321, 2), "3.21e-04");
  EXPECT_EQ(Table::Fixed(3.14159, 2), "3.14");
}

TEST(Table, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.AddRow({"only"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("only"), std::string::npos);
}

// ----------------------------------------------------------- atomic_file

TEST(Crc32, MatchesIeeeCheckValue) {
  // The canonical CRC-32/ISO-HDLC check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32Hex("123456789"), "cbf43926");
  EXPECT_EQ(Crc32Hex("").size(), 8u);  // fixed-width, zero-padded
}

TEST(Crc32, SensitiveToSingleBitFlips) {
  const std::uint32_t base = Crc32("checkpoint body");
  EXPECT_NE(Crc32("checkpoint bodz"), base);
  EXPECT_NE(Crc32("checkpoint bod"), base);
}

TEST(AtomicWriteFile, CreatesAndReplaces) {
  const std::string path = ::testing::TempDir() + "pair_util_atomic.txt";
  AtomicWriteFile(path, "first");
  AtomicWriteFile(path, "second");
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "second");
}

TEST(AtomicWriteFile, ThrowsOnUnwritableDirectory) {
  EXPECT_THROW(AtomicWriteFile("/nonexistent_dir_zz/x.json", "body"),
               std::runtime_error);
}

}  // namespace
}  // namespace pair_ecc::util
