// Batch-kernel differential tests: every compiled-in GF kernel variant must
// be bitwise-equal to the scalar oracle, both at the raw span-op level and
// through the RS batch APIs (encode / syndromes / decode) for every code
// shape the schemes use, including expanded siblings. Also pins the
// PAIR_GF_KERNEL dispatch contract (exercised end-to-end by the
// gf_batch_scalar_fallback ctest leg, which reruns this whole binary with
// PAIR_GF_KERNEL=scalar).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "gf/gf2m.hpp"
#include "gf/gf_batch.hpp"
#include "rs/rs_code.hpp"
#include "util/rng.hpp"

namespace pair_ecc::gf {
namespace {

using pair_ecc::util::Xoshiro256;

std::vector<Elem> RandomSymbols(const GfField& f, std::size_t count,
                                Xoshiro256& rng) {
  std::vector<Elem> v(count);
  for (auto& s : v) s = static_cast<Elem>(rng.UniformBelow(f.Size()));
  return v;
}

/// Runnable non-scalar kernels on this machine (empty on non-x86 or very
/// old CPUs — the RS-level tests then just pin scalar == scalar).
std::vector<const BatchKernels*> RunnableSimdKernels() {
  std::vector<const BatchKernels*> out;
  for (const BatchKernels* k : CompiledKernels())
    if (k != &ScalarKernels() && KernelRunnable(*k)) out.push_back(k);
  return out;
}

// Span lengths straddling every kernel's vector width, with odd tails.
constexpr std::size_t kSpanLengths[] = {1, 3, 7, 8, 15, 16, 17,
                                        31, 33, 64, 100, 257};

TEST(GfBatchKernelTest, ScalarOpsMatchFieldArithmetic) {
  const GfField& f = GfField::Get(8);
  Xoshiro256 rng(0xBA7C4);
  const BatchKernels& sc = ScalarKernels();
  const auto src = RandomSymbols(f, 64, rng);
  for (Elem c : {Elem{0}, Elem{1}, Elem{0x53}, Elem{0xFF}}) {
    const MulTables t = MakeMulTables(f, c);
    std::vector<Elem> dst(src.size(), 0xAA);
    sc.mul_into(t, src.data(), dst.data(), src.size());
    for (std::size_t i = 0; i < src.size(); ++i)
      EXPECT_EQ(dst[i], f.Mul(c, src[i]));
  }
}

TEST(GfBatchKernelTest, EveryRunnableKernelMatchesScalarOnRandomSpans) {
  const GfField& f = GfField::Get(8);
  Xoshiro256 rng(0xD1FF);
  for (const BatchKernels* k : RunnableSimdKernels()) {
    SCOPED_TRACE(k->name);
    ASSERT_TRUE(k->supports_field(f));
    for (std::size_t len : kSpanLengths) {
      for (int round = 0; round < 8; ++round) {
        const Elem c = static_cast<Elem>(rng.UniformBelow(f.Size()));
        const MulTables t = MakeMulTables(f, c);
        const auto src = RandomSymbols(f, len, rng);
        const auto base = RandomSymbols(f, len, rng);

        std::vector<Elem> want(len), got(len);
        ScalarKernels().mul_into(t, src.data(), want.data(), len);
        k->mul_into(t, src.data(), got.data(), len);
        EXPECT_EQ(got, want) << "mul_into c=" << c << " len=" << len;

        want = base;
        got = base;
        ScalarKernels().mul_add_into(t, src.data(), want.data(), len);
        k->mul_add_into(t, src.data(), got.data(), len);
        EXPECT_EQ(got, want) << "mul_add_into c=" << c << " len=" << len;

        want = base;
        got = base;
        ScalarKernels().syndrome_accumulate(t, src.data(), want.data(), len);
        k->syndrome_accumulate(t, src.data(), got.data(), len);
        EXPECT_EQ(got, want) << "syndrome_accumulate c=" << c
                             << " len=" << len;
      }
    }
  }
}

TEST(GfBatchKernelTest, KernelByNameRoundTripsAndRejectsUnknown) {
  for (const BatchKernels* k : CompiledKernels())
    EXPECT_EQ(KernelByName(k->name), k);
  EXPECT_EQ(KernelByName("avx512-unicorn"), nullptr);
  EXPECT_EQ(KernelByName(""), nullptr);
}

TEST(GfBatchKernelTest, DispatchHonorsEnvironmentOverride) {
  const GfField& f = GfField::Get(8);
  // The ctest environment may pin PAIR_GF_KERNEL (the scalar-fallback leg
  // does); whatever it says, SelectKernels must obey it.
  const char* env = std::getenv("PAIR_GF_KERNEL");
  const BatchKernels& picked = SelectKernels(f);
  if (env != nullptr && *env != '\0') {
    const BatchKernels* named = KernelByName(env);
    if (named != nullptr && KernelRunnable(*named) &&
        named->supports_field(f)) {
      EXPECT_EQ(&picked, named);
    } else {
      EXPECT_EQ(&picked, &ScalarKernels());
    }
  } else {
    EXPECT_TRUE(KernelRunnable(picked));
    EXPECT_TRUE(picked.supports_field(f));
  }
}

TEST(GfBatchKernelTest, UnsupportedFieldFallsBackToScalar) {
  // m != 8: no SIMD kernel supports it, dispatch must return the oracle.
  const GfField& f10 = GfField::Get(10);
  EXPECT_EQ(&SelectKernels(f10), &ScalarKernels());
  for (const BatchKernels* k : CompiledKernels()) {
    if (k == &ScalarKernels()) continue;
    EXPECT_FALSE(k->supports_field(f10));
  }
}

// ------------------------------------------------------- RS batch level

struct CodeShape {
  unsigned n, k;
};

/// Every (n, k) the schemes instantiate, plus expanded siblings (the PAIR
/// mechanism): RS(34,32)=pair2, RS(68,64)=pair4, RS(76,64)=DUO.
std::vector<rs::RsCode> AllCodes() {
  std::vector<rs::RsCode> codes;
  for (CodeShape s : {CodeShape{34, 32}, CodeShape{68, 64}, CodeShape{76, 64}})
    codes.push_back(rs::Gf256Code(s.n, s.k));
  codes.push_back(rs::Gf256Code(34, 32).Expanded(64));
  codes.push_back(rs::Gf256Code(68, 64).Expanded(128));
  codes.push_back(rs::Gf256Code(76, 64).Expanded(100));
  return codes;
}

constexpr unsigned kBatchSizes[] = {1, 3, 16, 64};

/// Fills a block with `lines` random data words; returns the backing store.
std::vector<Elem> RandomBlock(const rs::RsCode& code, unsigned lines,
                              Xoshiro256& rng, rs::CodewordBlock& block) {
  std::vector<Elem> store(std::size_t{code.n()} * lines, 0);
  block = rs::CodewordBlock{store.data(), lines, code.n(), lines};
  for (unsigned i = 0; i < code.k(); ++i)
    for (unsigned l = 0; l < lines; ++l)
      block.Row(i)[l] =
          static_cast<Elem>(rng.UniformBelow(code.field().Size()));
  return store;
}

TEST(RsBatchTest, EncodeBatchMatchesPerLineForEveryKernelAndShape) {
  Xoshiro256 rng(0xE2C0DE);
  for (rs::RsCode code : AllCodes()) {
    SCOPED_TRACE("n=" + std::to_string(code.n()) +
                 " k=" + std::to_string(code.k()));
    for (unsigned lines : kBatchSizes) {
      rs::CodewordBlock block;
      auto store = RandomBlock(code, lines, rng, block);

      // Per-line oracle first (scalar EncodeInto on each gathered lane).
      std::vector<std::vector<Elem>> want(lines);
      std::vector<Elem> data(code.k());
      for (unsigned l = 0; l < lines; ++l) {
        for (unsigned i = 0; i < code.k(); ++i) data[i] = block.Row(i)[l];
        want[l].resize(code.n());
        code.EncodeInto(data, want[l]);
      }

      for (const BatchKernels* k : CompiledKernels()) {
        if (!KernelRunnable(*k)) continue;
        SCOPED_TRACE(k->name);
        std::vector<Elem> copy = store;
        rs::CodewordBlock b{copy.data(), lines, code.n(), lines};
        code.UseKernelsForTest(*k);
        code.EncodeBatchInto(b);
        for (unsigned l = 0; l < lines; ++l)
          for (unsigned i = 0; i < code.n(); ++i)
            ASSERT_EQ(b.Row(i)[l], want[l][i])
                << "lane " << l << " pos " << i << " lines=" << lines;
      }
    }
  }
}

TEST(RsBatchTest, SyndromesBatchMatchesPerLineForEveryKernelAndShape) {
  Xoshiro256 rng(0x55D0);
  for (rs::RsCode code : AllCodes()) {
    SCOPED_TRACE("n=" + std::to_string(code.n()) +
                 " k=" + std::to_string(code.k()));
    for (unsigned lines : kBatchSizes) {
      // Corrupt random symbols so syndromes are interesting.
      rs::CodewordBlock block;
      auto store = RandomBlock(code, lines, rng, block);
      code.UseKernelsForTest(ScalarKernels());
      code.EncodeBatchInto(block);
      for (unsigned hit = 0; hit < 2 * lines; ++hit)
        store[rng.UniformBelow(store.size())] ^=
            static_cast<Elem>(1 + rng.UniformBelow(code.field().Size() - 1));

      std::vector<Elem> want(std::size_t{code.r()} * lines);
      std::vector<Elem> lane(code.n()), syn(code.r());
      for (unsigned l = 0; l < lines; ++l) {
        for (unsigned i = 0; i < code.n(); ++i) lane[i] = block.Row(i)[l];
        code.SyndromesInto(lane, syn);
        for (unsigned j = 0; j < code.r(); ++j)
          want[std::size_t{j} * lines + l] = syn[j];
      }

      for (const BatchKernels* k : CompiledKernels()) {
        if (!KernelRunnable(*k)) continue;
        SCOPED_TRACE(k->name);
        code.UseKernelsForTest(*k);
        std::vector<Elem> got(want.size(), 0xAA);
        code.SyndromesBatchInto(block, got);
        ASSERT_EQ(got, want) << "lines=" << lines;
      }
    }
  }
}

TEST(RsBatchTest, DecodeBatchMatchesPerLineForEveryKernelAndShape) {
  Xoshiro256 rng(0xDEC0DE);
  for (rs::RsCode code : AllCodes()) {
    SCOPED_TRACE("n=" + std::to_string(code.n()) +
                 " k=" + std::to_string(code.k()));
    for (unsigned lines : kBatchSizes) {
      rs::CodewordBlock block;
      auto store = RandomBlock(code, lines, rng, block);
      code.UseKernelsForTest(ScalarKernels());
      code.EncodeBatchInto(block);

      // Mix of lane fates: clean, correctable (<= t errors), and heavy
      // (t + 1 errors — usually detected, occasionally miscorrected; the
      // batch path must replicate whatever per-line does, not "fix" it).
      // Lanes 1, 4, 7, ... also get an erasure list for the second pass:
      // their error positions plus spares, up to r + 1 entries (past r the
      // decoder reports kFailure even for a clean word).
      std::vector<std::vector<unsigned>> lists(lines);
      for (unsigned l = 0; l < lines; ++l) {
        const unsigned errs = rng.UniformBelow(code.t() + 2);
        std::set<unsigned> positions;
        while (positions.size() < errs)
          positions.insert(
              static_cast<unsigned>(rng.UniformBelow(code.n())));
        for (unsigned pos : positions)
          block.Row(pos)[l] ^= static_cast<Elem>(
              1 + rng.UniformBelow(code.field().Size() - 1));
        if (l % 3 != 1) continue;
        const auto f = static_cast<unsigned>(rng.UniformBelow(code.r() + 2));
        while (positions.size() < f)
          positions.insert(
              static_cast<unsigned>(rng.UniformBelow(code.n())));
        lists[l].assign(positions.begin(), positions.end());
      }

      for (const bool with_erasures : {false, true}) {
        SCOPED_TRACE(with_erasures ? "with erasure lists" : "errors only");
        std::vector<std::span<const unsigned>> erasures;
        if (with_erasures) erasures.assign(lists.begin(), lists.end());

        // Per-line oracle on copies.
        std::vector<std::vector<Elem>> want_words(lines);
        std::vector<rs::BatchLineResult> want(lines);
        rs::DecodeScratch oracle_scratch;
        for (unsigned l = 0; l < lines; ++l) {
          want_words[l].resize(code.n());
          for (unsigned i = 0; i < code.n(); ++i)
            want_words[l][i] = block.Row(i)[l];
          const rs::DecodeStatus st = code.Decode(
              want_words[l],
              with_erasures ? erasures[l] : std::span<const unsigned>{},
              oracle_scratch);
          want[l].status = st;
          want[l].corrected = st == rs::DecodeStatus::kCorrected
                                  ? oracle_scratch.NumCorrected()
                                  : 0;
        }

        for (const BatchKernels* k : CompiledKernels()) {
          if (!KernelRunnable(*k)) continue;
          SCOPED_TRACE(k->name);
          std::vector<Elem> copy = store;
          rs::CodewordBlock b{copy.data(), lines, code.n(), lines};
          code.UseKernelsForTest(*k);
          std::vector<rs::BatchLineResult> got(lines);
          rs::DecodeScratch scratch;
          code.DecodeBatch(b, got, scratch, erasures);
          for (unsigned l = 0; l < lines; ++l) {
            ASSERT_EQ(got[l].status, want[l].status) << "lane " << l;
            ASSERT_EQ(got[l].corrected, want[l].corrected) << "lane " << l;
            for (unsigned i = 0; i < code.n(); ++i)
              ASSERT_EQ(b.Row(i)[l], want_words[l][i])
                  << "lane " << l << " pos " << i;
          }
        }
      }
    }
  }
}

TEST(RsBatchTest, BatchOfOneIsThePerLinePath) {
  // The per-line API is literally a batch of one — spot-check the layout
  // contract that makes that true (stride 1, lines 1).
  const rs::RsCode code = rs::Gf256Code(68, 64);
  Xoshiro256 rng(0x0B1);
  std::vector<Elem> data(code.k());
  for (auto& s : data)
    s = static_cast<Elem>(rng.UniformBelow(code.field().Size()));
  std::vector<Elem> word(code.n());
  code.EncodeInto(data, word);
  EXPECT_TRUE(code.IsCodeword(word));
  const rs::CodewordBlock one{word.data(), 1, code.n(), 1};
  std::vector<Elem> syn(code.r(), 0xAA);
  code.SyndromesBatchInto(one, syn);
  EXPECT_TRUE(std::all_of(syn.begin(), syn.end(),
                          [](Elem s) { return s == 0; }));
}

}  // namespace
}  // namespace pair_ecc::gf
