// Property-based Reed-Solomon round-trip hardening.
//
// For every (n, k) configuration the simulator instantiates — PAIR-2
// (34, 32), PAIR-4 (68, 64), DUO (76, 64), their expanded siblings, and a
// deep (255, 223) code — seeded-random codewords are hit with random error
// patterns and the decode contract is checked exhaustively:
//
//   e <= t        decode restores the exact codeword and reports every
//                 corrupted position — no silent data change, no over- or
//                 under-counting.
//   t < e <= 2t   the pattern is beyond guaranteed correction but within
//                 the design distance, so kNoError is impossible. The
//                 decoder may fail (word must be byte-identical to the
//                 received word) or miscorrect — but a miscorrection must
//                 land on a true codeword AND carry a non-empty correction
//                 list, so the telemetry layer counts it. A "corrected"
//                 word that is not a codeword is the bug this test exists
//                 to catch.
//
// Deterministic: one pinned seed per configuration. CI also runs this
// binary under the asan-ubsan preset, where the allocation-free scratch
// decode path gets bounds- and UB-checked on every pattern.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "rs/rs_code.hpp"
#include "util/rng.hpp"

namespace pair_ecc::rs {
namespace {

using pair_ecc::util::Xoshiro256;

struct CodeConfig {
  const char* name;
  unsigned n, k;
};

// Every shape the schemes construct (see pair_config.hpp, duo.cpp,
// ablation.cpp) plus expanded siblings and a deep mother-code shortening.
constexpr CodeConfig kConfigs[] = {
    {"pair2", 34, 32},           // t = 1
    {"pair4", 68, 64},           // t = 2
    {"duo", 76, 64},             // t = 6
    {"pair2-expanded", 66, 64},  // PAIR-2 after one expansion step
    {"pair4-expanded", 132, 128},
    {"deep", 255, 223},          // t = 16, full-length mother code
};

std::vector<Elem> RandomData(const GfField& f, unsigned k, Xoshiro256& rng) {
  std::vector<Elem> d(k);
  for (auto& s : d) s = static_cast<Elem>(rng.UniformBelow(f.Size()));
  return d;
}

// Corrupts `count` distinct random positions with non-zero deltas; returns
// the chosen positions (sorted, courtesy of std::set).
std::vector<unsigned> InjectErrors(const GfField& f, std::vector<Elem>& word,
                                   unsigned count, Xoshiro256& rng) {
  std::set<unsigned> positions;
  while (positions.size() < count)
    positions.insert(static_cast<unsigned>(rng.UniformBelow(word.size())));
  for (unsigned pos : positions)
    word[pos] ^= static_cast<Elem>(1 + rng.UniformBelow(f.Size() - 1));
  return {positions.begin(), positions.end()};
}

TEST(RsProperty, CorrectableErrorsRoundTripExactly) {
  for (const auto& config : kConfigs) {
    SCOPED_TRACE(config.name);
    const RsCode code = Gf256Code(config.n, config.k);
    Xoshiro256 rng(0x5EED0000ull + config.n * 1000 + config.k);
    DecodeScratch scratch;

    for (unsigned round = 0; round < 40; ++round) {
      const auto data = RandomData(code.field(), code.k(), rng);
      const std::vector<Elem> codeword = code.Encode(data);
      const unsigned errors =
          static_cast<unsigned>(rng.UniformBelow(code.t() + 1));

      std::vector<Elem> received = codeword;
      const auto positions =
          InjectErrors(code.field(), received, errors, rng);

      std::vector<Elem> word = received;
      const DecodeStatus status = code.Decode(word, {}, scratch);
      SCOPED_TRACE("round " + std::to_string(round) + " errors " +
                   std::to_string(errors));
      ASSERT_EQ(word, codeword) << "decode did not restore the codeword";
      if (errors == 0) {
        EXPECT_EQ(status, DecodeStatus::kNoError);
        EXPECT_EQ(scratch.NumCorrected(), 0u);
      } else {
        ASSERT_EQ(status, DecodeStatus::kCorrected);
        ASSERT_EQ(scratch.NumCorrected(), errors)
            << "correction count must match the injected pattern";
        std::set<unsigned> reported;
        for (const auto& c : scratch.corrections) reported.insert(c.position);
        EXPECT_EQ(std::vector<unsigned>(reported.begin(), reported.end()),
                  positions);
      }
    }
  }
}

TEST(RsProperty, BeyondTNeverSilentlyMiscorrects) {
  for (const auto& config : kConfigs) {
    SCOPED_TRACE(config.name);
    const RsCode code = Gf256Code(config.n, config.k);
    Xoshiro256 rng(0xBAD0000ull + config.n * 1000 + config.k);
    DecodeScratch scratch;

    for (unsigned round = 0; round < 40; ++round) {
      const auto data = RandomData(code.field(), code.k(), rng);
      const std::vector<Elem> codeword = code.Encode(data);
      // t < e <= 2t: within the design distance, so the received word is
      // never itself a codeword and kNoError is a contract violation.
      const unsigned errors =
          code.t() + 1 +
          static_cast<unsigned>(rng.UniformBelow(code.t() + 1));

      std::vector<Elem> received = codeword;
      InjectErrors(code.field(), received, errors, rng);

      std::vector<Elem> word = received;
      const DecodeStatus status = code.Decode(word, {}, scratch);
      SCOPED_TRACE("round " + std::to_string(round) + " errors " +
                   std::to_string(errors));
      ASSERT_NE(status, DecodeStatus::kNoError)
          << "a pattern within the design distance cannot be a codeword";
      if (status == DecodeStatus::kFailure) {
        // Detected-uncorrectable: the word must be exactly as received so
        // the caller's DUE accounting sees the unmodified data.
        EXPECT_EQ(word, received);
        EXPECT_EQ(scratch.NumCorrected(), 0u);
      } else {
        // Miscorrection is information-theoretically possible, but it must
        // be (a) a real codeword and (b) visibly counted — this is what the
        // telemetry layer's miscorrection counters rely on.
        ASSERT_EQ(status, DecodeStatus::kCorrected);
        EXPECT_TRUE(code.IsCodeword(word))
            << "claimed correction must yield a codeword";
        EXPECT_GT(scratch.NumCorrected(), 0u)
            << "silent miscorrection: corrected with an empty count";
      }
    }
  }
}

TEST(RsProperty, ScratchAndAllocatingDecodesAgree) {
  // The allocation-free scratch path must be observationally identical to
  // the allocating one — same status, same corrections, same output word.
  const RsCode code = Gf256Code(68, 64);
  Xoshiro256 rng(0xA11A5ull);
  DecodeScratch scratch;
  for (unsigned round = 0; round < 60; ++round) {
    const auto data = RandomData(code.field(), code.k(), rng);
    std::vector<Elem> word = code.Encode(data);
    const unsigned errors =
        static_cast<unsigned>(rng.UniformBelow(2 * code.t() + 2));
    InjectErrors(code.field(), word, errors, rng);

    std::vector<Elem> a = word, b = word;
    const DecodeResult alloc = code.Decode(a);
    const DecodeStatus scr = code.Decode(b, {}, scratch);
    ASSERT_EQ(alloc.status, scr) << "round " << round;
    EXPECT_EQ(a, b) << "round " << round;
    EXPECT_EQ(alloc.NumCorrected(), scratch.NumCorrected());
  }
}

}  // namespace
}  // namespace pair_ecc::rs
