// Tests for the alignment-vs-code ablation schemes (PA-SEC and IL-RS) and
// the 2x2 behavioural matrix they form with IECC and PAIR-4:
//
//   * pin-aligned RS (PAIR)  corrects pin bursts (its design bound, walked
//                            in ecc_schemes_test);
//   * interleaved RS         detects but cannot correct them;
//   * pin-aligned SEC        contains a pin fault to one codeword but still
//                            miscorrects multi-bit patterns;
//   * interleaved SEC (IECC) smears the fault across every codeword.
#include <gtest/gtest.h>

#include "core/ablation.hpp"
#include "core/pair_scheme.hpp"
#include "dram/rank.hpp"
#include "ecc/scheme.hpp"
#include "util/rng.hpp"

namespace pair_ecc::core {
namespace {

using dram::Address;
using dram::Rank;
using dram::RankGeometry;
using ecc::Claim;
using pair_ecc::util::BitVec;
using pair_ecc::util::Xoshiro256;

// Shared round-trip behaviour for both ablation schemes.
class AblationParamTest : public ::testing::TestWithParam<int> {
 protected:
  AblationParamTest()
      : rank_(rg_),
        scheme_(GetParam() == 0 ? MakePinAlignedSec(rank_)
                                : MakeInterleavedRs(rank_)) {}
  RankGeometry rg_;
  Rank rank_{rg_};
  std::unique_ptr<ecc::Scheme> scheme_;
};

TEST_P(AblationParamTest, CleanRoundTrip) {
  Xoshiro256 rng(1);
  for (unsigned col : {0u, 7u, 63u, 64u, 127u}) {
    const Address addr{0, 3, col};
    const BitVec line = BitVec::Random(rg_.LineBits(), rng);
    scheme_->WriteLine(addr, line);
    const auto r = scheme_->ReadLine(addr);
    EXPECT_EQ(r.claim, Claim::kClean) << col;
    EXPECT_EQ(r.data, line) << col;
  }
}

TEST_P(AblationParamTest, SingleBitCorrected) {
  Xoshiro256 rng(2);
  for (int trial = 0; trial < 15; ++trial) {
    const Address addr{0, 4, static_cast<unsigned>(rng.UniformBelow(128))};
    const BitVec line = BitVec::Random(rg_.LineBits(), rng);
    scheme_->WriteLine(addr, line);
    const unsigned d = static_cast<unsigned>(rng.UniformBelow(8));
    const unsigned bit =
        addr.col * 64 + static_cast<unsigned>(rng.UniformBelow(64));
    rank_.device(d).InjectFlip(addr.bank, addr.row, bit);
    const auto r = scheme_->ReadLine(addr);
    EXPECT_EQ(r.claim, Claim::kCorrected);
    EXPECT_EQ(r.data, line);
    rank_.device(d).InjectFlip(addr.bank, addr.row, bit);  // undo
  }
}

TEST_P(AblationParamTest, InterleavedWritesStayConsistent) {
  Xoshiro256 rng(3);
  const Address a{0, 5, 10}, b{0, 5, 11};  // same codeword/segment region
  const BitVec la = BitVec::Random(rg_.LineBits(), rng);
  scheme_->WriteLine(a, la);
  const BitVec lb = BitVec::Random(rg_.LineBits(), rng);
  scheme_->WriteLine(b, lb);
  EXPECT_EQ(scheme_->ReadLine(a).data, la);
  EXPECT_EQ(scheme_->ReadLine(b).data, lb);
  EXPECT_EQ(scheme_->ReadLine(a).claim, Claim::kClean);
}

INSTANTIATE_TEST_SUITE_P(BothSchemes, AblationParamTest, ::testing::Values(0, 1),
                         [](const auto& param_info) {
                           return param_info.param == 0 ? std::string("PaSec")
                                                        : std::string("IlRs");
                         });

// ---------------------------------------------------- the 2x2 burst matrix

// Injects an 8-beat burst on one pin overlapping the read column; returns
// {delivered-correct, due, sdc} counts over trials.
struct BurstOutcome {
  int ok = 0;
  int due = 0;
  int sdc = 0;
};

template <typename MakeScheme>
BurstOutcome BurstSweep(MakeScheme make, unsigned trials, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  BurstOutcome out;
  for (unsigned trial = 0; trial < trials; ++trial) {
    RankGeometry rg;
    Rank rank(rg);
    auto scheme = make(rank);
    const auto col = static_cast<unsigned>(rng.UniformBelow(128));
    const Address addr{0, 1, col};
    const BitVec line = BitVec::Random(rg.LineBits(), rng);
    scheme->WriteLine(addr, line);
    const auto pin = static_cast<unsigned>(rng.UniformBelow(8));
    // 8-beat burst aligned to the read column's symbol.
    for (unsigned i = 0; i < 8; ++i)
      rank.device(2).InjectFlip(0, 1,
                                dram::PinLineBit(rg.device, pin, col * 8 + i));
    const auto r = scheme->ReadLine(addr);
    if (r.claim == Claim::kDetected) {
      ++out.due;
    } else if (r.data == line) {
      ++out.ok;
    } else {
      ++out.sdc;
    }
  }
  return out;
}

TEST(AlignmentMatrix, InterleavedRsOnlyDetectsBursts) {
  // The same code, pin-oblivious layout: the 8 burst bits scatter into 8
  // distinct symbols -> beyond t, DUE.
  const auto out = BurstSweep(
      [](Rank& r) { return MakeInterleavedRs(r); }, 40, 12);
  EXPECT_EQ(out.ok, 0);
  EXPECT_GT(out.due, 35);   // bounded-distance failure
  EXPECT_LT(out.sdc, 5);    // rare aliasing only
}

TEST(AlignmentMatrix, PinAlignedSecMiscorrectsBursts) {
  // Alignment without symbol structure: the burst is contained to one
  // codeword, but a SEC code facing 8 errors mostly picks a wrong bit.
  const auto out = BurstSweep(
      [](Rank& r) { return MakePinAlignedSec(r); }, 60, 13);
  EXPECT_EQ(out.ok, 0);
  EXPECT_GT(out.sdc, 20);  // the miscorrection problem, alignment or not
}

TEST(AlignmentMatrix, PinFaultContainment) {
  // A stuck pin under PA-SEC damages exactly one codeword per segment —
  // delivered errors stay on that pin (containment holds even though the
  // code cannot repair them).
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = MakePinAlignedSec(rank);
  Xoshiro256 rng(14);
  const Address addr{0, 2, 30};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme->WriteLine(addr, line);
  for (unsigned i = 0; i < rg.device.PinLineBits(); ++i) {
    const unsigned bit = dram::PinLineBit(rg.device, 6, i);
    dram::Device& dev = rank.device(4);
    dev.SetStuck(0, 2, bit, !dev.ReadBits(0, 2, bit, 1).Get(0));
  }
  const auto r = scheme->ReadLine(addr);
  const BitVec diff = r.data ^ line;
  EXPECT_GT(diff.Popcount(), 0u);
  for (auto bit : diff.SetBits()) {
    EXPECT_EQ(bit / 64, 4u);        // only device 4
    EXPECT_EQ((bit % 64) % 8, 6u);  // only pin 6
  }
}

TEST(AlignmentMatrix, GeometryValidation) {
  RankGeometry rg;
  rg.device.spare_row_bits = 8;
  Rank rank(rg);
  EXPECT_THROW(MakePinAlignedSec(rank), std::invalid_argument);
  EXPECT_THROW(MakeInterleavedRs(rank), std::invalid_argument);
}

TEST(AlignmentMatrix, NamesAndOverheads) {
  RankGeometry rg;
  Rank rank(rg);
  auto pa = MakePinAlignedSec(rank);
  auto il = MakeInterleavedRs(rank);
  EXPECT_EQ(pa->Name(), "PA-SEC");
  EXPECT_EQ(il->Name(), "IL-RS");
  // IL-RS pays the same budget as PAIR-4; PA-SEC is cheaper (10 b / 512 b).
  EXPECT_NEAR(il->Perf().storage_overhead, 0.0625, 1e-9);
  EXPECT_NEAR(pa->Perf().storage_overhead, 10.0 / 512.0, 1e-9);
}

}  // namespace
}  // namespace pair_ecc::core
