// PAIR-specific behaviour (its x8 design bound is walked in
// ecc_schemes_test): pin containment, long-burst detection, delta-parity
// writes, erasure repair lists, patrol scrubbing, the x4/x16 widths and
// expandability variants, the scrub-on-write ablation, and the staging
// routine and stores against per-bit references.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/pair_scheme.hpp"
#include "dram/rank.hpp"
#include "ecc/scheme.hpp"
#include "faults/injector.hpp"
#include "util/rng.hpp"

namespace pair_ecc::core {
namespace {

using dram::Address;
using dram::Rank;
using dram::RankGeometry;
using ecc::Claim;
using pair_ecc::util::BitVec;
using pair_ecc::util::Xoshiro256;

class PairTest : public ::testing::Test {
 protected:
  PairTest() : rank_(rg_), scheme_(rank_, PairConfig::Pair4()) {}

  BitVec WriteRandom(const Address& addr, Xoshiro256& rng) {
    const BitVec line = BitVec::Random(rg_.LineBits(), rng);
    scheme_.WriteLine(addr, line);
    return line;
  }

  RankGeometry rg_;
  Rank rank_{rg_};
  PairScheme scheme_;
};

TEST_F(PairTest, GeometryDerivation) {
  // 1024 pin-line bits = 128 symbols; k = 64 -> 2 codewords per pin.
  EXPECT_EQ(scheme_.CodewordsPerPin(), 2u);
  EXPECT_EQ(scheme_.code().n(), 68u);
  EXPECT_EQ(scheme_.code().t(), 2u);
}

TEST_F(PairTest, ParityBudgetExactlyFillsSpareRegion) {
  // 8 pins x 2 codewords x 4 check symbols x 8 bits == 512 == spare bits:
  // PAIR consumes precisely the vendor redundancy budget.
  const unsigned parity_bits =
      rg_.device.dq_pins * scheme_.CodewordsPerPin() * 4 * 8;
  EXPECT_EQ(parity_bits, rg_.device.spare_row_bits);
}

TEST_F(PairTest, LongBurstIsDetectedNeverSilent) {
  // 32-beat bursts span 4-5 symbols > t: bounded-distance decoding must
  // detect (or, vanishingly rarely, miscorrect — but never claim clean with
  // wrong data in this deterministic sweep).
  Xoshiro256 rng(102);
  faults::Injector injector(rank_, {{0, 3}});
  int detected = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Address addr{0, 3, 5};
    const BitVec line = WriteRandom(addr, rng);
    const auto f = injector.InjectPinBurst(/*device=*/0, /*length=*/32, rng);
    (void)f;
    const auto r = scheme_.ReadLine(addr);
    if (r.claim == Claim::kDetected) {
      ++detected;
    } else {
      EXPECT_EQ(r.data, line) << trial;  // burst may miss the read column
    }
    scheme_.ScrubRow(0, 3);
    scheme_.WriteLine(addr, line);
  }
  EXPECT_GT(detected, 0);
}

TEST_F(PairTest, PinFaultIsContainedAndDetected) {
  Xoshiro256 rng(103);
  int sdc = 0, detected = 0;
  for (unsigned trial = 0; trial < 30; ++trial) {
    // A fresh row per trial, so no earlier trial's stuck pin remains.
    const Address addr{0, 4 + trial, 60};
    faults::Injector injector(rank_, {{addr.bank, addr.row}});
    const BitVec line = WriteRandom(addr, rng);
    injector.Inject(faults::FaultType::kSinglePin, true, rng);
    const auto r = scheme_.ReadLine(addr);
    if (r.claim == Claim::kDetected) {
      ++detected;
      // Containment: only the faulty device's faulty pin may be wrong.
      const BitVec diff = r.data ^ line;
      for (auto bit : diff.SetBits()) {
        const unsigned dev_local = static_cast<unsigned>(bit) % 64;
        EXPECT_EQ(dev_local % 8, diff.SetBits().front() % 64 % 8)
            << "damage crossed pins";
      }
    } else if (r.data != line) {
      ++sdc;
    }
  }
  EXPECT_EQ(sdc, 0);
  EXPECT_GT(detected, 20);  // a stuck pin is essentially always caught
}

TEST_F(PairTest, PinFaultLeavesOtherPinsDecodable) {
  // Even with a whole pin dead, the other 63 pin codewords of the row must
  // decode clean — the fault is contained to one codeword per segment.
  Xoshiro256 rng(104);
  const Address addr{0, 5, 7};
  const BitVec line = WriteRandom(addr, rng);
  // Kill pin 2 of device 6 by hand (stuck-at inverted = always wrong).
  const auto& g = rg_.device;
  for (unsigned i = 0; i < g.PinLineBits(); ++i) {
    const unsigned bit = dram::PinLineBit(g, 2, i);
    dram::Device& dev = rank_.device(6);
    dev.SetStuck(0, 5, bit, !dev.ReadBits(0, 5, bit, 1).Get(0));
  }
  const auto r = scheme_.ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kDetected);
  // All delivered bits except device 6 pin 2 must be correct.
  const BitVec diff = r.data ^ line;
  for (auto bit : diff.SetBits()) {
    EXPECT_EQ(bit / 64, 6u);       // device 6
    EXPECT_EQ((bit % 64) % 8, 2u); // pin 2
  }
  EXPECT_GT(diff.Popcount(), 0u);
}

TEST_F(PairTest, DeltaParityWritePathMatchesFullReencode) {
  // Write many lines through the delta path, then verify every codeword of
  // the row is a valid RS codeword (parity kept perfectly in sync).
  Xoshiro256 rng(105);
  for (int i = 0; i < 300; ++i) {
    const Address addr{0, 6, static_cast<unsigned>(rng.UniformBelow(128))};
    WriteRandom(addr, rng);
  }
  const auto stats = scheme_.ScrubRow(0, 6);
  EXPECT_EQ(stats.codewords, 8u * 8u * 2u);
  EXPECT_EQ(stats.corrected, 0u);
  EXPECT_EQ(stats.uncorrectable, 0u);
}

TEST_F(PairTest, ErasureListRaisesCorrectionPower) {
  // 4 known-bad symbols in one codeword exceed t = 2, but with the repair
  // list they decode as erasures (f = 4 <= r = 4).
  Xoshiro256 rng(106);
  const Address addr{0, 7, 0};
  const BitVec line = WriteRandom(addr, rng);
  // Also fill the rest of the codeword's columns so symbols are defined.
  std::vector<BitVec> lines;
  for (unsigned col = 1; col < 64; ++col) {
    lines.push_back(BitVec::Random(rg_.LineBits(), rng));
    scheme_.WriteLine({0, 7, col}, lines.back());
  }
  // Corrupt symbols 0, 10, 20, 30 of (device 0, pin 0, codeword 0): these
  // are pin-line bits of columns 0, 10, 20, 30.
  for (unsigned s : {0u, 10u, 20u, 30u}) {
    rank_.device(0).InjectFlip(0, 7, dram::PinLineBit(rg_.device, 0, s * 8 + 3));
    rank_.device(0).InjectFlip(0, 7, dram::PinLineBit(rg_.device, 0, s * 8 + 5));
  }
  // Without the repair list: 4 symbol errors -> detected.
  EXPECT_EQ(scheme_.ReadLine(addr).claim, Claim::kDetected);
  for (unsigned s : {0u, 10u, 20u, 30u})
    scheme_.MarkSymbolErased(/*device=*/0, /*pin=*/0, /*w=*/0, /*position=*/s);
  const auto r = scheme_.ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kCorrected);
  EXPECT_EQ(r.data, line);
}

TEST_F(PairTest, MarkSymbolErasedValidatesArguments) {
  EXPECT_THROW(scheme_.MarkSymbolErased(8, 0, 0, 0), std::invalid_argument);
  EXPECT_THROW(scheme_.MarkSymbolErased(0, 8, 0, 0), std::invalid_argument);
  EXPECT_THROW(scheme_.MarkSymbolErased(0, 0, 2, 0), std::invalid_argument);
  EXPECT_THROW(scheme_.MarkSymbolErased(0, 0, 0, 68), std::invalid_argument);
  // Duplicate registration is idempotent, not an error.
  scheme_.MarkSymbolErased(0, 0, 0, 5);
  scheme_.MarkSymbolErased(0, 0, 0, 5);
}

TEST_F(PairTest, ScrubRowClearsAccumulatedTransients) {
  Xoshiro256 rng(107);
  const Address addr{0, 8, 33};
  const BitVec line = WriteRandom(addr, rng);
  rank_.device(2).InjectFlip(0, 8, 33 * 64 + 9);
  const auto stats = scheme_.ScrubRow(0, 8);
  EXPECT_EQ(stats.corrected, 1u);
  // After scrubbing, the read is clean (not merely corrected).
  const auto r = scheme_.ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kClean);
  EXPECT_EQ(r.data, line);
}

TEST(PairVariants, Pair2GeometryAndSingleSymbolCorrection) {
  RankGeometry rg;
  Rank rank(rg);
  PairScheme scheme(rank, PairConfig::Pair2());
  EXPECT_EQ(scheme.code().n(), 34u);
  EXPECT_EQ(scheme.code().t(), 1u);
  EXPECT_EQ(scheme.CodewordsPerPin(), 4u);
  Xoshiro256 rng(108);
  const Address addr{0, 0, 17};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme.WriteLine(addr, line);
  rank.device(5).InjectFlip(0, 0, 17 * 64 + 20);
  const auto r = scheme.ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kCorrected);
  EXPECT_EQ(r.data, line);
}

TEST(PairVariants, Pair2MostlyDetectsDoubleSymbolErrors) {
  // A t=1 RS code presented with two symbol errors usually detects, but a
  // minority of weight-2 patterns sit within distance 1 of another codeword
  // and miscorrect (d = 3). PAIR-2 inherits that — it is why the paper's
  // default is the t=2 variant. Verify the codec exhibits both behaviours
  // with detection dominating.
  RankGeometry rg;
  Xoshiro256 rng(109);
  int sdc = 0, detected = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Rank rank(rg);  // fresh state per trial
    PairScheme scheme(rank, PairConfig::Pair2());
    const Address addr{0, 0, 2};
    const BitVec line = BitVec::Random(rg.LineBits(), rng);
    scheme.WriteLine(addr, line);
    // Two symbols of the same codeword (pin 0 of device 0): columns 2, 3,
    // with random in-symbol damage.
    rank.device(0).InjectFlip(0, 0, 2 * 64 + 8 * rng.UniformBelow(8));
    rank.device(0).InjectFlip(0, 0, 3 * 64 + 8 * rng.UniformBelow(8));
    const auto r = scheme.ReadLine(addr);
    if (r.claim == Claim::kDetected) {
      ++detected;
    } else if (r.data != line) {
      ++sdc;
    }
  }
  EXPECT_GT(detected, 40);   // detection dominates
  EXPECT_LT(sdc, 20);        // miscorrection is the (real) minority path
}

TEST(PairAblation, ScrubOnWriteModeStaysConsistent) {
  RankGeometry rg;
  Rank rank(rg);
  PairConfig cfg = PairConfig::Pair4();
  cfg.scrub_on_write = true;
  PairScheme scheme(rank, cfg);
  EXPECT_TRUE(scheme.Perf().write_rmw);
  Xoshiro256 rng(110);
  for (int i = 0; i < 100; ++i) {
    const Address addr{0, 0, static_cast<unsigned>(rng.UniformBelow(128))};
    scheme.WriteLine(addr, BitVec::Random(rg.LineBits(), rng));
  }
  const auto stats = scheme.ScrubRow(0, 0);
  EXPECT_EQ(stats.corrected, 0u);
  EXPECT_EQ(stats.uncorrectable, 0u);
}

TEST(PairAblation, ScrubOnWriteRepairsLatentErrorBeforeOverwrite) {
  // The RMW mode's one advantage: a latent error in the codeword is
  // corrected during the write instead of lingering. Verify the repair.
  RankGeometry rg;
  Rank rank(rg);
  PairConfig cfg = PairConfig::Pair4();
  cfg.scrub_on_write = true;
  PairScheme scheme(rank, cfg);
  Xoshiro256 rng(111);
  const Address victim{0, 0, 10};   // same codeword as column 11 (w = 0)
  const Address writer{0, 0, 11};
  const BitVec lv = BitVec::Random(rg.LineBits(), rng);
  scheme.WriteLine(victim, lv);
  rank.device(1).InjectFlip(0, 0, 10 * 64 + 5);  // latent error at col 10
  scheme.WriteLine(writer, BitVec::Random(rg.LineBits(), rng));
  // The write to column 11 scrubbed the shared codeword: col 10 reads clean.
  const auto r = scheme.ReadLine(victim);
  EXPECT_EQ(r.claim, Claim::kClean);
  EXPECT_EQ(r.data, lv);
}

TEST(PairConfigTest, ValidationAndNames) {
  PairConfig c;
  c.data_symbols = 0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = PairConfig::Pair4();
  c.data_symbols = 254;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  EXPECT_EQ(PairConfig::Pair4().Name(), "PAIR-4");
  EXPECT_EQ(PairConfig::Pair2().Name(), "PAIR-2");
  PairConfig rmw = PairConfig::Pair4();
  rmw.scrub_on_write = true;
  EXPECT_EQ(rmw.Name(), "PAIR-4(rmw)");
}

TEST(PairGeometry, RejectsIncompatibleGeometries) {
  RankGeometry rg;
  rg.device.burst_length = 4;  // not a whole symbol per column per pin
  rg.device.row_bits = 8192;
  Rank rank(rg);
  EXPECT_THROW(PairScheme(rank, PairConfig::Pair4()), std::invalid_argument);

  RankGeometry rg2;
  rg2.device.spare_row_bits = 100;  // too small for parity
  Rank rank2(rg2);
  EXPECT_THROW(PairScheme(rank2, PairConfig::Pair4()), std::invalid_argument);
}

class PairWidthTest : public ::testing::TestWithParam<unsigned> {
 protected:
  static RankGeometry Geometry(unsigned pins) {
    RankGeometry rg;
    rg.device.dq_pins = pins;
    rg.data_devices = 64 / pins;  // constant 64-bit bus
    return rg;
  }
};

TEST_P(PairWidthTest, TilesPinLinesAtTheSameBudget) {
  const RankGeometry rg = Geometry(GetParam());
  Rank rank(rg);
  PairScheme scheme(rank, PairConfig::Pair4());
  // cw/pin * pins is constant: 512 parity bits per row at every width.
  EXPECT_EQ(scheme.CodewordsPerPin() * GetParam() * 4 * 8, 512u);
}

TEST_P(PairWidthTest, RoundTripAndSingleSymbolCorrection) {
  const RankGeometry rg = Geometry(GetParam());
  Rank rank(rg);
  PairScheme scheme(rank, PairConfig::Pair4());
  Xoshiro256 rng(300 + GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const Address addr{
        0, 2, static_cast<unsigned>(rng.UniformBelow(rg.device.ColumnsPerRow()))};
    const BitVec line = BitVec::Random(rg.LineBits(), rng);
    scheme.WriteLine(addr, line);
    const unsigned d = static_cast<unsigned>(rng.UniformBelow(rank.DataDevices()));
    const unsigned bit = addr.col * rg.device.AccessBits() +
                         static_cast<unsigned>(
                             rng.UniformBelow(rg.device.AccessBits()));
    rank.device(d).InjectFlip(addr.bank, addr.row, bit);
    const auto r = scheme.ReadLine(addr);
    EXPECT_EQ(r.claim, Claim::kCorrected) << "x" << GetParam();
    EXPECT_EQ(r.data, line);
    rank.device(d).InjectFlip(addr.bank, addr.row, bit);
  }
}

TEST_P(PairWidthTest, AlignedBurstCorrectedAtEveryWidth) {
  const RankGeometry rg = Geometry(GetParam());
  Rank rank(rg);
  PairScheme scheme(rank, PairConfig::Pair4());
  Xoshiro256 rng(400 + GetParam());
  const Address addr{0, 3, 5};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme.WriteLine(addr, line);
  // 8-beat burst on one pin of one device, aligned to the read column.
  for (unsigned i = 0; i < 8; ++i)
    rank.device(0).InjectFlip(0, 3, dram::PinLineBit(rg.device, 1, 5 * 8 + i));
  const auto r = scheme.ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kCorrected);
  EXPECT_EQ(r.data, line);
}

INSTANTIATE_TEST_SUITE_P(Widths, PairWidthTest,
                         ::testing::Values(4u, 8u, 16u));

// ------------------------------------------------------------ staging

// The one staging routine against a per-bit model of the layout, and the
// stores behind it against a per-bit model of storage. PAIR's per-line and
// batch entry points run the same body, so these (not the batch-vs-line
// comparison in ecc_schemes_test) are what pin its data movement.
struct StagingGeometry {
  const char* name;
  RankGeometry rg;
};

std::vector<StagingGeometry> StagingGeometries() {
  std::vector<StagingGeometry> out;
  for (unsigned pins : {4u, 8u, 16u}) {
    RankGeometry rg;
    rg.device.dq_pins = pins;
    rg.data_devices = 64 / pins;  // PairWidthTest's constant 64-bit bus
    out.push_back({pins == 4 ? "x4" : pins == 8 ? "x8" : "x16", rg});
  }
  RankGeometry ddr5;
  ddr5.device = dram::DeviceGeometry::Ddr5x8();
  out.push_back({"ddr5_bl16", ddr5});
  RankGeometry hbm3;
  hbm3.device = dram::DeviceGeometry::Hbm3();
  hbm3.data_devices = 4;
  out.push_back({"hbm3", hbm3});
  return out;
}

void PrintTo(const StagingGeometry& geometry, std::ostream* os) {
  *os << geometry.name;
}

class PairStagingTest : public ::testing::TestWithParam<StagingGeometry> {};

/// Spare-region bit of check symbol j of codeword (pin, w), bit b.
unsigned RefParityBit(const dram::DeviceGeometry& g, const PairScheme& scheme,
                      unsigned pin, unsigned w, unsigned j, unsigned b) {
  return g.row_bits +
         ((pin * scheme.CodewordsPerPin() + w) * scheme.code().r() + j) * 8 +
         b;
}

/// Data symbol i of codeword (pin, w) of a row image, bit by bit along the
/// pin line.
gf::Elem RefDataSymbol(const dram::DeviceGeometry& g, const BitVec& image,
                       unsigned k, unsigned pin, unsigned w, unsigned i) {
  unsigned v = 0;
  for (unsigned b = 0; b < 8; ++b)
    v |= static_cast<unsigned>(
             image.Get(dram::PinLineBit(g, pin, (w * k + i) * 8 + b)))
         << b;
  return static_cast<gf::Elem>(v);
}

TEST_P(PairStagingTest, StagedBlockMatchesPerBitReference) {
  const RankGeometry& rg = GetParam().rg;
  const auto& g = rg.device;
  Rank rank(rg);
  PairScheme scheme(rank, PairConfig::Pair4());
  const unsigned k = scheme.code().k();
  const unsigned bank = 1, row = 3;
  Xoshiro256 rng(500);
  // Random row images, with stuck bits of both polarities over them.
  for (unsigned d = 0; d < rank.DataDevices(); ++d) {
    auto& dev = rank.device(d);
    dev.WriteBits(bank, row, 0, BitVec::Random(g.TotalRowBits(), rng));
    for (int i = 0; i < 64; ++i)
      dev.SetStuck(bank, row,
                   static_cast<unsigned>(rng.UniformBelow(g.TotalRowBits())),
                   rng.UniformBelow(2) != 0);
  }
  const unsigned cw = scheme.CodewordsPerPin();
  // The whole row, and the last codeword of every pin on its own.
  for (const auto& [w_begin, wcount] :
       {std::pair{0u, cw}, std::pair{cw - 1, 1u}}) {
    const rs::CodewordBlock block =
        scheme.StageCodewords(bank, row, w_begin, wcount);
    ASSERT_EQ(block.lines, wcount * rank.DataDevices() * g.dq_pins);
    for (unsigned d = 0; d < rank.DataDevices(); ++d) {
      const BitVec image = rank.device(d).ReadBits(bank, row, 0, g.TotalRowBits());
      for (unsigned wi = 0; wi < wcount; ++wi) {
        const unsigned w = w_begin + wi;
        for (unsigned pin = 0; pin < g.dq_pins; ++pin) {
          const unsigned lane = (wi * rank.DataDevices() + d) * g.dq_pins + pin;
          for (unsigned pos = 0; pos < scheme.code().n(); ++pos) {
            unsigned want = 0;
            if (pos < k) {
              want = RefDataSymbol(g, image, k, pin, w, pos);
            } else {
              for (unsigned b = 0; b < 8; ++b)
                want |= static_cast<unsigned>(image.Get(
                            RefParityBit(g, scheme, pin, w, pos - k, b)))
                        << b;
            }
            ASSERT_EQ(block.Row(pos)[lane], want)
                << GetParam().name << " device " << d << " pin " << pin
                << " codeword " << w << " position " << pos;
          }
        }
      }
    }
  }
}

TEST_P(PairStagingTest, WritesLeaveStorageUnderOtherPinsStuckCellsAlone) {
  // Fill a row through PAIR, then hide a disagreement under stuck cells of
  // pin A: stuck at the value read, with the storage underneath flipped.
  // Reads, and so every codeword, stay clean. Overwrites that keep pin A's
  // data must write only the other pins' changed symbols and their parity;
  // the raw stored rows must equal the per-bit reference.
  const RankGeometry& rg = GetParam().rg;
  const auto& g = rg.device;
  Rank rank(rg);
  PairScheme scheme(rank, PairConfig::Pair4());
  const unsigned pins = g.dq_pins;
  const unsigned k = scheme.code().k();
  const unsigned cw = scheme.CodewordsPerPin();
  const unsigned bank = 0, row = 2, pin_a = 1;
  Xoshiro256 rng(501);
  std::vector<BitVec> lines;
  for (unsigned col = 0; col < g.ColumnsPerRow(); ++col) {
    lines.push_back(BitVec::Random(rg.LineBits(), rng));
    scheme.WriteLine({bank, row, col}, lines.back());
  }
  std::vector<BitVec> ref;
  for (unsigned d = 0; d < rank.DataDevices(); ++d)
    ref.push_back(rank.device(d).ReadBits(bank, row, 0, g.TotalRowBits()));

  for (int i = 0; i < 48; ++i) {
    const auto d = static_cast<unsigned>(rng.UniformBelow(rank.DataDevices()));
    const auto w = static_cast<unsigned>(rng.UniformBelow(cw));
    const unsigned bit =
        i % 4 == 0
            ? RefParityBit(g, scheme, pin_a, w,
                           static_cast<unsigned>(rng.UniformBelow(4)),
                           static_cast<unsigned>(rng.UniformBelow(8)))
            : dram::PinLineBit(g, pin_a,
                               static_cast<unsigned>(
                                   rng.UniformBelow(g.PinLineBits())));
    auto& dev = rank.device(d);
    dev.SetStuck(bank, row, bit, dev.ReadBits(bank, row, bit, 1).Get(0));
    dev.InjectFlip(bank, row, bit);
    ref[d].Flip(bit);
  }

  for (int t = 0; t < 16; ++t) {
    const auto col = static_cast<unsigned>(rng.UniformBelow(g.ColumnsPerRow()));
    BitVec line = BitVec::Random(rg.LineBits(), rng);
    for (unsigned d = 0; d < rank.DataDevices(); ++d) {
      for (unsigned beat = 0; beat < g.burst_length; ++beat) {
        const unsigned base = d * g.AccessBits() + beat * pins;
        line.Set(base + pin_a, lines[col].Get(base + pin_a));
        for (unsigned pin = 0; pin < pins; ++pin)
          if (pin != pin_a)
            ref[d].Set(col * g.AccessBits() + beat * pins + pin,
                       line.Get(base + pin));
      }
    }
    scheme.WriteLine({bank, row, col}, line);
    lines[col] = line;
  }
  // Every codeword of the other pins is consistent, so its reference parity
  // is the encoding of its reference data. Pin A's parity was never written.
  for (unsigned d = 0; d < rank.DataDevices(); ++d) {
    for (unsigned pin = 0; pin < pins; ++pin) {
      if (pin == pin_a) continue;
      for (unsigned w = 0; w < cw; ++w) {
        std::vector<gf::Elem> data(k);
        for (unsigned i = 0; i < k; ++i)
          data[i] = RefDataSymbol(g, ref[d], k, pin, w, i);
        std::vector<gf::Elem> parity(scheme.code().r());
        scheme.code().ComputeParityInto(data, parity);
        for (unsigned j = 0; j < parity.size(); ++j)
          for (unsigned b = 0; b < 8; ++b)
            ref[d].Set(RefParityBit(g, scheme, pin, w, j, b),
                       (parity[j] >> b) & 1u);
      }
    }
  }
  for (unsigned d = 0; d < rank.DataDevices(); ++d) {
    const dram::Device::Row* cells = rank.device(d).FindRow(bank, row);
    ASSERT_NE(cells, nullptr) << d;
    EXPECT_EQ(cells->Stored(), ref[d]) << GetParam().name << " device " << d;
  }
}

TEST_P(PairStagingTest, SymbolOfBitNamesTheOneStagedSymbolABitReaches) {
  // Stick each bit of the row at its complement in turn, then back at the
  // value it read: staging must change exactly the symbol SymbolOfBit
  // names, or nothing for an unused spare cell. The expanded RS(132,128)
  // leaves half the spare region unused where 128 symbols tile a pin line.
  // The map is per device row, so two data devices (bit b on device b % 2)
  // cover it at a fraction of the staging cost of a full rank.
  RankGeometry rg = GetParam().rg;
  rg.data_devices = 2;
  const auto& g = rg.device;
  PairConfig expanded = PairConfig::Pair4();
  expanded.data_symbols = 128;
  std::vector<PairConfig> configs = {PairConfig::Pair2(), PairConfig::Pair4()};
  if (g.PinLineBits() / 8 % expanded.data_symbols == 0)
    configs.push_back(expanded);
  for (const PairConfig& config : configs) {
    Rank rank(rg);
    PairScheme scheme(rank, config);
    const unsigned n = scheme.code().n();
    const unsigned cw = scheme.CodewordsPerPin();
    const unsigned bank = 1, row = 3;
    Xoshiro256 rng(502);
    for (unsigned d = 0; d < rank.DataDevices(); ++d)
      rank.device(d).WriteBits(bank, row, 0,
                               BitVec::Random(g.TotalRowBits(), rng));
    const rs::CodewordBlock staged = scheme.StageCodewords(bank, row, 0, cw);
    ASSERT_EQ(staged.stride, staged.lines);  // positions are contiguous
    const std::size_t lanes = staged.lines;
    const std::vector<gf::Elem> clean(staged.Row(0),
                                      staged.Row(0) + n * lanes);
    unsigned unused = 0;
    for (unsigned bit = 0; bit < g.TotalRowBits(); ++bit) {
      const unsigned d = bit % rank.DataDevices();
      auto& dev = rank.device(d);
      const bool reads = dev.ReadBits(bank, row, bit, 1).Get(0);
      dev.SetStuck(bank, row, bit, !reads);
      const rs::CodewordBlock block = scheme.StageCodewords(bank, row, 0, cw);
      dev.SetStuck(bank, row, bit, reads);
      std::vector<std::size_t> changed;
      for (std::size_t i = 0; i < clean.size(); ++i)
        if (block.Row(0)[i] != clean[i]) changed.push_back(i);
      const auto symbol = scheme.SymbolOfBit(bit);
      if (!symbol) {
        ++unused;
        ASSERT_TRUE(changed.empty()) << config.Name() << " bit " << bit;
        continue;
      }
      const std::size_t lane =
          (std::size_t{symbol->w} * rank.DataDevices() + d) * g.dq_pins +
          symbol->pin;
      ASSERT_EQ(changed, (std::vector<std::size_t>{symbol->position * lanes +
                                                   lane}))
          << GetParam().name << " " << config.Name() << " k "
          << scheme.code().k() << " bit " << bit;
    }
    const unsigned parity_bits = g.dq_pins * cw * (n - scheme.code().k()) * 8;
    EXPECT_EQ(unused, g.spare_row_bits - parity_bits) << config.Name();
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, PairStagingTest,
                         ::testing::ValuesIn(StagingGeometries()),
                         [](const auto& param_info) {
                           return std::string(param_info.param.name);
                         });

// ------------------------------------------------- row-batched line path
//
// WriteLines/ReadLines stage a run of addresses on one row once; WriteLine
// and ReadLine are one-line runs. A batch must store exactly the bits, and
// return exactly the results and counters, of the per-line sequence: for
// runs that write a codeword's lanes several times, overwrite lines within
// the run, over dirty codewords, and on a row whose stuck cells read back
// other values than were written there (the block would drift from the
// array if such a row were staged once per run).

struct BatchVariant {
  const char* name;
  PairConfig config;
  bool erasures;
};

std::vector<BatchVariant> BatchVariants() {
  PairConfig scrub = PairConfig::Pair4();
  scrub.scrub_on_write = true;
  PairConfig covering = PairConfig::Pair4();
  covering.decode_full_pin_line = false;
  return {{"pair4", PairConfig::Pair4(), false},
          {"scrub_on_write", scrub, false},
          {"covering_only", covering, false},
          {"erasures", PairConfig::Pair4(), true},
          {"pair2", PairConfig::Pair2(), false}};
}

void PrintTo(const BatchVariant& variant, std::ostream* os) {
  *os << variant.name;
}

class PairBatchTest : public ::testing::TestWithParam<
                          std::tuple<StagingGeometry, BatchVariant>> {};

TEST_P(PairBatchTest, RowRunsMatchThePerLineSequenceBitwise) {
  const RankGeometry& rg = std::get<0>(GetParam()).rg;
  const BatchVariant& variant = std::get<1>(GetParam());
  const auto& g = rg.device;
  Rank line_rank(rg), batch_rank(rg);
  PairScheme per_line(line_rank, variant.config);
  PairScheme batch(batch_rank, variant.config);
  const unsigned cw = per_line.CodewordsPerPin();
  if (variant.erasures) {
    for (PairScheme* s : {&per_line, &batch}) {
      s->MarkSymbolErased(0, 0, 0, 5);
      s->MarkSymbolErased(1, g.dq_pins - 1, cw - 1, s->code().k() + 1);
    }
  }

  // Rows a and c are stuck-free; row b has stuck cells on data device 1.
  // Row b gets one run and nothing after it: a later write re-encoding
  // the stuck codeword from what the array returns would hide a block
  // that drifted from the array.
  const unsigned cols = g.ColumnsPerRow();
  const Address a0{0, 5, 0}, b0{1, 6, 0}, c0{1, 7, 0};
  const auto at = [](Address row, unsigned col) {
    row.col = col;
    return row;
  };
  const std::vector<Address> addrs = {
      at(a0, 1), at(a0, cols / 2), at(a0, 2), at(a0, cols - 1), at(a0, 1),
      at(b0, 1), at(b0, 2),        at(b0, 3), at(b0, 5),        at(b0, 2),
      at(a0, 3), at(c0, cols / 2)};
  Xoshiro256 rng(700);
  std::vector<BitVec> lines;
  for (std::size_t i = 0; i < addrs.size(); ++i)
    lines.push_back(BitVec::Random(rg.LineBits(), rng));

  // Stuck at the complement of the first bit each of b's columns 1, 2, 3
  // and 5 gets on pin 0 of device 1: four symbol errors in one codeword,
  // beyond t, whose storage takes the writes underneath. Plus random stuck
  // cells among that codeword's check symbols.
  const unsigned d = 1;
  for (const std::size_t i : {5u, 6u, 7u, 8u}) {
    const unsigned bit = addrs[i].col * g.AccessBits();
    const bool value = !lines[i].Get(d * g.AccessBits());
    line_rank.device(d).SetStuck(b0.bank, b0.row, bit, value);
    batch_rank.device(d).SetStuck(b0.bank, b0.row, bit, value);
  }
  for (unsigned j = 0; j < 6; ++j) {
    const unsigned bit = RefParityBit(
        g, per_line, 0, 0,
        static_cast<unsigned>(rng.UniformBelow(per_line.code().r())),
        static_cast<unsigned>(rng.UniformBelow(8)));
    const bool value = rng.UniformBelow(2) != 0;
    line_rank.device(d).SetStuck(b0.bank, b0.row, bit, value);
    batch_rank.device(d).SetStuck(b0.bank, b0.row, bit, value);
  }

  const auto write = [&] {
    for (std::size_t i = 0; i < addrs.size(); ++i)
      per_line.WriteLine(addrs[i], lines[i]);
    batch.WriteLines(addrs, lines);
  };
  std::vector<ecc::ReadResult> results(addrs.size());
  const auto expect_same = [&](const char* phase) {
    batch.ReadLines(addrs, results);
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      const ecc::ReadResult r = per_line.ReadLine(addrs[i]);
      SCOPED_TRACE(std::string(phase) + " line " + std::to_string(i));
      EXPECT_EQ(results[i].claim, r.claim);
      EXPECT_EQ(results[i].corrected_units, r.corrected_units);
      EXPECT_EQ(results[i].data, r.data);
    }
    EXPECT_EQ(batch.counters(), per_line.counters()) << phase;
    for (const Address& row : {a0, b0, c0}) {
      for (unsigned dev = 0; dev < line_rank.DataDevices(); ++dev) {
        const dram::Device::Row* want =
            line_rank.device(dev).FindRow(row.bank, row.row);
        const dram::Device::Row* got =
            batch_rank.device(dev).FindRow(row.bank, row.row);
        ASSERT_EQ(got == nullptr, want == nullptr) << phase;
        if (want != nullptr) {
          EXPECT_EQ(got->Stored(), want->Stored())
              << phase << ": stored bits of bank " << row.bank << " row "
              << row.row << " device " << dev;
        }
      }
    }
  };
  write();
  expect_same("written");

  // Transient flips in both rows, the same in both ranks.
  for (int f = 0; f < 24; ++f) {
    const Address& row = f % 3 == 0 ? a0 : f % 3 == 1 ? b0 : c0;
    const auto dev =
        static_cast<unsigned>(rng.UniformBelow(line_rank.DataDevices()));
    const auto bit =
        static_cast<unsigned>(rng.UniformBelow(g.TotalRowBits()));
    line_rank.device(dev).InjectFlip(row.bank, row.row, bit);
    batch_rank.device(dev).InjectFlip(row.bank, row.row, bit);
  }
  expect_same("faulty");

  // Overwrite every line over the dirty codewords.
  for (BitVec& line : lines) line = BitVec::Random(rg.LineBits(), rng);
  write();
  expect_same("overwritten");
}

INSTANTIATE_TEST_SUITE_P(
    GeometriesAndConfigs, PairBatchTest,
    ::testing::Combine(::testing::ValuesIn(StagingGeometries()),
                       ::testing::ValuesIn(BatchVariants())),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param).name) + "_" +
             std::get<1>(param_info.param).name;
    });

// ------------------------------------------------- pristine-row writes
//
// A write run onto a row that no data device holds skips the staging: it
// copies the lines in and sums the delta parities. Each case writes the
// same runs twice: onto absent rows in one rank, and in a second rank onto
// the same rows after GetRow touched device 0 only, which stores nothing
// but forces the staged read-modify-write. Both ranks must then hold the
// same bits on every device and rows on the same devices (device 0 aside,
// whose row the second rank made), and read back alike.

struct PristineRun {
  std::vector<Address> addrs;
  std::vector<BitVec> lines;
  // Post-package repair the row on every device first: a row that holds
  // data moves to a fresh spare, which the run finds absent again.
  bool repair_first = false;
};

using SchemeMaker = std::function<std::unique_ptr<ecc::Scheme>(Rank&)>;

/// Runs on one row each, after the row's earlier runs: several codewords,
/// part of one codeword, a single line, all-zero lines, lines zero on all
/// but two devices, repeated columns, a post-package-repaired row, and a
/// second bank.
std::vector<PristineRun> PristineRuns(const RankGeometry& rg) {
  const unsigned cols = rg.device.ColumnsPerRow();
  const unsigned access = rg.device.AccessBits();
  Xoshiro256 rng(37);
  const auto random = [&](unsigned bank, unsigned row,
                          std::vector<unsigned> columns) {
    PristineRun run;
    for (const unsigned col : columns) {
      run.addrs.push_back({bank, row, col});
      run.lines.push_back(BitVec::Random(rg.LineBits(), rng));
    }
    return run;
  };
  std::vector<PristineRun> runs = {
      random(0, 10, {0, 1, cols / 2, cols - 1}),
      random(0, 11, {5, 6, 7}),
      random(0, 12, {9}),
      random(0, 13, {2, 3}),
      random(0, 14, {4, 20}),
      random(0, 15, {4, 8, 4}),
      random(0, 16, {6, 6}),
      random(0, 17, {1, 2}),
      random(0, 17, {1, 3}),
      random(1, 10, {cols - 2, cols - 1}),
  };
  for (BitVec& line : runs[3].lines) line = BitVec(rg.LineBits());
  // Only the last device's slice of one line, and one bit of device 1's.
  const unsigned last = rg.data_devices - 1;
  for (unsigned b = 0; b < last * access; ++b) runs[4].lines[0].Set(b, false);
  runs[4].lines[1] = BitVec(rg.LineBits());
  runs[4].lines[1].Set(access + 3, true);
  // The repeat stores zero over the column's first line.
  runs[6].lines[1] = BitVec(rg.LineBits());
  runs[8].repair_first = true;
  return runs;
}

/// Writes each run through one WriteLines into a rank of absent rows and
/// into a rank where the run's row exists on device 0, compares the ranks'
/// rows after each run, then reads every line back from both in turn.
void ExpectPristineMatchesStaged(const RankGeometry& rg,
                                 const SchemeMaker& make) {
  const std::vector<PristineRun> runs = PristineRuns(rg);
  Rank pristine_rank(rg), staged_rank(rg);
  const std::unique_ptr<ecc::Scheme> pristine = make(pristine_rank);
  const std::unique_ptr<ecc::Scheme> staged = make(staged_rank);
  std::vector<std::pair<Address, const BitVec*>> last_written;
  for (std::size_t ri = 0; ri < runs.size(); ++ri) {
    const PristineRun& run = runs[ri];
    const unsigned bank = run.addrs.front().bank, row = run.addrs.front().row;
    SCOPED_TRACE("run " + std::to_string(ri));
    if (run.repair_first) {
      for (Rank* rank : {&pristine_rank, &staged_rank})
        for (unsigned d = 0; d < rank->TotalDevices(); ++d)
          ASSERT_TRUE(rank->device(d).PostPackageRepair(bank, row));
      // The repaired row's content does not follow it to the spare.
      std::erase_if(last_written, [&](const auto& entry) {
        return entry.first.bank == bank && entry.first.row == row;
      });
    }
    staged_rank.device(0).GetRow(bank, row);
    pristine->WriteLines(run.addrs, run.lines);
    staged->WriteLines(run.addrs, run.lines);
    for (std::size_t i = 0; i < run.addrs.size(); ++i) {
      const auto it = std::find_if(
          last_written.begin(), last_written.end(),
          [&](const auto& entry) { return entry.first == run.addrs[i]; });
      if (it == last_written.end())
        last_written.emplace_back(run.addrs[i], &run.lines[i]);
      else
        it->second = &run.lines[i];
    }

    for (unsigned d = 0; d < rg.TotalDevices(); ++d) {
      SCOPED_TRACE("device " + std::to_string(d));
      const dram::Device::Row* got =
          pristine_rank.device(d).FindRow(bank, row);
      const dram::Device::Row* want = staged_rank.device(d).FindRow(bank, row);
      if (d == 0)
        ASSERT_NE(want, nullptr);
      else
        ASSERT_EQ(got == nullptr, want == nullptr);
      if (got != nullptr) {
        EXPECT_EQ(got->Stored(), want->Stored());
      } else if (want != nullptr) {
        EXPECT_FALSE(want->Stored().AnySet());
      }
    }
  }
  // The all-zero run creates no row on a data device.
  for (unsigned d = 0; d < rg.data_devices; ++d)
    EXPECT_EQ(pristine_rank.device(d).FindRow(0, 13), nullptr) << d;

  for (const auto& [addr, line] : last_written) {
    SCOPED_TRACE("bank " + std::to_string(addr.bank) + " row " +
                 std::to_string(addr.row) + " col " +
                 std::to_string(addr.col));
    const ecc::ReadResult from_pristine = pristine->ReadLine(addr);
    const ecc::ReadResult from_staged = staged->ReadLine(addr);
    EXPECT_EQ(from_pristine.claim, Claim::kClean);
    EXPECT_EQ(from_staged.claim, Claim::kClean);
    EXPECT_EQ(from_pristine.data, *line);
    EXPECT_EQ(from_staged.data, *line);
  }
  EXPECT_EQ(pristine->counters(), staged->counters());
}

class PairPristineTest : public ::testing::TestWithParam<
                             std::tuple<StagingGeometry, BatchVariant>> {};

TEST_P(PairPristineTest, FirstWriteStoresWhatTheStagedPathStores) {
  const PairConfig config = std::get<1>(GetParam()).config;
  ExpectPristineMatchesStaged(std::get<0>(GetParam()).rg, [&](Rank& rank) {
    return std::make_unique<PairScheme>(rank, config);
  });
}

INSTANTIATE_TEST_SUITE_P(
    GeometriesAndConfigs, PairPristineTest,
    ::testing::Combine(::testing::ValuesIn(StagingGeometries()),
                       ::testing::Values(
                           BatchVariant{"pair4", PairConfig::Pair4(), false},
                           BatchVariant{"pair2", PairConfig::Pair2(), false})),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param).name) + "_" +
             std::get<1>(param_info.param).name;
    });

TEST(PairPristine, Pair4SecDedInnerFirstWriteStoresWhatTheStagedPathStores) {
  ExpectPristineMatchesStaged(RankGeometry{}, [](Rank& rank) {
    return ecc::MakeScheme(ecc::SchemeKind::kPair4SecDed, rank);
  });
}

TEST(PairExpandability, WiderKLowersOverheadAndStillWorks) {
  // k = 128: one codeword per pin, overhead 4/128 = 3.1% — half the budget.
  RankGeometry rg;
  Rank rank(rg);
  PairConfig cfg;
  cfg.data_symbols = 128;
  cfg.check_symbols = 4;
  PairScheme scheme(rank, cfg);
  EXPECT_EQ(scheme.CodewordsPerPin(), 1u);
  Xoshiro256 rng(112);
  const Address addr{0, 0, 99};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme.WriteLine(addr, line);
  rank.device(0).InjectFlip(0, 0, 99 * 64 + 1);
  rank.device(0).InjectFlip(0, 0, 50 * 64 + 1);  // same pin, same codeword now
  const auto r = scheme.ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kCorrected);
  EXPECT_EQ(r.data, line);
}

}  // namespace
}  // namespace pair_ecc::core
