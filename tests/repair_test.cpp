// Tests for the automatic repair path: the BIST-style march diagnosis for
// PAIR (DiagnoseAndRepairRow) and DUO's chip-kill erasure mode.
#include <gtest/gtest.h>

#include "core/pair_scheme.hpp"
#include "core/repair.hpp"
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

class RepairTest : public ::testing::Test {
 protected:
  RepairTest() : rank_(rg_), scheme_(rank_, PairConfig::Pair4()) {}

  /// Sticks `bit` of (device, bank 0, row 1) at the inverse of its stored
  /// value so it is defective AND currently erroneous.
  void StickBit(unsigned device, unsigned bit) {
    dram::Device& dev = rank_.device(device);
    dev.SetStuck(0, 1, bit, !dev.ReadBits(0, 1, bit, 1).Get(0));
  }

  RankGeometry rg_;
  Rank rank_{rg_};
  PairScheme scheme_;
};

TEST_F(RepairTest, CleanRowReportsNothing) {
  Xoshiro256 rng(1);
  scheme_.WriteLine({0, 1, 3}, BitVec::Random(rg_.LineBits(), rng));
  const auto report = DiagnoseAndRepairRow(scheme_, 0, 1);
  EXPECT_EQ(report.defective_bits, 0u);
  EXPECT_EQ(report.symbols_marked, 0u);
  EXPECT_EQ(report.unrepairable_codewords, 0u);
}

TEST_F(RepairTest, MarchPreservesStoredData) {
  Xoshiro256 rng(2);
  const Address addr{0, 1, 9};
  const BitVec line = BitVec::Random(rg_.LineBits(), rng);
  scheme_.WriteLine(addr, line);
  DiagnoseAndRepairRow(scheme_, 0, 1);
  const auto r = scheme_.ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kClean);
  EXPECT_EQ(r.data, line);
}

TEST_F(RepairTest, FindsEveryStuckBitRegardlessOfPolarity) {
  Xoshiro256 rng(3);
  scheme_.WriteLine({0, 1, 0}, BitVec::Random(rg_.LineBits(), rng));
  // Stuck-at-0 and stuck-at-1 cells; half match the stored data and are
  // invisible to reads, but the complement march must find all of them.
  rank_.device(2).SetStuck(0, 1, 100, false);
  rank_.device(2).SetStuck(0, 1, 200, true);
  rank_.device(5).SetStuck(0, 1, 300, false);
  const auto report = DiagnoseAndRepairRow(scheme_, 0, 1);
  EXPECT_EQ(report.defective_bits, 3u);
  EXPECT_EQ(report.symbols_marked, 3u);
}

TEST_F(RepairTest, WeakColumnRepairedEndToEnd) {
  // Four defective symbols in one codeword: beyond t = 2, repairable via
  // erasures after diagnosis — the full maintenance workflow.
  Xoshiro256 rng(4);
  std::vector<BitVec> lines;
  for (unsigned col = 0; col < 64; ++col) {
    lines.push_back(BitVec::Random(rg_.LineBits(), rng));
    scheme_.WriteLine({0, 1, col}, lines.back());
  }
  // Defects in symbols 2, 12, 22, 32 of (device 3, pin 1, w 0).
  for (unsigned col : {2u, 12u, 22u, 32u})
    StickBit(3, dram::PinLineBit(rg_.device, 1, col * 8 + 4));

  EXPECT_EQ(scheme_.ReadLine({0, 1, 2}).claim, Claim::kDetected);

  const auto report = DiagnoseAndRepairRow(scheme_, 0, 1);
  EXPECT_EQ(report.defective_bits, 4u);
  EXPECT_EQ(report.symbols_marked, 4u);
  EXPECT_EQ(report.unrepairable_codewords, 0u);

  for (unsigned col = 0; col < 64; ++col) {
    const auto r = scheme_.ReadLine({0, 1, col});
    EXPECT_NE(r.claim, Claim::kDetected) << col;
    EXPECT_EQ(r.data, lines[col]) << col;
  }
}

TEST_F(RepairTest, SpareRegionDefectsMapToCheckSymbols) {
  Xoshiro256 rng(5);
  scheme_.WriteLine({0, 1, 0}, BitVec::Random(rg_.LineBits(), rng));
  // Parity bit of (pin 0, w 0, check symbol 0): spare offset row_bits + 0.
  StickBit(0, rg_.device.row_bits + 2);
  const auto report = DiagnoseAndRepairRow(scheme_, 0, 1);
  EXPECT_EQ(report.defective_bits, 1u);
  EXPECT_EQ(report.symbols_marked, 1u);
}

TEST(RepairUnusedSpare, StuckCellPastTheCheckSymbolsIsCountedNotMarked) {
  // RS(132,128) on an x8 die: one codeword per pin, so the parity fills
  // 8 * 4 * 8 = 256 of the 512 spare bits. A stuck cell in the other half
  // belongs to no codeword.
  RankGeometry rg;
  Rank rank(rg);
  PairConfig config = PairConfig::Pair4();
  config.data_symbols = 128;
  PairScheme scheme(rank, config);
  ASSERT_EQ(scheme.code().n(), 132u);
  Xoshiro256 rng(9);
  scheme.WriteLine({0, 1, 0}, BitVec::Random(rg.LineBits(), rng));
  const unsigned bit = rg.device.row_bits + 300;
  dram::Device& dev = rank.device(0);
  dev.SetStuck(0, 1, bit, !dev.ReadBits(0, 1, bit, 1).Get(0));
  RepairReport report;
  ASSERT_NO_THROW(report = DiagnoseAndRepairRow(scheme, 0, 1));
  EXPECT_EQ(report.defective_bits, 1u);
  EXPECT_EQ(report.symbols_marked, 0u);
  EXPECT_EQ(report.unrepairable_codewords, 0u);
  EXPECT_EQ(scheme.ReadLine({0, 1, 0}).claim, Claim::kClean);
}

TEST_F(RepairTest, WholePinFaultIsUnrepairable) {
  Xoshiro256 rng(6);
  scheme_.WriteLine({0, 1, 0}, BitVec::Random(rg_.LineBits(), rng));
  for (unsigned i = 0; i < rg_.device.PinLineBits(); ++i)
    StickBit(4, dram::PinLineBit(rg_.device, 3, i));
  const auto report = DiagnoseAndRepairRow(scheme_, 0, 1);
  EXPECT_EQ(report.defective_bits, rg_.device.PinLineBits());
  // Both codewords of the dead pin exceed the r = 4 erasure budget.
  EXPECT_EQ(report.unrepairable_codewords, 2u);
  EXPECT_EQ(report.symbols_marked, 0u);  // marking would only hurt
}

TEST_F(RepairTest, RepeatedDiagnosisIsIdempotent) {
  Xoshiro256 rng(7);
  scheme_.WriteLine({0, 1, 0}, BitVec::Random(rg_.LineBits(), rng));
  StickBit(1, dram::PinLineBit(rg_.device, 0, 5 * 8));
  const auto first = DiagnoseAndRepairRow(scheme_, 0, 1);
  EXPECT_EQ(first.symbols_marked, 1u);
  const auto second = DiagnoseAndRepairRow(scheme_, 0, 1);
  EXPECT_EQ(second.defective_bits, 1u);
  EXPECT_EQ(second.symbols_marked, 0u);  // already on the repair list
}

// --------------------------------------------------------- PPR row sparing

TEST(PostPackageRepair, DeviceLevelSemantics) {
  dram::DeviceGeometry g;
  dram::Device dev(g);
  dev.GetRow(0, 5).Write(10, 1, true);
  dev.SetStuck(0, 5, 11, true);
  EXPECT_EQ(dev.SpareRowsLeft(0), dram::Device::kSpareRowsPerBank);

  ASSERT_TRUE(dev.PostPackageRepair(0, 5));
  EXPECT_EQ(dev.SpareRowsLeft(0), dram::Device::kSpareRowsPerBank - 1);
  // The spare row is fresh: old content and old defects are gone.
  EXPECT_FALSE(dev.ReadBits(0, 5, 10, 1).Get(0));
  EXPECT_FALSE(dev.ReadBits(0, 5, 11, 1).Get(0));
  EXPECT_EQ(dev.StuckCount(), 0u);
  // And it is writable like any other row.
  dev.GetRow(0, 5).Write(11, 1, true);
  EXPECT_TRUE(dev.ReadBits(0, 5, 11, 1).Get(0));
}

TEST(PostPackageRepair, BudgetIsPerBank) {
  dram::DeviceGeometry g;
  dram::Device dev(g);
  for (unsigned i = 0; i < dram::Device::kSpareRowsPerBank; ++i)
    EXPECT_TRUE(dev.PostPackageRepair(0, i));
  EXPECT_FALSE(dev.PostPackageRepair(0, 99));  // bank 0 exhausted
  EXPECT_TRUE(dev.PostPackageRepair(1, 0));    // bank 1 untouched
  EXPECT_THROW(dev.SpareRowsLeft(99), std::out_of_range);
}

TEST(PostPackageRepair, OtherRowsUnaffected) {
  dram::DeviceGeometry g;
  dram::Device dev(g);
  dev.GetRow(0, 7).Write(3, 1, true);
  ASSERT_TRUE(dev.PostPackageRepair(0, 8));
  EXPECT_TRUE(dev.ReadBits(0, 7, 3, 1).Get(0));
}

TEST_F(RepairTest, SpareRowRecoversFromRowFault) {
  Xoshiro256 rng(20);
  std::vector<BitVec> lines;
  for (unsigned col = 0; col < 128; ++col) {
    lines.push_back(BitVec::Random(rg_.LineBits(), rng));
    scheme_.WriteLine({0, 1, col}, lines.back());
  }
  // Row fault on device 2: every cell stuck at its inverse.
  for (unsigned bit = 0; bit < rg_.device.TotalRowBits(); ++bit)
    StickBit(2, bit);
  ASSERT_EQ(scheme_.ReadLine({0, 1, 0}).claim, Claim::kDetected);

  const auto report = SpareRow(scheme_, 0, 1);
  EXPECT_TRUE(report.repaired);
  EXPECT_EQ(report.lines_salvaged + report.lines_lost, 128u);
  EXPECT_EQ(report.lines_lost, 128u);  // total row loss: nothing decoded

  // The address is healthy again: everything re-written decodes clean.
  for (unsigned col = 0; col < 128; ++col)
    EXPECT_EQ(scheme_.ReadLine({0, 1, col}).claim, Claim::kClean) << col;
}

TEST_F(RepairTest, SpareRowSalvagesCorrectableContent) {
  // A reference rank, identical to rank_, is spared by the per-line flow:
  // one ReadLine per column, PPR, one WriteLine per column. SpareRow's
  // batched salvage and restore must be observably the same.
  Rank ref_rank(rg_);
  PairScheme ref_scheme(ref_rank, PairConfig::Pair4());
  Xoshiro256 rng(21);
  std::vector<BitVec> lines;
  for (unsigned col = 0; col < 128; ++col) {
    lines.push_back(BitVec::Random(rg_.LineBits(), rng));
    scheme_.WriteLine({0, 1, col}, lines.back());
    ref_scheme.WriteLine({0, 1, col}, lines.back());
  }
  // Damage within budget (one stuck cell): every line stays decodable, so
  // sparing must preserve all content exactly.
  const unsigned stuck = 40 * 64 + 9;
  StickBit(5, stuck);
  ref_rank.device(5).SetStuck(0, 1, stuck,
                              rank_.device(5).ReadBits(0, 1, stuck, 1).Get(0));
  const auto report = SpareRow(scheme_, 0, 1);
  EXPECT_TRUE(report.repaired);
  EXPECT_EQ(report.lines_lost, 0u);
  EXPECT_EQ(report.lines_salvaged, 128u);

  SparingReport ref_report;
  std::vector<BitVec> salvaged;
  for (unsigned col = 0; col < 128; ++col) {
    auto read = ref_scheme.ReadLine({0, 1, col});
    if (read.claim == Claim::kDetected) {
      ++ref_report.lines_lost;
    } else {
      ++ref_report.lines_salvaged;
    }
    salvaged.push_back(std::move(read.data));
  }
  for (unsigned d = 0; d < ref_rank.DataDevices(); ++d)
    ASSERT_TRUE(ref_rank.device(d).PostPackageRepair(0, 1));
  for (unsigned col = 0; col < 128; ++col)
    ref_scheme.WriteLine({0, 1, col}, salvaged[col]);
  ref_report.repaired = true;

  EXPECT_EQ(report.repaired, ref_report.repaired);
  EXPECT_EQ(report.lines_salvaged, ref_report.lines_salvaged);
  EXPECT_EQ(report.lines_lost, ref_report.lines_lost);
  EXPECT_EQ(scheme_.counters(), ref_scheme.counters());
  for (unsigned d = 0; d < rank_.DataDevices(); ++d) {
    const dram::Device::Row* stored = rank_.device(d).FindRow(0, 1);
    const dram::Device::Row* ref_stored = ref_rank.device(d).FindRow(0, 1);
    ASSERT_NE(stored, nullptr) << d;
    ASSERT_NE(ref_stored, nullptr) << d;
    EXPECT_EQ(stored->Stored(), ref_stored->Stored()) << "device " << d;
    EXPECT_EQ(rank_.device(d).SpareRowsLeft(0),
              ref_rank.device(d).SpareRowsLeft(0));
  }
  for (unsigned col = 0; col < 128; ++col) {
    const auto r = scheme_.ReadLine({0, 1, col});
    EXPECT_EQ(r.claim, Claim::kClean) << col;
    EXPECT_EQ(r.data, lines[col]) << col;
  }
}

TEST_F(RepairTest, SpareRowFailsCleanlyWhenBudgetExhausted) {
  // Drain device 0's bank-0 spares, then ask for one more.
  for (unsigned i = 0; i < dram::Device::kSpareRowsPerBank; ++i)
    ASSERT_TRUE(rank_.device(0).PostPackageRepair(0, 100 + i));
  Xoshiro256 rng(22);
  scheme_.WriteLine({0, 1, 0}, BitVec::Random(rg_.LineBits(), rng));
  const auto report = SpareRow(scheme_, 0, 1);
  EXPECT_FALSE(report.repaired);
  // Nothing was touched: the line still reads back.
  EXPECT_EQ(scheme_.ReadLine({0, 1, 0}).claim, Claim::kClean);
}

// ---------------------------------------------- repeated faults, exhaustion

TEST_F(RepairTest, RepeatedRowFaultsExhaustSparing) {
  // A row that keeps dying: each round a whole pin fails, sparing replaces
  // the row, new data lands, and the next fault hits the spare. The
  // per-bank spare budget bounds how often this works.
  Xoshiro256 rng(40);
  const Address addr{0, 1, 0};
  for (unsigned round = 0; round < dram::Device::kSpareRowsPerBank; ++round) {
    scheme_.WriteLine(addr, BitVec::Random(rg_.LineBits(), rng));
    for (unsigned i = 0; i < rg_.device.PinLineBits(); ++i)
      StickBit(3, dram::PinLineBit(rg_.device, 2, i));
    ASSERT_EQ(scheme_.ReadLine(addr).claim, Claim::kDetected) << round;
    const auto report = SpareRow(scheme_, 0, 1);
    ASSERT_TRUE(report.repaired) << round;
    // The spare is fresh: re-written content decodes clean again.
    scheme_.WriteLine(addr, BitVec::Random(rg_.LineBits(), rng));
    ASSERT_EQ(scheme_.ReadLine(addr).claim, Claim::kClean) << round;
  }
  EXPECT_EQ(rank_.device(3).SpareRowsLeft(0), 0u);

  // One fault too many: no spares left, the row stays broken for good.
  for (unsigned i = 0; i < rg_.device.PinLineBits(); ++i)
    StickBit(3, dram::PinLineBit(rg_.device, 2, i));
  const auto exhausted = SpareRow(scheme_, 0, 1);
  EXPECT_FALSE(exhausted.repaired);
  EXPECT_EQ(scheme_.ReadLine(addr).claim, Claim::kDetected);
}

TEST_F(RepairTest, AccumulatingFaultsOverflowErasureBudget) {
  // Faults arriving one at a time into the same codeword: each diagnosis
  // extends the repair list until the r = 4 erasure budget is gone, then
  // the march refuses to mark and reports the codeword unrepairable.
  Xoshiro256 rng(41);
  std::vector<BitVec> lines;
  for (unsigned col = 0; col < 64; ++col) {
    lines.push_back(BitVec::Random(rg_.LineBits(), rng));
    scheme_.WriteLine({0, 1, col}, lines.back());
  }
  const unsigned cols[] = {2, 12, 22, 32, 42};
  unsigned marked_total = 0;
  for (unsigned i = 0; i < 4; ++i) {
    StickBit(3, dram::PinLineBit(rg_.device, 1, cols[i] * 8 + 4));
    const auto report = DiagnoseAndRepairRow(scheme_, 0, 1);
    EXPECT_EQ(report.unrepairable_codewords, 0u) << i;
    marked_total += report.symbols_marked;
  }
  EXPECT_EQ(marked_total, 4u);

  StickBit(3, dram::PinLineBit(rg_.device, 1, cols[4] * 8 + 4));
  const auto over = DiagnoseAndRepairRow(scheme_, 0, 1);
  EXPECT_EQ(over.unrepairable_codewords, 1u);
  EXPECT_EQ(over.symbols_marked, 0u);
  // With the whole erasure budget committed, the fifth defect leaves the
  // decoder no margin: the read fails — as a DUE, or as a zero-distance
  // miscorrection (which is exactly why the codeword must be retired).
  const auto broken = scheme_.ReadLine({0, 1, 2});
  EXPECT_TRUE(broken.claim == Claim::kDetected || broken.data != lines[2]);

  // Escalation works: sparing retires the worn-out physical row.
  const auto sparing = SpareRow(scheme_, 0, 1);
  EXPECT_TRUE(sparing.repaired);
}

// ------------------------------------------------------------ DUO chipkill

TEST(DuoChipKill, ErasedDeviceRowFaultIsFullyCorrected) {
  RankGeometry rg;
  Rank rank(rg);
  auto duo = ecc::MakeScheme(ecc::SchemeKind::kDuo, rank);
  Xoshiro256 rng(8);
  const Address addr{0, 2, 7};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  duo->WriteLine(addr, line);
  // Destroy device 6's column completely.
  for (unsigned b = 0; b < 64; ++b)
    rank.device(6).SetStuck(0, 2, 7 * 64 + b, rng.Bernoulli(0.5));
  // Without the kill, 8 symbol errors usually exceed t = 6.
  ASSERT_TRUE(duo->MarkDeviceErased(6));
  const auto r = duo->ReadLine(addr);
  EXPECT_NE(r.claim, Claim::kDetected);
  EXPECT_EQ(r.data, line);
}

TEST(DuoChipKill, SecondKillExceedsBudget) {
  RankGeometry rg;
  Rank rank(rg);
  auto duo = ecc::MakeScheme(ecc::SchemeKind::kDuo, rank);
  EXPECT_TRUE(duo->MarkDeviceErased(0));
  EXPECT_FALSE(duo->MarkDeviceErased(1));  // 16 erasures > r = 12
  EXPECT_FALSE(duo->MarkDeviceErased(99));
}

TEST(DuoChipKill, OtherSchemesReportUnsupported) {
  RankGeometry rg;
  Rank rank(rg);
  for (auto kind : {ecc::SchemeKind::kIecc, ecc::SchemeKind::kPair4,
                    ecc::SchemeKind::kSecDed}) {
    auto scheme = ecc::MakeScheme(kind, rank);
    EXPECT_FALSE(scheme->MarkDeviceErased(0)) << ecc::ToString(kind);
  }
}

}  // namespace
}  // namespace pair_ecc::core
