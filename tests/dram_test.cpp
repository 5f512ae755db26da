// DRAM device/rank model tests: geometry math, bit<->place mapping
// bijectivity, lazy row storage, stuck-at vs transient fault semantics, and
// rank line assembly.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "dram/address_map.hpp"
#include "dram/device.hpp"
#include "dram/geometry.hpp"
#include "dram/rank.hpp"
#include "util/rng.hpp"

namespace pair_ecc::dram {
namespace {

using pair_ecc::util::BitVec;
using pair_ecc::util::Xoshiro256;

// ------------------------------------------------------------------ Geometry

TEST(Geometry, DefaultsAreConsistent) {
  DeviceGeometry g;
  g.Validate();
  EXPECT_EQ(g.AccessBits(), 64u);
  EXPECT_EQ(g.ColumnsPerRow(), 128u);
  EXPECT_EQ(g.PinLineBits(), 1024u);
  EXPECT_EQ(g.TotalRowBits(), 8704u);
}

TEST(Geometry, ValidateRejectsBadShapes) {
  DeviceGeometry g;
  g.row_bits = 100;  // not a multiple of 64
  EXPECT_THROW(g.Validate(), std::invalid_argument);
  g = DeviceGeometry{};
  g.dq_pins = 0;
  EXPECT_THROW(g.Validate(), std::invalid_argument);
}

TEST(Geometry, BitPlaceRoundTripIsBijective) {
  DeviceGeometry g;
  std::set<unsigned> seen;
  for (unsigned col = 0; col < 4; ++col) {
    for (unsigned beat = 0; beat < g.burst_length; ++beat) {
      for (unsigned pin = 0; pin < g.dq_pins; ++pin) {
        const unsigned bit = ToBit(g, {col, beat, pin});
        EXPECT_TRUE(seen.insert(bit).second) << "duplicate bit " << bit;
        const BitPlace p = ToPlace(g, bit);
        EXPECT_EQ(p.col, col);
        EXPECT_EQ(p.beat, beat);
        EXPECT_EQ(p.pin, pin);
      }
    }
  }
  EXPECT_EQ(seen.size(), 4u * g.AccessBits());
}

TEST(Geometry, PinLineMappingIsConsistent) {
  DeviceGeometry g;
  for (unsigned pin = 0; pin < g.dq_pins; ++pin) {
    for (unsigned idx = 0; idx < 32; ++idx) {
      const unsigned bit = PinLineBit(g, pin, idx);
      EXPECT_EQ(PinOfBit(g, bit), pin);
      EXPECT_EQ(PinLineIndex(g, bit), idx);
    }
  }
}

TEST(Geometry, PinLineIndexTracksColumnAndBeat) {
  // Pin-line index of bit(col, beat, pin) must be col * BL + beat — the
  // property PAIR's symbol <-> column equivalence rests on.
  DeviceGeometry g;
  for (unsigned col : {0u, 5u, 127u}) {
    for (unsigned beat = 0; beat < g.burst_length; ++beat) {
      const unsigned bit = ToBit(g, {col, beat, 3});
      EXPECT_EQ(PinLineIndex(g, bit), col * g.burst_length + beat);
    }
  }
}

TEST(Geometry, RankLineBits) {
  RankGeometry rg;
  rg.Validate();
  EXPECT_EQ(rg.LineBits(), 512u);
  EXPECT_EQ(rg.TotalDevices(), 9u);
  rg.data_devices = 0;
  EXPECT_THROW(rg.Validate(), std::invalid_argument);
}

// -------------------------------------------------------------------- Device

class DeviceTest : public ::testing::Test {
 protected:
  DeviceGeometry g_;
  Device dev_{g_};
};

TEST_F(DeviceTest, FreshRowsReadZero) {
  EXPECT_FALSE(dev_.ReadBit(0, 0, 0));
  EXPECT_FALSE(dev_.ReadBit(15, 65535, 8703));
  EXPECT_EQ(dev_.ReadBits(3, 7, 0, 128).Popcount(), 0u);
}

TEST_F(DeviceTest, WriteReadRoundTrip) {
  dev_.WriteBit(1, 2, 3, true);
  EXPECT_TRUE(dev_.ReadBit(1, 2, 3));
  EXPECT_FALSE(dev_.ReadBit(1, 2, 4));
  EXPECT_FALSE(dev_.ReadBit(1, 3, 3));  // different row untouched
}

TEST_F(DeviceTest, BulkBitsRoundTrip) {
  Xoshiro256 rng(1);
  const BitVec data = BitVec::Random(512, rng);
  dev_.WriteBits(0, 10, 1000, data);
  EXPECT_EQ(dev_.ReadBits(0, 10, 1000, 512), data);
}

TEST_F(DeviceTest, SpareRegionIsAddressable) {
  dev_.WriteBit(0, 0, g_.row_bits + 5, true);
  EXPECT_TRUE(dev_.ReadBit(0, 0, g_.row_bits + 5));
}

TEST_F(DeviceTest, ColumnAccessMatchesBitAddressing) {
  Xoshiro256 rng(2);
  const BitVec col = BitVec::Random(g_.AccessBits(), rng);
  const Address addr{2, 100, 7};
  dev_.WriteColumn(addr, col);
  EXPECT_EQ(dev_.ReadColumn(addr), col);
  // Column 7 occupies bits [7*64, 8*64).
  EXPECT_EQ(dev_.ReadBits(2, 100, 7 * 64, 64), col);
}

TEST_F(DeviceTest, OutOfRangeAccessesThrow) {
  EXPECT_THROW(dev_.ReadBit(16, 0, 0), std::out_of_range);
  EXPECT_THROW(dev_.ReadBit(0, 1u << 16, 0), std::out_of_range);
  EXPECT_THROW(dev_.ReadBit(0, 0, g_.TotalRowBits()), std::out_of_range);
  EXPECT_THROW(dev_.WriteColumn({0, 0, 128}, BitVec(64)), std::out_of_range);
  EXPECT_THROW(dev_.WriteColumn({0, 0, 0}, BitVec(63)), std::invalid_argument);
  EXPECT_THROW(dev_.ReadBits(0, 0, 8700, 10), std::out_of_range);
}

TEST_F(DeviceTest, TransientFlipInvertsOnce) {
  dev_.WriteBit(0, 0, 42, true);
  dev_.InjectFlip(0, 0, 42);
  EXPECT_FALSE(dev_.ReadBit(0, 0, 42));
  // A rewrite repairs a transient fault.
  dev_.WriteBit(0, 0, 42, true);
  EXPECT_TRUE(dev_.ReadBit(0, 0, 42));
}

TEST_F(DeviceTest, StuckBitSwallowsWrites) {
  dev_.SetStuck(0, 0, 7, true);
  EXPECT_TRUE(dev_.ReadBit(0, 0, 7));
  dev_.WriteBit(0, 0, 7, false);
  EXPECT_TRUE(dev_.ReadBit(0, 0, 7));  // still stuck at 1
  dev_.SetStuck(0, 0, 8, false);
  dev_.WriteBit(0, 0, 8, true);
  EXPECT_FALSE(dev_.ReadBit(0, 0, 8));  // stuck at 0
}

TEST_F(DeviceTest, StuckAppearsInBulkReads) {
  Xoshiro256 rng(3);
  const BitVec data = BitVec::Random(64, rng);
  dev_.WriteColumn({0, 0, 0}, data);
  dev_.SetStuck(0, 0, 5, !data.Get(5));
  const BitVec read = dev_.ReadColumn({0, 0, 0});
  EXPECT_NE(read, data);
  EXPECT_EQ(read.Get(5), !data.Get(5));
}

TEST_F(DeviceTest, StorageUnderStuckBitKeepsWrites) {
  dev_.WriteBit(0, 0, 9, true);
  dev_.SetStuck(0, 0, 9, false);
  EXPECT_FALSE(dev_.ReadBit(0, 0, 9));
  EXPECT_EQ(dev_.StuckCount(), 1u);
  ASSERT_NE(dev_.FindStoredRow(0, 0), nullptr);
  EXPECT_TRUE(dev_.FindStoredRow(0, 0)->Get(9));
}

TEST_F(DeviceTest, StuckCountDoesNotDoubleCount) {
  dev_.SetStuck(0, 0, 1, true);
  dev_.SetStuck(0, 0, 1, false);  // re-assign same bit
  EXPECT_EQ(dev_.StuckCount(), 1u);
  EXPECT_FALSE(dev_.ReadBit(0, 0, 1));
}

TEST_F(DeviceTest, WordCorruptEqualsPerBitSequence) {
  // Overlapping word writes, row-end words and bits both flipped and stuck:
  // each Corrupt must leave what the per-bit InjectFlip/SetStuck sequence
  // leaves, stored row and stuck count included.
  Device per_bit(g_);
  Xoshiro256 rng(21);
  const BitVec data = BitVec::Random(g_.TotalRowBits(), rng);
  dev_.WriteBits(1, 4, 0, data);
  per_bit.WriteBits(1, 4, 0, data);
  for (int op = 0; op < 400; ++op) {
    const unsigned row = 4 + static_cast<unsigned>(rng.UniformBelow(2));
    const auto offset =
        static_cast<unsigned>(rng.UniformBelow(g_.TotalRowBits()));
    const unsigned count = std::min(64u, g_.TotalRowBits() - offset);
    const std::uint64_t in_range =
        count == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
    const std::uint64_t flip = rng() & rng() & in_range;
    const std::uint64_t stuck = rng() & rng() & in_range;
    const std::uint64_t value = rng();
    dev_.Corrupt(1, row, offset, count, flip, stuck, value);
    for (unsigned i = 0; i < count; ++i) {
      if ((flip >> i) & 1u) per_bit.InjectFlip(1, row, offset + i);
      if ((stuck >> i) & 1u)
        per_bit.SetStuck(1, row, offset + i, ((value >> i) & 1u) != 0);
    }
    ASSERT_EQ(dev_.StuckCount(), per_bit.StuckCount()) << op;
    for (unsigned r : {4u, 5u}) {
      ASSERT_EQ(dev_.HasStuckBits(1, r), per_bit.HasStuckBits(1, r)) << op;
      ASSERT_EQ(dev_.FindStoredRow(1, r) == nullptr,
                per_bit.FindStoredRow(1, r) == nullptr) << op;
      if (dev_.FindStoredRow(1, r) != nullptr) {
        ASSERT_EQ(*dev_.FindStoredRow(1, r), *per_bit.FindStoredRow(1, r))
            << op;
      }
      ASSERT_EQ(dev_.ReadBits(1, r, 0, g_.TotalRowBits()),
                per_bit.ReadBits(1, r, 0, g_.TotalRowBits())) << op;
    }
  }
}

TEST_F(DeviceTest, RestickingAWordChangesValuesNotCount) {
  dev_.Corrupt(0, 3, 64, 64, 0, 0xF0, 0xA0);
  EXPECT_EQ(dev_.StuckCount(), 4u);
  EXPECT_EQ(dev_.ReadBits(0, 3, 64, 64).GetWord(0, 64), 0xA0u);
  dev_.Corrupt(0, 3, 64, 64, 0, 0x3C, 0x0C);  // two stuck again, two new
  EXPECT_EQ(dev_.StuckCount(), 6u);
  EXPECT_EQ(dev_.ReadBits(0, 3, 64, 64).GetWord(0, 64), 0x8Cu);
}

TEST_F(DeviceTest, CorruptWithZeroMasksCreatesNoRow) {
  dev_.Corrupt(2, 9, 128, 64, 0, 0, ~std::uint64_t{0});
  EXPECT_EQ(dev_.FindStoredRow(2, 9), nullptr);
  EXPECT_FALSE(dev_.HasStuckBits(2, 9));
  EXPECT_EQ(dev_.StuckCount(), 0u);
  // Only the stored value changes under a flip: no overlay is created.
  dev_.Corrupt(2, 9, 128, 64, 1, 0, 0);
  ASSERT_NE(dev_.FindStoredRow(2, 9), nullptr);
  EXPECT_FALSE(dev_.HasStuckBits(2, 9));
  EXPECT_TRUE(dev_.ReadBit(2, 9, 128));
}

TEST_F(DeviceTest, CorruptRejectsBitsOutsideTheRow) {
  EXPECT_THROW(dev_.Corrupt(16, 0, 0, 1, 0, 0, 0), std::out_of_range);
  EXPECT_THROW(dev_.Corrupt(0, 0, 8700, 5, 1, 0, 0), std::out_of_range);
  EXPECT_THROW(dev_.Corrupt(0, 0, 8700, 4, 0x10, 0, 0), std::out_of_range);
  EXPECT_THROW(dev_.Corrupt(0, 0, 0, 65, 1, 0, 0), std::out_of_range);
  EXPECT_THROW(dev_.InjectFlip(0, 0, g_.TotalRowBits()), std::out_of_range);
  EXPECT_THROW(dev_.SetStuck(0, 0, g_.TotalRowBits(), true), std::out_of_range);
  EXPECT_EQ(dev_.FindStoredRow(0, 0), nullptr);
}

// ---------------------------------------------------------------------- Rank

class RankTest : public ::testing::Test {
 protected:
  RankGeometry rg_;
  Rank rank_{rg_};
};

TEST_F(RankTest, LineRoundTrip) {
  Xoshiro256 rng(4);
  const BitVec line = BitVec::Random(rg_.LineBits(), rng);
  const Address addr{1, 50, 3};
  rank_.WriteLine(addr, line);
  EXPECT_EQ(rank_.ReadLine(addr), line);
}

TEST_F(RankTest, LineIsDeviceMajor) {
  BitVec line(rg_.LineBits());
  line.Set(2 * 64 + 5, true);  // device 2, column bit 5
  rank_.WriteLine({0, 0, 0}, line);
  EXPECT_TRUE(rank_.device(2).ReadBit(0, 0, 5));
  EXPECT_FALSE(rank_.device(1).ReadBit(0, 0, 5));
}

TEST_F(RankTest, DeviceSliceExtractsAndInserts) {
  Xoshiro256 rng(5);
  const BitVec line = BitVec::Random(rg_.LineBits(), rng);
  for (unsigned d = 0; d < rank_.DataDevices(); ++d) {
    const BitVec slice = rank_.DeviceSlice(line, d);
    EXPECT_EQ(slice.size(), 64u);
    BitVec copy(rg_.LineBits());
    rank_.SetDeviceSlice(copy, d, slice);
    EXPECT_EQ(rank_.DeviceSlice(copy, d), slice);
  }
}

TEST_F(RankTest, SidecarDeviceNotPartOfLine) {
  Xoshiro256 rng(6);
  const Address addr{0, 0, 0};
  rank_.WriteLine(addr, BitVec::Random(rg_.LineBits(), rng));
  // The ECC device (index 8) stays untouched.
  EXPECT_EQ(rank_.device(8).ReadColumn(addr).Popcount(), 0u);
}

TEST_F(RankTest, RejectsWrongLineWidth) {
  EXPECT_THROW(rank_.WriteLine({0, 0, 0}, BitVec(100)), std::invalid_argument);
  EXPECT_THROW(rank_.DeviceSlice(BitVec(100), 0), std::invalid_argument);
}

// ------------------------------------------------------------- Device fuzz

TEST(DeviceFuzz, RandomOpSequenceMatchesOracle) {
  // Reference model: a plain map of bit -> value plus a map of stuck bits.
  // 20k random operations across a handful of rows must agree exactly.
  DeviceGeometry g;
  Device dev(g);
  pair_ecc::util::Xoshiro256 rng(12345);

  struct Oracle {
    std::map<unsigned, bool> data;   // default false
    std::map<unsigned, bool> stuck;  // overrides reads, swallows writes
    bool Read(unsigned bit) const {
      if (auto it = stuck.find(bit); it != stuck.end()) return it->second;
      if (auto it = data.find(bit); it != data.end()) return it->second;
      return false;
    }
  };
  std::map<std::pair<unsigned, unsigned>, Oracle> rows;
  const std::pair<unsigned, unsigned> keys[] = {{0, 0}, {1, 7}, {3, 99}};

  for (int op = 0; op < 20000; ++op) {
    const auto [bank, row] = keys[rng.UniformBelow(3)];
    Oracle& oracle = rows[{bank, row}];
    const unsigned bit = static_cast<unsigned>(rng.UniformBelow(g.TotalRowBits()));
    switch (rng.UniformBelow(5)) {
      case 0: {  // write
        const bool v = rng.Bernoulli(0.5);
        dev.WriteBit(bank, row, bit, v);
        oracle.data[bit] = v;
        break;
      }
      case 1: {  // flip
        dev.InjectFlip(bank, row, bit);
        oracle.data[bit] = !oracle.data[bit];
        break;
      }
      case 2: {  // stick
        const bool v = rng.Bernoulli(0.5);
        dev.SetStuck(bank, row, bit, v);
        oracle.stuck[bit] = v;
        break;
      }
      case 3: {  // point read
        ASSERT_EQ(dev.ReadBit(bank, row, bit), oracle.Read(bit)) << op;
        break;
      }
      case 4: {  // ranged read
        const unsigned len = 1 + static_cast<unsigned>(rng.UniformBelow(100));
        const unsigned off = static_cast<unsigned>(
            rng.UniformBelow(g.TotalRowBits() - len + 1));
        const auto bits = dev.ReadBits(bank, row, off, len);
        for (unsigned i = 0; i < len; ++i)
          ASSERT_EQ(bits.Get(i), oracle.Read(off + i)) << op;
        break;
      }
    }
  }
}

// ------------------------------------------------------------ AddressMapper

TEST(AddressMapper, RejectsNonPowerOfTwoSizes) {
  EXPECT_THROW(AddressMapper(3, 16, 16, Interleave::kRowInterleaved),
               std::invalid_argument);
  EXPECT_THROW(AddressMapper(4, 100, 16, Interleave::kRowInterleaved),
               std::invalid_argument);
}

TEST(AddressMapper, MapUnmapIsBijective) {
  for (const auto interleave :
       {Interleave::kRowInterleaved, Interleave::kBankInterleaved}) {
    for (const bool hash : {false, true}) {
      const AddressMapper m(8, 32, 16, interleave, hash);
      std::set<std::tuple<unsigned, unsigned, unsigned>> seen;
      for (std::uint64_t a = 0; a < m.Capacity(); ++a) {
        const Address addr = m.Map(a);
        EXPECT_LT(addr.bank, 8u);
        EXPECT_LT(addr.row, 32u);
        EXPECT_LT(addr.col, 16u);
        EXPECT_TRUE(seen.insert({addr.bank, addr.row, addr.col}).second);
        EXPECT_EQ(m.Unmap(addr), a);
      }
    }
  }
}

TEST(AddressMapper, RowInterleavedKeepsConsecutiveLinesInOneRowGroup) {
  const AddressMapper m(8, 32, 16, Interleave::kRowInterleaved);
  // The first 16 addresses walk the columns of (bank 0, row 0).
  for (std::uint64_t a = 0; a < 16; ++a) {
    const Address addr = m.Map(a);
    EXPECT_EQ(addr.bank, 0u);
    EXPECT_EQ(addr.row, 0u);
    EXPECT_EQ(addr.col, static_cast<unsigned>(a));
  }
}

TEST(AddressMapper, BankInterleavedRotatesBanksFirst) {
  const AddressMapper m(8, 32, 16, Interleave::kBankInterleaved);
  for (std::uint64_t a = 0; a < 8; ++a)
    EXPECT_EQ(m.Map(a).bank, static_cast<unsigned>(a));
}

TEST(AddressMapper, XorHashBreaksBankStrides) {
  // A stride that always lands in bank 0 without hashing must spread with it.
  const AddressMapper plain(8, 32, 16, Interleave::kRowInterleaved, false);
  const AddressMapper hashed(8, 32, 16, Interleave::kRowInterleaved, true);
  std::set<unsigned> plain_banks, hashed_banks;
  for (std::uint64_t row = 0; row < 8; ++row) {
    const std::uint64_t a = row * (8 * 16);  // same bank+col, rows ascending
    plain_banks.insert(plain.Map(a).bank);
    hashed_banks.insert(hashed.Map(a).bank);
  }
  EXPECT_EQ(plain_banks.size(), 1u);
  EXPECT_EQ(hashed_banks.size(), 8u);
}

TEST(AddressMapper, MapRejectsOutOfRange) {
  const AddressMapper m(4, 8, 8, Interleave::kRowInterleaved);
  EXPECT_THROW(m.Map(m.Capacity()), std::out_of_range);
  EXPECT_NO_THROW(m.Map(m.Capacity() - 1));
}

TEST(RankGeometryVariants, X4AndX16Work) {
  for (unsigned pins : {4u, 16u}) {
    RankGeometry rg;
    rg.device.dq_pins = pins;
    rg.device.row_bits = 8192;
    rg.data_devices = 64 / pins;  // keep a 64-bit bus
    rg.Validate();
    Rank rank(rg);
    Xoshiro256 rng(7);
    const BitVec line = BitVec::Random(rg.LineBits(), rng);
    rank.WriteLine({0, 1, 2}, line);
    EXPECT_EQ(rank.ReadLine({0, 1, 2}), line);
  }
}

}  // namespace
}  // namespace pair_ecc::dram
