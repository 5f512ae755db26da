// Fault-model and injector tests: spatial footprint of every fault class,
// permanent vs transient semantics, mix sampling, determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "dram/rank.hpp"
#include "faults/injector.hpp"
#include "util/atomic_file.hpp"
#include "util/rng.hpp"

namespace pair_ecc::faults {
namespace {

using dram::Rank;
using dram::RankGeometry;
using pair_ecc::util::BitVec;
using pair_ecc::util::Xoshiro256;

class InjectorTest : public ::testing::Test {
 protected:
  InjectorTest() : rank_(rg_), injector_(rank_, {{0, 10}, {0, 11}, {1, 20}}) {
    // Fill the working set with random data so stuck-at faults are visible
    // about half the time and flips always.
    Xoshiro256 rng(99);
    for (const auto& r : injector_.working_set()) {
      for (unsigned d = 0; d < rank_.TotalDevices(); ++d) {
        rank_.device(d).WriteBits(
            r.bank, r.row, 0,
            BitVec::Random(rg_.device.TotalRowBits(), rng));
      }
    }
    SnapshotTruth();
  }

  void SnapshotTruth() {
    truth_.clear();
    for (const auto& r : injector_.working_set())
      for (unsigned d = 0; d < rank_.TotalDevices(); ++d)
        truth_.push_back(rank_.device(d).ReadBits(r.bank, r.row, 0,
                                                  rg_.device.TotalRowBits()));
  }

  /// Bits differing from the snapshot, per (row-in-working-set, device).
  std::vector<std::vector<std::size_t>> DiffBits() {
    std::vector<std::vector<std::size_t>> out;
    std::size_t i = 0;
    for (const auto& r : injector_.working_set()) {
      for (unsigned d = 0; d < rank_.TotalDevices(); ++d) {
        const BitVec now =
            rank_.device(d).ReadBits(r.bank, r.row, 0,
                                     rg_.device.TotalRowBits());
        out.push_back((now ^ truth_[i]).SetBits());
        ++i;
      }
    }
    return out;
  }

  std::size_t TotalDiff() {
    std::size_t n = 0;
    for (const auto& v : DiffBits()) n += v.size();
    return n;
  }

  RankGeometry rg_;
  Rank rank_{rg_};
  Injector injector_;
  std::vector<BitVec> truth_;
};

TEST_F(InjectorTest, RejectsEmptyWorkingSet) {
  EXPECT_THROW(Injector(rank_, {}), std::invalid_argument);
}

TEST_F(InjectorTest, RejectsOutOfRangeWorkingSet) {
  EXPECT_THROW(Injector(rank_, {{99, 0}}), std::out_of_range);
}

TEST_F(InjectorTest, SingleBitTransientFlipsExactlyOneBit) {
  Xoshiro256 rng(1);
  const auto f = injector_.Inject(FaultType::kSingleBit, false, rng);
  EXPECT_EQ(f.type, FaultType::kSingleBit);
  EXPECT_FALSE(f.permanent);
  EXPECT_EQ(TotalDiff(), 1u);
}

TEST_F(InjectorTest, SingleBitPermanentDiffersAtMostOneBit) {
  Xoshiro256 rng(2);
  injector_.Inject(FaultType::kSingleBit, true, rng);
  EXPECT_LE(TotalDiff(), 1u);  // stuck at the stored value is invisible
}

TEST_F(InjectorTest, SingleWordStaysWithinOneAlignedWord) {
  Xoshiro256 rng(3);
  const auto f = injector_.Inject(FaultType::kSingleWord, false, rng);
  const auto diffs = DiffBits();
  std::size_t groups_hit = 0;
  for (const auto& bits : diffs) {
    if (bits.empty()) continue;
    ++groups_hit;
    for (auto b : bits) {
      EXPECT_GE(b, f.bit);
      EXPECT_LT(b, f.bit + 128);
    }
  }
  EXPECT_EQ(groups_hit, 1u);  // one device, one row
}

TEST_F(InjectorTest, SinglePinConfinesDamageToOnePinLine) {
  Xoshiro256 rng(4);
  const auto f = injector_.Inject(FaultType::kSinglePin, true, rng);
  const unsigned pin = f.bit;
  const auto diffs = DiffBits();
  std::size_t total = 0;
  for (const auto& bits : diffs) {
    for (auto b : bits) {
      ASSERT_LT(b, rg_.device.row_bits) << "pin fault must spare the parity region";
      EXPECT_EQ(b % rg_.device.dq_pins, pin);
      ++total;
    }
  }
  // ~half the 1024 pin bits read wrong under stuck-at-random.
  EXPECT_GT(total, 350u);
  EXPECT_LT(total, 700u);
}

TEST_F(InjectorTest, SingleRowCorruptsOnlyThatRow) {
  Xoshiro256 rng(5);
  const auto f = injector_.Inject(FaultType::kSingleRow, true, rng);
  std::size_t i = 0;
  for (const auto& r : injector_.working_set()) {
    for (unsigned d = 0; d < rank_.TotalDevices(); ++d) {
      const BitVec now = rank_.device(d).ReadBits(
          r.bank, r.row, 0, rg_.device.TotalRowBits());
      const std::size_t diff = (now ^ truth_[i]).Popcount();
      if (d == f.device && r.bank == f.bank && r.row == f.row) {
        // ~50% of 8704 bits.
        EXPECT_GT(diff, 3800u);
        EXPECT_LT(diff, 4900u);
      } else {
        EXPECT_EQ(diff, 0u);
      }
      ++i;
    }
  }
}

TEST_F(InjectorTest, SingleBankHitsEveryWorkingSetRowOfTheBank) {
  Xoshiro256 rng(6);
  const auto f = injector_.Inject(FaultType::kSingleBank, true, rng);
  std::size_t i = 0;
  for (const auto& r : injector_.working_set()) {
    for (unsigned d = 0; d < rank_.TotalDevices(); ++d) {
      const BitVec now = rank_.device(d).ReadBits(
          r.bank, r.row, 0, rg_.device.TotalRowBits());
      const std::size_t diff = (now ^ truth_[i]).Popcount();
      if (d == f.device && r.bank == f.bank) {
        EXPECT_GT(diff, 3800u) << "row " << r.row;
      } else {
        EXPECT_EQ(diff, 0u);
      }
      ++i;
    }
  }
}

TEST_F(InjectorTest, PinBurstFlipsExactlyLengthConsecutivePinBits) {
  Xoshiro256 rng(7);
  const auto f = injector_.InjectPinBurst(/*device=*/2, /*length=*/5, rng);
  EXPECT_EQ(f.length, 5u);
  const auto diffs = DiffBits();
  std::vector<std::size_t> hit;
  for (std::size_t g = 0; g < diffs.size(); ++g)
    for (auto b : diffs[g]) hit.push_back(b);
  ASSERT_EQ(hit.size(), 5u);
  // All on one pin, consecutive along the pin line.
  const unsigned pin = static_cast<unsigned>(hit[0] % rg_.device.dq_pins);
  for (std::size_t j = 0; j < hit.size(); ++j) {
    EXPECT_EQ(hit[j] % rg_.device.dq_pins, pin);
    EXPECT_EQ(hit[j] / rg_.device.dq_pins, hit[0] / rg_.device.dq_pins + j);
  }
}

TEST_F(InjectorTest, PinBurstRejectsBadLength) {
  Xoshiro256 rng(8);
  EXPECT_THROW(injector_.InjectPinBurst(0, 0, rng), std::invalid_argument);
  EXPECT_THROW(injector_.InjectPinBurst(0, 4096, rng), std::invalid_argument);
}

TEST_F(InjectorTest, InjectionIsDeterministicGivenSeed) {
  Xoshiro256 rng_a(42), rng_b(42);
  const auto fa = injector_.Inject(FaultType::kSingleBit, false, rng_a);
  // Re-flip to undo, then repeat with the same seed.
  rank_.device(fa.device).InjectFlip(fa.bank, fa.row, fa.bit);
  const auto fb = injector_.Inject(FaultType::kSingleBit, false, rng_b);
  EXPECT_EQ(fa.device, fb.device);
  EXPECT_EQ(fa.bank, fb.bank);
  EXPECT_EQ(fa.row, fb.row);
  EXPECT_EQ(fa.bit, fb.bit);
}

// ------------------------------------------------------------ touch hook

/// An empty rank with a hook that records each call and whether the row
/// still held what it held before the current injection when the hook ran.
class TouchHookTest : public ::testing::Test {
 protected:
  TouchHookTest()
      : rank_(rg_),
        injector_(rank_, {{0, 10}, {0, 11}, {1, 20}}, [this](std::size_t i) {
          calls_.push_back(i);
          unchanged_ &= Contents(i) == before_[i];
        }) {}

  /// Working row `i` as every device reads it.
  std::vector<BitVec> Contents(std::size_t i) {
    const RowRef& r = injector_.working_set()[i];
    std::vector<BitVec> out;
    for (unsigned d = 0; d < rank_.TotalDevices(); ++d)
      out.push_back(
          rank_.device(d).ReadBits(r.bank, r.row, 0, rg_.device.TotalRowBits()));
    return out;
  }

  /// Runs `inject` and checks that every working row it changed had its
  /// hook called, during the call, before the row changed.
  template <typename Inject>
  void ExpectHookedBeforeChange(Inject&& inject) {
    const std::size_t rows = injector_.working_set().size();
    before_.clear();
    for (std::size_t i = 0; i < rows; ++i) before_.push_back(Contents(i));
    calls_.clear();
    inject();
    EXPECT_TRUE(unchanged_) << "a hook ran after a bit of its row changed";
    for (std::size_t i = 0; i < rows; ++i) {
      if (Contents(i) != before_[i]) {
        EXPECT_NE(std::find(calls_.begin(), calls_.end(), i), calls_.end())
            << "row " << i << " changed without its hook";
      }
    }
  }

  RankGeometry rg_;
  Rank rank_;
  std::vector<std::size_t> calls_;
  std::vector<std::vector<BitVec>> before_;
  bool unchanged_ = true;
  Injector injector_;
};

TEST_F(TouchHookTest, RunsBeforeEveryFaultThatChangesItsRow) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 40; ++i)
    for (FaultType t : kAllFaultTypes)
      if (t != FaultType::kSingleBank)
        ExpectHookedBeforeChange(
            [&] { injector_.Inject(t, i % 2 == 0, rng); });
  // A row is hooked again by every later fault that reaches it.
  std::vector<std::size_t> hooked(injector_.working_set().size(), 0);
  for (int i = 0; i < 12; ++i) {
    ExpectHookedBeforeChange(
        [&] { injector_.Inject(FaultType::kSingleBit, false, rng); });
    ASSERT_EQ(calls_.size(), 1u);
    ++hooked[calls_[0]];
  }
  EXPECT_GT(*std::max_element(hooked.begin(), hooked.end()), 1u);
}

TEST_F(TouchHookTest, SingleBankTouchesEveryWorkingRowOfItsBank) {
  Xoshiro256 rng(5);
  InjectedFault f;
  do {
    ExpectHookedBeforeChange(
        [&] { f = injector_.Inject(FaultType::kSingleBank, false, rng); });
  } while (f.bank != 0);
  EXPECT_EQ(calls_, (std::vector<std::size_t>{0, 1}));
}

TEST_F(TouchHookTest, HookDrawsNoRandomness) {
  RankGeometry rg;
  Rank plain_rank(rg);
  Injector plain(plain_rank, injector_.working_set());
  Xoshiro256 a(8), b(8);
  for (int i = 0; i < 30; ++i) {
    InjectedFault fa;
    ExpectHookedBeforeChange(
        [&] { fa = injector_.InjectFromMix(FaultMix::Clustered(), a); });
    const InjectedFault fb = plain.InjectFromMix(FaultMix::Clustered(), b);
    EXPECT_EQ(fa.type, fb.type);
    EXPECT_EQ(fa.device, fb.device);
    EXPECT_EQ(fa.bank, fb.bank);
    EXPECT_EQ(fa.row, fb.row);
    EXPECT_EQ(fa.bit, fb.bit);
  }
  EXPECT_EQ(a(), b());
  EXPECT_EQ(injector_.counters(), plain.counters());
  EXPECT_FALSE(calls_.empty());
}

// ------------------------------------------------------- footprint digests
//
// Pins what every fault type leaves in the devices, bit for bit, on five
// geometries: the raw stored row (or its absence), the array view, the
// stuck count and stuck-row flag, the touch-hook calls, the returned
// records, the counters and where the RNG stream stands afterwards. Any
// change to a footprint, a hit rule or the order of the draws changes
// these values.

void AppendU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

std::uint64_t BitsCrc(const BitVec& bits) {
  std::string words;
  for (std::size_t b = 0; b < bits.size(); b += 64)
    AppendU64(words,
              bits.GetWord(b, std::min<std::size_t>(64, bits.size() - b)));
  return util::Crc32(words);
}

void AppendFault(std::string& out, const InjectedFault& f) {
  for (unsigned v : {static_cast<unsigned>(f.type), unsigned{f.permanent},
                     f.device, f.bank, f.row, f.bit, f.length})
    AppendU64(out, v);
}

void AppendDevices(std::string& out, const Rank& rank,
                   const std::vector<RowRef>& rows) {
  const unsigned total = rank.geometry().device.TotalRowBits();
  for (unsigned d = 0; d < rank.TotalDevices(); ++d) {
    const dram::Device& dev = rank.device(d);
    AppendU64(out, dev.StuckCount());
    for (const RowRef& r : rows) {
      const dram::Device::Row* row = dev.FindRow(r.bank, r.row);
      AppendU64(out,
                row == nullptr ? ~std::uint64_t{0} : BitsCrc(row->Stored()));
      AppendU64(out, BitsCrc(dev.ReadBits(r.bank, r.row, 0, total)));
      AppendU64(out, row != nullptr && row->HasStuckBits());
    }
  }
}

std::string FootprintDigest(const RankGeometry& rg) {
  const std::vector<RowRef> rows = {{0, 10}, {0, 11}, {1, 20}, {0, 3}, {1, 7}};
  std::string out;
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    Rank rank(rg);
    std::vector<std::size_t> calls;
    Injector injector(rank, rows, [&](std::size_t i) { calls.push_back(i); });
    Xoshiro256 rng(seed);
    // Half the devices hold data in every working row; the rest start
    // untouched, so row creation shows in the digest too.
    for (unsigned d = 0; d < rank.TotalDevices(); d += 2)
      for (const RowRef& r : rows)
        rank.device(d).WriteBits(
            r.bank, r.row, 0, BitVec::Random(rg.device.TotalRowBits(), rng));
    const auto record = [&](const InjectedFault& f) {
      AppendFault(out, f);
      AppendU64(out, calls.size());
      for (std::size_t i : calls) AppendU64(out, i);
      calls.clear();
      AppendDevices(out, rank, rows);
    };
    for (FaultType type : kAllFaultTypes)
      for (bool permanent : {true, false})
        for (int rep = 0; rep < 2; ++rep)
          record(injector.Inject(type, permanent, rng));
    for (unsigned length = 1; length <= 16; ++length)
      record(injector.InjectPinBurst(length % rank.TotalDevices(), length, rng));
    const InjectionCounters& c = injector.counters();
    for (std::uint64_t v : {c.total, c.permanent, c.transient}) AppendU64(out, v);
    for (std::uint64_t v : c.by_type) AppendU64(out, v);
    AppendU64(out, rng());
  }
  return util::Crc32Hex(out);
}

TEST(InjectorFootprint, StorageMatchesPinnedDigests) {
  struct Pin {
    const char* name;
    RankGeometry rg;
    const char* digest;
  };
  RankGeometry x4, x8, x16, ddr5, hbm3;
  x4.device.dq_pins = 4;
  x4.data_devices = 16;
  x16.device.dq_pins = 16;
  x16.data_devices = 4;
  ddr5.device = dram::DeviceGeometry::Ddr5x8();
  hbm3.device = dram::DeviceGeometry::Hbm3();
  hbm3.data_devices = 4;
  const Pin pins[] = {
      {"x4", x4, "ee146dec"},
      {"x8", x8, "ed762468"},
      {"x16", x16, "c1c0a611"},
      // Footprints depend on the pin count and the row size only, so the
      // BL16 and HBM3 dies pin the digests of x8 and x16.
      {"ddr5_bl16", ddr5, "ed762468"},
      {"hbm3", hbm3, "c1c0a611"},
  };
  for (const Pin& pin : pins)
    EXPECT_EQ(FootprintDigest(pin.rg), pin.digest) << pin.name;
}

// ------------------------------------------------------------------ FaultMix

TEST(FaultMix, PresetsHaveSensibleWeights) {
  EXPECT_NEAR(FaultMix::Inherent().TotalWeight(), 1.0, 1e-9);
  EXPECT_NEAR(FaultMix::CellOnly().TotalWeight(), 1.0, 1e-9);
  EXPECT_NEAR(FaultMix::Clustered().TotalWeight(), 1.0, 1e-9);
  EXPECT_EQ(FaultMix::CellOnly().WeightOf(FaultType::kSinglePin), 0.0);
}

TEST(FaultMix, SampleTypeFollowsWeights) {
  FaultMix mix;
  mix.single_bit = 0.5;
  mix.single_word = 0.0;
  mix.single_pin = 0.5;
  mix.single_row = 0.0;
  mix.single_bank = 0.0;
  mix.pin_burst = 0.0;
  Xoshiro256 rng(9);
  int bits = 0, pins = 0;
  for (int i = 0; i < 10000; ++i) {
    const FaultType t = SampleType(mix, rng);
    ASSERT_TRUE(t == FaultType::kSingleBit || t == FaultType::kSinglePin);
    (t == FaultType::kSingleBit ? bits : pins)++;
  }
  EXPECT_NEAR(static_cast<double>(bits) / 10000.0, 0.5, 0.03);
}

TEST(FaultMix, ZeroWeightMixThrows) {
  FaultMix mix{0, 0, 0, 0, 0, 0, 0.5};
  Xoshiro256 rng(10);
  EXPECT_THROW(SampleType(mix, rng), std::invalid_argument);
}

TEST(FaultMix, ToStringCoversAllTypes) {
  for (FaultType t : kAllFaultTypes) EXPECT_FALSE(ToString(t).empty());
}

TEST(FaultMixSampling, InjectFromMixRespectsPermanentFraction) {
  RankGeometry rg;
  Rank rank(rg);
  Injector injector(rank, {{0, 0}});
  FaultMix mix = FaultMix::CellOnly();
  mix.permanent_fraction = 1.0;
  Xoshiro256 rng(11);
  for (int i = 0; i < 50; ++i) {
    const auto f = injector.InjectFromMix(mix, rng);
    EXPECT_TRUE(f.permanent);
    EXPECT_EQ(f.type, FaultType::kSingleBit);
  }
}

}  // namespace
}  // namespace pair_ecc::faults
