// Cross-scheme behaviour tests: round trips, single-bit correction, the
// characteristic failure modes of each baseline (IECC miscorrection, XED
// silent-miscorrection SDC vs chip-level reconstruction, DUO rank-level RS
// correction), and performance-descriptor sanity.
#include <algorithm>
#include <atomic>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/ablation.hpp"
#include "core/pair_scheme.hpp"
#include "dram/rank.hpp"
#include "ecc/scheme.hpp"
#include "util/atomic_file.hpp"
#include "util/rng.hpp"

namespace pair_ecc::ecc {
namespace {

using dram::Address;
using dram::Rank;
using dram::RankGeometry;
using pair_ecc::util::BitVec;
using pair_ecc::util::Xoshiro256;

std::string KindName(const ::testing::TestParamInfo<SchemeKind>& info) {
  std::string n = ToString(info.param);
  for (char& c : n)
    if (c == '-' || c == '+') c = '_';
  return n;
}

class SchemeParamTest : public ::testing::TestWithParam<SchemeKind> {
 protected:
  SchemeParamTest() : rank_(rg_), scheme_(MakeScheme(GetParam(), rank_)) {}

  RankGeometry rg_;
  Rank rank_{rg_};
  std::unique_ptr<Scheme> scheme_;
};

TEST_P(SchemeParamTest, CleanRoundTripAcrossColumns) {
  Xoshiro256 rng(1);
  std::vector<std::pair<Address, BitVec>> lines;
  for (unsigned col : {0u, 1u, 63u, 64u, 127u}) {
    const Address addr{2, 7, col};
    const BitVec line = BitVec::Random(rg_.LineBits(), rng);
    scheme_->WriteLine(addr, line);
    lines.emplace_back(addr, line);
  }
  for (const auto& [addr, line] : lines) {
    const auto r = scheme_->ReadLine(addr);
    EXPECT_EQ(r.claim, Claim::kClean) << ToString(GetParam());
    EXPECT_EQ(r.data, line);
  }
}

TEST_P(SchemeParamTest, OverwriteIsConsistent) {
  Xoshiro256 rng(2);
  const Address addr{0, 3, 10};
  for (int i = 0; i < 5; ++i) scheme_->WriteLine(addr, BitVec::Random(rg_.LineBits(), rng));
  const BitVec last = BitVec::Random(rg_.LineBits(), rng);
  scheme_->WriteLine(addr, last);
  const auto r = scheme_->ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kClean);
  EXPECT_EQ(r.data, last);
}

TEST_P(SchemeParamTest, AdjacentLinesDoNotInterfere) {
  // Columns sharing an on-die codeword (0 and 1) must still round-trip
  // independently under interleaved writes.
  Xoshiro256 rng(3);
  const Address a{1, 9, 0}, b{1, 9, 1};
  const BitVec la = BitVec::Random(rg_.LineBits(), rng);
  scheme_->WriteLine(a, la);
  const BitVec lb = BitVec::Random(rg_.LineBits(), rng);
  scheme_->WriteLine(b, lb);
  const BitVec la2 = BitVec::Random(rg_.LineBits(), rng);
  scheme_->WriteLine(a, la2);
  EXPECT_EQ(scheme_->ReadLine(b).data, lb);
  EXPECT_EQ(scheme_->ReadLine(a).data, la2);
}

TEST_P(SchemeParamTest, SingleBitFaultInDataIsCorrected) {
  if (GetParam() == SchemeKind::kNoEcc) GTEST_SKIP();
  Xoshiro256 rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const Address addr{0, 5, static_cast<unsigned>(trial % 128)};
    const BitVec line = BitVec::Random(rg_.LineBits(), rng);
    scheme_->WriteLine(addr, line);
    // Flip one stored bit inside the addressed column of a random device.
    const unsigned d = static_cast<unsigned>(rng.UniformBelow(8));
    const unsigned bit = addr.col * 64 + static_cast<unsigned>(rng.UniformBelow(64));
    rank_.device(d).InjectFlip(addr.bank, addr.row, bit);
    const auto r = scheme_->ReadLine(addr);
    EXPECT_EQ(r.claim, Claim::kCorrected) << ToString(GetParam());
    EXPECT_EQ(r.data, line) << ToString(GetParam()) << " trial " << trial;
    // Undo so trials stay independent.
    rank_.device(d).InjectFlip(addr.bank, addr.row, bit);
  }
}

TEST_P(SchemeParamTest, SingleBitFaultNeverCausesSdc) {
  if (GetParam() == SchemeKind::kNoEcc) GTEST_SKIP();
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const Address addr{1, 6, 40};
    const BitVec line = BitVec::Random(rg_.LineBits(), rng);
    scheme_->WriteLine(addr, line);
    const unsigned d = static_cast<unsigned>(rng.UniformBelow(8));
    const unsigned bit = static_cast<unsigned>(rng.UniformBelow(8704));
    rank_.device(d).InjectFlip(addr.bank, addr.row, bit);
    const auto r = scheme_->ReadLine(addr);
    if (r.claim != Claim::kDetected) {
      EXPECT_EQ(r.data, line);
    }
    rank_.device(d).InjectFlip(addr.bank, addr.row, bit);
  }
}

TEST_P(SchemeParamTest, PerfDescriptorIsSane) {
  const PerfDescriptor p = scheme_->Perf();
  EXPECT_GE(p.read_decode_ns, 0.0);
  EXPECT_GE(p.write_encode_ns, 0.0);
  EXPECT_GE(p.storage_overhead, 0.0);
  EXPECT_LE(p.storage_overhead, 1.0);
  EXPECT_LE(p.extra_read_beats, 2u);
  EXPECT_LE(p.extra_write_beats, 2u);
  if (GetParam() == SchemeKind::kNoEcc) {
    EXPECT_EQ(p.storage_overhead, 0.0);
    EXPECT_EQ(p.extra_read_beats, 0u);
    EXPECT_EQ(p.read_decode_ns, 0.0);
    EXPECT_FALSE(p.write_rmw);
  } else {
    EXPECT_GT(p.storage_overhead, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeParamTest,
                         ::testing::ValuesIn(AllSchemeKinds()), KindName);

// DUO and PAIR implement the batch virtuals and run their per-line ones as
// one-lane batches; every other scheme implements the per-line virtuals and
// inherits the batch loops. IECC stays here as a per-line scheme whose
// lines share on-die codewords (the buddy column), so a batch of its lines
// must still equal the per-line sequence. PAIR's row runs, with stuck cells
// and every config knob, are pinned by PairBatchTest (pair_test.cpp).
class SchemeBatchTest : public SchemeParamTest {};

TEST_P(SchemeBatchTest, BatchOverridesMatchPerLineBitwise) {
  // The batch WriteLines/ReadLines override must be observably identical
  // to the per-line path: same claims, same corrected-unit counts, same
  // delivered data — including under injected faults and overwrites of
  // dirty codewords.
  Xoshiro256 rng(6);
  Rank batch_rank(rg_);
  auto batch_scheme = MakeScheme(GetParam(), batch_rank);

  std::vector<Address> addrs;
  std::vector<BitVec> lines;
  for (unsigned i = 0; i < 12; ++i) {
    addrs.push_back({i % 2, 4 + i % 3, (i * 17) % 128});
    lines.push_back(BitVec::Random(rg_.LineBits(), rng));
  }
  for (std::size_t i = 0; i < addrs.size(); ++i)
    scheme_->WriteLine(addrs[i], lines[i]);
  batch_scheme->WriteLines(addrs, lines);

  // Identical fault soup in both ranks: anywhere in the rows under test,
  // so the mix spans clean, correctable, and uncorrectable lanes.
  for (int f = 0; f < 48; ++f) {
    const Address& a = addrs[rng.UniformBelow(addrs.size())];
    const unsigned d = static_cast<unsigned>(rng.UniformBelow(8));
    const unsigned bit = static_cast<unsigned>(rng.UniformBelow(8704));
    rank_.device(d).InjectFlip(a.bank, a.row, bit);
    batch_rank.device(d).InjectFlip(a.bank, a.row, bit);
  }

  std::vector<ReadResult> batch_results(addrs.size());
  const auto expect_batch_reads_match = [&](const char* phase) {
    batch_scheme->ReadLines(addrs, batch_results);
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      const auto r = scheme_->ReadLine(addrs[i]);
      SCOPED_TRACE(std::string(phase) + " line " + std::to_string(i));
      EXPECT_EQ(batch_results[i].claim, r.claim);
      EXPECT_EQ(batch_results[i].corrected_units, r.corrected_units);
      EXPECT_EQ(batch_results[i].data, r.data);
    }
  };
  expect_batch_reads_match("faulty");

  // Overwrite the still-faulty lines: exercises the dirty-codeword slow
  // write path next to clean delta updates in the same batch.
  for (std::size_t i = 0; i < 4; ++i) {
    lines[i] = BitVec::Random(rg_.LineBits(), rng);
    scheme_->WriteLine(addrs[i], lines[i]);
  }
  batch_scheme->WriteLines(std::span<const Address>(addrs.data(), 4),
                           std::span<const BitVec>(lines.data(), 4));
  expect_batch_reads_match("overwritten");

  // Chip kill: device 3 returns every addressed column inverted. DUO's
  // batch read hands every lane the erased device's symbols as erasures
  // (8 symbol errors are beyond its errors-only reach); the per-line read
  // is a one-lane batch.
  const bool erased = scheme_->MarkDeviceErased(3);
  EXPECT_EQ(batch_scheme->MarkDeviceErased(3), erased);
  EXPECT_EQ(erased, GetParam() == SchemeKind::kDuo);
  for (const Address& a : addrs) {
    for (unsigned bit = a.col * 64; bit < (a.col + 1) * 64; ++bit) {
      rank_.device(3).InjectFlip(a.bank, a.row, bit);
      batch_rank.device(3).InjectFlip(a.bank, a.row, bit);
    }
  }
  expect_batch_reads_match("device 3 erased");
  EXPECT_EQ(batch_scheme->counters(), scheme_->counters());
}

INSTANTIATE_TEST_SUITE_P(BatchOverrides, SchemeBatchTest,
                         ::testing::Values(SchemeKind::kIecc, SchemeKind::kDuo,
                                           SchemeKind::kPair2,
                                           SchemeKind::kPair4),
                         KindName);

// ------------------------------------------------------ pinned codec outputs
//
// Every read's (claim, corrected_units, data) and the final CodecCounters of
// two instances per scheme (one written per line, one through WriteLines),
// CRC32'd per SchemeKind over a seeded write / fault / read / overwrite /
// scrub / read / erase-device-3 / read sequence. Reads go through ReadLine
// and again through ReadLines. The fault soup mixes scattered flips with
// three-column device bursts, so lanes are clean, correctable and
// uncorrectable. Any change to what a scheme stores, corrects, claims or
// counts changes these values.

void AppendU64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

void AppendRead(std::string& out, const ReadResult& r) {
  AppendU64(out, static_cast<std::uint64_t>(r.claim));
  AppendU64(out, r.corrected_units);
  std::string record;
  for (std::size_t b = 0; b < r.data.size(); b += 64)
    AppendU64(record,
              r.data.GetWord(b, std::min<std::size_t>(64, r.data.size() - b)));
  AppendU64(out, util::Crc32(record));
}

std::string PinnedCodecDigest(SchemeKind kind) {
  const RankGeometry rg;
  Rank per_line_rank(rg), batch_rank(rg);
  auto per_line = MakeScheme(kind, per_line_rank);
  auto batch = MakeScheme(kind, batch_rank);
  Xoshiro256 rng(22);

  std::vector<Address> addrs;
  std::vector<BitVec> lines;
  for (unsigned i = 0; i < 24; ++i) {
    addrs.push_back({i % 2, 3 + i % 3, (i * 37 + i / 6) % 128});
    lines.push_back(BitVec::Random(rg.LineBits(), rng));
  }
  for (std::size_t i = 0; i < addrs.size(); ++i)
    per_line->WriteLine(addrs[i], lines[i]);
  batch->WriteLines(addrs, lines);

  const auto flip = [&](unsigned d, unsigned bank, unsigned row, unsigned bit) {
    per_line_rank.device(d).InjectFlip(bank, row, bit);
    batch_rank.device(d).InjectFlip(bank, row, bit);
  };
  for (int f = 0; f < 40; ++f) {
    const Address& a = addrs[rng.UniformBelow(addrs.size())];
    flip(static_cast<unsigned>(rng.UniformBelow(per_line_rank.TotalDevices())),
         a.bank, a.row, static_cast<unsigned>(rng.UniformBelow(8704)));
  }
  // Three-column bursts, two of them on a line that already has one.
  for (unsigned burst = 0; burst < 8; ++burst) {
    const Address& a = addrs[(burst % 6) * 2 + 1];
    const unsigned d = static_cast<unsigned>(rng.UniformBelow(8));
    const unsigned col0 = a.col >= 2 ? a.col - 2 : a.col;
    for (unsigned bit = col0 * 64; bit < (col0 + 3) * 64; ++bit)
      if (rng.UniformBelow(2) != 0) flip(d, a.bank, a.row, bit);
  }

  std::string out;
  std::vector<ReadResult> results(addrs.size());
  const auto read_all = [&] {
    for (Scheme* s : {per_line.get(), batch.get()}) {
      for (const Address& a : addrs) AppendRead(out, s->ReadLine(a));
      s->ReadLines(addrs, results);
      for (const ReadResult& r : results) AppendRead(out, r);
    }
  };
  read_all();

  // Overwrite some still-faulty lines, then scrub a few lines and a row.
  for (std::size_t i = 0; i < 6; ++i) {
    lines[i] = BitVec::Random(rg.LineBits(), rng);
    per_line->WriteLine(addrs[i], lines[i]);
  }
  batch->WriteLines(std::span<const Address>(addrs.data(), 6),
                    std::span<const BitVec>(lines.data(), 6));
  for (Scheme* s : {per_line.get(), batch.get()}) {
    for (std::size_t i = 6; i < 12; ++i) s->ScrubLine(addrs[i]);
    s->ScrubRowFull(addrs[13].bank, addrs[13].row);
  }
  read_all();

  for (Scheme* s : {per_line.get(), batch.get()})
    AppendU64(out, s->MarkDeviceErased(3));
  read_all();

  for (Scheme* s : {per_line.get(), batch.get()})
    util::ForEachField<CodecCounters>(
        [&](const auto& f) { AppendU64(out, s->counters().*f.member); });
  return util::Crc32Hex(out);
}

TEST(Schemes, CodecOutputsMatchPinnedDigests) {
  struct Pin {
    SchemeKind kind;
    const char* digest;
  };
  const Pin pins[] = {
      {SchemeKind::kNoEcc, "12f62275"},
      {SchemeKind::kIecc, "353dd481"},
      {SchemeKind::kSecDed, "f8fc9ba1"},
      {SchemeKind::kIeccSecDed, "bb298964"},
      {SchemeKind::kXed, "64e1e873"},
      {SchemeKind::kDuo, "a00e29e8"},
      {SchemeKind::kPair2, "9731e9b4"},
      {SchemeKind::kPair4, "0660fad3"},
      {SchemeKind::kPair4SecDed, "3b733565"},
  };
  ASSERT_EQ(std::size(pins), AllSchemeKinds().size());
  for (const Pin& pin : pins)
    EXPECT_EQ(PinnedCodecDigest(pin.kind), pin.digest) << ToString(pin.kind);
}

// ------------------------------------------------- pinned on-die word path
//
// The on-die SEC word path (IECC, XED) and the rank SEC-DED wrapper on every
// device width and burst length: x4 and x8 BL8 columns are narrower than
// the 128-bit on-die word (read-correct-modify-write), HBM3 x16 BL8 and
// DDR5 x8 BL16 columns are the whole word. No-ECC, DUO, PAIR-4 and the two
// ablations (PA-SEC, IL-RS) run the same sequence on every geometry their
// constructors accept, so the digests pin how each layout reads and writes
// its rows, stuck cells included. The sequence writes, scatters
// flips, sticks cells at 0 and at 1 in the data and parity regions of the
// written words, reads, overwrites faulty and stuck words, scrubs and reads
// again, through ReadLine and ReadLines. The digest covers every read, the
// counters and every stored bit of the touched rows; "rejected" marks a
// geometry the factory refuses for that scheme.

using SchemeMaker = std::unique_ptr<Scheme> (*)(Rank&);

template <SchemeKind kKind>
std::unique_ptr<Scheme> MakeKind(Rank& rank) {
  return MakeScheme(kKind, rank);
}

std::string PinnedWordPathDigest(SchemeMaker make, const RankGeometry& rg) {
  Rank rank(rg);
  std::unique_ptr<Scheme> scheme;
  try {
    scheme = make(rank);
  } catch (const std::invalid_argument&) {
    return "rejected";
  }
  const auto& g = rg.device;
  const unsigned access = g.AccessBits();
  Xoshiro256 rng(33);

  // Adjacent columns share an on-die word whenever a column is narrower.
  std::vector<Address> addrs;
  for (unsigned i = 0; i < 16; ++i)
    addrs.push_back({i % 2, 5 + i % 2, (i / 4) * 5 + i % 4});
  std::vector<BitVec> lines;
  for (const Address& a : addrs) {
    lines.push_back(BitVec::Random(rg.LineBits(), rng));
    scheme->WriteLine(a, lines.back());
  }

  const auto device = [&] {
    return static_cast<unsigned>(rng.UniformBelow(rank.TotalDevices()));
  };
  // A data or parity bit of the on-die word covering `a`'s column.
  const auto word_bit = [&](const Address& a) {
    const unsigned word = a.col * access / 128;
    return rng.UniformBelow(4) == 0
               ? g.row_bits + word * 8 + static_cast<unsigned>(rng.UniformBelow(8))
               : word * 128 + static_cast<unsigned>(rng.UniformBelow(128));
  };
  for (int f = 0; f < 30; ++f) {
    const Address& a = addrs[rng.UniformBelow(addrs.size())];
    rank.device(device()).InjectFlip(
        a.bank, a.row,
        static_cast<unsigned>(rng.UniformBelow(g.TotalRowBits())));
  }
  for (int f = 0; f < 30; ++f) {
    const Address& a = addrs[rng.UniformBelow(addrs.size())];
    rank.device(device()).InjectFlip(a.bank, a.row, word_bit(a));
  }
  for (int s = 0; s < 16; ++s) {
    const Address& a = addrs[rng.UniformBelow(addrs.size())];
    rank.device(device()).SetStuck(a.bank, a.row, word_bit(a), s % 2 == 1);
  }

  std::string out;
  std::vector<ReadResult> results(addrs.size());
  const auto read_all = [&] {
    for (const Address& a : addrs) AppendRead(out, scheme->ReadLine(a));
    scheme->ReadLines(addrs, results);
    for (const ReadResult& r : results) AppendRead(out, r);
  };
  read_all();

  // Overwrite half the lines (words with latent flips and stuck cells among
  // them), then scrub two lines and one row.
  for (std::size_t i = 0; i < addrs.size(); i += 2) {
    lines[i] = BitVec::Random(rg.LineBits(), rng);
    scheme->WriteLine(addrs[i], lines[i]);
  }
  scheme->ScrubLine(addrs[1]);
  scheme->ScrubLine(addrs[7]);
  scheme->ScrubRowFull(addrs[2].bank, addrs[2].row);
  read_all();

  util::ForEachField<CodecCounters>(
      [&](const auto& f) { AppendU64(out, scheme->counters().*f.member); });
  for (unsigned d = 0; d < rank.TotalDevices(); ++d)
    for (unsigned bank = 0; bank < 2; ++bank)
      for (unsigned row = 5; row < 7; ++row) {
        const dram::Device::Row* cells = rank.device(d).FindRow(bank, row);
        if (cells == nullptr) continue;
        const BitVec& stored = cells->Stored();
        for (std::size_t b = 0; b < stored.size(); b += 64)
          AppendU64(out, stored.GetWord(
                             b, std::min<std::size_t>(64, stored.size() - b)));
      }
  return util::Crc32Hex(out);
}

TEST(Schemes, OnDieWordPathMatchesPinnedDigests) {
  RankGeometry x4, x8, hbm3, ddr5;
  x4.device.dq_pins = 4;
  x4.data_devices = 16;
  hbm3.device = dram::DeviceGeometry::Hbm3();
  hbm3.data_devices = 4;
  ddr5.device = dram::DeviceGeometry::Ddr5x8();
  ddr5.device.banks = 32;
  ddr5.data_devices = 4;
  using enum SchemeKind;
  struct Pin {
    const char* scheme;
    SchemeMaker make;
    const char* geometry;
    const RankGeometry& rg;
    const char* digest;
  };
  const Pin pins[] = {
      {"IECC", MakeKind<kIecc>, "x4", x4, "ceb4b58a"},
      {"IECC", MakeKind<kIecc>, "x8", x8, "143f7670"},
      {"IECC", MakeKind<kIecc>, "hbm3", hbm3, "6604749a"},
      {"IECC", MakeKind<kIecc>, "ddr5", ddr5, "6604749a"},
      {"XED", MakeKind<kXed>, "x4", x4, "350a2053"},
      {"XED", MakeKind<kXed>, "x8", x8, "005255e9"},
      {"XED", MakeKind<kXed>, "hbm3", hbm3, "72b64346"},
      {"XED", MakeKind<kXed>, "ddr5", ddr5, "72b64346"},
      {"IECC+SECDED", MakeKind<kIeccSecDed>, "x4", x4, "rejected"},
      {"IECC+SECDED", MakeKind<kIeccSecDed>, "x8", x8, "61076811"},
      {"IECC+SECDED", MakeKind<kIeccSecDed>, "hbm3", hbm3, "2bed64d2"},
      {"IECC+SECDED", MakeKind<kIeccSecDed>, "ddr5", ddr5, "b795be53"},
      {"SECDED", MakeKind<kSecDed>, "x4", x4, "rejected"},
      {"SECDED", MakeKind<kSecDed>, "x8", x8, "1bb5d72b"},
      {"SECDED", MakeKind<kSecDed>, "hbm3", hbm3, "99796e94"},
      {"SECDED", MakeKind<kSecDed>, "ddr5", ddr5, "fac2f81a"},
      {"No-ECC", MakeKind<kNoEcc>, "x4", x4, "80f1947e"},
      {"No-ECC", MakeKind<kNoEcc>, "x8", x8, "50bd3d6f"},
      {"No-ECC", MakeKind<kNoEcc>, "hbm3", hbm3, "b78bd7fd"},
      {"No-ECC", MakeKind<kNoEcc>, "ddr5", ddr5, "b78bd7fd"},
      {"DUO", MakeKind<kDuo>, "x4", x4, "rejected"},
      {"DUO", MakeKind<kDuo>, "x8", x8, "002e8cc1"},
      {"DUO", MakeKind<kDuo>, "hbm3", hbm3, "rejected"},
      {"DUO", MakeKind<kDuo>, "ddr5", ddr5, "rejected"},
      {"PAIR-4", MakeKind<kPair4>, "x4", x4, "018d06f9"},
      {"PAIR-4", MakeKind<kPair4>, "x8", x8, "3e7bd3c5"},
      {"PAIR-4", MakeKind<kPair4>, "hbm3", hbm3, "f1e88424"},
      {"PAIR-4", MakeKind<kPair4>, "ddr5", ddr5, "406cd72c"},
      {"PA-SEC", core::MakePinAlignedSec, "x4", x4, "66cb344a"},
      {"PA-SEC", core::MakePinAlignedSec, "x8", x8, "66be9103"},
      {"PA-SEC", core::MakePinAlignedSec, "hbm3", hbm3, "c3239b6c"},
      {"PA-SEC", core::MakePinAlignedSec, "ddr5", ddr5, "6cc5275a"},
      {"IL-RS", core::MakeInterleavedRs, "x4", x4, "f3fc171d"},
      {"IL-RS", core::MakeInterleavedRs, "x8", x8, "a93b3524"},
      {"IL-RS", core::MakeInterleavedRs, "hbm3", hbm3, "496dbe3b"},
      {"IL-RS", core::MakeInterleavedRs, "ddr5", ddr5, "496dbe3b"},
  };
  for (const Pin& pin : pins)
    EXPECT_EQ(PinnedWordPathDigest(pin.make, pin.rg), pin.digest)
        << pin.scheme << " on " << pin.geometry;
}

// A column past the row is refused before any cell is written, so no
// scheme leaves a partial write behind.
TEST(Schemes, ColumnPastTheRowThrowsAndTouchesNoCell) {
  const RankGeometry rg;
  const Address past{0, 1, rg.device.ColumnsPerRow()};
  const auto check = [&](SchemeMaker make) {
    Rank rank(rg);
    const std::unique_ptr<Scheme> scheme = make(rank);
    EXPECT_THROW(scheme->WriteLine(past, BitVec(rg.LineBits())),
                 std::logic_error)
        << scheme->Name();
    EXPECT_THROW(scheme->ReadLine(past), std::logic_error) << scheme->Name();
    for (unsigned d = 0; d < rank.TotalDevices(); ++d)
      EXPECT_EQ(rank.device(d).FindRow(past.bank, past.row), nullptr)
          << scheme->Name() << " device " << d;
  };
  using enum SchemeKind;
  for (SchemeMaker make :
       {MakeKind<kNoEcc>, MakeKind<kIecc>, MakeKind<kSecDed>,
        MakeKind<kIeccSecDed>, MakeKind<kXed>, MakeKind<kDuo>,
        MakeKind<kPair2>, MakeKind<kPair4>, MakeKind<kPair4SecDed>,
        core::MakePinAlignedSec, core::MakeInterleavedRs})
    check(make);
}

TEST(Schemes, WrongLineWidthThrowsAndTouchesNoCell) {
  const RankGeometry rg;
  const Address addr{0, 1, 0};
  const auto check = [&](SchemeMaker make) {
    Rank rank(rg);
    const std::unique_ptr<Scheme> scheme = make(rank);
    for (const unsigned bits : {rg.LineBits() - 8, rg.LineBits() + 8}) {
      EXPECT_THROW(scheme->WriteLine(addr, BitVec(bits)),
                   std::invalid_argument)
          << scheme->Name() << " " << bits;
      // A batch is refused whole: its first, well-sized line is not
      // written either.
      const std::vector<Address> addrs{{0, 1, 1}, addr};
      const std::vector<BitVec> lines{BitVec(rg.LineBits()), BitVec(bits)};
      EXPECT_THROW(scheme->WriteLines(addrs, lines), std::invalid_argument)
          << scheme->Name() << " " << bits;
    }
    EXPECT_EQ(scheme->counters().writes, 0u) << scheme->Name();
    for (unsigned d = 0; d < rank.TotalDevices(); ++d)
      EXPECT_EQ(rank.device(d).FindRow(addr.bank, addr.row), nullptr)
          << scheme->Name() << " device " << d;
  };
  using enum SchemeKind;
  for (SchemeMaker make :
       {MakeKind<kNoEcc>, MakeKind<kIecc>, MakeKind<kSecDed>,
        MakeKind<kIeccSecDed>, MakeKind<kXed>, MakeKind<kDuo>,
        MakeKind<kPair2>, MakeKind<kPair4>, MakeKind<kPair4SecDed>,
        core::MakePinAlignedSec, core::MakeInterleavedRs})
    check(make);
}

// ------------------------------------------------------------ NoECC baseline

TEST(NoEcc, PassesErrorsThroughSilently) {
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = MakeScheme(SchemeKind::kNoEcc, rank);
  Xoshiro256 rng(10);
  const Address addr{0, 0, 0};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme->WriteLine(addr, line);
  rank.device(3).InjectFlip(0, 0, 5);
  const auto r = scheme->ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kClean);  // blissfully unaware
  EXPECT_NE(r.data, line);            // ... and wrong: SDC by construction
}

// ------------------------------------------------------- IECC miscorrection

TEST(Iecc, DoubleBitInOneWordMiscorrectsOrDetects) {
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = MakeScheme(SchemeKind::kIecc, rank);
  Xoshiro256 rng(11);
  int miscorrected = 0, detected = 0, delivered_clean = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Address addr{0, 1, 2};
    const BitVec line = BitVec::Random(rg.LineBits(), rng);
    scheme->WriteLine(addr, line);
    // Two flips anywhere in the same 128-bit on-die word of device 0 (the
    // word covers columns 2 and 3).
    unsigned a = static_cast<unsigned>(rng.UniformBelow(128));
    unsigned b;
    do { b = static_cast<unsigned>(rng.UniformBelow(128)); } while (b == a);
    rank.device(0).InjectFlip(0, 1, 2 * 64 + a);
    rank.device(0).InjectFlip(0, 1, 2 * 64 + b);
    const auto r = scheme->ReadLine(addr);
    if (r.claim == Claim::kDetected) {
      ++detected;
    } else if (r.data == line) {
      // Miscorrection whose three wrong bits all fall in the buddy column:
      // this line reads clean, the neighbouring one is silently corrupt.
      ++delivered_clean;
    } else {
      ++miscorrected;  // SDC: claims corrected/clean but data is wrong
    }
    // Reset state for the next trial.
    scheme->WriteLine(addr, line);
  }
  EXPECT_GT(miscorrected, 60);    // majority alias to a wrong single-bit fix
  EXPECT_GT(detected, 5);
  EXPECT_LT(delivered_clean, 40);
}

// --------------------------------------------------------------- XED paths

TEST(Xed, DetectedChipErrorIsReconstructedFromXorParity) {
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = MakeScheme(SchemeKind::kXed, rank);
  Xoshiro256 rng(12);
  int reconstructed = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const Address addr{0, 2, 4};
    const BitVec line = BitVec::Random(rg.LineBits(), rng);
    scheme->WriteLine(addr, line);
    // Heavy damage across one device's on-die word (columns 4 and 5): flip
    // many bits so the SEC flags uncorrectable with fair odds.
    for (int i = 0; i < 9; ++i)
      rank.device(5).InjectFlip(0, 2, 4 * 64 + static_cast<unsigned>(rng.UniformBelow(128)));
    const auto r = scheme->ReadLine(addr);
    if (r.claim == Claim::kCorrected && r.data == line) ++reconstructed;
    scheme->WriteLine(addr, line);  // reset
  }
  // Whenever the chip signals, RAID-3 reconstruction recovers it exactly.
  EXPECT_GT(reconstructed, 5);
}

TEST(Xed, SilentMiscorrectionCausesSdc) {
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = MakeScheme(SchemeKind::kXed, rank);
  Xoshiro256 rng(13);
  int sdc = 0, recovered = 0, detected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Address addr{0, 3, 6};
    const BitVec line = BitVec::Random(rg.LineBits(), rng);
    scheme->WriteLine(addr, line);
    // Double-bit error inside one on-die word (columns 6 and 7).
    unsigned a = static_cast<unsigned>(rng.UniformBelow(128));
    unsigned b;
    do { b = static_cast<unsigned>(rng.UniformBelow(128)); } while (b == a);
    rank.device(2).InjectFlip(0, 3, 6 * 64 + a);
    rank.device(2).InjectFlip(0, 3, 6 * 64 + b);
    const auto r = scheme->ReadLine(addr);
    if (r.claim == Claim::kDetected) {
      ++detected;
    } else if (r.data == line) {
      ++recovered;
    } else {
      ++sdc;
    }
    scheme->WriteLine(addr, line);
  }
  EXPECT_GT(sdc, 60);        // the weakness PAIR's evaluation quantifies
  EXPECT_GT(recovered, 10);  // flagged cases are reconstructed exactly
  EXPECT_EQ(detected, 0);    // single-chip events never reach 2-chip DUE
}

TEST(Xed, TwoChipsFlaggedIsDetected) {
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = MakeScheme(SchemeKind::kXed, rank);
  Xoshiro256 rng(14);
  int detected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Address addr{0, 4, 8};
    const BitVec line = BitVec::Random(rg.LineBits(), rng);
    scheme->WriteLine(addr, line);
    for (unsigned dev : {1u, 6u})
      for (int i = 0; i < 9; ++i)
        rank.device(dev).InjectFlip(0, 4, 8 * 64 + static_cast<unsigned>(rng.UniformBelow(128)));
    if (scheme->ReadLine(addr).claim == Claim::kDetected) ++detected;
    scheme->WriteLine(addr, line);
  }
  // Both chips must flag in the same read (~0.2^2 per trial): rare but real.
  EXPECT_GT(detected, 4);
}

// ---------------------------------------------------------------- DUO paths

TEST(Duo, CorrectsUpToSixSymbolErrors) {
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = MakeScheme(SchemeKind::kDuo, rank);
  Xoshiro256 rng(15);
  for (unsigned errors = 1; errors <= 6; ++errors) {
    const Address addr{0, 5, 9};
    const BitVec line = BitVec::Random(rg.LineBits(), rng);
    scheme->WriteLine(addr, line);
    // Each flip lands in a distinct device beat => distinct RS symbol.
    for (unsigned e = 0; e < errors; ++e) {
      const unsigned dev = e % 8;
      const unsigned beat = e / 8 + 2 * dev % 8;
      rank.device(dev).InjectFlip(0, 5, 9 * 64 + (beat % 8) * 8 +
                                            static_cast<unsigned>(rng.UniformBelow(8)));
    }
    const auto r = scheme->ReadLine(addr);
    EXPECT_EQ(r.claim, Claim::kCorrected) << errors << " errors";
    EXPECT_EQ(r.data, line) << errors << " errors";
  }
}

TEST(Duo, WholeDeviceRowFaultIsDetectedNotSilent) {
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = MakeScheme(SchemeKind::kDuo, rank);
  Xoshiro256 rng(16);
  int sdc = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Address addr{0, 6, 11};
    const BitVec line = BitVec::Random(rg.LineBits(), rng);
    scheme->WriteLine(addr, line);
    // Corrupt every bit of device 4's column with p=0.5: ~all 8 symbols bad.
    for (unsigned b = 0; b < 64; ++b)
      if (rng.Bernoulli(0.5)) rank.device(4).InjectFlip(0, 6, 11 * 64 + b);
    const auto r = scheme->ReadLine(addr);
    if (r.claim != Claim::kDetected && r.data != line) ++sdc;
    scheme->WriteLine(addr, line);
  }
  EXPECT_EQ(sdc, 0);  // > t errors must not slip through silently
}

TEST(Duo, ParityChipFaultAloneIsCorrectedOrClean) {
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = MakeScheme(SchemeKind::kDuo, rank);
  Xoshiro256 rng(17);
  const Address addr{0, 7, 12};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme->WriteLine(addr, line);
  rank.device(8).InjectFlip(0, 7, 12 * 64 + 3);  // one parity symbol bit
  const auto r = scheme->ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kCorrected);
  EXPECT_EQ(r.data, line);
}

// ------------------------------------------------------------ SECDED paths

TEST(SecDed, DoubleBitInOneBeatIsDetected) {
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = MakeScheme(SchemeKind::kSecDed, rank);
  Xoshiro256 rng(18);
  const Address addr{0, 8, 13};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme->WriteLine(addr, line);
  // Two bits of beat 0: device 0 pin 0 and device 3 pin 2.
  rank.device(0).InjectFlip(0, 8, 13 * 64 + 0);
  rank.device(3).InjectFlip(0, 8, 13 * 64 + 2);
  EXPECT_EQ(scheme->ReadLine(addr).claim, Claim::kDetected);
}

TEST(SecDed, SingleBitPerBeatAcrossBeatsAllCorrected) {
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = MakeScheme(SchemeKind::kSecDed, rank);
  Xoshiro256 rng(19);
  const Address addr{0, 9, 14};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme->WriteLine(addr, line);
  // One flip in each of the 8 beats (different devices).
  for (unsigned beat = 0; beat < 8; ++beat)
    rank.device(beat).InjectFlip(0, 9, 14 * 64 + beat * 8 + 1);
  const auto r = scheme->ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kCorrected);
  EXPECT_EQ(r.data, line);
  EXPECT_EQ(r.corrected_units, 8u);
}

TEST(SecDed, EccChipFaultDoesNotCorruptData) {
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = MakeScheme(SchemeKind::kSecDed, rank);
  Xoshiro256 rng(20);
  const Address addr{0, 10, 15};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme->WriteLine(addr, line);
  rank.device(8).InjectFlip(0, 10, 15 * 64 + 4);  // parity bit of beat 0
  const auto r = scheme->ReadLine(addr);
  EXPECT_EQ(r.data, line);
  EXPECT_EQ(r.claim, Claim::kCorrected);
}

// -------------------------------------------------- composed-scheme paths

TEST(IeccSecDed, RankLayerRepairsInnerMiscorrection) {
  // The conventional stack's raison d'etre: when the on-die SEC miscorrects
  // a double-bit error (adding a third wrong bit), the damage inside one
  // device is at most a few bits spread across beats — single-bit per
  // 72-bit rank codeword — and the rank SEC-DED repairs or flags it.
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = MakeScheme(SchemeKind::kIeccSecDed, rank);
  Xoshiro256 rng(30);
  int silent = 0;
  for (int trial = 0; trial < 150; ++trial) {
    const Address addr{0, 11, 2};
    const BitVec line = BitVec::Random(rg.LineBits(), rng);
    scheme->WriteLine(addr, line);
    unsigned a = static_cast<unsigned>(rng.UniformBelow(128));
    unsigned b;
    do { b = static_cast<unsigned>(rng.UniformBelow(128)); } while (b == a);
    rank.device(0).InjectFlip(0, 11, 2 * 64 + a);
    rank.device(0).InjectFlip(0, 11, 2 * 64 + b);
    const auto r = scheme->ReadLine(addr);
    if (r.claim != Claim::kDetected && r.data != line) ++silent;
    scheme->WriteLine(addr, line);
  }
  // Bare IECC turns the large majority of these into SDC; the stack must
  // suppress nearly all of it (residue: miscorrections whose extra bits
  // collide in one beat).
  EXPECT_LT(silent, 8);
}

TEST(Xed, ParityChipIsAlsoProtectedOnDie) {
  // A single-bit fault in the XOR chip is corrected by that chip's own
  // on-die SEC during reconstruction, so a flagged data chip still rebuilds
  // exactly.
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = MakeScheme(SchemeKind::kXed, rank);
  Xoshiro256 rng(31);
  int exact = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Address addr{0, 12, 4};
    const BitVec line = BitVec::Random(rg.LineBits(), rng);
    scheme->WriteLine(addr, line);
    // Heavy damage on data chip 1 (to force a flag) + 1 bit in the parity chip.
    for (int i = 0; i < 9; ++i)
      rank.device(1).InjectFlip(0, 12, 4 * 64 + static_cast<unsigned>(rng.UniformBelow(128)));
    rank.device(8).InjectFlip(0, 12, 4 * 64 + 7);
    const auto r = scheme->ReadLine(addr);
    if (r.claim == Claim::kCorrected && r.data == line) ++exact;
    scheme->WriteLine(addr, line);
  }
  EXPECT_GT(exact, 5);  // whenever chip 1 flags, reconstruction is exact
}

TEST(Xed, DataAndParityChipBothFlaggedDeliverTheRawColumn) {
  // Bits 64 and 120 of an on-die word sit at Hamming positions whose XOR
  // (137) is no bit's position, so the (136,128) decoder flags the word.
  // With data chip 2 and the XOR chip both flagged nothing can be rebuilt:
  // the read is detected and chip 2's column is delivered as sensed.
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = MakeScheme(SchemeKind::kXed, rank);
  Xoshiro256 rng(32);
  const Address addr{0, 12, 1};  // bits [64, 128) of each chip's word 0
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme->WriteLine(addr, line);
  for (unsigned dev : {2u, 8u}) {
    rank.device(dev).InjectFlip(0, 12, 64);
    rank.device(dev).InjectFlip(0, 12, 120);
  }
  const auto r = scheme->ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kDetected);
  BitVec raw = line;
  raw.Flip(2 * 64 + 0);
  raw.Flip(2 * 64 + 56);
  EXPECT_EQ(r.data, raw);
}

TEST(Duo, SpareRegionFaultIsJustAnotherSymbolError) {
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = MakeScheme(SchemeKind::kDuo, rank);
  Xoshiro256 rng(32);
  const Address addr{0, 13, 6};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme->WriteLine(addr, line);
  // Corrupt device 2's spare nibble for this column.
  rank.device(2).InjectFlip(0, 13, rg.device.row_bits + 6 * 4 + 1);
  const auto r = scheme->ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kCorrected);
  EXPECT_EQ(r.data, line);
}

TEST(Duo, MixedDataAndSpareErrorsWithinBudget) {
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = MakeScheme(SchemeKind::kDuo, rank);
  Xoshiro256 rng(33);
  const Address addr{0, 14, 8};
  const BitVec line = BitVec::Random(rg.LineBits(), rng);
  scheme->WriteLine(addr, line);
  rank.device(0).InjectFlip(0, 14, 8 * 64 + 3);                     // data
  rank.device(8).InjectFlip(0, 14, 8 * 64 + 12);                    // sidecar
  rank.device(5).InjectFlip(0, 14, rg.device.row_bits + 8 * 4 + 0); // spare
  const auto r = scheme->ReadLine(addr);
  EXPECT_EQ(r.claim, Claim::kCorrected);
  EXPECT_EQ(r.data, line);
}

TEST(Iecc, WriteOverLatentErrorCorrectsIt) {
  // Read-correct-modify-write: writing one column of a word repairs a
  // latent single-bit error in the buddy column (assumption [A6]).
  RankGeometry rg;
  Rank rank(rg);
  auto scheme = MakeScheme(SchemeKind::kIecc, rank);
  Xoshiro256 rng(34);
  const Address a{0, 15, 2}, buddy{0, 15, 3};
  const BitVec la = BitVec::Random(rg.LineBits(), rng);
  const BitVec lb = BitVec::Random(rg.LineBits(), rng);
  scheme->WriteLine(a, la);
  scheme->WriteLine(buddy, lb);
  rank.device(4).InjectFlip(0, 15, 3 * 64 + 30);  // latent error at buddy
  scheme->WriteLine(a, la);                       // RMW decodes+restores
  const auto r = scheme->ReadLine(buddy);
  EXPECT_EQ(r.claim, Claim::kClean);
  EXPECT_EQ(r.data, lb);
}

// ---------------------------------------------------- factory and metadata

TEST(SchemeFactory, NamesAreDistinct) {
  RankGeometry rg;
  std::vector<std::string> names;
  for (SchemeKind kind : AllSchemeKinds()) {
    Rank rank(rg);
    names.push_back(MakeScheme(kind, rank)->Name());
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

// Every scheme of one shape holds the one process-wide code of that shape
// (rs::Gf256Code), so nothing rebuilds a code per scheme or per trial.
TEST(SchemeFactory, PairSchemesOfOneShapeShareOneCode) {
  RankGeometry rg;
  Rank a(rg), b(rg);
  const auto first = MakeScheme(SchemeKind::kPair4, a);
  const auto second = MakeScheme(SchemeKind::kPair4, b);
  const auto& pair_a = dynamic_cast<const core::PairScheme&>(*first);
  const auto& pair_b = dynamic_cast<const core::PairScheme&>(*second);
  EXPECT_EQ(&pair_a.code(), &pair_b.code());
  EXPECT_EQ(&pair_a.code(), &rs::Gf256Code(68, 64));
  Rank c(rg);
  const auto pair2 = MakeScheme(SchemeKind::kPair2, c);
  EXPECT_EQ(&dynamic_cast<const core::PairScheme&>(*pair2).code(),
            &rs::Gf256Code(34, 32));
}

// Every SchemeKind built from 8 threads at once, each on its own rank, the
// first build of each code shape racing the others: each scheme round-trips
// a line, and the PAIR schemes of one shape all hold the same code.
TEST(SchemeFactory, EverySchemeKindBuildsFromEightThreadsAtOnce) {
  constexpr unsigned kThreads = 8;
  const RankGeometry rg;
  std::vector<std::vector<const rs::RsCode*>> pair4_codes(kThreads);
  std::vector<unsigned> failures(kThreads, 0);
  std::atomic<unsigned> ready{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      ++ready;
      while (ready < kThreads) std::this_thread::yield();
      Xoshiro256 rng(900 + t);
      for (const SchemeKind kind : AllSchemeKinds()) {
        Rank rank(rg);
        const auto scheme = MakeScheme(kind, rank);
        const Address addr{t % 2, t, (t * 13) % 128};
        const BitVec line = BitVec::Random(rg.LineBits(), rng);
        scheme->WriteLine(addr, line);
        const ReadResult r = scheme->ReadLine(addr);
        failures[t] += r.claim != Claim::kClean || !(r.data == line);
        if (kind == SchemeKind::kPair4)
          pair4_codes[t].push_back(
              &dynamic_cast<const core::PairScheme&>(*scheme).code());
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0u) << "thread " << t;
    ASSERT_EQ(pair4_codes[t].size(), 1u);
    EXPECT_EQ(pair4_codes[t][0], &rs::Gf256Code(68, 64)) << "thread " << t;
  }
}

TEST(SchemeFactory, SidecarSchemesRequireEccDevice) {
  RankGeometry rg;
  rg.ecc_devices = 0;
  Rank rank(rg);
  for (SchemeKind kind : {SchemeKind::kSecDed, SchemeKind::kXed, SchemeKind::kDuo})
    EXPECT_THROW(MakeScheme(kind, rank), std::invalid_argument) << ToString(kind);
  // On-die-only schemes do not need the sidecar.
  EXPECT_NO_THROW(MakeScheme(SchemeKind::kPair4, rank));
  EXPECT_NO_THROW(MakeScheme(SchemeKind::kIecc, rank));
}

TEST(SchemePerf, RelativeShapesMatchTheArchitectures) {
  // Storage overhead is the parity each scheme allocates. Parity on the die
  // or on a sidecar chip costs no bus beats; DUO ships its spare-resident
  // symbols in a ninth beat each way. Writes narrower than the 128-bit
  // on-die word force RMW; PAIR's delta-parity write path does not.
  struct Shape {
    SchemeKind kind;
    double storage_overhead;
    bool write_rmw;
    unsigned extra_beats;  // read and write alike
  };
  constexpr Shape kShapes[] = {
      {SchemeKind::kIecc, 8.0 / 128, true, 0},
      {SchemeKind::kSecDed, 8.0 / 64, false, 0},
      {SchemeKind::kIeccSecDed, 8.0 / 128 + 8.0 / 64, true, 0},
      {SchemeKind::kXed, 8.0 / 128 + 1.0 / 8, true, 0},
      {SchemeKind::kDuo, 12.0 / 64, false, 1},
      {SchemeKind::kPair2, 2.0 / 32, false, 0},
      {SchemeKind::kPair4, 4.0 / 64, false, 0},
      {SchemeKind::kPair4SecDed, 4.0 / 64 + 8.0 / 64, false, 0},
  };
  RankGeometry rg;
  Rank rank(rg);
  for (const Shape& s : kShapes) {
    const PerfDescriptor p = MakeScheme(s.kind, rank)->Perf();
    EXPECT_NEAR(p.storage_overhead, s.storage_overhead, 1e-9)
        << ToString(s.kind);
    EXPECT_EQ(p.write_rmw, s.write_rmw) << ToString(s.kind);
    EXPECT_EQ(p.extra_read_beats, s.extra_beats) << ToString(s.kind);
    EXPECT_EQ(p.extra_write_beats, s.extra_beats) << ToString(s.kind);
  }
}

}  // namespace
}  // namespace pair_ecc::ecc
