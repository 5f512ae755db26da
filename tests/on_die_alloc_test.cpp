// Allocation test for the line paths that move words through device rows:
// No-ECC, the on-die SEC word path of IECC and XED, the rank SEC-DED
// parity column (alone and over IECC) and DUO's sidecar column and spare
// nibbles. Once one write has created the row in every device, a
// WriteLine moves each device's column a word at a time through the row
// handle and the scheme's reusable buffers, so it touches the heap not at
// all, and a ReadLine allocates exactly its result line. Covered
// on a BL8 x8 rank (where the on-die word is wider than a column:
// read-correct-modify-write) and a DDR5 x8 BL16 rank (the column is the
// whole on-die word; DUO refuses it), with flips and stuck cells in the
// row, and with XED rebuilding a signalling device's column from the XOR
// chip. Reads are counted on their first pass over the faulty row, DUO's
// too: its decoder workspace is sized from its code when the scheme is
// built. PAIR stays out: its staging still copies rows.
//
// The allocator override is process-global, so this test lives in its own
// binary (tests/CMakeLists.txt registers it like any other) and contains
// nothing else.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "dram/rank.hpp"
#include "ecc/scheme.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* CountedAlloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size, 0); }
void* operator new[](std::size_t size) { return CountedAlloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pair_ecc::ecc {
namespace {

using dram::Address;
using dram::RankGeometry;
using util::BitVec;

struct Case {
  const char* name;
  SchemeKind kind;
  RankGeometry rg;
};

std::vector<Case> Cases() {
  RankGeometry ddr5;
  ddr5.device = dram::DeviceGeometry::Ddr5x8();
  ddr5.data_devices = 4;
  return {{"No-ECC x8 BL8", SchemeKind::kNoEcc, RankGeometry{}},
          {"No-ECC DDR5 x8 BL16", SchemeKind::kNoEcc, ddr5},
          {"IECC x8 BL8", SchemeKind::kIecc, RankGeometry{}},
          {"IECC DDR5 x8 BL16", SchemeKind::kIecc, ddr5},
          {"XED x8 BL8", SchemeKind::kXed, RankGeometry{}},
          {"XED DDR5 x8 BL16", SchemeKind::kXed, ddr5},
          {"SECDED x8 BL8", SchemeKind::kSecDed, RankGeometry{}},
          {"SECDED DDR5 x8 BL16", SchemeKind::kSecDed, ddr5},
          {"IECC+SECDED x8 BL8", SchemeKind::kIeccSecDed, RankGeometry{}},
          {"IECC+SECDED DDR5 x8 BL16", SchemeKind::kIeccSecDed, ddr5},
          {"DUO x8 BL8", SchemeKind::kDuo, RankGeometry{}}};
}

TEST(OnDieAllocations, WritesAllocateNothingAndReadsOnlyTheirLine) {
  for (const Case& c : Cases()) {
    SCOPED_TRACE(c.name);
    dram::Rank rank(c.rg);
    const auto scheme = MakeScheme(c.kind, rank);
    const unsigned columns = c.rg.device.ColumnsPerRow();
    util::Xoshiro256 rng(5);
    std::vector<BitVec> lines;
    for (unsigned i = 0; i < 2 * columns; ++i)
      lines.push_back(BitVec::Random(c.rg.LineBits(), rng));

    // The warm-up write creates row 9 of bank 1 in every device; the stuck
    // cells create its stuck overlay in device 2. Device 1's word 0 gets a
    // double error, which the (136,128) code detects or miscorrects.
    scheme->WriteLine({1, 9, 0}, lines[0]);
    rank.device(2).SetStuck(1, 9, 70, true);
    rank.device(2).SetStuck(1, 9, c.rg.device.row_bits + 3, false);
    rank.device(1).InjectFlip(1, 9, 5);
    rank.device(1).InjectFlip(1, 9, 6);
    rank.device(0).InjectFlip(1, 9, 300);

    std::size_t before = g_allocations.load();
    for (unsigned col = 0; col < columns; ++col)
      scheme->WriteLine({1, 9, col}, lines[col]);
    EXPECT_EQ(g_allocations.load() - before, 0u) << "first writes";

    // Faults after the writes: latent errors the next writes must correct
    // (BL8) or overwrite (BL16), and a double error in device 3's word 1
    // whose syndrome (137) no single bit has, so that word is detected.
    rank.device(3).InjectFlip(1, 9, 128 + 64);
    rank.device(3).InjectFlip(1, 9, 128 + 120);
    rank.device(4 % c.rg.data_devices).InjectFlip(1, 9, 400);
    const Address detected{1, 9, (128 + 64) / c.rg.device.AccessBits()};

    std::size_t bits_read = 0;
    before = g_allocations.load();
    for (unsigned col = 0; col < columns; ++col)
      bits_read += scheme->ReadLine({1, 9, col}).data.size();
    EXPECT_EQ(g_allocations.load() - before, columns) << "reads";
    EXPECT_EQ(bits_read, std::size_t{columns} * c.rg.LineBits());
    // XED rebuilt the signalling device's column from the XOR chip.
    if (c.kind == SchemeKind::kXed) {
      const ReadResult r = scheme->ReadLine(detected);
      EXPECT_EQ(r.claim, Claim::kCorrected);
      EXPECT_EQ(r.data, lines[detected.col]);
    }

    before = g_allocations.load();
    for (unsigned col = 0; col < columns; ++col)
      scheme->WriteLine({1, 9, col}, lines[columns + col]);
    EXPECT_EQ(g_allocations.load() - before, 0u) << "overwrites";
    // The last column's words hold no fault.
    EXPECT_EQ(scheme->ReadLine({1, 9, columns - 1}).data, lines.back());
  }
}

TEST(OnDieAllocations, AllocatorCounts) {
  const std::size_t before = g_allocations.load();
  const BitVec line(512);
  EXPECT_GT(g_allocations.load(), before);
}

}  // namespace
}  // namespace pair_ecc::ecc
