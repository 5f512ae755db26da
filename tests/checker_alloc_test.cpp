// Allocation test for ProtocolChecker::OnCommand: the controller mirrors
// every command it issues into the checker, so a legal command stream must
// run through it without touching the heap. A counting global allocator
// counts every operator new while a long legal stream (every command
// kind, two ranks, all banks, more ACTs per rank than any small container
// holds) goes through the checker.
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

#include "timing/protocol_checker.hpp"

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

namespace pair_ecc::timing {
namespace {

// Step k opens a row on rank k % 2, reads and writes it, and closes it,
// 2000 cycles per step: far apart enough to satisfy every rule. Every 5th
// step adds an RFM to the closed bank, every 8th an all-bank REF (each
// step leaves all banks closed). Returns the number of commands sent.
std::uint64_t SendLegalStream(ProtocolChecker& checker, const TimingParams& t,
                              unsigned steps) {
  std::uint64_t sent = 0;
  for (unsigned k = 0; k < steps; ++k) {
    const unsigned rank = k % t.ranks;
    const unsigned bank = k % t.banks;
    const unsigned row = k % 64;
    const std::uint64_t c = std::uint64_t{k} * 2000;
    checker.OnCommand(Cmd::kAct, rank, bank, row, c);
    const std::uint64_t rd = c + t.tRCD;
    checker.OnCommand(Cmd::kRead, rank, bank, row, rd, rd + t.tCL,
                      rd + t.tCL + t.tBL);
    const std::uint64_t wr = rd + 100;
    checker.OnCommand(Cmd::kWrite, rank, bank, row, wr, wr + t.tCWL,
                      wr + t.tCWL + t.tBL);
    checker.OnCommand(Cmd::kPre, rank, bank, row, c + 1000);
    sent += 4;
    if (k % 5 == 0) {
      checker.OnCommand(Cmd::kRfm, rank, bank, 0, c + 1200);
      ++sent;
    }
    if (k % 8 == 0) {
      checker.OnCommand(Cmd::kRef, rank, 0, 0, c + 1500);
      ++sent;
    }
  }
  return sent;
}

TEST(CheckerAllocations, LegalCommandStreamAllocatesNothing) {
  TimingParams t;
  t.ranks = 2;
  ProtocolChecker checker(t);

  const std::size_t before = g_allocations.load();
  const std::uint64_t sent = SendLegalStream(checker, t, 4000);
  const std::size_t allocations = g_allocations.load() - before;

  EXPECT_EQ(allocations, 0u);
  EXPECT_TRUE(checker.violations().empty()) << checker.violations().front();
  EXPECT_EQ(checker.commands_checked(), sent);
}

TEST(CheckerAllocations, AllocatorCountsAndViolationsStillFormat) {
  TimingParams t;
  ProtocolChecker checker(t);
  const std::size_t before = g_allocations.load();
  checker.OnCommand(Cmd::kRead, 0, 3, 7, 40, 62, 66);  // bank 3 is closed
  EXPECT_GT(g_allocations.load(), before);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0],
            "RD rank 0 bank 3 @40 violates CAS to a closed bank");
}

}  // namespace
}  // namespace pair_ecc::timing
