// Quickstart: the PAIR public API in ~60 lines.
//
//   1. build a DRAM rank,
//   2. attach the PAIR-4 pin-aligned in-DRAM ECC scheme,
//   3. write a cache line, corrupt stored bits, read it back corrected,
//   4. drop to the raw Reed-Solomon codec to show the expandability and
//      delta-parity primitives PAIR is built from.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <iostream>

#include "core/pair_scheme.hpp"
#include "dram/rank.hpp"
#include "rs/rs_code.hpp"
#include "util/rng.hpp"

using namespace pair_ecc;

int main() {
  // A standard x8 rank: 8 data devices, BL8, 1 KiB rows, 6.25% spare.
  dram::RankGeometry geometry;
  dram::Rank rank(geometry);

  // PAIR-4: RS(68,64) over GF(2^8), codewords aligned with DQ pin lines.
  core::PairScheme pair(rank, core::PairConfig::Pair4());
  std::cout << "scheme: " << pair.Name() << ", code RS(" << pair.code().n()
            << "," << pair.code().k() << "), t=" << pair.code().t()
            << ", storage overhead "
            << pair.code().Overhead() * 100 << "%\n";

  // Write a cache line.
  util::Xoshiro256 rng(2020);
  const dram::Address addr{/*bank=*/0, /*row=*/42, /*col=*/7};
  const auto line = util::BitVec::Random(geometry.LineBits(), rng);
  pair.WriteLine(addr, line);

  // Corrupt two stored cells of device 3 — both land in pin-aligned
  // codewords, within the t = 2 budget.
  rank.device(3).InjectFlip(addr.bank, addr.row, addr.col * 64 + 5);
  rank.device(3).InjectFlip(addr.bank, addr.row, addr.col * 64 + 20);

  const auto read = pair.ReadLine(addr);
  std::cout << "read claim: " << ecc::ToString(read.claim) << ", data "
            << (read.data == line ? "matches" : "DIFFERS") << " ("
            << read.corrected_units << " symbols repaired)\n";

  // The raw codec: expandability lets one generator serve any k at the
  // same check-symbol count...
  const auto code = rs::Gf256Code(68, 64);
  const auto wide = code.Expanded(128);
  std::cout << "expanded sibling: RS(" << wide.n() << "," << wide.k()
            << "), overhead " << wide.Overhead() * 100 << "%\n";

  // ...and linearity gives the O(r) incremental parity update behind
  // PAIR's RMW-free write path.
  std::vector<gf::Elem> data(64, 0);
  auto parity = code.ComputeParity(data);
  data[10] = 0xAB;  // one symbol (= one write burst on one pin) changes
  const auto delta = code.ParityDelta(10, 0x00 ^ 0xAB);
  for (unsigned j = 0; j < code.r(); ++j) parity[j] ^= delta[j];
  const bool delta_ok = parity == code.ComputeParity(data);
  std::cout << "delta-updated parity " << (delta_ok ? "matches" : "DIFFERS")
            << " full re-encode\n";
  return read.data == line && delta_ok ? 0 : 1;
}
