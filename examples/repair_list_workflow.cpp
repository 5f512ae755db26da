// Scenario: runtime repair of a degrading column — the erasure/repair-list
// extension of PAIR. A weak bitline starts flipping cells at several row
// positions of one pin. The workflow:
//
//   1. reads start reporting detected-uncorrectable (the damage exceeds
//      t = 2 per codeword, but is *contained* to one pin);
//   2. maintenance logic diagnoses the failing codeword positions from the
//      scrub log and registers them on PAIR's repair list;
//   3. subsequent reads decode the marked symbols as erasures (up to r = 4
//      per codeword) and data flows again — no row remapping needed.
//
// A second section repeats the scenario automatically, through the repair
// policy every system campaign runs (sim/repair_policy.hpp): detected
// errors are counted per row, and at the threshold the march diagnosis
// finds the stuck cells and puts them on the repair list.
#include <iostream>

#include "core/pair_scheme.hpp"
#include "dram/rank.hpp"
#include "sim/repair_policy.hpp"
#include "util/rng.hpp"

using namespace pair_ecc;

int main() {
  dram::RankGeometry geometry;
  dram::Rank rank(geometry);
  core::PairScheme pair(rank, core::PairConfig::Pair4());
  util::Xoshiro256 rng(77);

  // Fill one row with data.
  const unsigned kBank = 0, kRow = 9;
  std::vector<util::BitVec> lines;
  for (unsigned col = 0; col < 128; ++col) {
    lines.push_back(util::BitVec::Random(geometry.LineBits(), rng));
    pair.WriteLine({kBank, kRow, col}, lines.back());
  }

  // A weak bitline on device 2, pin 5: four symbol positions of the first
  // codeword (columns 3, 17, 33, 49) go bad — stuck cells.
  const unsigned kDevice = 2, kPin = 5;
  const unsigned bad_columns[] = {3, 17, 33, 49};
  for (unsigned col : bad_columns) {
    for (unsigned j = 0; j < 8; ++j) {
      const unsigned bit = dram::PinLineBit(geometry.device, kPin, col * 8 + j);
      rank.device(kDevice).SetStuck(
          kBank, kRow, bit, !rank.device(kDevice).ReadBit(kBank, kRow, bit));
    }
  }

  // Phase 1: the damage (4 symbol errors in one codeword) exceeds t = 2.
  auto before = pair.ReadLine({kBank, kRow, 3});
  std::cout << "before repair: read claim = " << ecc::ToString(before.claim)
            << " (damage contained to device " << kDevice << ", pin " << kPin
            << ")\n";

  // Phase 2: diagnose via patrol scrub, then register the repair list.
  const auto scrub = pair.ScrubRow(kBank, kRow);
  std::cout << "patrol scrub : " << scrub.codewords << " codewords, "
            << scrub.corrected << " corrected, " << scrub.uncorrectable
            << " uncorrectable -> diagnosing\n";
  for (unsigned col : bad_columns)
    pair.MarkSymbolErased(kDevice, kPin, /*w=*/0, /*position=*/col);

  // Phase 3: erasure decoding restores full service (f = 4 <= r = 4).
  bool all_good = true;
  for (unsigned col = 0; col < 64; ++col) {
    const auto read = pair.ReadLine({kBank, kRow, col});
    all_good &= read.claim != ecc::Claim::kDetected && read.data == lines[col];
  }
  std::cout << "after repair : all 64 lines of the damaged segment "
            << (all_good ? "decode correctly via erasures" : "STILL FAIL")
            << "\n\n";

  // ---- the same scenario, fully automatic --------------------------------
  dram::Rank rank2(geometry);
  core::PairScheme pair2(rank2, core::PairConfig::Pair4());
  sim::RepairConfig policy_config;
  policy_config.due_threshold = 2;
  sim::RepairPolicy policy(policy_config, /*total_rows=*/1);
  std::vector<util::BitVec> lines2;
  for (unsigned col = 0; col < 128; ++col) {
    lines2.push_back(util::BitVec::Random(geometry.LineBits(), rng));
    pair2.WriteLine({kBank, kRow, col}, lines2.back());
  }
  for (unsigned col : bad_columns) {
    for (unsigned j = 0; j < 8; ++j) {
      const unsigned bit = dram::PinLineBit(geometry.device, kPin, col * 8 + j);
      rank2.device(kDevice).SetStuck(
          kBank, kRow, bit, !rank2.device(kDevice).ReadBit(kBank, kRow, bit));
    }
  }
  // Two detected reads trip the policy; the maintenance runs, and the
  // re-read is served corrected.
  const auto r1 = pair2.ReadLine({kBank, kRow, 3});
  const bool fired1 =
      r1.claim == ecc::Claim::kDetected && policy.OnDue(/*slot=*/0);
  const auto r2 = pair2.ReadLine({kBank, kRow, 3});
  const bool fired2 =
      r2.claim == ecc::Claim::kDetected && policy.OnDue(/*slot=*/0);
  if (fired2) policy.Execute(/*slot=*/0, pair2, kBank, kRow);
  const auto r3 = pair2.ReadLine({kBank, kRow, 3});
  std::cout << "automatic    : read#1 " << ecc::ToString(r1.claim)
            << ", read#2 " << ecc::ToString(r2.claim) << " -> "
            << policy.counters().repairs_attempted << " repair, "
            << policy.counters().symbols_marked
            << " symbols on the repair list; re-read "
            << ecc::ToString(r3.claim) << " (data "
            << (r3.data == lines2[3] ? "correct" : "WRONG") << ")\n";

  const bool auto_good = !fired1 && fired2 &&
                         r3.claim != ecc::Claim::kDetected &&
                         r3.data == lines2[3];
  return (all_good && auto_good) ? 0 : 1;
}
