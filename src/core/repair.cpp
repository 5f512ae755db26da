#include "core/repair.hpp"

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

namespace pair_ecc::core {

RepairReport DiagnoseAndRepairRow(PairScheme& scheme, unsigned bank,
                                  unsigned row) {
  RepairReport report;
  auto& rank = scheme.rank();
  const auto& g = rank.geometry().device;
  const unsigned r = scheme.code().r();

  for (unsigned d = 0; d < rank.DataDevices(); ++d) {
    auto& dev = rank.device(d);
    const util::BitVec original = dev.ReadBits(bank, row, 0, g.TotalRowBits());

    // March: write the complement, read back. A cell that cannot represent
    // the complement of whatever it held is defective.
    util::BitVec inverted(original.size());
    for (unsigned at = 0; at < original.size(); at += 64) {
      const unsigned n = std::min(64u, g.TotalRowBits() - at);
      inverted.SetWord(at, n, ~original.GetWord(at, n));
    }
    dev.WriteBits(bank, row, 0, inverted);
    const util::BitVec readback = dev.ReadBits(bank, row, 0, g.TotalRowBits());
    dev.WriteBits(bank, row, 0, original);  // restore stored state

    const util::BitVec defects = readback ^ inverted;
    if (!defects.AnySet()) continue;

    // Group defective bits by codeword (pin, w), positions in bit order.
    std::map<std::pair<unsigned, unsigned>, std::vector<unsigned>>
        per_codeword;
    for (const auto bit : defects.SetBits()) {
      ++report.defective_bits;
      const auto symbol = scheme.SymbolOfBit(static_cast<unsigned>(bit));
      if (!symbol) continue;  // a spare cell no codeword stores in
      auto& list = per_codeword[{symbol->pin, symbol->w}];
      if (std::find(list.begin(), list.end(), symbol->position) == list.end())
        list.push_back(symbol->position);
    }

    for (const auto& [codeword, positions] : per_codeword) {
      if (positions.size() > r) {
        // Beyond the erasure budget: marking would only hurt (f > r always
        // fails); leave the codeword to detection and flag it for sparing.
        ++report.unrepairable_codewords;
        continue;
      }
      for (unsigned position : positions)
        report.symbols_marked += scheme.MarkSymbolErased(
            d, codeword.first, codeword.second, position);
    }
  }
  return report;
}

SparingReport SpareRow(PairScheme& scheme, unsigned bank, unsigned row) {
  SparingReport report;
  auto& rank = scheme.rank();
  const auto& g = rank.geometry().device;

  // The flow is all-or-nothing across the lockstep devices: check budget
  // before touching anything.
  for (unsigned d = 0; d < rank.DataDevices(); ++d)
    if (rank.device(d).SpareRowsLeft(bank) == 0) return report;

  // Salvage pass: capture every line as best the code can deliver it, as
  // one batch over the row.
  std::vector<dram::Address> addrs;
  addrs.reserve(g.ColumnsPerRow());
  for (unsigned col = 0; col < g.ColumnsPerRow(); ++col)
    addrs.push_back({bank, row, col});
  std::vector<ecc::ReadResult> reads(addrs.size());
  scheme.ReadLines(addrs, reads);
  std::vector<util::BitVec> lines;
  lines.reserve(reads.size());
  for (ecc::ReadResult& read : reads) {
    if (read.claim == ecc::Claim::kDetected) {
      ++report.lines_lost;
    } else {
      ++report.lines_salvaged;
    }
    lines.push_back(std::move(read.data));
  }

  for (unsigned d = 0; d < rank.DataDevices(); ++d) {
    const bool ok = rank.device(d).PostPackageRepair(bank, row);
    (void)ok;  // budget was pre-checked
  }

  // Re-encode everything into the fresh row.
  scheme.WriteLines(addrs, lines);

  report.repaired = true;
  return report;
}

}  // namespace pair_ecc::core
