// T1 — code configurations of every scheme: code, geometry, redundancy,
// guaranteed correction power, and where the parity lives.
#include "bench/bench_common.hpp"

#include "core/pair_scheme.hpp"
#include "dram/rank.hpp"
#include "hamming/hamming.hpp"
#include "rs/rs_code.hpp"

using namespace pair_ecc;

int main() {
  bench::BenchReport report("T1", "code configurations");

  util::Table t({"scheme", "code", "symbol", "t (guar.)", "codeword span",
                 "parity location", "overhead"});

  const auto ondie = hamming::HammingCode::OnDie136();
  t.AddRow({"IECC", "Hamming (136,128) SEC", "bit", "1 bit",
            "128-bit internal fetch (striped across pins)",
            "on-die spare (8 b / word)",
            util::Table::Fixed(ondie.Overhead() * 100, 2) + "%"});

  const auto secded = hamming::HammingCode::SecDed72();
  t.AddRow({"SECDED", "ext. Hamming (72,64) SEC-DED", "bit", "1 bit (+2 det)",
            "one bus beat (64 data bits)", "sidecar chip",
            util::Table::Fixed(secded.Overhead() * 100, 2) + "%"});

  t.AddRow({"XED", "on-die SEC as detector + RAID-3 XOR", "chip",
            "1 chip erasure", "cache line across 9 chips",
            "on-die spare + XOR chip", "6.25% + 12.5%"});

  const auto duo = rs::Gf256Code(76, 64);
  t.AddRow({"DUO", "RS (76,64) over GF(2^8)", "8 bit",
            std::to_string(duo.t()) + " symbols",
            "cache line (64 symbols, one per chip-beat)",
            "sidecar chip + on-die spare via BL9",
            util::Table::Fixed(duo.Overhead() * 100, 2) + "%"});

  dram::RankGeometry rg;
  dram::Rank rank2(rg), rank4(rg);
  core::PairScheme pair2(rank2, core::PairConfig::Pair2());
  core::PairScheme pair4(rank4, core::PairConfig::Pair4());
  for (const core::PairScheme* p : {&pair2, &pair4}) {
    t.AddRow({p->Name(),
              "RS (" + std::to_string(p->code().n()) + "," +
                  std::to_string(p->code().k()) + ") over GF(2^8)",
              "8 bit (one burst on one pin)",
              std::to_string(p->code().t()) + " symbols",
              std::to_string(p->code().k() * 8) +
                  " bits along ONE pin line (" +
                  std::to_string(p->CodewordsPerPin()) + "/pin/row)",
              "on-die spare (pin-aligned)",
              util::Table::Fixed(p->code().Overhead() * 100, 2) + "%"});
  }

  report.Emit("code_configs", t);

  std::cout << "Expandability headroom: the PAIR-4 generator serves any k up "
               "to "
            << rs::Gf256Code(68, 64).MaxK()
            << " data symbols at the same 4 check symbols.\n";
  return 0;
}
