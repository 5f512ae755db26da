// F7 — the expandability knob: sweeping PAIR's data-symbol count k at fixed
// check symbols r = 4. Longer codewords amortise parity (lower storage
// overhead) but pool more columns into one failure domain; this bench
// quantifies both sides of that trade, which is exactly the degree of
// freedom the paper's title advertises.
#include "bench/bench_common.hpp"
#include <algorithm>

#include "core/pair_scheme.hpp"
#include "dram/rank.hpp"
#include "reliability/analytic.hpp"
#include "reliability/outcome.hpp"
#include "util/rng.hpp"

using namespace pair_ecc;

int main() {
  bench::BenchReport report("F7", "RS expandability sweep: k at fixed r = 4");

  const unsigned kTrials = report.Trials(400);
  const unsigned ks[] = {16, 32, 64, 128};

  util::Table t({"k (data sym)", "code", "storage ovh", "cw/pin",
                 "garbage miscorr bound", "P(SDC) 12-beat burst",
                 "P(DUE) 12-beat burst"});
  for (const unsigned k : ks) {
    core::PairConfig cfg;
    cfg.data_symbols = k;
    cfg.check_symbols = 4;

    const auto code = rs::Gf256Code(k + 4, k);
    util::Xoshiro256 rng(bench::kBenchSeed + k);
    unsigned sdc_trials = 0, due_trials = 0;
    unsigned cw_per_pin = 0;
    // Short codewords need MORE parity than the vendor's 512-bit spare —
    // that is precisely the storage cost expandability removes. Size the
    // spare region to fit so the sweep can measure the reliability side.
    dram::RankGeometry rg_template;
    {
      const auto& g = rg_template.device;
      const unsigned cw = g.PinLineBits() / 8 / k;
      rg_template.device.spare_row_bits =
          std::max(g.spare_row_bits, g.dq_pins * cw * 4 * 8);
    }
    for (unsigned trial = 0; trial < kTrials; ++trial) {
      dram::RankGeometry rg = rg_template;
      dram::Rank rank(rg);
      core::PairScheme scheme(rank, cfg);
      cw_per_pin = scheme.CodewordsPerPin();
      const dram::Address addr{0, 1, static_cast<unsigned>(rng.UniformBelow(128))};
      const auto line = util::BitVec::Random(rg.LineBits(), rng);
      scheme.WriteLine(addr, line);
      // A 12-beat burst overlapping the read column: 2-3 symbols, just
      // beyond t = 2, where the codeword length decides how often
      // bounded-distance decoding is fooled (the price of expansion).
      constexpr unsigned kLen = 12;
      const auto& g = rg.device;
      const auto device =
          static_cast<unsigned>(rng.UniformBelow(rank.DataDevices()));
      const auto pin = static_cast<unsigned>(rng.UniformBelow(g.dq_pins));
      const unsigned lo = addr.col * 8 >= kLen - 1 ? addr.col * 8 - (kLen - 1) : 0;
      const unsigned hi = std::min(addr.col * 8 + 7, g.PinLineBits() - kLen);
      const unsigned start =
          lo + static_cast<unsigned>(
                   rng.UniformBelow(hi >= lo ? hi - lo + 1 : 1));
      for (unsigned i = 0; i < kLen; ++i)
        rank.device(device).InjectFlip(0, 1,
                                       dram::PinLineBit(g, pin, start + i));
      const auto read = scheme.ReadLine(addr);
      const auto outcome = reliability::Classify(read.claim, read.data, line);
      sdc_trials += reliability::IsSdc(outcome);
      due_trials += outcome == reliability::Outcome::kDue;
    }
    t.AddRow({std::to_string(k),
              "RS(" + std::to_string(k + 4) + "," + std::to_string(k) + ")",
              util::Table::Fixed(code.Overhead() * 100, 2) + "%",
              std::to_string(cw_per_pin),
              util::Table::Sci(reliability::RsRandomWordMiscorrectionBound(code)),
              util::Table::Fixed(static_cast<double>(sdc_trials) / kTrials, 4),
              util::Table::Fixed(static_cast<double>(due_trials) / kTrials, 4)});
  }
  report.Emit("expandability", t);

  std::cout << "Shape check: overhead halves with each doubling of k (the\n"
               "benefit of expansion) while miscorrection exposure grows\n"
               "roughly with n^t (its price). k = 64 (PAIR-4) is the point\n"
               "where the code exactly fills the vendor's 6.25% budget —\n"
               "shorter codes would need spare cells the die does not have.\n";
  return 0;
}
