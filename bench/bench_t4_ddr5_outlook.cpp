// T4 — DDR4 vs DDR5 design-point outlook. With BL16 the access equals the
// conventional on-die codeword, so IECC's write RMW disappears — the
// *performance* half of PAIR's pitch is generation-dependent, while the
// *miscorrection* half (F10, T2) is not. This bench makes that split
// explicit: per geometry, the RMW flag, write-heavy normalised performance,
// and the pin-fault SDC that only the pin-aligned code removes.
#include "bench/bench_common.hpp"

#include "core/pair_scheme.hpp"
#include "dram/rank.hpp"
#include "faults/injector.hpp"
#include "reliability/outcome.hpp"
#include "timing/controller.hpp"
#include "timing/presets.hpp"
#include "util/rng.hpp"
#include "workload/streams.hpp"

using namespace pair_ecc;

namespace {

double WriteHeavyNormPerf(const dram::RankGeometry& rg, ecc::SchemeKind kind,
                          const timing::TimingParams& params) {
  workload::StreamConfig cfg;
  cfg.kind = workload::StreamKind::kHotspot;
  cfg.read_fraction = 0.3;
  cfg.intensity = 0.15;
  cfg.num_requests = 20000;
  cfg.cols = rg.device.ColumnsPerRow();
  cfg.seed = bench::kBenchSeed;

  auto run = [&](ecc::SchemeKind k) {
    dram::RankGeometry geom = rg;
    dram::Rank rank(geom);
    auto scheme = ecc::MakeScheme(k, rank);
    timing::Controller ctrl(
        params, timing::SchemeTiming::FromPerf(scheme->Perf(), params));
    auto trace = timing::Materialize(*workload::MakeStream(cfg));
    return static_cast<double>(ctrl.Run(trace).cycles);
  };
  return run(ecc::SchemeKind::kNoEcc) / run(kind);
}

double PinFaultSdc(const dram::RankGeometry& rg, ecc::SchemeKind kind,
                   unsigned trials) {
  util::Xoshiro256 rng(bench::kBenchSeed);
  unsigned sdc = 0;
  for (unsigned trial = 0; trial < trials; ++trial) {
    dram::RankGeometry geom = rg;
    dram::Rank rank(geom);
    auto scheme = ecc::MakeScheme(kind, rank);
    const dram::Address addr{
        0, 1,
        static_cast<unsigned>(rng.UniformBelow(geom.device.ColumnsPerRow()))};
    const auto line = util::BitVec::Random(geom.LineBits(), rng);
    scheme->WriteLine(addr, line);
    faults::Injector injector(rank, {{0, 1}});
    faults::InjectedFault f;
    do {
      f = injector.Inject(faults::FaultType::kSinglePin, true, rng);
    } while (f.device >= rank.DataDevices());
    const auto r = scheme->ReadLine(addr);
    sdc += reliability::IsSdc(reliability::Classify(r.claim, r.data, line));
  }
  return static_cast<double>(sdc) / trials;
}

}  // namespace

int main() {
  bench::BenchReport report("T4", "DDR4 (BL8) vs DDR5 (BL16) design point");
  const unsigned kTrials = report.Trials(200);

  // Both design points come from the shared preset table, so the DDR5
  // column reflects real DDR5-4800 timing (2.4 GHz clock, BL16 data
  // bursts, 32 banks in 8 groups), not DDR4 numbers with a longer burst.
  const timing::SystemPreset ddr4 =
      timing::MakePreset(timing::GeometryPreset::kDdr4_3200);
  const timing::SystemPreset ddr5 =
      timing::MakePreset(timing::GeometryPreset::kDdr5_4800);
  report.MetaString("ddr4_preset", timing::ToString(ddr4.kind));
  report.MetaString("ddr5_preset", timing::ToString(ddr5.kind));
  report.MetaReal("ddr4_tck_ns", ddr4.timing.tck_ns);
  report.MetaReal("ddr5_tck_ns", ddr5.timing.tck_ns);
  report.MetaInt("ddr5_tBL", ddr5.timing.tBL);

  util::Table t({"generation", "scheme", "write RMW",
                 "norm. perf (write-heavy)", "pin-fault SDC"});
  for (const auto kind : {ecc::SchemeKind::kIecc, ecc::SchemeKind::kPair4}) {
    for (int gen = 0; gen < 2; ++gen) {
      const timing::SystemPreset& preset = gen == 0 ? ddr4 : ddr5;
      dram::RankGeometry geom = preset.geometry;
      dram::Rank rank(geom);
      const bool rmw = ecc::MakeScheme(kind, rank)->Perf().write_rmw;
      t.AddRow({gen == 0 ? "DDR4 x8 BL8" : "DDR5 x8 BL16",
                ecc::ToString(kind), rmw ? "yes" : "no",
                util::Table::Fixed(
                    WriteHeavyNormPerf(preset.geometry, kind, preset.timing),
                    3),
                util::Table::Fixed(PinFaultSdc(preset.geometry, kind, kTrials),
                                   3)});
    }
  }
  report.Emit("ddr5_outlook", t);

  std::cout << "Shape check: moving to BL16 erases IECC's RMW penalty (the\n"
               "performance axis converges) but leaves its ~0.5 pin-fault\n"
               "silent-corruption rate untouched — the miscorrection half of\n"
               "PAIR's advantage is code structure, not burst length.\n";
  return 0;
}
