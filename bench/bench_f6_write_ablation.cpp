// F6 — write-path ablation: PAIR's delta-parity update vs the conservative
// decode-before-write (internal RMW) alternative, against conventional IECC
// for reference, as the workload's write fraction sweeps. This isolates the
// design choice behind the "without the performance degradation" clause of
// the abstract.
#include "bench/bench_common.hpp"

#include "core/pair_scheme.hpp"
#include "dram/rank.hpp"
#include "timing/controller.hpp"
#include "workload/streams.hpp"

using namespace pair_ecc;

int main() {
  bench::BenchReport report("F6", "PAIR write-path ablation (delta vs RMW)");
  report.MetaInt("num_requests", 30000);

  const timing::TimingParams params = timing::TimingParams::Ddr4_3200();
  const double write_fractions[] = {0.1, 0.3, 0.5, 0.7};

  struct Variant {
    const char* name;
    ecc::PerfDescriptor perf;
  };
  dram::RankGeometry rg;
  dram::Rank rank_delta(rg), rank_rmw(rg), rank_iecc(rg), rank_none(rg);
  core::PairScheme pair_delta(rank_delta, core::PairConfig::Pair4());
  core::PairConfig rmw_cfg = core::PairConfig::Pair4();
  rmw_cfg.scrub_on_write = true;
  core::PairScheme pair_rmw(rank_rmw, rmw_cfg);
  auto iecc = ecc::MakeScheme(ecc::SchemeKind::kIecc, rank_iecc);
  auto none = ecc::MakeScheme(ecc::SchemeKind::kNoEcc, rank_none);

  const Variant variants[] = {
      {"No-ECC", none->Perf()},
      {"PAIR-4 delta-parity", pair_delta.Perf()},
      {"PAIR-4 decode-on-write (RMW)", pair_rmw.Perf()},
      {"IECC (always RMW)", iecc->Perf()},
  };

  util::Table t({"write fraction", "variant", "norm. perf",
                 "avg rd lat (cyc)", "cycles"});
  for (const double wf : write_fractions) {
    workload::StreamConfig cfg;
    cfg.kind = workload::StreamKind::kHotspot;
    cfg.read_fraction = 1.0 - wf;
    cfg.intensity = 0.15;
    cfg.num_requests = 30000;
    cfg.seed = bench::kBenchSeed;

    double baseline = 0.0;
    for (const auto& v : variants) {
      timing::Controller ctrl(params,
                              timing::SchemeTiming::FromPerf(v.perf, params));
      auto trace = timing::Materialize(*workload::MakeStream(cfg));
      const auto stats = ctrl.Run(trace);
      if (baseline == 0.0) baseline = static_cast<double>(stats.cycles);
      t.AddRow({util::Table::Fixed(wf, 1), v.name,
                util::Table::Fixed(baseline / static_cast<double>(stats.cycles), 3),
                util::Table::Fixed(stats.avg_read_latency, 1),
                std::to_string(stats.cycles)});
    }
  }
  report.Emit("write_ablation", t);

  std::cout << "Shape check: the delta-parity path tracks No-ECC at every\n"
               "write fraction; the RMW variants fall away as writes grow —\n"
               "the gap IS the performance argument for pin alignment\n"
               "(whole-symbol writes make incremental re-encoding possible).\n";
  return 0;
}
