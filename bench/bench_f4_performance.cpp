// F4 — performance of every scheme across workloads, normalised to the
// No-ECC baseline (abstract claims C1/C2: PAIR ~14% faster than XED on
// average, similar to DUO).
//
// The mechanisms that differentiate schemes: internal write RMW (IECC, XED)
// throttles write-heavy traffic; DUO's BL9 burst costs bus bandwidth at
// high utilisation; decode latency adds to read latency everywhere.
#include "bench/bench_common.hpp"

#include <cmath>
#include <map>

#include "dram/rank.hpp"
#include "timing/controller.hpp"
#include "timing/presets.hpp"
#include "workload/streams.hpp"

using namespace pair_ecc;

namespace {

struct WorkloadSpec {
  const char* name;
  workload::StreamKind kind;
  double read_fraction;
  double intensity;
};

}  // namespace

int main() {
  bench::BenchReport report("F4", "performance, normalised to No-ECC");
  report.MetaInt("num_requests", 30000);

  const WorkloadSpec loads[] = {
      {"stream-read (RF=0.9)", workload::StreamKind::kStream, 0.9, 0.25},
      {"mixed-random (RF=0.67)", workload::StreamKind::kRandom, 0.67, 0.10},
      {"write-heavy hotspot (RF=0.3)", workload::StreamKind::kHotspot, 0.3,
       0.15},
      {"random write-heavy (RF=0.4)", workload::StreamKind::kRandom, 0.4, 0.12},
  };
  const ecc::SchemeKind schemes[] = {
      ecc::SchemeKind::kNoEcc,      ecc::SchemeKind::kIecc,
      ecc::SchemeKind::kIeccSecDed, ecc::SchemeKind::kXed,
      ecc::SchemeKind::kDuo,        ecc::SchemeKind::kPair2,
      ecc::SchemeKind::kPair4,      ecc::SchemeKind::kPair4SecDed};

  const timing::TimingParams params = timing::TimingParams::Ddr4_3200();
  util::Table t({"workload", "scheme", "norm. perf", "avg rd lat (cyc)",
                 "p99 rd lat", "bus util", "cycles"});
  util::Table avg_t({"scheme", "geomean norm. perf", "vs XED"});
  std::map<std::string, std::vector<double>> norm_perf;

  for (const auto& load : loads) {
    workload::StreamConfig cfg;
    cfg.kind = load.kind;
    cfg.read_fraction = load.read_fraction;
    cfg.intensity = load.intensity;
    cfg.num_requests = 30000;
    cfg.seed = bench::kBenchSeed;

    double baseline_cycles = 0.0;
    for (const auto kind : schemes) {
      dram::RankGeometry rg;
      dram::Rank rank(rg);
      auto scheme = ecc::MakeScheme(kind, rank);
      timing::Controller ctrl(
          params, timing::SchemeTiming::FromPerf(scheme->Perf(), params));
      auto trace = timing::Materialize(*workload::MakeStream(cfg));
      const auto stats = ctrl.Run(trace);
      if (!ctrl.checker().violations().empty()) {
        std::cerr << "protocol violation: "
                  << ctrl.checker().violations().front() << "\n";
        return 1;
      }
      if (kind == ecc::SchemeKind::kNoEcc)
        baseline_cycles = static_cast<double>(stats.cycles);
      const double norm =
          baseline_cycles / static_cast<double>(stats.cycles);
      norm_perf[ecc::ToString(kind)].push_back(norm);
      t.AddRow({load.name, ecc::ToString(kind), util::Table::Fixed(norm, 3),
                util::Table::Fixed(stats.avg_read_latency, 1),
                util::Table::Fixed(stats.p99_read_latency, 0),
                util::Table::Fixed(stats.bus_utilization, 3),
                std::to_string(stats.cycles)});
    }
  }
  report.Emit("performance", t);

  // Geometric mean across workloads, and the PAIR-vs-XED headline ratio.
  auto geomean = [](const std::vector<double>& v) {
    double log_sum = 0.0;
    for (double x : v) log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
  };
  const double xed_gm = geomean(norm_perf["XED"]);
  for (const auto kind : schemes) {
    const double gm = geomean(norm_perf[ecc::ToString(kind)]);
    avg_t.AddRow({ecc::ToString(kind), util::Table::Fixed(gm, 3),
                  util::Table::Fixed(gm / xed_gm, 3)});
  }
  report.Emit("geomean", avg_t);

  // Geometry sweep: the write-heavy mix (where the schemes separate most)
  // replayed on the DDR5-4800 and HBM3 presets. BL16 folds the
  // conventional codeword into one access, so IECC's RMW penalty is a
  // DDR4 artifact; PAIR's normalised performance is geometry-stable.
  util::Table geo_t({"geometry", "scheme", "norm. perf", "avg rd lat (cyc)",
                     "bus util"});
  for (const auto preset_kind :
       {timing::GeometryPreset::kDdr4_3200, timing::GeometryPreset::kDdr5_4800,
        timing::GeometryPreset::kHbm3}) {
    const timing::SystemPreset preset = timing::MakePreset(preset_kind);
    workload::StreamConfig cfg;
    cfg.kind = workload::StreamKind::kHotspot;
    cfg.read_fraction = 0.3;
    cfg.intensity = 0.15;
    cfg.num_requests = 30000;
    cfg.banks = preset.timing.banks;
    cfg.seed = bench::kBenchSeed;

    double baseline_cycles = 0.0;
    for (const auto kind :
         {ecc::SchemeKind::kNoEcc, ecc::SchemeKind::kIecc,
          ecc::SchemeKind::kXed, ecc::SchemeKind::kPair4}) {
      dram::RankGeometry rg = preset.geometry;
      dram::Rank rank(rg);
      auto scheme = ecc::MakeScheme(kind, rank);
      timing::Controller ctrl(
          preset.timing,
          timing::SchemeTiming::FromPerf(scheme->Perf(), preset.timing));
      auto trace = timing::Materialize(*workload::MakeStream(cfg));
      const auto stats = ctrl.Run(trace);
      if (!ctrl.checker().violations().empty()) {
        std::cerr << "protocol violation: "
                  << ctrl.checker().violations().front() << "\n";
        return 1;
      }
      if (kind == ecc::SchemeKind::kNoEcc)
        baseline_cycles = static_cast<double>(stats.cycles);
      geo_t.AddRow({timing::ToString(preset.kind), ecc::ToString(kind),
                    util::Table::Fixed(
                        baseline_cycles / static_cast<double>(stats.cycles), 3),
                    util::Table::Fixed(stats.avg_read_latency, 1),
                    util::Table::Fixed(stats.bus_utilization, 3)});
    }
  }
  std::cout << "-- write-heavy hotspot across geometry presets --\n";
  report.Emit("geometry_sweep", geo_t);

  std::cout << "Shape check: PAIR-4 ~= DUO overall (PAIR trades DUO's burst\n"
               "extension for in-DRAM decode latency) and clearly ahead of\n"
               "XED/IECC on write-heavy mixes, where the internal RMW bites\n"
               "(the abstract's ~14% claim).\n";
  return 0;
}
