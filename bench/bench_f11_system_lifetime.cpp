// F11 — full-system lifetimes: reliability and performance coupled.
//
// Where F1-F10 hold either the fault process or the timing model fixed,
// F11 runs the event-driven system simulator (src/sim): demand traffic,
// Poisson fault arrivals, patrol scrub, and threshold-driven repair
// interleave over one event queue, and the merged command stream is timed
// by the DDR4 controller. Two tables:
//
//   scheme_comparison  — per-scheme lifetime outcome probabilities next to
//                        the latency/bandwidth the same scheme delivered
//                        on the same demand stream;
//   scrub_sweep        — PAIR-4 with patrol scrub off/slow/fast: the
//                        reliability gain and the bus traffic it costs.
#include "bench/bench_common.hpp"

#include "reliability/variance_reduction.hpp"
#include "sim/campaign.hpp"
#include "sim/memory_system.hpp"
#include "sim/splitting.hpp"
#include "timing/presets.hpp"
#include "workload/generator.hpp"

using namespace pair_ecc;

namespace {

constexpr double kFaultsPerMcycle = 150.0;
constexpr unsigned kRequests = 120;

sim::SystemConfig BaseConfig(ecc::SchemeKind kind) {
  sim::SystemConfig cfg;
  cfg.scheme = kind;
  cfg.mix = faults::FaultMix::Inherent();
  cfg.faults_per_mcycle = kFaultsPerMcycle;
  cfg.scrub.interval_cycles = 4000;
  cfg.repair.due_threshold = 2;
  cfg.seed = bench::kBenchSeed;
  return cfg;
}

}  // namespace

int main() {
  bench::BenchReport report(
      "F11", "system lifetimes: faults + scrub + repair + timing coupled");

  const unsigned kTrials = report.Trials(400);
  report.MetaInt("requests", kRequests);
  report.MetaReal("faults_per_mcycle", kFaultsPerMcycle);

  workload::WorkloadConfig wl;
  wl.pattern = workload::Pattern::kHotspot;
  wl.read_fraction = 0.67;
  wl.intensity = 0.05;
  wl.num_requests = kRequests;
  wl.seed = bench::kBenchSeed;
  const timing::Trace demand = workload::Generate(wl);

  const std::vector<ecc::SchemeKind> schemes = {
      ecc::SchemeKind::kSecDed, ecc::SchemeKind::kXed, ecc::SchemeKind::kDuo,
      ecc::SchemeKind::kPair4};

  util::Table t({"scheme", "P(SDC)", "P(DUE)", "corr/trial", "repairs",
                 "spared", "avg RD lat", "GB/s"});
  for (const auto kind : schemes) {
    const sim::SystemConfig cfg = BaseConfig(kind);
    const sim::SystemStats s = sim::RunSystemCampaign(cfg, demand, kTrials);
    t.AddRow({ecc::ToString(kind), util::Table::Sci(s.SdcProbability()),
              util::Table::Sci(s.DueProbability()),
              util::Table::Fixed(static_cast<double>(s.corrected) /
                                     static_cast<double>(s.trials),
                                 2),
              std::to_string(s.repair.repairs_attempted),
              std::to_string(s.repair.rows_spared),
              util::Table::Fixed(s.AvgReadLatency(), 1),
              util::Table::Fixed(s.BytesPerCycle() / cfg.timing.tck_ns, 2)});
  }
  std::cout << "-- scheme comparison (" << kTrials << " lifetimes, "
            << kRequests << "-request demand stream) --\n";
  report.Emit("scheme_comparison", t);

  util::Table sweep({"scrub interval", "P(SDC)", "P(DUE)", "rows scrubbed",
                     "bus R+W", "avg RD lat"});
  for (const std::uint64_t interval : {std::uint64_t{0}, std::uint64_t{8000},
                                       std::uint64_t{2000}}) {
    sim::SystemConfig cfg = BaseConfig(ecc::SchemeKind::kPair4);
    cfg.scrub.interval_cycles = interval;
    const sim::SystemStats s = sim::RunSystemCampaign(cfg, demand, kTrials);
    sweep.AddRow({interval == 0 ? "off" : std::to_string(interval),
                  util::Table::Sci(s.SdcProbability()),
                  util::Table::Sci(s.DueProbability()),
                  std::to_string(s.scrub_rows_scrubbed),
                  std::to_string(s.bus_reads + s.bus_writes),
                  util::Table::Fixed(s.AvgReadLatency(), 1)});
  }
  std::cout << "-- PAIR-4 patrol scrub sweep --\n";
  report.Emit("scrub_sweep", sweep);

  // Geometry sweep: the same lifetimes on the DDR4-3200, DDR5-4800, and
  // HBM3 presets. Scheme strength and channel geometry interact through
  // both the fault surface (device width, codeword layout) and the timing
  // model (clock, burst length, bank count), so the ordering argument has
  // to survive all three design points, not just DDR4.
  util::Table geo_t({"geometry", "scheme", "P(SDC)", "P(DUE)", "avg RD lat",
                     "GB/s"});
  for (const auto preset_kind :
       {timing::GeometryPreset::kDdr4_3200, timing::GeometryPreset::kDdr5_4800,
        timing::GeometryPreset::kHbm3}) {
    const timing::SystemPreset preset = timing::MakePreset(preset_kind);
    for (const auto kind : {ecc::SchemeKind::kSecDed, ecc::SchemeKind::kXed,
                            ecc::SchemeKind::kPair4}) {
      sim::SystemConfig cfg = BaseConfig(kind);
      cfg.geometry = preset.geometry;
      cfg.timing = preset.timing;
      const sim::SystemStats s = sim::RunSystemCampaign(cfg, demand, kTrials);
      geo_t.AddRow(
          {timing::ToString(preset.kind), ecc::ToString(kind),
           util::Table::Sci(s.SdcProbability()),
           util::Table::Sci(s.DueProbability()),
           util::Table::Fixed(s.AvgReadLatency(), 1),
           util::Table::Fixed(s.BytesPerCycle() / cfg.timing.tck_ns, 2)});
    }
  }
  std::cout << "-- geometry presets (" << kTrials << " lifetimes each) --\n";
  report.Emit("geometry_sweep", geo_t);

  // Scheduler comparison: the same PAIR-4 lifetimes under FR-FCFS, strict
  // FCFS, and the PRAC-style RFM-aware policy. Reliability outcomes are
  // scheduler-independent (the functional pass is untouched); what moves
  // is the latency/bandwidth the demand stream pays for the policy.
  util::Table sched_t({"scheduler", "P(SDC)", "avg RD lat", "GB/s",
                       "row hits", "row conflicts"});
  for (const auto sched :
       {timing::SchedulerKind::kFrFcfs, timing::SchedulerKind::kFcfs,
        timing::SchedulerKind::kPrac}) {
    sim::SystemConfig cfg = BaseConfig(ecc::SchemeKind::kPair4);
    cfg.scheduler = sched;
    const sim::SystemStats s = sim::RunSystemCampaign(cfg, demand, kTrials);
    sched_t.AddRow(
        {timing::ToString(sched), util::Table::Sci(s.SdcProbability()),
         util::Table::Fixed(s.AvgReadLatency(), 1),
         util::Table::Fixed(s.BytesPerCycle() / cfg.timing.tck_ns, 2),
         std::to_string(s.row_hits), std::to_string(s.row_conflicts)});
  }
  std::cout << "-- PAIR-4 scheduler comparison --\n";
  report.Emit("scheduler_comparison", sched_t);

  // Splitting-accelerated tail: with patrol scrub off, faults persist
  // until demand traffic finds them, and lifetime failure hinges on the
  // rare trajectories that accumulate several non-clean demand reads.
  // Multilevel splitting over that cumulative count clones trajectories as
  // they approach failure (replaying the seed vector, branching the RNG at
  // each crossing), concentrating simulation effort on near-failure paths.
  // Trees are functional-only (no timing pass), so a root costs a fraction
  // of a naive lifetime trial.
  reliability::SplitSpec split;
  split.thresholds = {1, 2, 4};
  split.replicas = 3;
  const unsigned kRoots = kTrials;
  report.MetaInt("split_roots", kRoots);
  report.MetaInt("split_replicas", split.replicas);

  util::Table split_t({"scheme", "roots", "nodes", "splits", "P(failure)",
                       "std err", "acceleration"});
  for (const auto kind : {ecc::SchemeKind::kSecDed, ecc::SchemeKind::kXed,
                          ecc::SchemeKind::kPair4}) {
    sim::SystemConfig cfg = BaseConfig(kind);
    cfg.scrub.interval_cycles = 0;
    cfg.horizon_cycles =
        sim::ScanDemand(cfg, sim::VectorSourceFactory(demand)).horizon_cycles;
    const reliability::WorkingSet ws = sim::MakeSystemWorkingSet(cfg);
    timing::VectorSource source(demand);
    reliability::SplitTally tally;
    for (unsigned i = 0; i < kRoots; ++i)
      sim::RunSplitTrial(cfg, ws, source, split,
                         bench::kBenchSeed + 7919ull * i, tally);
    const reliability::WeightedEstimate est =
        reliability::EstimateSplitRate(split, tally);
    split_t.AddRow({ecc::ToString(kind), std::to_string(tally.root_trials),
                    std::to_string(tally.nodes), std::to_string(tally.splits),
                    util::Table::Sci(est.estimate),
                    util::Table::Sci(est.std_error),
                    util::Table::Fixed(est.acceleration, 2)});
  }
  std::cout << "-- splitting-accelerated tail (scrub off, levels 1,2,4 x"
            << split.replicas << ") --\n";
  report.Emit("split_tail", split_t);

  std::cout << "Shape check: stronger codes trade read latency for orders of\n"
               "magnitude on P(SDC); faster patrol scrub buys reliability\n"
               "with bus reads/writes, not demand latency. The splitting\n"
               "table resolves the rare-failure regime the naive tables\n"
               "cannot, at a fraction of the node budget.\n";
  return 0;
}
