// Event-driven full-system memory simulator: the layer where the paper's
// system-level claims are actually measured.
//
// A MemorySystem couples the pieces the repo previously only wired together
// ad hoc in examples/:
//
//   demand traffic      a timing::RequestSource (a trace file or a
//                       synthetic generator, replayed from memory when
//                       ScanDemand kept it)
//                       whose reads/writes are BOTH functionally executed
//                       against an ecc::Scheme (decode, classify vs ground
//                       truth) AND timed by the cycle-approximate
//                       timing::Controller;
//   fault arrivals      a Poisson process in simulated cycles
//                       (faults_per_mcycle) feeding faults::Injector — the
//                       time-dependent generalisation of the lifetime
//                       engine's per-epoch arrivals;
//   scrub               a ScrubScheduler: patrol sweeps at a configured
//                       rate plus optional demand writeback;
//   repair              a RepairPolicy: rows whose demand reads keep
//                       reporting DUEs get a march diagnosis / row sparing
//                       via core/repair.
//
// All four streams advance through ONE EventQueue (see event.hpp for the
// total order), so their interleaving is reproducible: a trial is a pure
// function of (config, demand stream, per-trial RNG stream). Campaigns fan
// trials out through reliability::TrialEngine and inherit its determinism
// contract — SystemStats is integer counters + fixed-bucket histograms
// merged in shard order, so campaign results are bitwise identical for any
// thread count.
//
// Timing coupling: the functional pass runs first (it decides which
// maintenance traffic exists and when); the demand trace merged with the
// generated scrub/repair accesses then drives the Controller, which mirrors
// every command into the ProtocolChecker — PAIR_DCHECK builds abort on any
// violation, so scrub/repair traffic cannot silently break DDR4 timing.
// All latency/bandwidth figures are simulated cycles, never wall clock,
// and therefore belong to the deterministic report sections.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "dram/geometry.hpp"
#include "ecc/scheme.hpp"
#include "faults/fault_model.hpp"
#include "reliability/engine.hpp"
#include "reliability/telemetry.hpp"
#include "sim/event.hpp"
#include "sim/repair_policy.hpp"
#include "sim/scrub.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "timing/controller.hpp"
#include "timing/request.hpp"
#include "timing/request_source.hpp"
#include "timing/scheduler.hpp"
#include "util/fields.hpp"

namespace pair_ecc::sim {

struct SystemConfig {
  ecc::SchemeKind scheme = ecc::SchemeKind::kPair4;
  dram::RankGeometry geometry;
  faults::FaultMix mix = faults::FaultMix::Inherent();
  /// Expected fault arrivals per million simulated cycles (Poisson process;
  /// exponential inter-arrival times drawn from the trial stream).
  double faults_per_mcycle = 20.0;
  /// Simulation end, cycles. 0 makes the campaign derive it from the
  /// demand (last arrival plus a drain margin; see ScanDemand).
  std::uint64_t horizon_cycles = 0;
  ScrubConfig scrub;
  RepairConfig repair;
  timing::TimingParams timing = timing::TimingParams::Ddr4_3200();
  /// Controller scheduling policy (FR-FCFS preserves historical results).
  timing::SchedulerKind scheduler = timing::SchedulerKind::kFrFcfs;
  unsigned working_rows = 2;   ///< rows backing the functional data path
  unsigned lines_per_row = 4;  ///< ground-truth lines per working row
  std::uint64_t seed = 1;
  /// Worker threads for the campaign engine; 0 = hardware_concurrency.
  /// Results are bitwise identical for every thread count (engine.hpp).
  unsigned threads = 0;

  void Validate() const;
};

/// Campaign statistics: exact integers + fixed-bucket histograms only, so
/// the shard-ordered reduce is bitwise reproducible. Latency/bandwidth are
/// sums of simulated cycles; derived rates live in the report builder.
struct SystemStats {
  std::uint64_t trials = 0;

  // Demand-path outcomes (functional reads classified vs ground truth).
  std::uint64_t demand_reads = 0;
  std::uint64_t demand_writes = 0;
  std::uint64_t no_error = 0;
  std::uint64_t corrected = 0;
  std::uint64_t due = 0;
  std::uint64_t sdc_miscorrected = 0;
  std::uint64_t sdc_undetected = 0;
  std::uint64_t trials_with_sdc = 0;
  std::uint64_t trials_with_due = 0;
  /// Trials with any SDC or DUE — the fleet-projection failure event.
  std::uint64_t trials_with_failure = 0;
  /// Sum over trials of the first-SDC cycle (horizon when the trial stayed
  /// silent-corruption-free) — mean_first_sdc_cycle in the report.
  std::uint64_t first_sdc_cycle_sum = 0;

  // Fault process.
  std::uint64_t faults_injected = 0;

  // Maintenance.
  std::uint64_t scrub_steps = 0;
  std::uint64_t scrub_rows_scrubbed = 0;
  std::uint64_t demand_writebacks = 0;
  RepairCounters repair;

  // Timing (simulated cycles from the Controller; deterministic).
  std::uint64_t sim_cycles = 0;      ///< sum of per-trial completion cycles
  std::uint64_t bus_reads = 0;       ///< demand + maintenance reads timed
  std::uint64_t bus_writes = 0;
  std::uint64_t row_hits = 0;
  std::uint64_t row_misses = 0;
  std::uint64_t row_conflicts = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t read_latency_sum = 0;  ///< demand reads, arrival -> complete
  telemetry::Histogram read_latency = ReadLatencyHistogram();
  std::uint64_t protocol_violations = 0;  ///< checker findings (expect 0)

  static telemetry::Histogram ReadLatencyHistogram() {
    return telemetry::Histogram({32, 48, 64, 96, 128, 192, 256, 512, 1024});
  }

  double SdcProbability() const noexcept {
    return trials ? static_cast<double>(trials_with_sdc) /
                        static_cast<double>(trials)
                  : 0.0;
  }
  double DueProbability() const noexcept {
    return trials ? static_cast<double>(trials_with_due) /
                        static_cast<double>(trials)
                  : 0.0;
  }
  double AvgReadLatency() const noexcept {
    const std::uint64_t n = read_latency.TotalCount();
    return n ? static_cast<double>(read_latency_sum) / static_cast<double>(n)
             : 0.0;
  }
  /// Data bandwidth over the whole campaign, bytes per cycle.
  double BytesPerCycle() const noexcept {
    return sim_cycles ? 64.0 * static_cast<double>(bus_reads + bus_writes) /
                            static_cast<double>(sim_cycles)
                      : 0.0;
  }
  double MeanFirstSdcCycle() const noexcept {
    return trials ? static_cast<double>(first_sdc_cycle_sum) /
                        static_cast<double>(trials)
                  : 0.0;
  }
  double AvgCyclesPerTrial() const noexcept {
    return trials ? static_cast<double>(sim_cycles) /
                        static_cast<double>(trials)
                  : 0.0;
  }

  /// Report names are relative to AddSystemStats's "system." prefix.
  static constexpr auto kFields = std::tuple{
      util::Field{&SystemStats::trials, "trials"},
      util::Field{&SystemStats::demand_reads, "demand_reads", "demand.reads"},
      util::Field{&SystemStats::demand_writes, "demand_writes",
                  "demand.writes"},
      util::Field{&SystemStats::no_error, "no_error", "outcome.no_error"},
      util::Field{&SystemStats::corrected, "corrected", "outcome.corrected"},
      util::Field{&SystemStats::due, "due", "outcome.due"},
      util::Field{&SystemStats::sdc_miscorrected, "sdc_miscorrected",
                  "outcome.sdc_miscorrected"},
      util::Field{&SystemStats::sdc_undetected, "sdc_undetected",
                  "outcome.sdc_undetected"},
      util::Field{&SystemStats::trials_with_sdc, "trials_with_sdc"},
      util::Field{&SystemStats::trials_with_due, "trials_with_due"},
      util::Field{&SystemStats::trials_with_failure, "trials_with_failure"},
      util::Field{&SystemStats::first_sdc_cycle_sum, "first_sdc_cycle_sum"},
      util::Field{&SystemStats::faults_injected, "faults_injected"},
      util::Field{&SystemStats::scrub_steps, "scrub_steps", "scrub.steps"},
      util::Field{&SystemStats::scrub_rows_scrubbed, "scrub_rows_scrubbed",
                  "scrub.rows"},
      util::Field{&SystemStats::demand_writebacks, "demand_writebacks",
                  "scrub.demand_writebacks"},
      util::Field{&SystemStats::repair, "repair", "repair."},
      util::Field{&SystemStats::sim_cycles, "sim_cycles"},
      util::Field{&SystemStats::bus_reads, "bus_reads", "bus.reads"},
      util::Field{&SystemStats::bus_writes, "bus_writes", "bus.writes"},
      util::Field{&SystemStats::row_hits, "row_hits", "bus.row_hits"},
      util::Field{&SystemStats::row_misses, "row_misses", "bus.row_misses"},
      util::Field{&SystemStats::row_conflicts, "row_conflicts",
                  "bus.row_conflicts"},
      util::Field{&SystemStats::refreshes, "refreshes", "bus.refreshes"},
      util::Field{&SystemStats::read_latency_sum, "read_latency_sum"},
      util::Field{&SystemStats::read_latency, "read_latency",
                  "read_latency_cycles"},
      util::Field{&SystemStats::protocol_violations, "protocol_violations"},
  };

  SystemStats& operator+=(const SystemStats& other) {
    return util::MergeFields(*this, other);
  }

  friend bool operator==(const SystemStats&, const SystemStats&) = default;
};

/// Hook into the functional pass's demand-read stream — the multilevel
/// splitting runner's window into a trial's "distance to failure". Called
/// after each demand read is classified, with the trial's RNG so the
/// observer can reseed the stream in place (the splitting re-simulation
/// trick). Returning false aborts the functional pass immediately.
///
/// Observer-driven runs are functional-only re-simulations: the timing
/// pass and the end-of-trial stats finalization are skipped, and `stats`
/// holds only partial functional counters the caller should discard —
/// everything a splitting tree needs lives in the observer itself.
class DemandReadObserver {
 public:
  virtual ~DemandReadObserver() = default;
  /// `outcome` is the classified demand read; return false to abort.
  virtual bool OnDemandRead(reliability::Outcome outcome,
                            util::Xoshiro256& rng) = 0;
};

/// One trial: a fresh rank + scheme + ground truth, the four event streams,
/// and the timing pass over the merged command stream.
class MemorySystem {
 public:
  /// Demand is pulled from `demand` one request at a time; the trial
  /// itself keeps none of it. The source is read twice (functional pass,
  /// then Reset() and the timing pass), so it must be rewindable, sorted
  /// by arrival (timing::Controller's contract) and replay the identical
  /// sequence. `config.horizon_cycles` must be nonzero: the horizon
  /// cannot be derived from a stream without consuming it (ScanDemand
  /// derives it in one validation pass).
  MemorySystem(const SystemConfig& config, const reliability::WorkingSet& ws,
               timing::RequestSource& demand, util::Xoshiro256& rng);

  /// Runs the trial to the horizon. Adds this trial into `stats` (one
  /// trial's worth) and the codec/injection/corrected-units telemetry into
  /// `tel`. Draws all randomness from the constructor's RNG stream.
  /// A non-null `observer` turns the run into a functional-only
  /// re-simulation (see DemandReadObserver); the default preserves the
  /// original behaviour bitwise.
  void Run(SystemStats& stats, reliability::TrialTelemetry& tel,
           DemandReadObserver* observer = nullptr);

  std::uint64_t horizon() const noexcept { return horizon_; }

 private:
  /// Maps a demand address onto a ground-truth slot (index into truth).
  std::size_t SlotOf(const dram::Address& addr) const noexcept;

  std::uint64_t NextFaultGap(util::Xoshiro256& rng) const;

  /// Appends one maintenance access to the timing stream.
  void EmitMaintenance(std::uint64_t cycle, timing::Op op,
                       const dram::Address& addr);

  const SystemConfig& config_;
  const reliability::WorkingSet& ws_;
  timing::RequestSource& demand_;
  util::Xoshiro256& rng_;
  reliability::TrialContext ctx_;
  faults::Injector injector_;
  ScrubScheduler scrub_;
  RepairPolicy repair_;
  std::uint64_t horizon_;
  timing::Trace maintenance_;
};

/// Builds a fresh rewindable demand source. The demand scan calls it once;
/// trials call it again, once each, only when the scan kept nothing (see
/// StreamingDemandInfo::TrialDemand), so each worker owns its stream
/// state. Every source returned must replay the identical sequence.
using RequestSourceFactory =
    std::function<std::unique_ptr<timing::RequestSource>()>;

/// A factory replaying `trace` from memory through timing::VectorSource.
/// The factory owns the trace, so it may outlive the caller's copy.
RequestSourceFactory VectorSourceFactory(timing::Trace trace);

/// The most requests a demand scan keeps for the trials to replay: 2^18,
/// 14 MiB of timing::Request. A longer demand streams from its factory
/// in every trial, so a multi-gigabyte trace still runs in bounded memory.
inline constexpr std::uint64_t kMaxKeptDemandRequests = 1 << 18;

/// What one validation pass over the demand stream learned.
struct StreamingDemandInfo {
  std::uint64_t requests = 0;        ///< requests in the demand stream
  std::uint64_t horizon_cycles = 0;  ///< horizon the trials actually use
  /// The requests a trial reads (arrival <= horizon), read-only and shared
  /// by every trial; null when they are more than kMaxKeptDemandRequests.
  std::shared_ptr<const timing::Trace> kept;

  /// Where every trial takes its demand from: a replay of `kept`, or
  /// `factory` itself (one source per trial) when nothing was kept.
  RequestSourceFactory TrialDemand(const RequestSourceFactory& factory) const;
};

/// The one demand scan: validates `config`, then streams one source from
/// `factory` once — every request must address a bank and rank the timing
/// model has, in non-decreasing arrival order — and resolves the horizon
/// (`config.horizon_cycles`, or the last arrival plus a drain margin when
/// it is 0). The same pass keeps the requests up to the horizon, up to
/// kMaxKeptDemandRequests of them; violations are
/// util::ContractViolation.
StreamingDemandInfo ScanDemand(const SystemConfig& config,
                               const RequestSourceFactory& factory);

/// Fans `trials` independent MemorySystem lifetimes out through the trial
/// engine (bitwise identical for any `config.threads`). ScanDemand runs
/// first; every trial then replays the requests it kept, or, above
/// kMaxKeptDemandRequests, pulls from its own source, so memory stays
/// bounded no matter how long the stream is. `trials == 0` runs the scan
/// alone. When `telemetry` is non-null it receives the merged
/// codec/injection telemetry and the engine's wall-clock metrics; `info`
/// receives the scan.
SystemStats RunSystemCampaignStreaming(
    const SystemConfig& config, const RequestSourceFactory& factory,
    std::uint64_t trials, reliability::ScenarioTelemetry* telemetry = nullptr,
    StreamingDemandInfo* info = nullptr);

/// RunSystemCampaignStreaming over a materialized trace.
SystemStats RunSystemCampaign(
    const SystemConfig& config, const timing::Trace& demand,
    std::uint64_t trials, reliability::ScenarioTelemetry* telemetry = nullptr);

/// Adds the `system.*` counter/metric/histogram section for `stats`.
/// `tck_ns` converts bytes-per-cycle into bandwidth_gbps. Shared by the
/// single-shot system report and the campaign merge report so both emit
/// identical sections.
void AddSystemStats(telemetry::Report& report, const SystemStats& stats,
                    double tck_ns);

/// Builds the "pairsim-system" pair-report: meta from the config, the
/// `system.*` counter/metric/histogram section from `stats`, codec/fault
/// telemetry, and engine wall-clock in the (diff-ignored) timing section.
telemetry::Report BuildSystemReport(const SystemConfig& config,
                                    std::uint64_t trials,
                                    std::size_t demand_requests,
                                    const SystemStats& stats,
                                    const reliability::ScenarioTelemetry& telemetry);

}  // namespace pair_ecc::sim
