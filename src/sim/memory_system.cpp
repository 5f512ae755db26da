#include "sim/memory_system.hpp"

#include <cmath>
#include <memory>
#include <utility>

#include "reliability/outcome.hpp"
#include "sim/campaign.hpp"
#include "telemetry/fields.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace pair_ecc::sim {

namespace {

/// Cycles the simulation keeps running past the last demand arrival so
/// in-flight traffic and trailing maintenance can complete.
constexpr std::uint64_t kDrainMarginCycles = 20000;

std::int64_t ShardCount(std::uint64_t trials) {
  return static_cast<std::int64_t>(
      reliability::TrialEngine::ShardCount(trials));
}

/// Two-way merge of the rewound demand stream (tag 1, truncated at the
/// horizon) and the generated maintenance trace (tag 0). Replicates the
/// retired stable_sort ordering bitwise: both inputs are non-decreasing in
/// arrival and demand wins ties (it had the lower index in the
/// concatenated vector the sort used to see).
class MergedSource final : public timing::RequestSource {
 public:
  MergedSource(timing::RequestSource& demand, const timing::Trace& maintenance,
               std::uint64_t horizon)
      : demand_(demand), maintenance_(&maintenance), horizon_(horizon) {
    Reset();
  }

  bool Next(timing::Request& out) override {
    if (have_demand_ && (pos_ >= maintenance_->size() ||
                         demand_req_.arrival <= (*maintenance_)[pos_].arrival)) {
      out = demand_req_;
      out.tag = 1;
      PullDemand();
      return true;
    }
    if (pos_ < maintenance_->size()) {
      out = (*maintenance_)[pos_++];
      out.tag = 0;
      return true;
    }
    return false;
  }

  void Reset() override {
    demand_.Reset();
    pos_ = 0;
    PullDemand();
  }

 private:
  /// Demand requests past the horizon never entered the functional pass,
  /// so they are excluded from the timing pass too; the stream is sorted,
  /// making the cut a clean prefix.
  void PullDemand() {
    have_demand_ = demand_.Next(demand_req_) && demand_req_.arrival <= horizon_;
  }

  timing::RequestSource& demand_;
  const timing::Trace* maintenance_;
  std::uint64_t horizon_;
  timing::Request demand_req_;
  bool have_demand_ = false;
  std::size_t pos_ = 0;
};

}  // namespace

void SystemConfig::Validate() const {
  geometry.Validate();
  timing.Validate();
  PAIR_CHECK(faults_per_mcycle >= 0.0,
             "SystemConfig: negative fault rate " << faults_per_mcycle);
  PAIR_CHECK(working_rows != 0 && lines_per_row != 0,
             "SystemConfig: empty working set");
  PAIR_CHECK(scrub.rows_per_step != 0,
             "SystemConfig: scrub.rows_per_step must be positive");
  // Working-set rows land in geometry banks; the timing model must know
  // every bank the maintenance traffic can address.
  PAIR_CHECK(geometry.device.banks <= timing.banks,
             "SystemConfig: geometry has " << geometry.device.banks
                                           << " banks but the timing model "
                                           << timing.banks);
}

MemorySystem::MemorySystem(const SystemConfig& config,
                           const reliability::WorkingSet& ws,
                           timing::RequestSource& demand,
                           util::Xoshiro256& rng)
    : config_(config),
      ws_(ws),
      demand_(demand),
      rng_(rng),
      ctx_(config.geometry, config.scheme, ws, rng),
      injector_(ctx_.MakeInjector()),
      scrub_(config.scrub, static_cast<unsigned>(ws.rows.size())),
      repair_(config.repair, static_cast<unsigned>(ws.rows.size())),
      horizon_(config.horizon_cycles) {
  PAIR_CHECK(config.horizon_cycles != 0,
             "MemorySystem requires an explicit horizon_cycles (the horizon "
             "cannot be derived without consuming the stream; see "
             "ScanDemand)");
}

std::size_t MemorySystem::SlotOf(const dram::Address& addr) const noexcept {
  // Counter-style hash: the same demand address always touches the same
  // ground-truth line, spreading the trace's locality structure over the
  // working set deterministically.
  const std::uint64_t key = (static_cast<std::uint64_t>(addr.bank) << 42) ^
                            (static_cast<std::uint64_t>(addr.row) << 21) ^
                            static_cast<std::uint64_t>(addr.col);
  return static_cast<std::size_t>(util::SplitMix64::Mix(key) %
                                  ctx_.lines.size());
}

std::uint64_t MemorySystem::NextFaultGap(util::Xoshiro256& rng) const {
  const double lambda = config_.faults_per_mcycle / 1e6;
  // Exponential inter-arrival via inversion; UniformDouble() is in [0, 1).
  const double gap = -std::log(1.0 - rng.UniformDouble()) / lambda;
  if (!(gap >= 1.0)) return 1;
  if (gap >= static_cast<double>(horizon_) + 2.0) return horizon_ + 1;
  return static_cast<std::uint64_t>(gap);
}

void MemorySystem::EmitMaintenance(std::uint64_t cycle, timing::Op op,
                                   const dram::Address& addr) {
  timing::Request req;
  req.arrival = cycle;
  req.op = op;
  req.rank = 0;
  req.addr = addr;
  maintenance_.push_back(req);
}

void MemorySystem::Run(SystemStats& stats, reliability::TrialTelemetry& tel,
                       DemandReadObserver* observer) {
  EventQueue queue;
  if (config_.faults_per_mcycle > 0.0)
    queue.Push(NextFaultGap(rng_), EventKind::kFaultArrival);
  if (scrub_.PatrolEnabled())
    queue.Push(scrub_.Interval(), EventKind::kScrubStep);
  // Demand events are inserted lazily — one look-ahead request instead of
  // the whole trace — so streaming sources run in constant memory. At most
  // one kDemand event is ever queued, which preserves the legacy pop
  // order: demand-vs-demand ties cannot arise (the next is pushed only
  // when the current pops, and streams are sorted), and ties against the
  // other kinds are broken by kind, which dominates the push sequence.
  demand_.Reset();
  timing::Request demand_req;
  bool have_demand =
      demand_.Next(demand_req) && demand_req.arrival <= horizon_;
  if (have_demand) queue.Push(demand_req.arrival, EventKind::kDemand);

  bool saw_sdc = false;
  bool saw_due = false;
  bool observer_abort = false;
  std::uint64_t first_sdc_cycle = horizon_;
  std::vector<unsigned> step_rows;

  // ---- functional pass: one event queue interleaves all four streams ----
  while (!observer_abort && !queue.Empty()) {
    const Event e = queue.Pop();
    // Pop order is non-decreasing in cycle: everything left is also beyond
    // the horizon, including the self-rescheduling fault/scrub chains.
    if (e.cycle > horizon_) break;
    switch (e.kind) {
      case EventKind::kFaultArrival: {
        injector_.InjectFromMix(config_.mix, rng_);
        ++stats.faults_injected;
        queue.Push(e.cycle + NextFaultGap(rng_), EventKind::kFaultArrival);
        break;
      }
      case EventKind::kScrubStep: {
        scrub_.NextStep(step_rows);
        for (const unsigned slot : step_rows) {
          const faults::RowRef& r = ws_.rows[slot];
          ctx_.ScrubRow(slot);
          ++stats.scrub_rows_scrubbed;
          // The sweep's bus cost: read every working line of the row and
          // write the repaired image back.
          for (const unsigned col : ws_.cols) {
            EmitMaintenance(e.cycle, timing::Op::kRead, {r.bank, r.row, col});
            EmitMaintenance(e.cycle, timing::Op::kWrite, {r.bank, r.row, col});
          }
        }
        ++stats.scrub_steps;
        queue.Push(e.cycle + scrub_.Interval(), EventKind::kScrubStep);
        break;
      }
      case EventKind::kRepair: {
        const faults::RowRef& r = ws_.rows[e.payload];
        // Repairs (PAIR erasures, row sparing) change how other rows
        // decode, so every row is written before the first one runs, and
        // no operation recorded before a repair is repeated after it.
        ctx_.MaterializeAll();
        repair_.Execute(e.payload, *ctx_.scheme, r.bank, r.row);
        ctx_.Invalidate();
        // March cost at column granularity: save + complement-write +
        // read-back + restore per working line.
        for (const unsigned col : ws_.cols) {
          EmitMaintenance(e.cycle, timing::Op::kRead, {r.bank, r.row, col});
          EmitMaintenance(e.cycle, timing::Op::kWrite, {r.bank, r.row, col});
          EmitMaintenance(e.cycle, timing::Op::kRead, {r.bank, r.row, col});
          EmitMaintenance(e.cycle, timing::Op::kWrite, {r.bank, r.row, col});
        }
        break;
      }
      case EventKind::kDemand: {
        const timing::Request req = demand_req;  // the pull below overwrites it
        have_demand =
            demand_.Next(demand_req) && demand_req.arrival <= horizon_;
        if (have_demand) queue.Push(demand_req.arrival, EventKind::kDemand);
        const std::size_t slot = SlotOf(req.addr);
        if (req.op == timing::Op::kRead) {
          const reliability::LineRead read = ctx_.ReadLine(slot);
          const reliability::Outcome outcome = read.outcome;
          tel.corrected_units.Record(read.corrected_units);
          ++stats.demand_reads;
          switch (outcome) {
            case reliability::Outcome::kNoError: ++stats.no_error; break;
            case reliability::Outcome::kCorrected: ++stats.corrected; break;
            case reliability::Outcome::kDue: ++stats.due; break;
            case reliability::Outcome::kSdcMiscorrected:
              ++stats.sdc_miscorrected;
              break;
            case reliability::Outcome::kSdcUndetected:
              ++stats.sdc_undetected;
              break;
          }
          if (outcome == reliability::Outcome::kDue) {
            saw_due = true;
            const unsigned row_slot =
                static_cast<unsigned>(slot / ws_.cols.size());
            if (repair_.OnDue(row_slot))
              queue.Push(e.cycle + repair_.Latency(), EventKind::kRepair,
                         row_slot);
          }
          if (reliability::IsSdc(outcome) && !saw_sdc) {
            saw_sdc = true;
            first_sdc_cycle = e.cycle;
          }
          if (outcome == reliability::Outcome::kCorrected &&
              scrub_.DemandWriteback()) {
            ctx_.ScrubLine(slot);
            ++stats.demand_writebacks;
            EmitMaintenance(e.cycle, timing::Op::kWrite, ws_.addrs[slot]);
          }
          if (observer != nullptr &&
              !observer->OnDemandRead(outcome, rng_))
            observer_abort = true;
        } else {
          // Demand write: the host re-writes the line's current contents
          // (ground truth is unchanged; transient damage in the written
          // cells is overwritten, stuck cells swallow the write).
          ctx_.WriteLine(slot);
          ++stats.demand_writes;
        }
        break;
      }
    }
  }

  // Observer-driven runs are functional-only re-simulations: the splitting
  // tree re-runs the functional pass many times per root trial and reads
  // everything it needs out of the observer, so the timing pass and stats
  // finalization would be pure waste (and partial stats would be biased).
  if (observer != nullptr) {
    maintenance_.clear();
    return;
  }

  // ---- timing pass: the demand stream is rewound and merged on the fly
  // with the generated maintenance traffic, then pulled through the
  // controller (which mirrors every command into the protocol checker).
  // Nothing is materialized: latency accounting happens in the completion
  // hook, keyed on the merge's demand tag, and the percentile vector is
  // disabled — the sums and fixed-bucket histogram are order-independent,
  // so the stats stay bitwise identical to the sorted-vector era. ----
  MergedSource merged(demand_, maintenance_, horizon_);

  timing::Controller controller(
      config_.timing,
      timing::SchemeTiming::FromPerf(ctx_.scheme->Perf(), config_.timing), 16,
      timing::PagePolicy::kOpen, config_.scheduler);
  const timing::SimStats ts = controller.Run(
      merged,
      [&stats](const timing::Request& req, std::uint64_t /*index*/) {
        if (req.tag == 1 && req.op == timing::Op::kRead) {
          const std::uint64_t latency = req.Latency();
          stats.read_latency_sum += latency;
          stats.read_latency.Record(latency);
        }
      },
      /*track_latency_percentiles=*/false);
  stats.protocol_violations += controller.checker().violations().size();
  PAIR_DCHECK(controller.checker().violations().empty(),
              "sim command stream violated DRAM protocol: "
                  << controller.checker().violations().front());

  stats.sim_cycles += ts.cycles;
  stats.bus_reads += ts.reads;
  stats.bus_writes += ts.writes;
  stats.row_hits += ts.row_hits;
  stats.row_misses += ts.row_misses;
  stats.row_conflicts += ts.row_conflicts;
  stats.refreshes += ts.refreshes;

  ++stats.trials;
  stats.trials_with_sdc += saw_sdc ? 1 : 0;
  stats.trials_with_due += saw_due ? 1 : 0;
  stats.trials_with_failure += (saw_sdc || saw_due) ? 1 : 0;
  stats.first_sdc_cycle_sum += first_sdc_cycle;
  stats.repair += repair_.counters();

  // Harvest codec + injection counters; pure reads, no RNG draws.
  tel.codec += ctx_.Counters();
  tel.injection += injector_.counters();
  maintenance_.clear();
}

RequestSourceFactory VectorSourceFactory(timing::Trace trace) {
  auto shared = std::make_shared<const timing::Trace>(std::move(trace));
  return [shared] { return std::make_unique<timing::VectorSource>(*shared); };
}

StreamingDemandInfo ScanDemand(const SystemConfig& config,
                               const RequestSourceFactory& factory) {
  config.Validate();
  PAIR_CHECK(factory != nullptr, "no demand RequestSourceFactory given");
  const std::unique_ptr<timing::RequestSource> source = factory();
  PAIR_CHECK(source != nullptr, "RequestSourceFactory returned null");
  source->Reset();
  // One request of look-back: the scan never materializes the stream.
  timing::Request req;
  std::uint64_t count = 0;
  std::uint64_t last_arrival = 0;
  while (source->Next(req)) {
    PAIR_CHECK(req.addr.bank < config.timing.banks,
               "demand request " << count << ": bank " << req.addr.bank
                                 << " outside the timing model's "
                                 << config.timing.banks);
    PAIR_CHECK(req.rank < config.timing.ranks,
               "demand request " << count << ": rank " << req.rank << " of "
                                 << config.timing.ranks);
    PAIR_CHECK(count == 0 || req.arrival >= last_arrival,
               "demand trace must be sorted by arrival (request " << count
                                                                  << ")");
    last_arrival = req.arrival;
    ++count;
  }
  StreamingDemandInfo info;
  info.requests = count;
  info.horizon_cycles = config.horizon_cycles != 0
                            ? config.horizon_cycles
                            : last_arrival + kDrainMarginCycles;
  return info;
}

SystemStats RunSystemCampaignStreaming(const SystemConfig& config,
                                       const RequestSourceFactory& factory,
                                       std::uint64_t trials,
                                       reliability::ScenarioTelemetry* telemetry,
                                       StreamingDemandInfo* info) {
  const StreamingDemandInfo scan = ScanDemand(config, factory);
  if (info != nullptr) *info = scan;
  SystemConfig cfg = config;
  cfg.horizon_cycles = scan.horizon_cycles;
  const reliability::WorkingSet ws = MakeSystemWorkingSet(cfg);

  const reliability::TrialEngine engine(cfg.threads);
  SystemShardState accum = engine.Run<SystemShardState>(
      cfg.seed, trials,
      [&cfg, &ws, &factory](std::uint64_t /*trial*/, util::Xoshiro256& rng,
                            SystemShardState& acc) {
        // Each trial owns a fresh source: worker threads never share
        // stream state, and every source replays the same sequence.
        const std::unique_ptr<timing::RequestSource> source = factory();
        MemorySystem system(cfg, ws, *source, rng);
        system.Run(acc.stats, acc.tel);
      },
      telemetry != nullptr ? &telemetry->engine : nullptr);
  if (telemetry != nullptr) telemetry->trial = std::move(accum.tel);
  return accum.stats;
}

SystemStats RunSystemCampaign(const SystemConfig& config,
                              const timing::Trace& demand,
                              std::uint64_t trials,
                              reliability::ScenarioTelemetry* telemetry) {
  return RunSystemCampaignStreaming(
      config,
      [&demand] { return std::make_unique<timing::VectorSource>(demand); },
      trials, telemetry);
}

void AddSystemStats(telemetry::Report& report, const SystemStats& stats,
                    double tck_ns) {
  telemetry::AddFieldCounters(report, stats, "system.");
  report.AddMetric("system.sdc_probability", stats.SdcProbability());
  report.AddMetric("system.due_probability", stats.DueProbability());
  report.AddMetric("system.avg_read_latency_cycles", stats.AvgReadLatency());
  report.AddMetric("system.bytes_per_cycle", stats.BytesPerCycle());
  report.AddMetric("system.bandwidth_gbps", stats.BytesPerCycle() / tck_ns);
  report.AddMetric("system.avg_cycles_per_trial", stats.AvgCyclesPerTrial());
  report.AddMetric("system.mean_first_sdc_cycle", stats.MeanFirstSdcCycle());
}

telemetry::Report BuildSystemReport(
    const SystemConfig& config, std::uint64_t trials,
    std::size_t demand_requests,
    const SystemStats& stats, const reliability::ScenarioTelemetry& telemetry) {
  telemetry::Report report("pairsim-system");
  report.MetaString("scheme", ecc::ToString(config.scheme));
  report.MetaString("scheduler", timing::ToString(config.scheduler));
  report.MetaInt("seed", static_cast<std::int64_t>(config.seed));
  report.MetaInt("trials", static_cast<std::int64_t>(trials));
  report.MetaInt("shards", ShardCount(trials));
  report.MetaInt("demand_requests",
                 static_cast<std::int64_t>(demand_requests));
  report.MetaReal("faults_per_mcycle", config.faults_per_mcycle);
  report.MetaInt("horizon_cycles",
                 static_cast<std::int64_t>(config.horizon_cycles));
  report.MetaInt("scrub_interval_cycles",
                 static_cast<std::int64_t>(config.scrub.interval_cycles));
  report.MetaInt("scrub_rows_per_step", config.scrub.rows_per_step);
  report.MetaInt("demand_writeback", config.scrub.demand_writeback ? 1 : 0);
  report.MetaInt("due_threshold", config.repair.due_threshold);
  report.MetaInt("repair_latency_cycles",
                 static_cast<std::int64_t>(config.repair.repair_latency_cycles));
  report.MetaInt("enable_sparing", config.repair.enable_sparing ? 1 : 0);
  report.MetaInt("working_rows", config.working_rows);
  report.MetaInt("lines_per_row", config.lines_per_row);

  AddSystemStats(report, stats, config.timing.tck_ns);
  reliability::AddTrialTelemetry(report, telemetry.trial);
  reliability::AddEngineTiming(report, telemetry.engine);
  return report;
}

}  // namespace pair_ecc::sim
