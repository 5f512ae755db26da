// pairsim — command-line front-end for the PAIR reproduction.
//
//   pairsim codes
//       Print every scheme's code configuration and overheads.
//   pairsim reliability [--scheme S] [--mix M] [--faults N] [--trials T]
//                       [--seed X] [--threads W] [--json FILE]
//                       [--tilt identity|rate|forced] [--tilt-lambda L]
//                       [--tilt-proposal Q] [--tilt-min A] [--tilt-max B]
//       Single-shot Monte-Carlo outcome breakdown. An active --tilt swaps
//       the fixed fault count for an importance-sampled Poisson proposal
//       (reliability/variance_reduction.hpp) and reports the weighted
//       estimate, ESS, and acceleration diagnostics.
//   pairsim lifetime    [--scheme S] [--epochs E] [--rate R] [--scrub K]
//                       [--trials T] [--seed X] [--threads W] [--json FILE]
//       Fault accumulation over a deployment window with patrol scrubbing.
//   pairsim perf        [--scheme S] [--pattern P] [--reads F]
//                       [--requests N] [--intensity I] [--seed X]
//                       [--trace FILE] [--save-trace FILE]
//       Cycle-approximate DDR4 simulation, normalised to No-ECC.
//   pairsim system      [--scheme S] [--trace FILE | --trace-gen KIND |
//                       --pattern P --requests N] [--geometry G]
//                       [--scheduler frfcfs|fcfs|prac] [--stream 1]
//                       [--fault-rate R] [--scrub-interval C]
//                       [--due-threshold K] [--trials T] [--seed X]
//                       [--threads W] [--json FILE]
//       Event-driven full-system lifetimes: demand traffic, Poisson fault
//       arrivals, patrol scrub, and threshold repair interleaved over one
//       event queue, timed by the memory controller (src/sim).
//       --geometry selects a device/timing preset (ddr4-3200, ddr5-4800,
//       hbm3); --scheduler the controller policy. --trace-gen KIND
//       (tensor|pointer|batch) streams a synthetic AI/HPC workload in
//       constant memory; gzip/zstd traces and --stream 1 are re-read per
//       trial too, plain --trace files are parsed once and replayed from
//       memory (same results either way).
//   pairsim trace --gen tensor|pointer|batch --requests N --out FILE
//       Write a synthetic streaming workload as a trace file (gzip when
//       FILE ends in .gz) for CI fixtures and cross-tool runs.
//   pairsim campaign run --checkpoint FILE [--mode reliability|system]
//                        [--shard i/N] [--checkpoint-every K]
//                        [--max-shards M] [--json FILE] [mode flags...]
//       Crash-safe resumable campaign. Reliability campaigns accept the
//       same --tilt* flags as `pairsim reliability` (tilt parameters join
//       the config fingerprint, so mismatched tilts refuse to resume or
//       merge); system campaigns accept --split-levels "1,2,4" and
//       --split-replicas R for multilevel splitting over the cumulative
//       non-clean-demand-read level function (sim/splitting.hpp).
//       Accumulator state is periodically
//       persisted to a checksummed checkpoint (atomic replace), SIGINT/
//       SIGTERM drain the in-flight shard and exit 3 ("interrupted,
//       resumable" — rerun the same command to resume), and --shard i/N
//       runs one slice of a cross-process split.
//   pairsim campaign merge --json FILE [--fleet-devices D --fleet-years Y
//                          [--trial-years T]] CKPT...
//       Validate completed slice checkpoints (coverage, config hash,
//       checksums) and merge them into the campaign report — byte-identical
//       to an uninterrupted single-process run. Fleet flags add expected
//       fleet-failure projections with Wilson CIs.
//
// --json FILE writes a versioned "pair-report" JSON document (schema in
// docs/ARCHITECTURE.md §8): deterministic counters + metrics, wall-clock
// in the separable "timing" section. Compare two with tools/bench_diff.
//
// Monte-Carlo commands shard trials over --threads workers (default: all
// hardware threads); results are bitwise identical for any thread count.
// PAIR_TRIALS in the environment overrides --trials for campaign run
// (the same knob the bench binaries honour).
//
// Exit codes: 0 success, 1 error, 2 usage, 3 campaign interrupted but
// resumable.
//
// Schemes:  noecc iecc secded iecc+secded xed duo pair2 pair4 pair4+secded
// Mixes:    inherent cellonly clustered
// Patterns: stream random hotspot linear strided
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "dram/rank.hpp"
#include "ecc/scheme.hpp"
#include "reliability/engine.hpp"
#include "reliability/lifetime.hpp"
#include "reliability/monte_carlo.hpp"
#include "reliability/telemetry.hpp"
#include "reliability/variance_reduction.hpp"
#include "sim/campaign.hpp"
#include "sim/memory_system.hpp"
#include "telemetry/report.hpp"
#include "timing/controller.hpp"
#include "timing/presets.hpp"
#include "timing/request_source.hpp"
#include "timing/scheduler.hpp"
#include "util/atomic_file.hpp"
#include "util/table.hpp"
#include "workload/byte_source.hpp"
#include "workload/streams.hpp"
#include "workload/trace_io.hpp"
#include "workload/trace_stream.hpp"

using namespace pair_ecc;

namespace {

/// Set by the SIGINT/SIGTERM handler; the campaign runner polls it between
/// shards. Signal-handler writes to a lock-free atomic are the only
/// async-signal-safe communication the standard blesses.
std::atomic<bool> g_stop_requested{false};

const std::map<std::string, ecc::SchemeKind> kSchemes = {
    {"noecc", ecc::SchemeKind::kNoEcc},
    {"iecc", ecc::SchemeKind::kIecc},
    {"secded", ecc::SchemeKind::kSecDed},
    {"iecc+secded", ecc::SchemeKind::kIeccSecDed},
    {"xed", ecc::SchemeKind::kXed},
    {"duo", ecc::SchemeKind::kDuo},
    {"pair2", ecc::SchemeKind::kPair2},
    {"pair4", ecc::SchemeKind::kPair4},
    {"pair4+secded", ecc::SchemeKind::kPair4SecDed},
};

/// Minimal --flag value parser: every flag takes exactly one value.
/// Numeric getters reject trailing garbage, signs, and out-of-range
/// values with a one-line diagnostic naming the flag — a typo'd
/// `--trials 10k` must never silently truncate to 10.
class Args {
 public:
  Args(int argc, char** argv, int first, bool allow_positionals = false) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        if (!allow_positionals)
          throw std::runtime_error("expected --flag, got '" + key + "'");
        positionals_.push_back(std::move(key));
        continue;
      }
      if (i + 1 >= argc)
        throw std::runtime_error("flag " + key + " needs a value");
      values_[key.substr(2)] = argv[++i];
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) {
    consumed_.push_back(key);
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) {
    const auto s = Get(key, "");
    if (s.empty()) return fallback;
    try {
      std::size_t pos = 0;
      const double v = std::stod(s, &pos);
      if (pos != s.size()) throw std::invalid_argument("trailing garbage");
      return v;
    } catch (const std::exception&) {
      throw std::runtime_error("flag --" + key + ": invalid number '" + s +
                               "'");
    }
  }
  std::uint64_t GetU64(const std::string& key, std::uint64_t fallback) {
    const auto s = Get(key, "");
    if (s.empty()) return fallback;
    if (s.find_first_not_of("0123456789") != std::string::npos)
      throw std::runtime_error("flag --" + key +
                               ": invalid non-negative integer '" + s + "'");
    try {
      return std::stoull(s);
    } catch (const std::exception&) {
      throw std::runtime_error("flag --" + key + ": value '" + s +
                               "' is out of range");
    }
  }
  unsigned GetUnsigned(const std::string& key, unsigned fallback) {
    const std::uint64_t v = GetU64(key, fallback);
    if (v > std::numeric_limits<unsigned>::max())
      throw std::runtime_error("flag --" + key + ": value " +
                               std::to_string(v) + " is out of range");
    return static_cast<unsigned>(v);
  }

  const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

  /// Errors on flags nobody asked for (typo protection).
  void CheckAllConsumed() const {
    for (const auto& [key, value] : values_) {
      bool known = false;
      for (const auto& c : consumed_) known |= c == key;
      if (!known) throw std::runtime_error("unknown flag --" + key);
    }
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> consumed_;
  std::vector<std::string> positionals_;
};

ecc::SchemeKind ParseScheme(const std::string& name) {
  const auto it = kSchemes.find(name);
  if (it == kSchemes.end())
    throw std::runtime_error("unknown scheme '" + name + "'");
  return it->second;
}

faults::FaultMix ParseMix(const std::string& name) {
  if (name == "inherent") return faults::FaultMix::Inherent();
  if (name == "cellonly") return faults::FaultMix::CellOnly();
  if (name == "clustered") return faults::FaultMix::Clustered();
  throw std::runtime_error("unknown mix '" + name + "'");
}

/// `--pattern` takes one of the five classic patterns; `--trace-gen` and
/// `trace --gen` one of the three AI shapes. Both name a StreamKind.
constexpr workload::StreamKind kPatterns[] = {
    workload::StreamKind::kStream, workload::StreamKind::kRandom,
    workload::StreamKind::kHotspot, workload::StreamKind::kLinear,
    workload::StreamKind::kStrided};
constexpr workload::StreamKind kShapes[] = {
    workload::StreamKind::kTensorStream, workload::StreamKind::kPointerChase,
    workload::StreamKind::kBatchInference};

workload::StreamKind ParseKind(const std::string& name,
                               std::span<const workload::StreamKind> kinds,
                               const std::string& what) {
  std::string names;
  for (const workload::StreamKind kind : kinds) {
    if (workload::ToString(kind) == name) return kind;
    names += (names.empty() ? "" : "|") + workload::ToString(kind);
  }
  throw std::runtime_error("unknown " + what + " '" + name + "' (want " +
                           names + ")");
}

/// PAIR_TRIALS environment override (the bench binaries' convention).
unsigned ResolveTrials(unsigned from_flags) {
  const char* env = std::getenv("PAIR_TRIALS");
  if (env == nullptr || *env == '\0') return from_flags;
  const std::string s(env);
  if (s.find_first_not_of("0123456789") != std::string::npos)
    throw std::runtime_error("PAIR_TRIALS: invalid non-negative integer '" +
                             s + "'");
  const unsigned long long v = std::stoull(s);
  if (v > std::numeric_limits<unsigned>::max())
    throw std::runtime_error("PAIR_TRIALS: value " + s + " is out of range");
  return static_cast<unsigned>(v);
}

std::string ReadFileBytes(const std::string& path, const std::string& what) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("cannot read " + what + " '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Prints "threads N, T <label> in X s (Y trials/sec)" for a Monte-Carlo
/// run that started at `start`.
void PrintTrialRate(unsigned threads, unsigned trials, const std::string& label,
                    std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  std::cout << "threads " << reliability::TrialEngine::ResolveThreads(threads)
            << ", " << trials << " " << label << " in "
            << util::Table::Fixed(elapsed.count(), 2) << " s ("
            << util::Table::Fixed(
                   static_cast<double>(trials) /
                       std::max(elapsed.count(), 1e-9), 1)
            << " trials/sec)\n";
}

void WriteReport(const telemetry::Report& report,
                 const std::string& json_path) {
  if (!telemetry::WriteReportFile(report, json_path))
    throw std::runtime_error("cannot write JSON report to " + json_path);
  std::cout << "report written to " << json_path << "\n";
}

int CmdCodes() {
  util::Table t({"scheme", "storage ovh", "extra beats (R/W)", "write RMW",
                 "decode ns"});
  for (const auto& [name, kind] : kSchemes) {
    dram::RankGeometry rg;
    dram::Rank rank(rg);
    auto scheme = ecc::MakeScheme(kind, rank);
    const auto p = scheme->Perf();
    t.AddRow({scheme->Name(),
              util::Table::Fixed(p.storage_overhead * 100, 2) + "%",
              std::to_string(p.extra_read_beats) + "/" +
                  std::to_string(p.extra_write_beats),
              p.write_rmw ? "yes" : "no",
              util::Table::Fixed(p.read_decode_ns, 1)});
  }
  t.Print(std::cout);
  return 0;
}

/// Tilt flags shared by `reliability` and `campaign run --mode reliability`.
/// Every flag is consumed even for the identity tilt, so CheckAllConsumed
/// stays a pure typo check. --tilt-proposal defaults to --tilt-lambda (pure
/// window conditioning); --tilt-min defaults to 1 for the forced kind.
reliability::TiltSpec ParseTiltFlags(Args& args) {
  reliability::TiltSpec tilt;
  tilt.kind = reliability::TiltKindFromString(args.Get("tilt", "identity"));
  const bool forced = tilt.kind == reliability::TiltKind::kForced;
  tilt.lambda = args.GetDouble("tilt-lambda", 1.0);
  tilt.proposal_lambda = args.GetDouble("tilt-proposal", tilt.lambda);
  tilt.min_faults = args.GetUnsigned("tilt-min", forced ? 1U : 0U);
  tilt.max_faults = args.GetUnsigned("tilt-max", reliability::kMaxTiltFaults);
  tilt.Validate();
  return tilt;
}

/// `pairsim reliability` with an active tilt: importance-sampled run with
/// weighted estimators alongside the raw (proposal-measure) breakdown.
int RunTiltedReliability(const reliability::ScenarioConfig& cfg,
                         const reliability::TiltSpec& tilt, unsigned trials,
                         const std::string& json_path) {
  const auto start = std::chrono::steady_clock::now();
  reliability::ScenarioTelemetry tel;
  const reliability::WeightedScenarioState state =
      reliability::RunWeightedMonteCarlo(cfg, tilt, trials, &tel);
  PrintTrialRate(cfg.threads, trials, "tilted trials", start);

  const reliability::TiltSampler sampler(tilt);
  const auto failure = reliability::EstimateWeightedRate(
      sampler, state.tally, reliability::WeightedEvent::kFailure);
  const auto sdc = reliability::EstimateWeightedRate(
      sampler, state.tally, reliability::WeightedEvent::kSdc);
  const auto due = reliability::EstimateWeightedRate(
      sampler, state.tally, reliability::WeightedEvent::kDue);

  util::Table t({"metric", "value"});
  t.AddRow({"tilt", std::string(reliability::ToString(tilt.kind)) +
                        ", lambda " + util::Table::Sci(tilt.lambda) +
                        " -> " + util::Table::Sci(tilt.proposal_lambda) +
                        ", window [" + std::to_string(tilt.min_faults) +
                        ", " + std::to_string(tilt.max_faults) + "]"});
  t.AddRow({"P(failure)/trial", util::Table::Sci(failure.estimate) + " +/- " +
                                    util::Table::Sci(failure.std_error)});
  t.AddRow({"P(SDC)/trial", util::Table::Sci(sdc.estimate) + " +/- " +
                                util::Table::Sci(sdc.std_error)});
  t.AddRow({"P(DUE)/trial", util::Table::Sci(due.estimate) + " +/- " +
                                util::Table::Sci(due.std_error)});
  t.AddRow({"effective sample size", util::Table::Fixed(failure.ess, 1)});
  t.AddRow({"relative variance",
            util::Table::Sci(failure.relative_variance)});
  t.AddRow({"naive-equivalent trials",
            util::Table::Sci(failure.naive_equiv_trials)});
  t.AddRow({"acceleration", util::Table::Sci(failure.acceleration)});
  t.AddRow({"tail mass below / above",
            util::Table::Sci(failure.tail_mass_below) + " / " +
                util::Table::Sci(failure.tail_mass_above)});
  t.Print(std::cout);

  if (!json_path.empty()) {
    auto report =
        reliability::BuildScenarioReport(cfg, trials, state.base.counts, tel);
    report.MetaString("tilt", reliability::ToString(tilt.kind));
    report.MetaReal("tilt_lambda", tilt.lambda);
    report.MetaReal("tilt_proposal", tilt.proposal_lambda);
    report.MetaInt("tilt_min", tilt.min_faults);
    report.MetaInt("tilt_max", tilt.max_faults);
    reliability::AddWeightedMetrics(report, tilt, state.tally);
    WriteReport(report, json_path);
  }
  return 0;
}

/// Scenario flags shared by `reliability` and `campaign run --mode
/// reliability`. Scheme/mix names are kept for config fingerprints.
struct ScenarioFlags {
  reliability::ScenarioConfig cfg;
  std::string scheme_name;
  std::string mix_name;
};

ScenarioFlags ParseScenarioFlags(Args& args) {
  ScenarioFlags f;
  f.scheme_name = args.Get("scheme", "pair4");
  f.mix_name = args.Get("mix", "inherent");
  f.cfg.scheme = ParseScheme(f.scheme_name);
  f.cfg.mix = ParseMix(f.mix_name);
  f.cfg.faults_per_trial = args.GetUnsigned("faults", 2);
  f.cfg.seed = args.GetU64("seed", 1);
  f.cfg.threads = args.GetUnsigned("threads", 0);
  return f;
}

int CmdReliability(Args& args) {
  const reliability::ScenarioConfig cfg = ParseScenarioFlags(args).cfg;
  const reliability::TiltSpec tilt = ParseTiltFlags(args);
  const unsigned trials = args.GetUnsigned("trials", 500);
  const std::string json_path = args.Get("json", "");
  args.CheckAllConsumed();

  // The identity tilt must be byte-identical to omitting the flags, so it
  // takes the pre-existing unweighted path below verbatim.
  if (tilt.Active()) return RunTiltedReliability(cfg, tilt, trials, json_path);

  const auto start = std::chrono::steady_clock::now();
  reliability::ScenarioTelemetry tel;
  const auto c = reliability::RunMonteCarlo(cfg, trials, &tel);
  PrintTrialRate(cfg.threads, trials, "trials", start);
  util::Table t({"metric", "value"});
  const auto frac = [&](std::uint64_t v) {
    return util::Table::Sci(static_cast<double>(v) /
                            static_cast<double>(c.reads));
  };
  t.AddRow({"reads", std::to_string(c.reads)});
  t.AddRow({"clean", frac(c.no_error)});
  t.AddRow({"corrected", frac(c.corrected)});
  t.AddRow({"DUE", frac(c.due)});
  t.AddRow({"SDC (miscorrected)", frac(c.sdc_miscorrected)});
  t.AddRow({"SDC (undetected)", frac(c.sdc_undetected)});
  t.AddRow({"P(SDC)/trial", util::Table::Sci(c.TrialSdcRate())});
  const auto ci = c.TrialSdcInterval();
  t.AddRow({"  95% CI", "[" + util::Table::Sci(ci.lower) + ", " +
                            util::Table::Sci(ci.upper) + "]"});
  t.AddRow({"P(failure)/trial", util::Table::Sci(c.TrialFailureRate())});
  t.Print(std::cout);

  if (!json_path.empty())
    WriteReport(reliability::BuildScenarioReport(cfg, trials, c, tel),
                json_path);
  return 0;
}

int CmdLifetime(Args& args) {
  reliability::LifetimeConfig cfg;
  cfg.scheme = ParseScheme(args.Get("scheme", "pair4"));
  cfg.mix = ParseMix(args.Get("mix", "inherent"));
  cfg.epochs = args.GetUnsigned("epochs", 50);
  cfg.faults_per_epoch = args.GetDouble("rate", 0.1);
  cfg.scrub_interval = args.GetUnsigned("scrub", 0);
  cfg.seed = args.GetU64("seed", 1);
  cfg.threads = args.GetUnsigned("threads", 0);
  const unsigned trials = args.GetUnsigned("trials", 200);
  const std::string json_path = args.Get("json", "");
  args.CheckAllConsumed();

  const auto start = std::chrono::steady_clock::now();
  reliability::ScenarioTelemetry tel;
  const auto s = reliability::RunLifetime(cfg, trials, &tel);
  PrintTrialRate(cfg.threads, trials, "trials", start);
  util::Table t({"metric", "value"});
  t.AddRow({"trials", std::to_string(s.trials)});
  t.AddRow({"P(SDC) within horizon", util::Table::Sci(s.SdcProbability())});
  t.AddRow({"P(DUE) within horizon", util::Table::Sci(s.DueProbability())});
  t.AddRow({"mean first-SDC epoch", util::Table::Fixed(s.mean_sdc_epoch, 1)});
  t.AddRow({"corrections", std::to_string(s.total_corrections)});
  t.AddRow({"scrub passes", std::to_string(s.total_scrub_writebacks)});
  t.Print(std::cout);

  if (!json_path.empty())
    WriteReport(reliability::BuildLifetimeReport(cfg, trials, s, tel),
                json_path);
  return 0;
}

int CmdPerf(Args& args) {
  const auto kind = ParseScheme(args.Get("scheme", "pair4"));
  const std::string trace_path = args.Get("trace", "");
  const std::string save_path = args.Get("save-trace", "");

  workload::StreamConfig cfg;
  cfg.kind = ParseKind(args.Get("pattern", "hotspot"), kPatterns, "pattern");
  cfg.read_fraction = args.GetDouble("reads", 0.67);
  cfg.num_requests = args.GetUnsigned("requests", 30000);
  cfg.intensity = args.GetDouble("intensity", 0.12);
  cfg.stride = args.GetU64("stride", 1);
  cfg.xor_bank_hash = args.GetUnsigned("xor-hash", 0) != 0;
  cfg.ranks = args.GetUnsigned("ranks", 1);
  cfg.seed = args.GetU64("seed", 1);
  args.CheckAllConsumed();

  timing::Trace trace = trace_path.empty()
                            ? timing::Materialize(*workload::MakeStream(cfg))
                            : workload::ReadTraceFile(trace_path);
  if (!save_path.empty()) workload::WriteTraceFile(trace, save_path);

  timing::TimingParams params = timing::TimingParams::Ddr4_3200();
  params.ranks = cfg.ranks;
  auto run = [&](ecc::SchemeKind k, timing::Trace t_in) {
    dram::RankGeometry rg;
    dram::Rank rank(rg);
    auto scheme = ecc::MakeScheme(k, rank);
    timing::Controller ctrl(
        params, timing::SchemeTiming::FromPerf(scheme->Perf(), params));
    const auto stats = ctrl.Run(t_in);
    if (!ctrl.checker().violations().empty())
      throw std::runtime_error("protocol violation: " +
                               ctrl.checker().violations().front());
    return stats;
  };
  const auto base = run(ecc::SchemeKind::kNoEcc, trace);
  const auto stats = run(kind, trace);

  util::Table t({"metric", "value"});
  t.AddRow({"requests", std::to_string(stats.reads + stats.writes)});
  t.AddRow({"cycles", std::to_string(stats.cycles)});
  t.AddRow({"avg read latency (cyc)",
            util::Table::Fixed(stats.avg_read_latency, 1)});
  t.AddRow({"p99 read latency (cyc)",
            util::Table::Fixed(stats.p99_read_latency, 0)});
  t.AddRow({"bandwidth (GB/s)",
            util::Table::Fixed(stats.BytesPerCycle() / params.tck_ns, 2)});
  t.AddRow({"bus utilization", util::Table::Fixed(stats.bus_utilization, 3)});
  t.AddRow({"refreshes", std::to_string(stats.refreshes)});
  t.AddRow({"normalized perf vs No-ECC",
            util::Table::Fixed(static_cast<double>(base.cycles) /
                                   static_cast<double>(stats.cycles),
                               3)});
  t.Print(std::cout);
  return 0;
}

/// Builds the system config + synthetic-workload config from flags —
/// shared by `system` and `campaign run --mode system` so both accept the
/// same knobs. Scheme/mix names are returned for config fingerprints.
struct SystemFlags {
  sim::SystemConfig cfg;
  workload::StreamConfig stream;  ///< the demand unless --trace is given
  std::string scheme_name;
  std::string mix_name;
  std::string trace_path;
  std::string geometry_name;
  std::string scheduler_name;
  bool trace_gen = false;  ///< --trace-gen picked an AI shape over --pattern
  bool force_stream = false;
};

SystemFlags ParseSystemFlags(Args& args) {
  SystemFlags f;
  f.scheme_name = args.Get("scheme", "pair4");
  f.mix_name = args.Get("mix", "inherent");
  f.cfg.scheme = ParseScheme(f.scheme_name);
  f.cfg.mix = ParseMix(f.mix_name);
  // Geometry preset: device geometry + timing parameters as one coherent
  // unit. The ddr4-3200 default reproduces the pre-preset defaults bitwise.
  const timing::GeometryPreset preset_kind =
      timing::GeometryPresetFromString(args.Get("geometry", "ddr4-3200"));
  const timing::SystemPreset preset = timing::MakePreset(preset_kind);
  f.geometry_name = timing::ToString(preset.kind);
  f.cfg.geometry = preset.geometry;
  f.cfg.timing = preset.timing;
  f.cfg.scheduler =
      timing::SchedulerKindFromString(args.Get("scheduler", "frfcfs"));
  f.scheduler_name = timing::ToString(f.cfg.scheduler);
  f.cfg.faults_per_mcycle = args.GetDouble("fault-rate", 20.0);
  f.cfg.horizon_cycles = args.GetU64("horizon", 0);
  f.cfg.scrub.interval_cycles = args.GetU64("scrub-interval", 5000);
  f.cfg.scrub.rows_per_step = args.GetUnsigned("scrub-rows", 1);
  f.cfg.scrub.demand_writeback = args.GetUnsigned("writeback", 1) != 0;
  f.cfg.repair.due_threshold = args.GetUnsigned("due-threshold", 3);
  f.cfg.repair.repair_latency_cycles = args.GetU64("repair-latency", 2000);
  f.cfg.repair.enable_sparing = args.GetUnsigned("sparing", 1) != 0;
  f.cfg.working_rows = args.GetUnsigned("rows", 2);
  f.cfg.lines_per_row = args.GetUnsigned("lines", 4);
  f.cfg.seed = args.GetU64("seed", 1);
  f.cfg.threads = args.GetUnsigned("threads", 0);
  f.trace_path = args.Get("trace", "");

  // Clean one-line diagnostics for the config mistakes a user can actually
  // make from the CLI; SystemConfig::Validate() stays the contract backstop.
  if (f.cfg.working_rows == 0)
    throw std::runtime_error("flag --rows: must be positive");
  if (f.cfg.lines_per_row == 0)
    throw std::runtime_error("flag --lines: must be positive");
  if (f.cfg.scrub.rows_per_step == 0)
    throw std::runtime_error("flag --scrub-rows: must be positive");
  if (f.cfg.faults_per_mcycle < 0.0)
    throw std::runtime_error("flag --fault-rate: must be non-negative");

  // One StreamConfig for the synthetic demand: --pattern picks a classic
  // pattern at --intensity, --trace-gen an AI shape at --stream-intensity
  // (and wins). The shape-only flags are always consumed, so
  // CheckAllConsumed stays a typo check, but only the shapes read them.
  workload::StreamConfig& stream = f.stream;
  stream.kind =
      ParseKind(args.Get("pattern", "hotspot"), kPatterns, "pattern");
  stream.read_fraction = args.GetDouble("reads", 0.67);
  stream.num_requests = args.GetUnsigned("requests", 400);
  stream.intensity = args.GetDouble("intensity", 0.05);
  // Synthetic workloads exercise every rank and bank the preset's timing
  // model has.
  stream.ranks = f.cfg.timing.ranks;
  stream.banks = f.cfg.timing.banks;
  stream.seed = f.cfg.seed;
  const std::string shape = args.Get("trace-gen", "");
  f.force_stream = args.GetUnsigned("stream", 0) != 0;
  const double shape_intensity = args.GetDouble("stream-intensity", 0.25);
  const unsigned burst = args.GetUnsigned("burst", 256);
  const unsigned gap = args.GetUnsigned("gap", 2000);
  const unsigned hot_rows = args.GetUnsigned("hot-rows", 4);
  if (!shape.empty()) {
    if (!f.trace_path.empty())
      throw std::runtime_error("--trace and --trace-gen are mutually "
                               "exclusive");
    f.trace_gen = true;
    stream.kind = ParseKind(shape, kShapes, "stream kind");
    stream.intensity = shape_intensity;
    stream.burst_len = burst;
    stream.gap_cycles = gap;
    stream.hot_rows = hot_rows;
  }
  return f;
}

void PrintSystemSummary(const sim::SystemStats& s,
                        const sim::SystemConfig& cfg) {
  util::Table t({"metric", "value"});
  t.AddRow({"trials", std::to_string(s.trials)});
  t.AddRow({"demand reads / writes", std::to_string(s.demand_reads) + " / " +
                                         std::to_string(s.demand_writes)});
  t.AddRow({"P(SDC) within horizon", util::Table::Sci(s.SdcProbability())});
  t.AddRow({"P(DUE) within horizon", util::Table::Sci(s.DueProbability())});
  t.AddRow({"corrected reads", std::to_string(s.corrected)});
  t.AddRow({"DUE reads", std::to_string(s.due)});
  t.AddRow({"faults injected", std::to_string(s.faults_injected)});
  t.AddRow({"rows patrol-scrubbed", std::to_string(s.scrub_rows_scrubbed)});
  t.AddRow({"demand writebacks", std::to_string(s.demand_writebacks)});
  t.AddRow({"repairs attempted", std::to_string(s.repair.repairs_attempted)});
  t.AddRow({"rows spared (PPR)", std::to_string(s.repair.rows_spared)});
  t.AddRow({"sparing exhausted", std::to_string(s.repair.sparing_exhausted)});
  t.AddRow({"avg read latency (cyc)",
            util::Table::Fixed(s.AvgReadLatency(), 1)});
  t.AddRow({"bandwidth (GB/s)",
            util::Table::Fixed(s.BytesPerCycle() / cfg.timing.tck_ns, 2)});
  t.AddRow({"protocol violations", std::to_string(s.protocol_violations)});
  t.Print(std::cout);
}

void WriteSystemReport(const sim::SystemConfig& cfg, unsigned trials,
                       std::uint64_t demand_requests,
                       const sim::SystemStats& s,
                       const reliability::ScenarioTelemetry& tel,
                       const SystemFlags& f, const std::string& demand_source,
                       const std::string& json_path) {
  auto report = sim::BuildSystemReport(
      cfg, trials, static_cast<std::size_t>(demand_requests), s, tel);
  report.MetaString("geometry", f.geometry_name);
  report.MetaString("demand_source", demand_source);
  WriteReport(report, json_path);
}

/// The demand of `system` and `campaign run --mode system`. Synthetic
/// kinds stream from the generator and compressed (or --stream 1) trace
/// files are re-read per trial, both in constant memory. Plain trace
/// files — and everything when `replay_from_memory` is set — are read
/// once and replayed from memory, trading RAM for a single parse.
struct Demand {
  sim::RequestSourceFactory factory;
  std::string name;  ///< the report's demand_source
  bool streamed = false;
};

Demand MakeDemand(const SystemFlags& f, bool replay_from_memory) {
  Demand demand;
  if (f.trace_path.empty()) {
    const workload::StreamConfig stream = f.stream;
    demand.factory = [stream] { return workload::MakeStream(stream); };
    demand.name = (f.trace_gen ? "stream:" : "pattern:") +
                  workload::ToString(stream.kind);
  } else {
    const std::string path = f.trace_path;
    demand.factory = [path]() -> std::unique_ptr<timing::RequestSource> {
      return workload::OpenTraceStream(path);
    };
    demand.name = path;
    replay_from_memory = replay_from_memory ||
                         (!f.force_stream && !workload::IsCompressedFile(path));
  }
  demand.streamed = !replay_from_memory;
  if (replay_from_memory)
    demand.factory =
        sim::VectorSourceFactory(timing::Materialize(*demand.factory()));
  return demand;
}

int CmdSystem(Args& args) {
  SystemFlags f = ParseSystemFlags(args);
  const unsigned trials = args.GetUnsigned("trials", 200);
  const std::string json_path = args.Get("json", "");
  args.CheckAllConsumed();
  const sim::SystemConfig& cfg = f.cfg;

  const Demand demand = MakeDemand(f, /*replay_from_memory=*/false);

  const auto start = std::chrono::steady_clock::now();
  reliability::ScenarioTelemetry tel;
  sim::StreamingDemandInfo dinfo;
  const sim::SystemStats s =
      sim::RunSystemCampaignStreaming(cfg, demand.factory, trials, &tel,
                                      &dinfo);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  std::cout << "threads "
            << reliability::TrialEngine::ResolveThreads(cfg.threads) << ", "
            << trials << " trials x " << dinfo.requests
            << (demand.streamed ? " streamed requests in " : " requests in ")
            << util::Table::Fixed(elapsed.count(), 2) << " s\n";
  PrintSystemSummary(s, cfg);

  if (!json_path.empty()) {
    // The report carries the horizon the trials actually ran to.
    sim::SystemConfig report_cfg = cfg;
    report_cfg.horizon_cycles = dinfo.horizon_cycles;
    WriteSystemReport(report_cfg, trials, dinfo.requests, s, tel, f,
                      demand.name, json_path);
  }
  return 0;
}

/// `pairsim trace`: materialize a synthetic streaming workload as a trace
/// file other tools (and CI) can replay; gzip output when FILE ends in .gz.
int CmdTrace(Args& args) {
  workload::StreamConfig cfg;
  cfg.kind = ParseKind(args.Get("gen", "tensor"), kShapes, "stream kind");
  cfg.num_requests = args.GetU64("requests", 100000);
  cfg.ranks = args.GetUnsigned("ranks", 1);
  cfg.banks = args.GetUnsigned("banks", 16);
  cfg.rows = args.GetUnsigned("rows", 64);
  cfg.cols = args.GetUnsigned("cols", 128);
  cfg.intensity = args.GetDouble("stream-intensity", 0.25);
  cfg.read_fraction = args.GetDouble("reads", 0.9);
  cfg.burst_len = args.GetUnsigned("burst", 256);
  cfg.gap_cycles = args.GetUnsigned("gap", 2000);
  cfg.hot_rows = args.GetUnsigned("hot-rows", 4);
  cfg.seed = args.GetU64("seed", 1);
  const std::string out = args.Get("out", "");
  args.CheckAllConsumed();
  cfg.Validate();
  if (out.empty()) throw std::runtime_error("trace requires --out FILE");

  const auto source = workload::MakeStream(cfg);
  const timing::Trace trace = timing::Materialize(*source);
  const bool gz = out.size() > 3 && out.compare(out.size() - 3, 3, ".gz") == 0;
  if (gz) {
    std::ostringstream buf;
    workload::WriteTrace(trace, buf);
    workload::GzipWriteFile(out, buf.str());
  } else {
    workload::WriteTraceFile(trace, out);
  }
  std::cout << "wrote " << trace.size() << " requests to " << out
            << (gz ? " (gzip)" : "") << "\n";
  return 0;
}

// ----------------------------------------------------------- campaign

extern "C" void HandleStopSignal(int /*signum*/) {
  g_stop_requested.store(true, std::memory_order_relaxed);
}

sim::FleetSpec ParseFleetFlags(Args& args) {
  sim::FleetSpec fleet;
  fleet.devices = args.GetDouble("fleet-devices", 0.0);
  fleet.years = args.GetDouble("fleet-years", 0.0);
  fleet.trial_years = args.GetDouble("trial-years", 5.0);
  if (fleet.devices < 0.0 || fleet.years < 0.0 || fleet.trial_years <= 0.0)
    throw std::runtime_error(
        "fleet flags: --fleet-devices/--fleet-years must be non-negative "
        "and --trial-years positive");
  return fleet;
}

void PrintCampaignReportSummary(const telemetry::Report& report) {
  const auto& c = report.counters();
  const telemetry::JsonValue json = report.ToJson(/*include_timing=*/false);
  const telemetry::JsonValue* metrics = json.Find("metrics");
  if (c.Get("split.root_trials") != 0) {
    // Splitting campaign: interior nodes are partial re-simulations, so the
    // weighted split.* estimate is the only meaningful failure rate.
    std::cout << "campaign totals: " << c.Get("split.root_trials")
              << " root trials over " << c.Get("split.nodes")
              << " simulated nodes (P(failure)/trial = "
              << util::Table::Sci(
                     metrics->Find("split.p_failure")->AsReal())
              << " +/- "
              << util::Table::Sci(
                     metrics->Find("split.p_failure_std_error")->AsReal())
              << ")\n";
    return;
  }
  const bool system = c.Get("system.trials") != 0 || c.Get("trials") == 0;
  const std::uint64_t trials =
      system ? c.Get("system.trials") : c.Get("trials");
  const std::uint64_t failures = system ? c.Get("system.trials_with_failure")
                                        : c.Get("trials_with_failure");
  std::cout << "campaign totals: " << trials << " trials, " << failures
            << " with failure";
  if (trials != 0)
    std::cout << " (P(failure)/trial = "
              << util::Table::Sci(static_cast<double>(failures) /
                                  static_cast<double>(trials))
              << ")";
  std::cout << "\n";
  const telemetry::JsonValue* is_p =
      metrics == nullptr ? nullptr : metrics->Find("is.p_failure");
  if (is_p != nullptr)
    // Tilted campaign: the raw counts above live in the proposal measure;
    // the importance-sampled estimate is the physical one.
    std::cout << "importance-sampled P(failure)/trial = "
              << util::Table::Sci(is_p->AsReal()) << " +/- "
              << util::Table::Sci(
                     metrics->Find("is.p_failure_std_error")->AsReal())
              << "\n";
}

int CmdCampaignRun(Args& args) {
  sim::CampaignSpec spec;
  const std::string mode_name = args.Get("mode", "reliability");
  spec.mode = sim::CampaignModeFromString(mode_name);
  spec.checkpoint_path = args.Get("checkpoint", "");
  spec.checkpoint_every = args.GetU64("checkpoint-every", 4);
  const std::string shard_spec = args.Get("shard", "");
  if (!shard_spec.empty()) spec.slice = sim::ParseShardSlice(shard_spec);
  const std::uint64_t max_shards = args.GetU64("max-shards", 0);
  const std::string json_path = args.Get("json", "");
  const sim::FleetSpec fleet = ParseFleetFlags(args);

  telemetry::JsonValue fp = telemetry::JsonValue::MakeObject();
  fp.Set("mode", telemetry::JsonValue(mode_name));
  unsigned trials = 0;

  if (spec.mode == sim::CampaignMode::kReliability) {
    const ScenarioFlags f = ParseScenarioFlags(args);
    const reliability::ScenarioConfig& cfg = f.cfg;
    spec.scenario = cfg;
    trials = ResolveTrials(args.GetUnsigned("trials", 500));
    fp.Set("scheme", telemetry::JsonValue(f.scheme_name));
    fp.Set("mix", telemetry::JsonValue(f.mix_name));
    fp.Set("faults_per_trial", telemetry::JsonValue(cfg.faults_per_trial));
    fp.Set("working_rows", telemetry::JsonValue(cfg.working_rows));
    fp.Set("lines_per_row", telemetry::JsonValue(cfg.lines_per_row));
    fp.Set("seed", telemetry::JsonValue(cfg.seed));
    fp.Set("trials", telemetry::JsonValue(trials));
    spec.tilt = ParseTiltFlags(args);
    // Tilt parameters are campaign identity: AddTiltFingerprint is a no-op
    // for the identity tilt, so untilted config hashes are unchanged.
    reliability::AddTiltFingerprint(fp, spec.tilt);
  } else {
    SystemFlags f = ParseSystemFlags(args);
    trials = ResolveTrials(args.GetUnsigned("trials", 200));
    spec.system = f.cfg;
    // Campaigns are about crash-safety, not trace scale (use `pairsim
    // system` for multi-GB streams): they replay their demand from memory
    // in every trial.
    spec.demand = MakeDemand(f, /*replay_from_memory=*/true).factory;
    fp.Set("scheme", telemetry::JsonValue(f.scheme_name));
    fp.Set("mix", telemetry::JsonValue(f.mix_name));
    // Geometry and scheduler are campaign identity: runs under different
    // presets or policies must never resume or merge into each other.
    fp.Set("geometry", telemetry::JsonValue(f.geometry_name));
    fp.Set("scheduler", telemetry::JsonValue(f.scheduler_name));
    fp.Set("faults_per_mcycle",
           telemetry::JsonValue(spec.system.faults_per_mcycle));
    fp.Set("horizon_cycles", telemetry::JsonValue(spec.system.horizon_cycles));
    fp.Set("scrub_interval_cycles",
           telemetry::JsonValue(spec.system.scrub.interval_cycles));
    fp.Set("scrub_rows_per_step",
           telemetry::JsonValue(spec.system.scrub.rows_per_step));
    fp.Set("demand_writeback",
           telemetry::JsonValue(spec.system.scrub.demand_writeback ? 1 : 0));
    fp.Set("due_threshold",
           telemetry::JsonValue(spec.system.repair.due_threshold));
    fp.Set("repair_latency_cycles",
           telemetry::JsonValue(spec.system.repair.repair_latency_cycles));
    fp.Set("enable_sparing",
           telemetry::JsonValue(spec.system.repair.enable_sparing ? 1 : 0));
    fp.Set("working_rows", telemetry::JsonValue(spec.system.working_rows));
    fp.Set("lines_per_row", telemetry::JsonValue(spec.system.lines_per_row));
    fp.Set("seed", telemetry::JsonValue(spec.system.seed));
    fp.Set("trials", telemetry::JsonValue(trials));
    fp.Set("tck_ns", telemetry::JsonValue(spec.system.timing.tck_ns));
    if (!f.trace_path.empty()) {
      // The demand trace is part of the campaign's identity: slices run
      // against different trace bytes must never merge.
      fp.Set("trace_crc32",
             telemetry::JsonValue(util::Crc32Hex(
                 ReadFileBytes(f.trace_path, "trace"))));
      fp.Set("trace_requests",
             telemetry::JsonValue(
                 sim::ScanDemand(spec.system, spec.demand).requests));
    } else if (f.trace_gen) {
      fp.Set("trace_gen",
             telemetry::JsonValue(workload::ToString(f.stream.kind)));
      fp.Set("requests", telemetry::JsonValue(f.stream.num_requests));
      fp.Set("read_fraction", telemetry::JsonValue(f.stream.read_fraction));
      fp.Set("stream_intensity", telemetry::JsonValue(f.stream.intensity));
      fp.Set("burst", telemetry::JsonValue(f.stream.burst_len));
      fp.Set("gap", telemetry::JsonValue(f.stream.gap_cycles));
      fp.Set("hot_rows", telemetry::JsonValue(f.stream.hot_rows));
    } else {
      fp.Set("pattern",
             telemetry::JsonValue(workload::ToString(f.stream.kind)));
      fp.Set("read_fraction", telemetry::JsonValue(f.stream.read_fraction));
      fp.Set("requests", telemetry::JsonValue(f.stream.num_requests));
      fp.Set("intensity", telemetry::JsonValue(f.stream.intensity));
    }
    const std::string split_levels = args.Get("split-levels", "");
    const std::string split_replicas = args.Get("split-replicas", "");
    if (!split_levels.empty()) {
      spec.split.thresholds = reliability::ParseSplitLevels(split_levels);
      if (!split_replicas.empty())
        spec.split.replicas = args.GetUnsigned("split-replicas", 4);
      spec.split.Validate();
      reliability::AddSplitFingerprint(fp, spec.split);
    } else if (!split_replicas.empty()) {
      throw std::runtime_error(
          "flag --split-replicas requires --split-levels");
    }
  }
  args.CheckAllConsumed();

  if (spec.checkpoint_path.empty())
    throw std::runtime_error("campaign run requires --checkpoint FILE");
  if (!json_path.empty() && spec.slice.count != 1)
    throw std::runtime_error(
        "campaign run --json covers the full campaign only; run slices "
        "without --json and combine them with 'pairsim campaign merge'");
  spec.trials = trials;
  spec.fingerprint = std::move(fp);

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  const auto start = std::chrono::steady_clock::now();
  const sim::CampaignProgress progress =
      sim::RunCampaign(spec, &g_stop_requested, max_shards);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  std::cout << "campaign " << mode_name << ": slice " << spec.slice.index
            << "/" << spec.slice.count << " = shards ["
            << progress.first_shard << ", " << progress.end_shard << ") of "
            << progress.total_shards << (progress.resumed ? ", resumed" : "")
            << ", " << progress.trials_done << " trials done in "
            << util::Table::Fixed(elapsed.count(), 2) << " s\n";

  if (!progress.complete) {
    std::cout << "campaign interrupted at shard " << progress.next_shard
              << " of [" << progress.first_shard << ", "
              << progress.end_shard << "); checkpoint saved to '"
              << spec.checkpoint_path
              << "' — rerun the same command to resume\n";
    return 3;
  }
  std::cout << "slice complete; checkpoint finalised at '"
            << spec.checkpoint_path << "'\n";

  if (!json_path.empty()) {
    const telemetry::Report report =
        sim::MergeCampaignCheckpoints({spec.checkpoint_path}, fleet);
    PrintCampaignReportSummary(report);
    WriteReport(report, json_path);
  }
  return 0;
}

int CmdCampaignMerge(Args& args) {
  const std::string json_path = args.Get("json", "");
  const sim::FleetSpec fleet = ParseFleetFlags(args);
  args.CheckAllConsumed();
  const std::vector<std::string>& paths = args.positionals();
  if (paths.empty())
    throw std::runtime_error(
        "campaign merge: no checkpoint files given (pass them as "
        "positional arguments)");

  const telemetry::Report report =
      sim::MergeCampaignCheckpoints(paths, fleet);
  std::cout << "merged " << paths.size() << " checkpoint(s)\n";
  PrintCampaignReportSummary(report);
  const double expected =
      // 0.0 when fleet projection is disabled (metric absent).
      fleet.devices > 0.0 && fleet.years > 0.0
          ? report.ToJson(false).Find("metrics")
                ->Find("fleet.expected_failures")->AsReal()
          : 0.0;
  if (fleet.devices > 0.0 && fleet.years > 0.0)
    std::cout << "fleet projection: " << util::Table::Fixed(expected, 2)
              << " expected failures across "
              << util::Table::Fixed(fleet.devices, 0) << " devices over "
              << util::Table::Fixed(fleet.years, 1) << " years\n";

  if (!json_path.empty()) WriteReport(report, json_path);
  return 0;
}

int Usage(std::ostream& out = std::cerr) {
  out
      << "usage: pairsim "
         "<codes|reliability|lifetime|perf|system|trace|campaign> "
         "[--flag value]...\n"
         "  pairsim codes\n"
         "  pairsim reliability --scheme pair4 --mix inherent --faults 2\n"
         "                      [--threads 8] [--json out.json]\n"
         "                      [--tilt identity|rate|forced --tilt-lambda L\n"
         "                      --tilt-proposal Q --tilt-min A --tilt-max B]\n"
         "  pairsim lifetime --scheme pair4 --epochs 50 --rate 0.1 --scrub 8\n"
         "                   [--threads 8] [--json out.json]\n"
         "  pairsim perf --scheme pair4 --pattern hotspot --reads 0.5\n"
         "  pairsim system --scheme pair4 [--trace t.txt[.gz] [--stream 1] |\n"
         "                 --trace-gen tensor|pointer|batch | --pattern "
         "hotspot]\n"
         "                 [--geometry ddr4-3200|ddr5-4800|hbm3]\n"
         "                 [--scheduler frfcfs|fcfs|prac] [--requests 400]\n"
         "                 [--fault-rate 20] [--scrub-interval 5000]\n"
         "                 [--due-threshold 3] [--trials 200] [--threads 8]\n"
         "                 [--json out.json]\n"
         "  pairsim trace --gen tensor --requests 100000 --seed 1 "
         "--out t.txt.gz\n"
         "  pairsim campaign run --checkpoint ck.json [--mode "
         "reliability|system]\n"
         "                 [--shard i/N] [--checkpoint-every 4] "
         "[--max-shards M]\n"
         "                 [--json out.json] [mode flags as above;\n"
         "                 reliability adds --tilt*, system adds\n"
         "                 --split-levels \"1,2,4\" --split-replicas 4]\n"
         "  pairsim campaign merge [--json out.json] [--fleet-devices D\n"
         "                 --fleet-years Y [--trial-years 5]] ck0.json "
         "ck1.json...\n"
         "exit codes: 0 ok, 1 error, 2 usage, 3 campaign interrupted "
         "(resumable)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      Usage(std::cout);
      return 0;
    }
  }
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "campaign") {
      if (argc < 3) return Usage();
      const std::string sub = argv[2];
      if (sub == "run") {
        Args args(argc, argv, 3);
        return CmdCampaignRun(args);
      }
      if (sub == "merge") {
        Args args(argc, argv, 3, /*allow_positionals=*/true);
        return CmdCampaignMerge(args);
      }
      return Usage();
    }
    Args args(argc, argv, 2);
    if (cmd == "codes") return CmdCodes();
    if (cmd == "reliability") return CmdReliability(args);
    if (cmd == "lifetime") return CmdLifetime(args);
    if (cmd == "perf") return CmdPerf(args);
    if (cmd == "system") return CmdSystem(args);
    if (cmd == "trace") return CmdTrace(args);
    return Usage();
  } catch (const std::exception& e) {
    std::cerr << "pairsim: " << e.what() << "\n";
    return 1;
  }
}
