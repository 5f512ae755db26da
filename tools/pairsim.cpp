// pairsim — command-line front-end for the PAIR reproduction.
//
// `pairsim --help` lists the commands and `pairsim <command> --help` a
// command's flags with their defaults. Both are generated from the option
// tables below, the one place a flag is declared.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
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
#include "util/parse.hpp"
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

const std::map<std::string, faults::FaultMix> kMixes = {
    {"inherent", faults::FaultMix::Inherent()},
    {"cellonly", faults::FaultMix::CellOnly()},
    {"clustered", faults::FaultMix::Clustered()},
};

/// "a|b|c": the names of `names`, as an enum flag's choices.
template <class T>
std::string Choices(const std::map<std::string, T>& names) {
  std::string choices;
  for (const auto& [name, value] : names)
    choices += (choices.empty() ? "" : "|") + name;
  return choices;
}

// ------------------------------------------------------------ option tables

/// The config field a flag sets. Its type is the flag's value kind: a
/// non-negative integer (u64 or unsigned), a finite double, a 0/1 bool, or
/// a string (an enum name when the flag lists its choices).
using Field =
    std::variant<std::uint64_t*, unsigned*, double*, bool*, std::string*>;

/// One entry of a command's option table. An entry without a name is no
/// flag: it only puts a fixed config value into the campaign fingerprint.
struct Flag {
  const char* name;
  Field field;
  const char* def = "";  ///< parsed like a given value; nullptr: none
  const char* help = "";
  const char* fp = nullptr;   ///< `campaign run` fingerprint key
  std::string choices = {};  ///< "a|b|c": the names an enum flag takes
};

using Flags = std::vector<Flag>;

Flags Join(std::initializer_list<Flags> groups) {
  Flags all;
  for (const Flags& group : groups)
    all.insert(all.end(), group.begin(), group.end());
  return all;
}

Flag Fixed(Field field, const char* fp) {
  return {nullptr, field, nullptr, "", fp};
}

/// A non-negative decimal no larger than `max`, or a one-line diagnostic
/// prefixed by `what`: a typo'd `--trials 10k` must never truncate to 10.
std::uint64_t ParseCount(const std::string& text, const std::string& what,
                         std::uint64_t max) {
  std::uint64_t v = 0;
  const util::ParseStatus status = util::ParseU64(text, v);
  if (status == util::ParseStatus::kInvalid)
    throw std::runtime_error(what + "invalid non-negative integer '" + text +
                             "'");
  if (status == util::ParseStatus::kOutOfRange || v > max)
    throw std::runtime_error(what + "value '" + text + "' is out of range");
  return v;
}

/// Sets `flag`'s field from `text`, which must be a value of the flag's
/// kind: NaN, say, would hang the stream generator.
void Assign(const Flag& flag, const std::string& text) {
  const std::string what = std::string("flag --") + flag.name + ": ";
  if (auto* const* u64 = std::get_if<std::uint64_t*>(&flag.field)) {
    **u64 = ParseCount(text, what, std::numeric_limits<std::uint64_t>::max());
  } else if (auto* const* u = std::get_if<unsigned*>(&flag.field)) {
    **u = static_cast<unsigned>(
        ParseCount(text, what, std::numeric_limits<unsigned>::max()));
  } else if (auto* const* real = std::get_if<double*>(&flag.field)) {
    char* end = nullptr;
    **real = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !std::isfinite(**real))
      throw std::runtime_error(what + "invalid number '" + text + "'");
  } else if (auto* const* boolean = std::get_if<bool*>(&flag.field)) {
    if (text != "0" && text != "1")
      throw std::runtime_error(what + "want 0 or 1, got '" + text + "'");
    **boolean = text == "1";
  } else {
    // An enum's default needs no check: "" is the unset --trace-gen.
    if (!flag.choices.empty() && text != flag.def &&
        ("|" + flag.choices + "|").find("|" + text + "|") == std::string::npos)
      throw std::runtime_error(what + "unknown value '" + text + "' (want " +
                               flag.choices + ")");
    *std::get<std::string*>(flag.field) = text;
  }
}

/// Appends the fingerprint entries of `flags`, in table order. Bools enter
/// as 0/1 integers.
void AddFingerprint(telemetry::JsonValue& fp, const Flags& flags) {
  for (const Flag& flag : flags) {
    if (flag.fp == nullptr) continue;
    std::visit(
        [&](const auto* field) {
          if constexpr (std::is_same_v<decltype(field), const bool*>)
            fp.Set(flag.fp, telemetry::JsonValue(*field ? 1 : 0));
          else
            fp.Set(flag.fp, telemetry::JsonValue(*field));
        },
        flag.field);
  }
}

void PrintFlags(const Flags& flags) {
  for (const Flag& flag : flags) {
    if (flag.name == nullptr) continue;
    const char* value = std::holds_alternative<double*>(flag.field) ? "X"
                        : std::holds_alternative<bool*>(flag.field) ? "0|1"
                        : std::holds_alternative<std::string*>(flag.field)
                            ? "TEXT"
                            : "N";
    std::cout << "  --" << flag.name << " "
              << (flag.choices.empty() ? value : flag.choices) << "\n      "
              << flag.help;
    if (flag.def != nullptr && *flag.def != '\0')
      std::cout << " (default " << flag.def << ")";
    std::cout << "\n";
  }
}

struct Invocation;

struct Command {
  const char* name;
  int (*run)(Invocation&);
  const char* summary;
  bool takes_files = false;  ///< checkpoint files after the flags
};

/// One command's arguments (argv past the command name), parsed against
/// the command's option table.
struct Invocation {
  const Command& command;
  std::vector<std::string> args;
  bool help = false;  ///< --help or -h was given
  std::vector<std::string> given = {};
  std::vector<std::string> positionals = {};

  /// Sets every flag to its default, then to the value given for it.
  /// Unknown and repeated flags, a flag without a value and malformed
  /// values fail with a one-line diagnostic. With --help, prints the
  /// command's usage instead and returns false.
  bool Parse(const Flags& flags) {
    if (help) {
      std::cout << "usage: pairsim " << command.name << " [--flag value]..."
                << (command.takes_files ? " CKPT...\n" : "\n")
                << command.summary << "\n";
      PrintFlags(flags);
      return false;
    }
    for (const Flag& flag : flags)
      if (flag.name != nullptr && flag.def != nullptr) Assign(flag, flag.def);
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& arg = args[i];
      if (arg.rfind("--", 0) != 0) {
        if (!command.takes_files)
          throw std::runtime_error("expected --flag, got '" + arg + "'");
        positionals.push_back(arg);
        continue;
      }
      const std::string name = arg.substr(2);
      const auto flag = std::ranges::find_if(flags, [&](const Flag& f) {
        return f.name != nullptr && name == f.name;
      });
      if (flag == flags.end()) throw std::runtime_error("unknown flag " + arg);
      if (Given(name))
        throw std::runtime_error("flag " + arg + " given more than once");
      if (i + 1 == args.size())
        throw std::runtime_error("flag " + arg + " needs a value");
      Assign(*flag, args[++i]);
      given.push_back(name);
    }
    return true;
  }

  bool Given(std::string_view name) const {
    return std::ranges::find(given, name) != given.end();
  }
};

// ------------------------------------------------------------ flag groups
// Shared by the commands that take them. Fingerprint keys come in the order
// existing campaign checkpoints were hashed with.

constexpr const char* kShapes = "tensor|pointer|batch";

Flag SchemeFlag(std::string& name) {
  return {"scheme", &name, "pair4", "ECC scheme", "scheme", Choices(kSchemes)};
}

Flags ScenarioFlags(std::string& scheme, std::string& mix) {
  return {SchemeFlag(scheme),
          {"mix", &mix, "inherent", "fault mix", "mix", Choices(kMixes)}};
}

/// The run group of every Monte-Carlo command.
template <class Config>
Flags RunFlags(Config& cfg, std::uint64_t& trials, const char* trials_def) {
  return {{"seed", &cfg.seed, "1", "RNG seed", "seed"},
          {"threads", &cfg.threads, "0", "worker threads, 0 for all cores"},
          {"trials", &trials, trials_def, "Monte-Carlo trials", "trials"}};
}

Flag JsonFlag(std::string& path) {
  return {"json", &path, "", "write a pair-report JSON document to this file"};
}

/// `--pattern` and its stream knobs, for `perf` and the system demand.
Flags PatternFlags(workload::StreamConfig& s, std::string& pattern,
                   const char* requests = "400",
                   const char* intensity = "0.05") {
  return {{"pattern", &pattern, "hotspot", "synthetic access pattern",
           "pattern", "stream|random|hotspot|linear|strided"},
          {"reads", &s.read_fraction, "0.67", "read fraction", "read_fraction"},
          {"requests", &s.num_requests, requests, "request count", "requests"},
          {"intensity", &s.intensity, intensity, "requests per cycle",
           "intensity"}};
}

/// The stream shape group: the AI/HPC shapes' own knobs.
Flags ShapeFlags(workload::StreamConfig& s) {
  return {{"stream-intensity", &s.intensity, "0.25",
           "requests per cycle within a burst", "stream_intensity"},
          {"burst", &s.burst_len, "256", "requests per tile/batch", "burst"},
          {"gap", &s.gap_cycles, "2000", "idle cycles between bursts", "gap"},
          {"hot-rows", &s.hot_rows, "4", "hot rows of the batch shape",
           "hot_rows"}};
}

/// The ranges of the flags that set `s` (`intensity_flag` names the one
/// behind s.intensity), checked here so that a bad value names its flag;
/// StreamConfig::Validate stays the contract backstop. A field no flag of
/// the command sets keeps its valid default.
void CheckStreamFlags(const workload::StreamConfig& s,
                      const char* intensity_flag) {
  if (!(s.read_fraction >= 0.0 && s.read_fraction <= 1.0))
    throw std::runtime_error("flag --reads: must be in [0,1]");
  if (!(s.intensity > 0.0 && s.intensity <= 1.0))
    throw std::runtime_error(std::string("flag --") + intensity_flag +
                             ": must be in (0,1]");
  const auto positive = [](const char* flag, std::uint64_t value) {
    if (value == 0)
      throw std::runtime_error(std::string("flag --") + flag +
                               ": must be positive");
  };
  positive("requests", s.num_requests);
  positive("ranks", s.ranks);
  positive("banks", s.banks);
  positive("rows", s.rows);
  positive("cols", s.cols);
  positive("burst", s.burst_len);
  if (s.hot_rows == 0 || s.hot_rows > s.rows)
    throw std::runtime_error("flag --hot-rows: must be in [1, " +
                             std::to_string(s.rows) + "]");
  if (s.kind == workload::StreamKind::kStrided) positive("stride", s.stride);
}

Flags FleetFlags(sim::FleetSpec& fleet) {
  return {{"fleet-devices", &fleet.devices, "0",
           "devices of the fleet-failure projection, 0 for none"},
          {"fleet-years", &fleet.years, "0", "years of the fleet projection"},
          {"trial-years", &fleet.trial_years, "5", "years one trial covers"}};
}

void CheckFleet(const sim::FleetSpec& fleet) {
  if (fleet.devices < 0.0 || fleet.years < 0.0 || fleet.trial_years <= 0.0)
    throw std::runtime_error(
        "fleet flags: --fleet-devices/--fleet-years must be non-negative "
        "and --trial-years positive");
}

/// A Monte-Carlo command's --trials: zero trials estimate nothing, and
/// would print a certain 0 failure rate. (The library still runs
/// zero-trial campaigns.)
void CheckTrials(std::uint64_t trials) {
  if (trials == 0) throw std::runtime_error("flag --trials: must be positive");
}

/// PAIR_TRIALS environment override (the bench binaries' convention).
std::uint64_t ResolveTrials(std::uint64_t from_flags) {
  const char* env = std::getenv("PAIR_TRIALS");
  if (env == nullptr || *env == '\0') return from_flags;
  const std::uint64_t trials = ParseCount(
      env, "PAIR_TRIALS: ", std::numeric_limits<std::uint64_t>::max());
  if (trials == 0) throw std::runtime_error("PAIR_TRIALS: must be positive");
  return trials;
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
void PrintTrialRate(unsigned threads, std::uint64_t trials,
                    const std::string& label,
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

int CmdCodes(Invocation& in) {
  if (!in.Parse({})) return 0;
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

/// What `reliability` and `campaign run --mode reliability` read.
struct ReliabilityOptions {
  reliability::ScenarioConfig cfg;
  std::string scheme, mix, tilt_kind;
  reliability::TiltSpec tilt;
  std::uint64_t trials = 0;
};

/// The scenario, run and tilt groups.
Flags ReliabilityFlags(ReliabilityOptions& o) {
  reliability::TiltSpec& tilt = o.tilt;
  return Join(
      {ScenarioFlags(o.scheme, o.mix),
       {{"faults", &o.cfg.faults_per_trial, "2", "faults per trial",
         "faults_per_trial"},
        Fixed(&o.cfg.working_rows, "working_rows"),
        Fixed(&o.cfg.lines_per_row, "lines_per_row")},
       RunFlags(o.cfg, o.trials, "500"),
       {{"tilt", &o.tilt_kind, "identity",
         "importance-sampled Poisson fault counts instead of --faults",
         nullptr, "identity|rate|forced"},
        {"tilt-lambda", &tilt.lambda, "1", "physical mean faults per trial"},
        {"tilt-proposal", &tilt.proposal_lambda, nullptr,
         "proposal mean faults per trial (default: --tilt-lambda)"},
        {"tilt-min", &tilt.min_faults, "0", "fewest faults (forced: 1)"},
        {"tilt-max", &tilt.max_faults, "64", "most faults per trial"}}});
}

void ResolveReliability(ReliabilityOptions& o, const Invocation& in) {
  CheckTrials(o.trials);
  o.cfg.scheme = kSchemes.at(o.scheme);
  o.cfg.mix = kMixes.at(o.mix);
  o.tilt.kind = reliability::TiltKindFromString(o.tilt_kind);
  // Pure window conditioning unless a proposal is given.
  if (!in.Given("tilt-proposal")) o.tilt.proposal_lambda = o.tilt.lambda;
  if (!in.Given("tilt-min") && o.tilt.kind == reliability::TiltKind::kForced)
    o.tilt.min_faults = 1;
  o.tilt.Validate();
}

/// `pairsim reliability` with an active tilt: importance-sampled run with
/// weighted estimators alongside the raw (proposal-measure) breakdown.
int RunTiltedReliability(const reliability::ScenarioConfig& cfg,
                         const reliability::TiltSpec& tilt,
                         std::uint64_t trials,
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

int CmdReliability(Invocation& in) {
  ReliabilityOptions o;
  std::string json_path;
  if (!in.Parse(Join({ReliabilityFlags(o), {JsonFlag(json_path)}}))) return 0;
  ResolveReliability(o, in);
  const reliability::ScenarioConfig& cfg = o.cfg;
  const std::uint64_t trials = o.trials;

  // The identity tilt must be byte-identical to omitting the flags, so it
  // takes the pre-existing unweighted path below verbatim.
  if (o.tilt.Active())
    return RunTiltedReliability(cfg, o.tilt, trials, json_path);

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

int CmdLifetime(Invocation& in) {
  reliability::LifetimeConfig cfg;
  std::string scheme, mix, json_path;
  std::uint64_t trials = 0;
  const Flags flags = Join(
      {ScenarioFlags(scheme, mix),
       {{"epochs", &cfg.epochs, "50", "deployment window, in epochs"},
        {"rate", &cfg.faults_per_epoch, "0.1", "Poisson faults per epoch"},
        {"scrub", &cfg.scrub_interval, "0", "epochs between scrubs, 0: none"}},
       RunFlags(cfg, trials, "200"), {JsonFlag(json_path)}});
  if (!in.Parse(flags)) return 0;
  CheckTrials(trials);
  cfg.scheme = kSchemes.at(scheme);
  cfg.mix = kMixes.at(mix);
  // RunLifetime's own bound: exp(-rate) must stay a normal double.
  if (!(cfg.faults_per_epoch >= 0.0 &&
        std::exp(-cfg.faults_per_epoch) >=
            std::numeric_limits<double>::min()))
    throw std::runtime_error("flag --rate: must be in [0, 708.39]");

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

int CmdPerf(Invocation& in) {
  workload::StreamConfig cfg;
  std::string scheme_name, pattern, trace_path, save_path;
  const Flags flags = Join(
      {{SchemeFlag(scheme_name)}, PatternFlags(cfg, pattern, "30000", "0.12"),
       {{"stride", &cfg.stride, "1", "lines between strided accesses"},
        {"xor-hash", &cfg.xor_bank_hash, "0", "XOR bank hash (linear/strided)"},
        {"ranks", &cfg.ranks, "1", "ranks"},
        {"seed", &cfg.seed, "1", "RNG seed"},
        {"trace", &trace_path, "", "replay this trace file instead"},
        {"save-trace", &save_path, "", "also write the demand to this file"}}});
  if (!in.Parse(flags)) return 0;
  const ecc::SchemeKind kind = kSchemes.at(scheme_name);
  cfg.kind = workload::StreamKindFromString(pattern);
  CheckStreamFlags(cfg, "intensity");
  timing::TimingParams params = timing::TimingParams::Ddr4_3200();
  if (cfg.ranks > params.MaxRanks())
    throw std::runtime_error("flag --ranks: must be in [1, " +
                             std::to_string(params.MaxRanks()) + "]");
  params.ranks = cfg.ranks;

  timing::Trace trace = trace_path.empty()
                            ? timing::Materialize(*workload::MakeStream(cfg))
                            : workload::ReadTraceFile(trace_path);
  if (!save_path.empty()) workload::WriteTraceFile(trace, save_path);

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

/// What `system` and `campaign run --mode system` read: the system config
/// and its demand.
struct SystemOptions {
  sim::SystemConfig cfg;
  std::string scheme, mix, geometry, scheduler, trace, pattern, gen;
  workload::StreamConfig stream;  ///< the demand unless --trace is given
  workload::StreamConfig shape;   ///< the shape flags, for --trace-gen
  std::uint64_t trials = 0;
};

/// The system group, up to the demand.
Flags SystemFlags(SystemOptions& o) {
  sim::SystemConfig& c = o.cfg;
  return Join(
      {ScenarioFlags(o.scheme, o.mix),
       {{"geometry", &o.geometry, "ddr4-3200", "device and timing preset",
         "geometry", "ddr4|ddr4-3200|ddr5|ddr5-4800|hbm3"},
        {"scheduler", &o.scheduler, "frfcfs", "memory controller policy",
         "scheduler", "frfcfs|fcfs|prac"},
        {"fault-rate", &c.faults_per_mcycle, "20",
         "Poisson fault arrivals per million cycles", "faults_per_mcycle"},
        {"horizon", &c.horizon_cycles, "0",
         "trial horizon in cycles, 0 for the demand's", "horizon_cycles"},
        {"scrub-interval", &c.scrub.interval_cycles, "5000",
         "cycles between patrol-scrub steps, 0 for none",
         "scrub_interval_cycles"},
        {"scrub-rows", &c.scrub.rows_per_step, "1", "rows per scrub step",
         "scrub_rows_per_step"},
        {"writeback", &c.scrub.demand_writeback, "1",
         "write corrected demand reads back", "demand_writeback"},
        {"due-threshold", &c.repair.due_threshold, "3",
         "DUEs on a row that trigger its repair", "due_threshold"},
        {"repair-latency", &c.repair.repair_latency_cycles, "2000",
         "cycles one repair takes", "repair_latency_cycles"},
        {"sparing", &c.repair.enable_sparing, "1", "spare repaired rows (PPR)",
         "enable_sparing"},
        {"rows", &c.working_rows, "2", "working rows", "working_rows"},
        {"lines", &c.lines_per_row, "4", "lines per row", "lines_per_row"}},
       RunFlags(c, o.trials, "200"),
       {Fixed(&c.timing.tck_ns, "tck_ns"),
        {"trace", &o.trace, "", "demand trace file (plain or gzip)"}}});
}

/// --trace-gen and the stream shape group it reads.
Flags TraceGenFlags(SystemOptions& o) {
  return Join({{{"trace-gen", &o.gen, "", "AI/HPC shape instead of --pattern",
                 "trace_gen", kShapes},
                Fixed(&o.stream.num_requests, "requests"),
                Fixed(&o.stream.read_fraction, "read_fraction")},
               ShapeFlags(o.shape)});
}

/// Resolves what the system flags named. The one-line checks cover the
/// config mistakes a user can make from the CLI; SystemConfig::Validate()
/// stays the contract backstop.
void ResolveSystem(SystemOptions& o, const Invocation& in) {
  CheckTrials(o.trials);
  sim::SystemConfig& c = o.cfg;
  c.scheme = kSchemes.at(o.scheme);
  c.mix = kMixes.at(o.mix);
  // Geometry preset: device geometry + timing parameters as one coherent
  // unit. The ddr4-3200 default reproduces the pre-preset defaults bitwise.
  const timing::SystemPreset preset =
      timing::MakePreset(timing::GeometryPresetFromString(o.geometry));
  o.geometry = timing::ToString(preset.kind);
  c.geometry = preset.geometry;
  c.timing = preset.timing;
  c.scheduler = timing::SchedulerKindFromString(o.scheduler);
  if (c.working_rows == 0)
    throw std::runtime_error("flag --rows: must be positive");
  if (c.lines_per_row == 0)
    throw std::runtime_error("flag --lines: must be positive");
  if (c.scrub.rows_per_step == 0)
    throw std::runtime_error("flag --scrub-rows: must be positive");
  if (c.faults_per_mcycle < 0.0)
    throw std::runtime_error("flag --fault-rate: must be non-negative");

  // --pattern runs at --intensity; --trace-gen runs its shape at the shape
  // flags; --trace reads neither. A flag the chosen demand ignores is an
  // error: the campaign fingerprint leaves it out, so a run with it would
  // resume and merge as one without it.
  if (!o.trace.empty() && !o.gen.empty())
    throw std::runtime_error("--trace and --trace-gen are mutually "
                             "exclusive");
  const auto reject = [&](std::initializer_list<const char*> names,
                          bool ignored, const char* why) {
    for (const char* name : names)
      if (ignored && in.Given(name))
        throw std::runtime_error(std::string("flag --") + name + ": " + why);
  };
  reject({"stream-intensity", "burst", "gap", "hot-rows"}, o.gen.empty(),
         "requires --trace-gen");
  reject({"pattern", "intensity"}, !o.gen.empty(), "not used with --trace-gen");
  reject({"pattern", "intensity", "reads", "requests"}, !o.trace.empty(),
         "not used with --trace");

  workload::StreamConfig& stream = o.stream;
  stream.kind = workload::StreamKindFromString(o.pattern);
  if (!o.gen.empty()) {
    stream.kind = workload::StreamKindFromString(o.gen);
    stream.intensity = o.shape.intensity;
    stream.burst_len = o.shape.burst_len;
    stream.gap_cycles = o.shape.gap_cycles;
    stream.hot_rows = o.shape.hot_rows;
  }
  CheckStreamFlags(stream, o.gen.empty() ? "intensity" : "stream-intensity");
  // Synthetic workloads exercise every rank and bank the preset's timing
  // model has.
  stream.ranks = c.timing.ranks;
  stream.banks = c.timing.banks;
  stream.seed = c.seed;
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

/// The demand of `system` and `campaign run --mode system`: a generator
/// or a trace file, opened afresh by every call of `factory`. The demand
/// scan decides, from its length, whether trials replay it from memory.
struct Demand {
  sim::RequestSourceFactory factory;
  std::string name;  ///< the report's demand_source
};

Demand MakeDemand(const SystemOptions& o) {
  Demand demand;
  if (o.trace.empty()) {
    const workload::StreamConfig stream = o.stream;
    demand.factory = [stream] { return workload::MakeStream(stream); };
    demand.name = (o.gen.empty() ? "pattern:" : "stream:") +
                  workload::ToString(stream.kind);
  } else {
    const std::string path = o.trace;
    demand.factory = [path]() -> std::unique_ptr<timing::RequestSource> {
      return workload::OpenTraceStream(path);
    };
    demand.name = path;
  }
  return demand;
}

int CmdSystem(Invocation& in) {
  SystemOptions o;
  std::string json_path;
  if (!in.Parse(Join({SystemFlags(o), PatternFlags(o.stream, o.pattern),
                      TraceGenFlags(o), {JsonFlag(json_path)}})))
    return 0;
  ResolveSystem(o, in);
  const sim::SystemConfig& cfg = o.cfg;
  const std::uint64_t trials = o.trials;

  const Demand demand = MakeDemand(o);

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
            << (dinfo.kept == nullptr ? " streamed requests in "
                                      : " requests in ")
            << util::Table::Fixed(elapsed.count(), 2) << " s\n";
  PrintSystemSummary(s, cfg);

  if (!json_path.empty()) {
    // The report carries the horizon the trials actually ran to.
    sim::SystemConfig report_cfg = cfg;
    report_cfg.horizon_cycles = dinfo.horizon_cycles;
    auto report = sim::BuildSystemReport(
        report_cfg, trials, static_cast<std::size_t>(dinfo.requests), s, tel);
    report.MetaString("geometry", o.geometry);
    report.MetaString("demand_source", demand.name);
    WriteReport(report, json_path);
  }
  return 0;
}

/// `pairsim trace`: materialize a synthetic streaming workload as a trace
/// file other tools (and CI) can replay; gzip output when FILE ends in .gz.
int CmdTrace(Invocation& in) {
  workload::StreamConfig cfg;
  std::string gen, out;
  const Flags flags = Join(
      {{{"gen", &gen, "tensor", "AI/HPC workload shape", nullptr, kShapes},
        {"requests", &cfg.num_requests, "100000", "requests to write"},
        {"ranks", &cfg.ranks, "1", "ranks"},
        {"banks", &cfg.banks, "16", "banks per rank"},
        {"rows", &cfg.rows, "64", "rows per bank"},
        {"cols", &cfg.cols, "128", "columns per row"}},
       ShapeFlags(cfg),
       {{"reads", &cfg.read_fraction, "0.9", "read fraction"},
        {"seed", &cfg.seed, "1", "RNG seed"},
        {"out", &out, "", "trace file to write (required), gzip if *.gz"}}});
  if (!in.Parse(flags)) return 0;
  cfg.kind = workload::StreamKindFromString(gen);
  CheckStreamFlags(cfg, "stream-intensity");
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

int CmdCampaignRun(Invocation& in) {
  sim::CampaignSpec spec;
  std::string mode_name, shard_spec, json_path, split_levels;
  std::uint64_t max_shards = 0;
  sim::FleetSpec fleet;
  ReliabilityOptions r;
  SystemOptions s;
  const Flags common = Join(
      {{{"mode", &mode_name, "reliability",
         "campaign kind; with --help, lists its flags", "mode",
         "reliability|system"},
        {"checkpoint", &spec.checkpoint_path, "",
         "checkpoint to write or resume (required)"},
        {"checkpoint-every", &spec.checkpoint_every, "4",
         "shards between checkpoint writes"},
        {"shard", &shard_spec, "", "run slice i/N of the shards"},
        {"max-shards", &max_shards, "0", "stop after this many, 0: never"},
        JsonFlag(json_path)},
       FleetFlags(fleet)});
  // --mode picks the rest of the table, so it is looked up ahead, over the
  // (flag, value) pairs the parse will see.
  bool system = false;
  for (std::size_t i = 0; i + 1 < in.args.size(); i += 2)
    system = in.args[i] == "--mode" ? in.args[i + 1] == "system" : system;
  const Flags flags =
      system ? Join({common, SystemFlags(s), PatternFlags(s.stream, s.pattern),
                     TraceGenFlags(s),
                     {{"split-levels", &split_levels, "",
                       "splitting thresholds on non-clean reads, e.g. 1,2,4"},
                      {"split-replicas", &spec.split.replicas, "4",
                       "children per level crossing"}}})
             : Join({common, ReliabilityFlags(r)});
  if (!in.Parse(flags)) return 0;
  spec.mode = sim::CampaignModeFromString(mode_name);
  if (!shard_spec.empty()) spec.slice = sim::ParseShardSlice(shard_spec);
  CheckFleet(fleet);

  telemetry::JsonValue fp = telemetry::JsonValue::MakeObject();
  if (!system) {
    ResolveReliability(r, in);
    r.trials = ResolveTrials(r.trials);
    spec.scenario = r.cfg;
    spec.tilt = r.tilt;
    spec.trials = r.trials;
    AddFingerprint(fp, flags);
    // Tilt parameters are campaign identity: AddTiltFingerprint is a no-op
    // for the identity tilt, so untilted config hashes are unchanged.
    reliability::AddTiltFingerprint(fp, spec.tilt);
  } else {
    ResolveSystem(s, in);
    s.trials = ResolveTrials(s.trials);
    spec.system = s.cfg;
    spec.trials = s.trials;
    spec.demand = MakeDemand(s).factory;
    AddFingerprint(fp, Join({common, SystemFlags(s)}));
    if (!s.trace.empty()) {
      const sim::StreamingDemandInfo scan =
          sim::ScanDemand(spec.system, spec.demand);
      // The campaign's own scan then reads what this one kept, not the file.
      spec.demand = scan.TrialDemand(spec.demand);
      // The demand trace is part of the campaign's identity: slices run
      // against different trace bytes must never merge.
      fp.Set("trace_crc32",
             telemetry::JsonValue(
                 util::Crc32Hex(ReadFileBytes(s.trace, "trace"))));
      fp.Set("trace_requests", telemetry::JsonValue(scan.requests));
    } else {
      AddFingerprint(fp, s.gen.empty() ? PatternFlags(s.stream, s.pattern)
                                       : TraceGenFlags(s));
    }
    if (!split_levels.empty()) {
      spec.split.thresholds = reliability::ParseSplitLevels(split_levels);
      spec.split.Validate();
      reliability::AddSplitFingerprint(fp, spec.split);
    } else if (in.Given("split-replicas")) {
      throw std::runtime_error(
          "flag --split-replicas requires --split-levels");
    }
  }

  if (spec.checkpoint_path.empty())
    throw std::runtime_error("campaign run requires --checkpoint FILE");
  if (!json_path.empty() && spec.slice.count != 1)
    throw std::runtime_error(
        "campaign run --json covers the full campaign only; run slices "
        "without --json and combine them with 'pairsim campaign merge'");
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
    std::string totals;
    const telemetry::Report report =
        sim::MergeCampaignCheckpoints({spec.checkpoint_path}, fleet, &totals);
    std::cout << totals;
    WriteReport(report, json_path);
  }
  return 0;
}

int CmdCampaignMerge(Invocation& in) {
  std::string json_path;
  sim::FleetSpec fleet;
  if (!in.Parse(Join({{JsonFlag(json_path)}, FleetFlags(fleet)}))) return 0;
  CheckFleet(fleet);
  const std::vector<std::string>& paths = in.positionals;
  if (paths.empty())
    throw std::runtime_error(
        "campaign merge: no checkpoint files given (pass them as "
        "positional arguments)");

  std::string totals;
  const telemetry::Report report =
      sim::MergeCampaignCheckpoints(paths, fleet, &totals);
  std::cout << "merged " << paths.size() << " checkpoint(s)\n" << totals;
  if (fleet.devices > 0.0 && fleet.years > 0.0) {
    const double expected = report.ToJson(false)
                                .Find("metrics")
                                ->Find("fleet.expected_failures")
                                ->AsReal();
    std::cout << "fleet projection: " << util::Table::Fixed(expected, 2)
              << " expected failures across "
              << util::Table::Fixed(fleet.devices, 0) << " devices over "
              << util::Table::Fixed(fleet.years, 1) << " years\n";
  }

  if (!json_path.empty()) WriteReport(report, json_path);
  return 0;
}

const Command kCommands[] = {
    {"codes", CmdCodes, "Every scheme's code configuration and overheads."},
    {"reliability", CmdReliability, "Monte-Carlo outcome breakdown."},
    {"lifetime", CmdLifetime, "Fault accumulation with patrol scrubbing."},
    {"perf", CmdPerf, "Cycle-approximate DDR4 timing, normalised to No-ECC."},
    {"system", CmdSystem, "Event-driven lifetimes: demand, faults, repair."},
    {"trace", CmdTrace, "Write a synthetic streaming workload as a trace."},
    {"campaign run", CmdCampaignRun,
     "Crash-safe campaign; exit 3 (SIGINT/SIGTERM): rerun to resume."},
    {"campaign merge", CmdCampaignMerge,
     "Merge completed slice checkpoints into the campaign report.", true},
};

int Usage(std::ostream& out, int code) {
  out << "usage: pairsim <command> [--flag value]...\n";
  for (const Command& command : kCommands)
    out << "  " << std::left << std::setw(16) << command.name
        << command.summary << "\n";
  out << "'pairsim <command> --help' lists a command's flags and defaults.\n"
         "--json writes a pair-report JSON document (docs/ARCHITECTURE.md\n"
         "section 8); compare two with tools/bench_diff. Monte-Carlo results\n"
         "are bitwise identical for any --threads. PAIR_TRIALS in the\n"
         "environment overrides campaign run's --trials.\n"
         "exit codes: 0 ok, 1 error, 2 usage, 3 campaign interrupted "
         "(resumable)\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  // --help or -h anywhere, even where a flag value is expected.
  const bool help = std::ranges::any_of(args, [](const std::string& arg) {
    return arg == "--help" || arg == "-h";
  });
  // A command is one word, or two for campaign.
  const std::ptrdiff_t words = args.size() > 1 && args[0] == "campaign" ? 2 : 1;
  std::string name = args.empty() ? "" : args[0];
  if (words == 2) name += " " + args[1];
  const auto command = std::ranges::find_if(
      kCommands, [&](const Command& c) { return name == c.name; });
  if (command == std::end(kCommands))
    return help ? Usage(std::cout, 0) : Usage(std::cerr, 2);
  Invocation in{*command, {args.begin() + words, args.end()}, help};
  try {
    return command->run(in);
  } catch (const std::exception& e) {
    std::cerr << "pairsim: " << e.what() << "\n";
    return 1;
  }
}
