// Benchmark driver: runs one named workload through the libraries' public
// APIs and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --root CHECKOUT --workdir DIR
//   perfbench --selftest --workdir DIR
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) replay the same work single-threaded with spans around every
// call into a layer and report the per-layer metrics. Every run also checks
// deterministic outputs (pinned digests, the workload-smoke baseline,
// traced-vs-untraced equality). The last line of stdout is the result
// object; a provenance line precedes it. See README.md in this directory.
#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "dram/rank.hpp"
#include "ecc/scheme.hpp"
#include "faults/injector.hpp"
#include "gf/gf_batch.hpp"
#include "reliability/campaign.hpp"
#include "reliability/monte_carlo.hpp"
#include "reliability/outcome.hpp"
#include "reliability/telemetry.hpp"
#include "sim/campaign.hpp"
#include "sim/memory_system.hpp"
#include "telemetry/checkpoint.hpp"
#include "telemetry/json.hpp"
#include "timing/controller.hpp"
#include "timing/presets.hpp"
#include "tracer.hpp"
#include "util/atomic_file.hpp"
#include "workload/byte_source.hpp"
#include "workload/streams.hpp"
#include "workload/trace_io.hpp"
#include "workload/trace_stream.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace dram = pair_ecc::dram;
namespace ecc = pair_ecc::ecc;
namespace faults = pair_ecc::faults;
namespace rel = pair_ecc::reliability;
namespace sim = pair_ecc::sim;
namespace tel = pair_ecc::telemetry;
namespace timing = pair_ecc::timing;
namespace util = pair_ecc::util;
namespace wl = pair_ecc::workload;

using tel::JsonValue;

/// Engine worker threads of the untraced runs (traced replicas use one).
constexpr unsigned kEngineThreads = 4;
/// Set-up samples per untraced run, the first before any timed call and
/// the rest between timed calls, so one slow spell of the host cannot set
/// their median.
constexpr std::size_t kSetupRepeats = 5;
/// Distinct campaign seeds the timed calls of one run cycle through.
constexpr int kDistinctInputs = 4;
constexpr std::uint64_t kWarmupSeed = 1;
/// The resume phase's campaign: large enough that positioning the master
/// seed stream at its last slice dominates the call. The last shard holds
/// one trial.
constexpr std::uint64_t kResumeCampaignTrials = 200'000'001;
/// Dram row probes per traced scenario campaign (reads and writes each).
constexpr int kRowProbeRepeats = 4;

// ----------------------------------------------------------- workloads

/// Sizes of one workload. The primary campaign is what an untraced run
/// times; traced runs replay smaller campaigns of both kinds.
struct WorkloadSize {
  bool system_primary = false;
  std::uint64_t measured_trials = 0;  ///< per untraced primary iteration
  std::uint64_t traced_trials = 0;    ///< per traced primary iteration
  std::uint64_t probe_trials = 0;     ///< per traced secondary campaign
  std::uint64_t requests = 0;         ///< demand requests per system trial
};

WorkloadSize SizeOf(const std::string& workload) {
  if (workload == "mc_campaign") return {false, 320, 64, 1, 300};
  if (workload == "sys_tensor") return {true, 64, 4, 16, 800};
  if (workload == "sys_trace_rmw") return {true, 64, 8, 16, 4000};
  throw std::runtime_error("unknown workload '" + workload +
                           "' (want mc_campaign|sys_tensor|sys_trace_rmw)");
}

/// The tensor stream shape `pairsim trace --gen tensor` writes.
wl::StreamConfig TensorStream(std::uint64_t requests, std::uint64_t seed) {
  wl::StreamConfig s;
  s.kind = wl::StreamKind::kTensorStream;
  s.num_requests = requests;
  s.seed = seed;
  return s;
}

/// `pairsim system` defaults on a geometry preset.
sim::SystemConfig SystemDefaults(timing::GeometryPreset preset,
                                 timing::SchedulerKind scheduler,
                                 ecc::SchemeKind scheme, std::uint64_t seed) {
  const timing::SystemPreset p = timing::MakePreset(preset);
  sim::SystemConfig cfg;
  cfg.scheme = scheme;
  cfg.geometry = p.geometry;
  cfg.timing = p.timing;
  cfg.scheduler = scheduler;
  cfg.faults_per_mcycle = 20.0;
  cfg.scrub.interval_cycles = 5000;
  cfg.scrub.rows_per_step = 1;
  cfg.scrub.demand_writeback = true;
  cfg.repair.due_threshold = 3;
  cfg.repair.repair_latency_cycles = 2000;
  cfg.repair.enable_sparing = true;
  cfg.working_rows = 2;
  cfg.lines_per_row = 4;
  cfg.seed = seed;
  cfg.threads = kEngineThreads;
  return cfg;
}

sim::SystemConfig TensorSystem(std::uint64_t seed) {
  return SystemDefaults(timing::GeometryPreset::kHbm3,
                        timing::SchedulerKind::kPrac, ecc::SchemeKind::kPair4,
                        seed);
}

sim::SystemConfig RmwSystem(std::uint64_t seed) {
  return SystemDefaults(timing::GeometryPreset::kDdr5_4800,
                        timing::SchedulerKind::kFrFcfs,
                        ecc::SchemeKind::kIecc, seed);
}

/// Batch-inference stream with about half writes on `banks` banks.
wl::StreamConfig RmwStream(std::uint64_t requests, unsigned banks,
                           std::uint64_t seed) {
  wl::StreamConfig s;
  s.kind = wl::StreamKind::kBatchInference;
  s.num_requests = requests;
  s.banks = banks;
  s.read_fraction = 0.1;
  s.seed = seed;
  return s;
}

/// Scenario campaign on a system workload's scheme, geometry and mix.
rel::ScenarioConfig ScenarioFor(const sim::SystemConfig& system,
                                std::uint64_t seed) {
  rel::ScenarioConfig cfg;
  cfg.scheme = system.scheme;
  cfg.geometry = system.geometry;
  cfg.mix = system.mix;
  cfg.faults_per_trial = 2;
  cfg.seed = seed;
  cfg.threads = kEngineThreads;
  return cfg;
}

std::string TraceText(timing::RequestSource& source) {
  std::ostringstream text;
  wl::WriteTrace(timing::Materialize(source), text);
  return text.str();
}

/// Everything a workload's set-up builds from --seed.
struct Plan {
  std::string workload;
  WorkloadSize size;
  std::uint64_t seed = 0;
  std::uint64_t stream_seed = 0;
  rel::ScenarioConfig scenario;
  rel::WorkingSet scenario_ws;
  sim::SystemConfig system;  ///< horizon resolved by the pre-pass
  rel::WorkingSet system_ws;
  sim::RequestSourceFactory factory;
  std::string trace_path;  ///< gzip trace file, when the workload has one
  std::string trace_text;  ///< the demand stream as trace text
  std::uint64_t requests = 0;  ///< demand requests per system trial
  std::string gf_kernel;
};

Plan Setup(const std::string& workload, std::uint64_t seed,
           const std::string& workdir) {
  Plan plan;
  plan.workload = workload;
  plan.size = SizeOf(workload);
  plan.seed = seed;
  plan.stream_seed = util::SplitMix64::Mix(seed ^ 0x5eedULL);
  plan.gf_kernel = pair_ecc::gf::SelectKernels(pair_ecc::gf::GfField::Get(8)).name;

  wl::StreamConfig stream;
  if (workload == "mc_campaign") {
    plan.scenario.scheme = ecc::SchemeKind::kPair4;
    plan.scenario.mix = faults::FaultMix::Inherent();
    plan.scenario.faults_per_trial = 2;
    plan.scenario.seed = seed;
    plan.scenario.threads = kEngineThreads;
    plan.system = SystemDefaults(timing::GeometryPreset::kDdr4_3200,
                                 timing::SchedulerKind::kFrFcfs,
                                 ecc::SchemeKind::kPair4, seed);
    stream = TensorStream(plan.size.requests, plan.stream_seed);
  } else if (workload == "sys_tensor") {
    plan.system = TensorSystem(seed);
    plan.scenario = ScenarioFor(plan.system, seed);
    stream = TensorStream(plan.size.requests, plan.stream_seed);
  } else {
    plan.system = RmwSystem(seed);
    plan.scenario = ScenarioFor(plan.system, seed);
    stream = RmwStream(plan.size.requests, plan.system.timing.banks,
                       plan.stream_seed);
  }
  stream.Validate();
  plan.trace_text = TraceText(*wl::MakeStream(stream));
  if (workload == "sys_trace_rmw") {
    plan.trace_path = workdir + "/sys_trace_rmw-" + std::to_string(seed) +
                      ".trace.gz";
    wl::GzipWriteFile(plan.trace_path, plan.trace_text);
    const std::string path = plan.trace_path;
    plan.factory = [path]() -> std::unique_ptr<timing::RequestSource> {
      return wl::OpenTraceStream(path);
    };
  } else {
    plan.factory = [stream] { return wl::MakeStream(stream); };
  }

  // Validation pre-pass (a zero-trial streaming campaign) resolves the
  // horizon every later call then reuses.
  sim::StreamingDemandInfo info;
  sim::RunSystemCampaignStreaming(plan.system, plan.factory, 0, nullptr, &info);
  plan.system.horizon_cycles = info.horizon_cycles;
  plan.requests = info.requests;
  plan.scenario_ws = rel::MakeScenarioWorkingSet(plan.scenario);
  plan.system_ws = sim::MakeSystemWorkingSet(plan.system);

  // Warm-up: one campaign call of the primary kind, on a fixed campaign
  // seed so its cost does not vary with the workload seed.
  if (plan.size.system_primary) {
    sim::SystemConfig warm = plan.system;
    warm.seed = kWarmupSeed;
    sim::RunSystemCampaignStreaming(warm, plan.factory, 1);
  } else {
    rel::ScenarioConfig warm = plan.scenario;
    warm.seed = kWarmupSeed;
    rel::RunMonteCarlo(warm, kEngineThreads * rel::TrialEngine::kShardTrials);
  }
  return plan;
}

// ------------------------------------------------------------- helpers

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0)
      return "unknown";
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : s.substr(first);
#else
  return "unknown";
#endif
}

unsigned OnlineCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

JsonValue Fingerprint(const std::string& workload,
                      const rel::ScenarioConfig& cfg, std::uint64_t trials) {
  JsonValue fp = JsonValue::MakeObject();
  fp.Set("workload", JsonValue(workload));
  fp.Set("scheme", JsonValue(ecc::ToString(cfg.scheme)));
  fp.Set("faults_per_trial", JsonValue(cfg.faults_per_trial));
  fp.Set("seed", JsonValue(cfg.seed));
  fp.Set("trials", JsonValue(trials));
  return fp;
}

sim::CampaignSpec ScenarioSpec(const std::string& workload,
                               const rel::ScenarioConfig& cfg,
                               std::uint64_t trials, std::string path) {
  sim::CampaignSpec spec;
  spec.mode = sim::CampaignMode::kReliability;
  spec.scenario = cfg;
  spec.trials = trials;
  spec.checkpoint_every = 4;
  spec.checkpoint_path = std::move(path);
  spec.fingerprint = Fingerprint(workload, cfg, trials);
  return spec;
}

rel::ScenarioShardState ReadScenarioState(const std::string& path) {
  const JsonValue body = tel::ReadCheckpointFile(path);
  return rel::ScenarioStateFromJson(
      tel::RequireField(body, "state", "checkpoint " + path));
}

/// A fresh (no checkpoint on disk) RunCampaign call.
sim::CampaignProgress RunFreshCampaign(const sim::CampaignSpec& spec,
                                       std::uint64_t max_shards = 0) {
  std::remove(spec.checkpoint_path.c_str());
  return sim::RunCampaign(spec, nullptr, max_shards);
}

rel::ScenarioShardState MonteCarloState(const rel::ScenarioConfig& cfg,
                                        std::uint64_t trials) {
  rel::ScenarioTelemetry telemetry;
  rel::ScenarioShardState state;
  state.counts =
      rel::RunMonteCarlo(cfg, static_cast<unsigned>(trials), &telemetry);
  state.tel = telemetry.trial;
  return state;
}

sim::SystemShardState SystemCampaignState(const sim::SystemConfig& cfg,
                                          const sim::RequestSourceFactory& f,
                                          std::uint64_t trials,
                                          rel::EngineMetrics* engine = nullptr) {
  rel::ScenarioTelemetry telemetry;
  sim::SystemShardState state;
  state.stats = sim::RunSystemCampaignStreaming(
      cfg, f, static_cast<unsigned>(trials), &telemetry);
  state.tel = telemetry.trial;
  if (engine != nullptr) *engine = telemetry.engine;
  return state;
}

std::uint64_t DemandRequests(const sim::SystemStats& s) {
  return s.demand_reads + s.demand_writes;
}

// ------------------------------------------------------- golden checks

std::string ScenarioDigest(const rel::ScenarioShardState& s) {
  return util::Crc32Hex(rel::ScenarioStateToJson(s).Dump());
}

std::string SystemDigest(const sim::SystemShardState& s) {
  return util::Crc32Hex(sim::SystemStateToJson(s).Dump());
}

/// Digests of the pinned configurations (seed-independent).
std::vector<std::pair<std::string, std::string>> GoldenDigests(
    const std::string& workload, const std::string& workdir) {
  std::vector<std::pair<std::string, std::string>> out;
  if (workload == "mc_campaign") {
    rel::ScenarioConfig cfg;
    cfg.scheme = ecc::SchemeKind::kPair4;
    cfg.faults_per_trial = 2;
    cfg.seed = 1;
    cfg.threads = kEngineThreads;
    const sim::CampaignSpec spec =
        ScenarioSpec("golden", cfg, 20, workdir + "/golden_mc.json");
    RunFreshCampaign(spec);
    out.emplace_back("mc_campaign",
                     ScenarioDigest(ReadScenarioState(spec.checkpoint_path)));
    std::remove(spec.checkpoint_path.c_str());
  } else if (workload == "sys_trace_rmw") {
    const sim::SystemConfig cfg = RmwSystem(1);
    const std::string path = workdir + "/golden_rmw.trace.gz";
    wl::GzipWriteFile(path,
                      TraceText(*wl::MakeStream(RmwStream(2000, cfg.timing.banks, 1))));
    const sim::RequestSourceFactory factory =
        [path]() -> std::unique_ptr<timing::RequestSource> {
      return wl::OpenTraceStream(path);
    };
    out.emplace_back("sys_trace_rmw",
                     SystemDigest(SystemCampaignState(cfg, factory, 8)));
  }
  return out;
}

void CheckGoldens(const std::string& workload, const std::string& root,
                  const std::string& workdir, Checks& checks) {
  const JsonValue expected =
      JsonValue::Parse(ReadFile(root + "/perfbench/expected.json"));
  for (const auto& [name, digest] : GoldenDigests(workload, workdir)) {
    const JsonValue* want = expected.Find(name);
    checks.Expect(want != nullptr && want->AsString() == digest,
                  name + ": pinned-config digest " + digest +
                      " matches perfbench/expected.json");
  }
}

/// sys_tensor at the workload-smoke configuration must reproduce the
/// committed baseline's counters and histograms exactly.
void CheckSmokeBaseline(const std::string& root, Checks& checks) {
  const wl::StreamConfig stream = TensorStream(5000, 7);
  const sim::SystemConfig cfg = TensorSystem(1);
  const sim::RequestSourceFactory factory = [stream] {
    return wl::MakeStream(stream);
  };
  rel::ScenarioTelemetry telemetry;
  sim::StreamingDemandInfo info;
  const sim::SystemStats stats =
      sim::RunSystemCampaignStreaming(cfg, factory, 20, &telemetry, &info);
  sim::SystemConfig report_cfg = cfg;
  report_cfg.horizon_cycles = info.horizon_cycles;
  const JsonValue got =
      sim::BuildSystemReport(report_cfg, 20, info.requests, stats, telemetry)
          .ToJson(/*include_timing=*/false);
  const JsonValue baseline = JsonValue::Parse(
      ReadFile(root + "/bench/baselines/workload_smoke.json"));
  for (const char* section : {"counters", "histograms"}) {
    const JsonValue* a = got.Find(section);
    const JsonValue* b = baseline.Find(section);
    checks.Expect(a != nullptr && b != nullptr && *a == *b,
                  std::string("sys_tensor smoke configuration reproduces "
                              "bench/baselines/workload_smoke.json ") +
                      section);
  }
}

// ------------------------------------------------------ untraced runs

/// The resume phase: a fresh start of the last slice stops after one shard;
/// each TimeOne() restores that checkpoint and times a RunCampaign call
/// that resumes it and completes the last shard.
class ResumePhase {
 public:
  ResumePhase(const Plan& plan, const std::string& workdir, Checks& checks)
      : rp_(PlanLastSliceResume(kResumeCampaignTrials)), checks_(checks) {
    rel::ScenarioConfig cfg = plan.scenario;
    cfg.threads = 1;  // makes the fresh start's one-shard stop exact
    spec_ = ScenarioSpec(plan.workload + "-resume", cfg, rp_.trials,
                         workdir + "/" + plan.workload + "-resume.json");
    spec_.slice = rp_.slice;
    const sim::CampaignProgress fresh = RunFreshCampaign(spec_, 1);
    checks_.Expect(fresh.first_shard == rp_.first_shard && !fresh.complete &&
                       fresh.next_shard == rp_.resume_shard,
                   "resume: fresh start stops at shard " +
                       std::to_string(rp_.resume_shard));
    interrupted_ = ReadFile(spec_.checkpoint_path);
  }
  ~ResumePhase() { std::remove(spec_.checkpoint_path.c_str()); }
  ResumePhase(const ResumePhase&) = delete;
  ResumePhase& operator=(const ResumePhase&) = delete;
  ResumePhase(ResumePhase&&) = delete;
  ResumePhase& operator=(ResumePhase&&) = delete;

  void TimeOne(Tracer& tr) {
    util::AtomicWriteFile(spec_.checkpoint_path, interrupted_);
    std::optional<sim::CampaignProgress> p;
    {
      Scope s(&tr, "reliability.resume_call");
      p = sim::RunCampaign(spec_);
    }
    const rel::ScenarioShardState state =
        ReadScenarioState(spec_.checkpoint_path);
    if (!first_) first_ = state;
    checks_.Expect(p->resumed && p->complete &&
                       p->next_shard == rp_.total_shards &&
                       state.counts.trials ==
                           rp_.trials -
                               rp_.first_shard * rel::TrialEngine::kShardTrials &&
                       state == *first_,
                   "resume: the call resumes and completes the slice "
                   "identically");
  }

 private:
  const ResumePlan rp_;
  sim::CampaignSpec spec_;
  Checks& checks_;
  std::string interrupted_;
  std::optional<rel::ScenarioShardState> first_;
};

/// Campaign seed of timed call `it`. The calls cycle through
/// kDistinctInputs seeds, so the median spans several inputs and every call
/// past the first round re-runs an earlier input and must reproduce it.
std::uint64_t CallSeed(std::uint64_t seed, int it) {
  return seed + 0x9E3779B97F4A7C15ULL *
                    static_cast<std::uint64_t>(it % kDistinctInputs);
}

struct Rates {
  std::vector<double> trials_per_s;
  std::vector<double> requests_per_s;
};

/// Times campaign calls for `seconds`, running `between` after each.
Rates MeasureScenarioCampaign(const Plan& plan, double seconds,
                              const std::string& workdir,
                              const std::function<void()>& between,
                              Checks& checks) {
  const std::uint64_t trials = plan.size.measured_trials;
  const std::string path = workdir + "/" + plan.workload + "-campaign.json";
  Rates rates;
  std::vector<rel::ScenarioShardState> states;
  const Clock::time_point begin = Clock::now();
  for (int it = 0; it == 0 || SecondsSince(begin) < seconds; ++it) {
    rel::ScenarioConfig cfg = plan.scenario;
    cfg.seed = CallSeed(plan.seed, it);
    const sim::CampaignSpec spec = ScenarioSpec(plan.workload, cfg, trials, path);
    std::remove(path.c_str());
    const Clock::time_point start = Clock::now();
    const sim::CampaignProgress p = sim::RunCampaign(spec);
    const double dt = SecondsSince(start);
    const rel::ScenarioShardState state = ReadScenarioState(path);
    std::cout << plan.workload << ": call " << it << " " << dt << " s\n";
    rates.trials_per_s.push_back(static_cast<double>(trials) / dt);
    rates.requests_per_s.push_back(
        static_cast<double>(state.counts.reads + state.tel.codec.writes) / dt);
    checks.Expect(p.complete && state.counts.trials == trials &&
                      state.counts.reads ==
                          trials * plan.scenario_ws.addrs.size(),
                  "mc_campaign: call " + std::to_string(it) +
                      " reads the whole working set in every trial");
    if (it == 0)
      checks.Expect(state == MonteCarloState(cfg, trials),
                    "mc_campaign: RunCampaign state equals RunMonteCarlo");
    if (it < kDistinctInputs)
      states.push_back(state);
    else
      checks.Expect(state == states[static_cast<std::size_t>(it % kDistinctInputs)],
                    "mc_campaign: call " + std::to_string(it) +
                        " reproduces the earlier call on its input");
    between();
  }
  std::remove(path.c_str());
  return rates;
}

Rates MeasureSystemCampaign(const Plan& plan, double seconds,
                            const std::function<void()>& between,
                            Checks& checks) {
  const std::uint64_t trials = plan.size.measured_trials;
  Rates rates;
  std::vector<sim::SystemShardState> states;
  const Clock::time_point begin = Clock::now();
  for (int it = 0; it == 0 || SecondsSince(begin) < seconds; ++it) {
    sim::SystemConfig cfg = plan.system;
    cfg.seed = CallSeed(plan.seed, it);
    rel::EngineMetrics engine;
    const Clock::time_point start = Clock::now();
    const sim::SystemShardState state =
        SystemCampaignState(cfg, plan.factory, trials, &engine);
    const double dt = SecondsSince(start);
    std::cout << plan.workload << ": call " << it << " " << dt
              << " s, shard imbalance " << engine.ShardImbalance() << "\n";
    rates.trials_per_s.push_back(static_cast<double>(trials) / dt);
    rates.requests_per_s.push_back(
        static_cast<double>(DemandRequests(state.stats)) / dt);
    checks.Expect(state.stats.trials == trials &&
                      DemandRequests(state.stats) == trials * plan.requests &&
                      state.stats.protocol_violations == 0,
                  plan.workload + ": call " + std::to_string(it) +
                      " serves every demand request with no protocol "
                      "violation");
    if (it < kDistinctInputs)
      states.push_back(state);
    else
      checks.Expect(state == states[static_cast<std::size_t>(it % kDistinctInputs)],
                    plan.workload + ": call " + std::to_string(it) +
                        " reproduces the earlier call on its input");
    between();
  }
  return rates;
}

// -------------------------------------------------------- traced runs

struct ScenarioTally {
  std::uint64_t trials = 0;
  std::uint64_t lines_written = 0;
  std::uint64_t lines_read = 0;
  std::uint64_t injected = 0;
  std::uint64_t stuck_bits = 0;
  rel::ScenarioShardState state;  ///< summed traced results
};

struct SystemTally {
  std::uint64_t trials = 0;
  sim::SystemShardState state;  ///< summed traced results
};

/// Full-row Device::ReadBits / WriteBits on every working row of device 0.
/// Writing back what was read leaves the stored state unchanged.
void ProbeRows(Tracer& tr, dram::Rank& rank, const rel::WorkingSet& ws) {
  dram::Device& dev = rank.device(0);
  const unsigned bits = dev.geometry().TotalRowBits();
  for (int r = 0; r < kRowProbeRepeats; ++r) {
    for (const faults::RowRef& row : ws.rows) {
      std::optional<util::BitVec> v;
      {
        Scope s(&tr, "dram.read_row");
        v.emplace(dev.ReadBits(row.bank, row.row, 0, bits));
      }
      Scope s(&tr, "dram.write_row");
      dev.WriteBits(row.bank, row.row, 0, *v);
    }
  }
}

/// RunScenarioTrial, step by step through the public APIs, one span per
/// step. Draws the identical RNG sequence and accumulates identically.
void TracedScenarioTrial(Tracer& tr, const rel::ScenarioConfig& cfg,
                         const rel::WorkingSet& ws, util::Xoshiro256& rng,
                         rel::ScenarioShardState& acc,
                         rel::ScenarioScratch& scratch, bool probe_rows,
                         ScenarioTally& tally) {
  std::unique_ptr<dram::Rank> rank;
  {
    Scope s(&tr, "dram.rank_build");
    rank = std::make_unique<dram::Rank>(cfg.geometry);
  }
  std::unique_ptr<ecc::Scheme> scheme;
  {
    Scope s(&tr, "ecc.make_scheme");
    scheme = ecc::MakeScheme(cfg.scheme, *rank);
  }
  std::vector<util::BitVec> lines;
  {
    Scope s(&tr, "reliability.truth_lines");
    lines.reserve(ws.addrs.size());
    for (std::size_t i = 0; i < ws.addrs.size(); ++i)
      lines.push_back(util::BitVec::Random(cfg.geometry.LineBits(), rng));
  }
  {
    Scope s(&tr, "ecc.write_lines");
    scheme->WriteLines(ws.addrs, lines);
  }
  std::optional<faults::Injector> injector;
  {
    Scope s(&tr, "faults.inject");
    injector.emplace(*rank, ws.rows);
    for (unsigned f = 0; f < cfg.faults_per_trial; ++f)
      injector->InjectFromMix(cfg.mix, rng);
  }
  {
    Scope s(&tr, "ecc.read_lines");
    scratch.results.resize(ws.addrs.size());
    scheme->ReadLines(ws.addrs, scratch.results);
  }
  {
    Scope s(&tr, "reliability.classify");
    bool any_sdc = false, any_due = false;
    for (std::size_t i = 0; i < ws.addrs.size(); ++i) {
      const ecc::ReadResult& read = scratch.results[i];
      const rel::Outcome outcome =
          rel::Classify(read.claim, read.data, lines[i]);
      acc.counts.Add(outcome);
      acc.tel.corrected_units.Record(read.corrected_units);
      any_sdc |= rel::IsSdc(outcome);
      any_due |= outcome == rel::Outcome::kDue;
    }
    ++acc.counts.trials;
    acc.counts.trials_with_sdc += any_sdc;
    acc.counts.trials_with_due += any_due;
    acc.counts.trials_with_failure += (any_sdc || any_due);
    acc.tel.codec += scheme->counters();
    acc.tel.injection += injector->counters();
  }
  ++tally.trials;
  tally.lines_written += ws.addrs.size();
  tally.lines_read += ws.addrs.size();
  tally.injected += cfg.faults_per_trial;
  for (unsigned d = 0; d < rank->TotalDevices(); ++d)
    tally.stuck_bits += rank->device(d).StuckCount();
  if (probe_rows) ProbeRows(tr, *rank, ws);
}

/// Traced replica of a scenario campaign: the engine with one worker runs
/// TracedScenarioTrial. Returns the replica's wall time.
double TraceScenarioCampaign(Tracer& tr, const rel::ScenarioConfig& cfg,
                             const rel::WorkingSet& ws, std::uint64_t trials,
                             const rel::ScenarioShardState& reference,
                             const std::string& what, ScenarioTally& tally,
                             Checks& checks) {
  const Clock::time_point start = Clock::now();
  rel::ScenarioShardState state;
  {
    Scope root(&tr, "trace.scenario");
    state = rel::TrialEngine(1).RunWithScratch<rel::ScenarioShardState,
                                               rel::ScenarioScratch>(
        cfg.seed, trials,
        [&](std::uint64_t trial, util::Xoshiro256& rng,
            rel::ScenarioShardState& acc, rel::ScenarioScratch& scratch) {
          TracedScenarioTrial(tr, cfg, ws, rng, acc, scratch, trial == 0,
                              tally);
        });
  }
  const double dt = SecondsSince(start);
  checks.Expect(state == reference,
                what + ": traced scenario replica is bitwise equal to the "
                       "untraced library call");
  tally.state += state;
  return dt;
}

/// Observer that accepts every read: MemorySystem::Run then runs the
/// functional pass only.
class PassThrough final : public sim::DemandReadObserver {
 public:
  bool OnDemandRead(rel::Outcome, util::Xoshiro256&) override { return true; }
};

/// Traced replica of a streaming system campaign: the validation pre-pass,
/// then one MemorySystem per trial, each followed by the functional-only run
/// from the same sub-seed (its own "trace.functional" root), so both runs
/// of a trial see the same host speed. Trial i's stream is seeded with the
/// i-th output of Xoshiro256(seed), exactly as TrialEngine derives it.
/// Returns the replica's wall time (pre-pass and full runs).
double TraceSystemCampaign(Tracer& tr, const sim::SystemConfig& cfg,
                           const rel::WorkingSet& ws,
                           const sim::RequestSourceFactory& factory,
                           std::uint64_t trials,
                           const sim::SystemShardState& reference,
                           const std::string& what, SystemTally& tally,
                           Checks& checks) {
  const sim::RequestSourceFactory timed_prepass = [&] {
    return std::make_unique<TimedSource>(factory(), &tr, "workload.prepass");
  };
  double dt = 0.0;
  {
    const Clock::time_point start = Clock::now();
    Scope root(&tr, "trace.system");
    sim::StreamingDemandInfo info;
    sim::RunSystemCampaignStreaming(cfg, timed_prepass, 0, nullptr, &info);
    dt += SecondsSince(start);
  }
  sim::SystemShardState state;
  util::Xoshiro256 master(cfg.seed);
  for (std::uint64_t t = 0; t < trials; ++t) {
    const std::uint64_t sub_seed = master();
    {
      const Clock::time_point start = Clock::now();
      Scope root(&tr, "trace.system");
      util::Xoshiro256 rng(sub_seed);
      std::unique_ptr<TimedSource> source;
      {
        Scope s(&tr, "workload.open");
        source =
            std::make_unique<TimedSource>(factory(), &tr, "workload.next");
      }
      std::optional<sim::MemorySystem> system;
      {
        Scope s(&tr, "sim.setup");
        system.emplace(cfg, ws, *source, rng);
      }
      {
        Scope s(&tr, "sim.run");
        system->Run(state.stats, state.tel);
      }
      dt += SecondsSince(start);
    }
    Scope root(&tr, "trace.functional");
    util::Xoshiro256 rng(sub_seed);
    TimedSource source(factory(), &tr, "workload.next_functional");
    std::optional<sim::MemorySystem> system;
    {
      Scope s(&tr, "sim.functional_setup");
      system.emplace(cfg, ws, source, rng);
    }
    sim::SystemStats stats;
    rel::TrialTelemetry telemetry;
    PassThrough observer;
    Scope s(&tr, "sim.functional");
    system->Run(stats, telemetry, &observer);
  }
  checks.Expect(state == reference,
                what + ": traced system replica is bitwise equal to the "
                       "untraced library call");
  checks.Expect(state.stats.protocol_violations == 0,
                what + ": no DRAM protocol violations");
  tally.trials += trials;
  tally.state += state;
  return dt;
}

struct ProbeTally {
  std::uint64_t controller_requests = 0;
  std::uint64_t controller_passes = 0;
  std::uint64_t row_hits = 0, row_misses = 0, row_conflicts = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t protocol_violations = 0;
  std::uint64_t parse_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
};

/// Standalone layer probes: controller, trace parser, checkpoint I/O,
/// resume positioning and a resumed RunCampaign call, each under one span
/// of the "trace.probes" root.
template <typename State, typename ToJson, typename FromJson>
void RunProbes(Tracer& tr, const Plan& plan, const std::string& workdir,
               ResumePhase& resume, const State& checkpoint_state,
               ToJson to_json, FromJson from_json, ProbeTally& tally,
               Checks& checks) {
  timing::Trace demand = timing::Materialize(*plan.factory());
  dram::Rank rank(plan.system.geometry);
  const timing::SchemeTiming scheme_timing = timing::SchemeTiming::FromPerf(
      ecc::MakeScheme(plan.system.scheme, rank)->Perf(), plan.system.timing);
  std::unique_ptr<wl::StreamingTraceParser> parser =
      plan.trace_path.empty()
          ? std::make_unique<wl::StreamingTraceParser>(
                std::make_unique<wl::MemoryByteSource>(plan.trace_text))
          : wl::OpenTraceStream(plan.trace_path);
  const std::string ckpt_path = workdir + "/" + plan.workload + "-probe.json";
  JsonValue body = JsonValue::MakeObject();
  body.Set("state", to_json(checkpoint_state));
  const ResumePlan rp = PlanLastSliceResume(kResumeCampaignTrials);
  rel::ScenarioConfig scenario = plan.scenario;
  scenario.threads = 1;

  Scope root(&tr, "trace.probes");
  {
    Scope s(&tr, "timing.controller");
    timing::VectorSource source(demand);
    timing::Controller controller(plan.system.timing, scheme_timing, 16,
                                  timing::PagePolicy::kOpen,
                                  plan.system.scheduler);
    const timing::SimStats st = controller.Run(source, {}, false);
    tally.controller_requests += demand.size();
    ++tally.controller_passes;
    tally.row_hits += st.row_hits;
    tally.row_misses += st.row_misses;
    tally.row_conflicts += st.row_conflicts;
    tally.sim_cycles += st.cycles;
    tally.protocol_violations += controller.checker().violations().size();
  }
  {
    Scope s(&tr, "workload.parse");
    timing::Request req;
    std::uint64_t n = 0;
    while (parser->Next(req)) ++n;
    checks.Expect(n == plan.requests,
                  plan.workload + ": parser pass yields every request");
    tally.parse_bytes += plan.trace_text.size();
  }
  {
    Scope s(&tr, "telemetry.checkpoint_write");
    tel::WriteCheckpointFile(body, ckpt_path);
  }
  JsonValue read;
  {
    Scope s(&tr, "telemetry.checkpoint_read");
    read = tel::ReadCheckpointFile(ckpt_path);
  }
  tally.checkpoint_bytes = std::filesystem::file_size(ckpt_path);
  checks.Expect(from_json(*read.Find("state")) == checkpoint_state,
                plan.workload + ": checkpoint round-trips the campaign state");
  std::remove(ckpt_path.c_str());
  {
    Scope s(&tr, "reliability.resume_position");
    rel::ScenarioShardState late;
    rel::TrialEngine(1).RunShardsObserved<rel::ScenarioShardState,
                                          rel::ScenarioScratch>(
        scenario.seed, rp.trials, rp.resume_shard, rp.total_shards,
        [&](std::uint64_t, util::Xoshiro256& rng, rel::ScenarioShardState& acc,
            rel::ScenarioScratch& scratch) {
          rel::RunScenarioTrial(scenario, plan.scenario_ws, rng, acc, scratch);
        },
        [&](std::uint64_t, const rel::ScenarioShardState& st) { late += st; });
    checks.Expect(late.counts.trials ==
                      rp.trials - rp.resume_shard * rel::TrialEngine::kShardTrials,
                  plan.workload + ": late shard runs every trial it holds");
  }
  resume.TimeOne(tr);
}

double PerUnit(double total, std::uint64_t units) {
  return units == 0 ? 0.0 : total / static_cast<double>(units);
}

/// Layers that run under a primary replica root (telemetry and timing only
/// run under trace.probes), each reported as <layer>.self_share.
const char* const kLayers[] = {"dram", "ecc",  "faults",
                               "reliability", "sim", "workload"};

/// Roots of the traced run, in the order they run within an iteration.
const char* const kRoots[] = {"trace.scenario", "trace.system",
                              "trace.functional", "trace.probes"};

void PrintLayerTable(const Tracer& tr) {
  std::cout << "traced wall " << tr.WallSeconds()
            << " s; self time per layer under each root (layer 'trace' is "
               "the roots' own time: engine loops and driver glue):\n";
  for (const char* root : kRoots) {
    const double wall = tr.WallSeconds(root);
    std::cout << root << ": " << wall << " s\n";
    for (const auto& [layer, l] : tr.Layers(root))
      std::cout << "  " << std::left << std::setw(12) << layer << std::right
                << std::setw(12) << std::fixed << std::setprecision(6)
                << l.self_s << " s " << std::setw(8) << l.spans << " spans "
                << std::setw(8) << std::setprecision(4)
                << (wall > 0 ? l.self_s / wall : 0.0) << " share\n"
                << std::defaultfloat;
  }
}

void WriteTraceFile(const Tracer& tr, const std::string& path,
                    const std::string& provenance) {
  std::ofstream out(path);
  out << "{\"provenance\": " << provenance << ",\n\"spans\": [\n";
  const auto& spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i)
    out << "[" << JsonString(spans[i].name) << "," << spans[i].start_ns << ","
        << spans[i].end_ns << "," << spans[i].parent << ","
        << spans[i].leaf_ns << "]" << (i + 1 < spans.size() ? ",\n" : "\n");
  out << "],\n\"totals\": {";
  bool first = true;
  for (const auto& [name, t] : tr.Totals()) {
    out << (first ? "\n" : ",\n") << JsonString(name) << ": {\"total_s\": "
        << JsonNumber(t.total_s) << ", \"self_s\": " << JsonNumber(t.self_s)
        << ", \"count\": " << t.count << "}";
    first = false;
  }
  out << "\n}}\n";
}

std::vector<Metric> RunTraced(const Plan& plan, double seconds,
                              const std::string& workdir,
                              const std::string& provenance, Checks& checks) {
  Tracer tr;
  ScenarioTally scn;
  SystemTally sys;
  ProbeTally probes;
  double primary_traced = 0.0, primary_untraced = 0.0;
  rel::ScenarioConfig scenario = plan.scenario;
  scenario.threads = 1;
  sim::SystemConfig system = plan.system;
  system.threads = 1;
  const std::string ckpt = workdir + "/" + plan.workload + "-traced.json";
  ResumePhase resume(plan, workdir, checks);

  const Clock::time_point begin = Clock::now();
  for (int it = 0; it == 0 || SecondsSince(begin) < seconds; ++it) {
    if (!plan.size.system_primary) {
      const std::uint64_t trials = plan.size.traced_trials;
      const sim::CampaignSpec spec =
          ScenarioSpec(plan.workload, scenario, trials, ckpt);
      std::remove(ckpt.c_str());
      const Clock::time_point start = Clock::now();
      sim::RunCampaign(spec);
      primary_untraced += SecondsSince(start);
      const rel::ScenarioShardState ref = ReadScenarioState(ckpt);
      std::remove(ckpt.c_str());
      primary_traced += TraceScenarioCampaign(tr, scenario, plan.scenario_ws,
                                              trials, ref, plan.workload, scn,
                                              checks);
      const std::uint64_t probe = plan.size.probe_trials;
      TraceSystemCampaign(tr, system, plan.system_ws, plan.factory, probe,
                          SystemCampaignState(system, plan.factory, probe),
                          plan.workload + " system probe", sys, checks);
      RunProbes(tr, plan, workdir, resume, ref,
                [](const rel::ScenarioShardState& s) {
                  return rel::ScenarioStateToJson(s);
                },
                [](const JsonValue& v) { return rel::ScenarioStateFromJson(v); },
                probes, checks);
    } else {
      const std::uint64_t trials = plan.size.traced_trials;
      const Clock::time_point start = Clock::now();
      const sim::SystemShardState ref =
          SystemCampaignState(system, plan.factory, trials);
      primary_untraced += SecondsSince(start);
      primary_traced += TraceSystemCampaign(tr, system, plan.system_ws,
                                            plan.factory, trials, ref,
                                            plan.workload, sys, checks);
      const std::uint64_t probe = plan.size.probe_trials;
      TraceScenarioCampaign(tr, scenario, plan.scenario_ws, probe,
                            MonteCarloState(scenario, probe),
                            plan.workload + " scenario probe", scn, checks);
      RunProbes(tr, plan, workdir, resume, ref,
                [](const sim::SystemShardState& s) {
                  return sim::SystemStateToJson(s);
                },
                [](const JsonValue& v) { return sim::SystemStateFromJson(v); },
                probes, checks);
    }
  }

  const auto totals = tr.Totals();
  const auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const std::uint64_t st = scn.trials;
  const std::uint64_t yt = sys.trials;
  const sim::SystemStats& ys = sys.state.stats;
  // Codec counts of the primary campaign kind.
  const ecc::CodecCounters& codec = plan.size.system_primary
                                        ? sys.state.tel.codec
                                        : scn.state.tel.codec;
  const std::uint64_t primary_trials = plan.size.system_primary ? yt : st;
  const std::uint64_t bus = ys.bus_reads + ys.bus_writes;
  const std::uint64_t row_ops =
      probes.row_hits + probes.row_misses + probes.row_conflicts;

  std::vector<Metric> m = {
      {"dram.rank_build_s", PerUnit(total("dram.rank_build").self_s, st), "s"},
      {"ecc.make_scheme_s", PerUnit(total("ecc.make_scheme").self_s, st), "s"},
      {"reliability.truth_lines_s",
       PerUnit(total("reliability.truth_lines").self_s, st), "s"},
      {"ecc.write_lines_s", PerUnit(total("ecc.write_lines").self_s, st), "s"},
      {"faults.inject_s", PerUnit(total("faults.inject").self_s, st), "s"},
      {"ecc.read_lines_s", PerUnit(total("ecc.read_lines").self_s, st), "s"},
      {"reliability.classify_s",
       PerUnit(total("reliability.classify").self_s, st), "s"},
      {"reliability.engine_overhead_s",
       PerUnit(total("trace.scenario").self_s, st), "s"},
      {"ecc.lines_written", PerUnit(static_cast<double>(scn.lines_written), st),
       "count"},
      {"ecc.lines_read", PerUnit(static_cast<double>(scn.lines_read), st),
       "count"},
      {"faults.injected", PerUnit(static_cast<double>(scn.injected), st),
       "count"},
      {"dram.stuck_bits", PerUnit(static_cast<double>(scn.stuck_bits), st),
       "count"},
      {"dram.read_row_ns",
       1e9 * PerUnit(total("dram.read_row").total_s,
                     total("dram.read_row").count),
       "ns"},
      {"dram.write_row_ns",
       1e9 * PerUnit(total("dram.write_row").total_s,
                     total("dram.write_row").count),
       "ns"},
      {"telemetry.checkpoint_write_s",
       PerUnit(total("telemetry.checkpoint_write").total_s,
               total("telemetry.checkpoint_write").count),
       "s"},
      {"telemetry.checkpoint_read_s",
       PerUnit(total("telemetry.checkpoint_read").total_s,
               total("telemetry.checkpoint_read").count),
       "s"},
      {"telemetry.checkpoint_bytes",
       static_cast<double>(probes.checkpoint_bytes), "bytes"},
      {"reliability.resume_position_s",
       PerUnit(total("reliability.resume_position").total_s,
               total("reliability.resume_position").count),
       "s"},
      {"reliability.resume_call_s",
       PerUnit(total("reliability.resume_call").total_s,
               total("reliability.resume_call").count),
       "s"},
      {"sim.setup_s", PerUnit(total("sim.setup").total_s, yt), "s"},
      {"sim.functional_s", PerUnit(total("sim.functional").total_s, yt), "s"},
      {"sim.timing_s",
       PerUnit(total("sim.run").total_s - total("sim.functional").total_s, yt),
       "s"},
      {"sim.host_us_per_request",
       1e6 * PerUnit(total("sim.run").total_s, DemandRequests(ys)), "us"},
      {"sim.maintenance_requests",
       PerUnit(static_cast<double>(bus - DemandRequests(ys)), yt), "count"},
      {"sim.faults_injected",
       PerUnit(static_cast<double>(ys.faults_injected), yt), "count"},
      {"sim.scrub_rows",
       PerUnit(static_cast<double>(ys.scrub_rows_scrubbed), yt), "count"},
      {"ecc.decodes", PerUnit(static_cast<double>(codec.decodes), primary_trials),
       "count"},
      {"ecc.writes", PerUnit(static_cast<double>(codec.writes), primary_trials),
       "count"},
      {"ecc.scrub_rows",
       PerUnit(static_cast<double>(codec.scrub_rows), primary_trials), "count"},
      {"ecc.claim_detected",
       PerUnit(static_cast<double>(codec.claim_detected), primary_trials),
       "count"},
      {"timing.controller_requests_per_s",
       static_cast<double>(probes.controller_requests) /
           total("timing.controller").total_s,
       "1/s"},
      {"timing.row_hit_ratio",
       PerUnit(static_cast<double>(probes.row_hits), row_ops), "ratio"},
      {"timing.row_conflicts",
       PerUnit(static_cast<double>(probes.row_conflicts),
               probes.controller_passes),
       "count"},
      {"timing.sim_cycles",
       PerUnit(static_cast<double>(probes.sim_cycles), probes.controller_passes),
       "cycles"},
      {"timing.protocol_violations",
       static_cast<double>(probes.protocol_violations), "count"},
      {"workload.next_s", PerUnit(total("workload.next").total_s, yt), "s"},
      {"workload.requests_pulled",
       PerUnit(static_cast<double>(total("workload.next").count), yt),
       "count"},
      {"workload.parse_mb_per_s",
       static_cast<double>(probes.parse_bytes) * 1e-6 /
           total("workload.parse").total_s,
       "MB/s"},
      {"workload.trace_bytes", static_cast<double>(plan.trace_text.size()),
       "bytes"},
      {"trace.overhead_share", primary_traced / primary_untraced - 1.0,
       "ratio"},
  };
  // Layer shares of the primary replica: where the workload's own time goes.
  const char* primary =
      plan.size.system_primary ? "trace.system" : "trace.scenario";
  const double wall = tr.WallSeconds(primary);
  const auto layers = tr.Layers(primary);
  const auto share = [&](const char* layer) {
    const auto it = layers.find(layer);
    return it == layers.end() ? 0.0 : it->second.self_s / wall;
  };
  for (const char* layer : kLayers)
    m.push_back({std::string(layer) + ".self_share", share(layer), "ratio"});
  m.push_back({"trace.residual_share", share("trace"), "ratio"});
  const auto check_sum = [&](std::string_view root) {
    double layer_sum = 0.0;
    for (const auto& [layer, l] : tr.Layers(root)) layer_sum += l.self_s;
    const double root_wall = tr.WallSeconds(root);
    checks.Expect(std::fabs(layer_sum - root_wall) <= 1e-6 * root_wall + 1e-9,
                  plan.workload + ": layer self times add up to the traced "
                                  "wall of " +
                      (root.empty() ? "all roots" : std::string(root)));
  };
  check_sum({});
  for (const char* root : kRoots) check_sum(root);
  checks.Expect(probes.protocol_violations == 0,
                plan.workload + ": controller probe has no protocol violations");

  PrintLayerTable(tr);
  WriteTraceFile(tr,
                 workdir + "/trace-" + plan.workload + "-" +
                     std::to_string(plan.seed) + ".json",
                 provenance);
  return m;
}

// ---------------------------------------------------------------- main

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string root = ".";
  std::string workdir = ".bench_build/perfbench/work";
};

Options ParseOptions(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      o.selftest = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::stoull(value);
    else if (flag == "--seconds") o.seconds = std::stod(value);
    else if (flag == "--trace") o.trace = value != "0";
    else if (flag == "--root") o.root = value;
    else if (flag == "--workdir") o.workdir = value;
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (!(o.seconds > 0.0)) throw std::runtime_error("--seconds must be positive");
  return o;
}

std::string Provenance(const Options& o, const Plan& plan) {
  const char* pin = std::getenv("PAIR_GF_KERNEL");
  std::ostringstream p;
  p << "{\"nproc\": " << OnlineCpus()
    << ", \"cpu_model\": " << JsonString(CpuModel())
    << ", \"compiler\": " << JsonString(std::string("gcc ") + __VERSION__)
    << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
    << ", \"gf_kernel\": " << JsonString(plan.gf_kernel)
    << ", \"gf_kernel_pin\": " << JsonString(pin != nullptr ? pin : "")
    << ", \"engine_threads\": " << (o.trace ? 1 : kEngineThreads)
    << ", \"workload\": " << JsonString(o.workload)
    << ", \"trace\": " << (o.trace ? 1 : 0) << ", \"seeds\": {\"workload\": "
    << o.seed << ", \"stream\": " << plan.stream_seed << ", \"campaign\": [";
  for (int k = 0; k < kDistinctInputs; ++k)
    p << (k ? ", " : "") << CallSeed(plan.seed, k);
  p << "], \"warmup_campaign\": " << kWarmupSeed
    << ", \"golden_campaign\": 1, \"smoke_stream\": 7, \"smoke_campaign\": 1}}";
  return p.str();
}

void PrintResult(const Checks& checks, const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << checks.attempted()
      << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out << (i ? ", " : "") << JsonString(metrics[i].name)
        << ": {\"value\": " << JsonNumber(metrics[i].value)
        << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  out << "}}";
  std::cout << out.str() << std::endl;
}

int Main(int argc, char** argv) {
  const Options o = ParseOptions(argc, argv);
  std::filesystem::create_directories(o.workdir);
  Checks checks;
  RunSelfTests(checks, o.workdir);
  if (o.selftest) {
    std::cout << "selftest: " << checks.attempted() - checks.failed() << "/"
              << checks.attempted() << " passed\n";
    return checks.failed() == 0 ? 0 : 1;
  }
  SizeOf(o.workload);  // rejects an unknown workload before any work

  // Set-up; untraced runs repeat it between timed calls (the plan they
  // measure is the first) and report the median.
  std::vector<double> setup_times;
  const auto timed_setup = [&] {
    const Clock::time_point start = Clock::now();
    Plan p = Setup(o.workload, o.seed, o.workdir);
    setup_times.push_back(SecondsSince(start));
    return p;
  };
  const Plan plan = timed_setup();
  const std::string provenance = Provenance(o, plan);

  std::vector<Metric> metrics;
  if (o.trace) {
    checks.Guard(o.workload + ": traced run", [&] {
      metrics = RunTraced(plan, o.seconds, o.workdir, provenance, checks);
    });
  } else {
    Rates rates;
    checks.Guard(o.workload + ": measured campaign", [&] {
      const std::function<void()> between = [&] {
        if (setup_times.size() < kSetupRepeats) timed_setup();
      };
      rates = plan.size.system_primary
                  ? MeasureSystemCampaign(plan, o.seconds, between, checks)
                  : MeasureScenarioCampaign(plan, o.seconds, o.workdir,
                                            between, checks);
      while (setup_times.size() < kSetupRepeats) timed_setup();
    });
    std::cout << o.workload << ": set-up";
    for (const double t : setup_times) std::cout << " " << t;
    std::cout << " s\n";
    metrics = {
        {"trials_per_s", Median(rates.trials_per_s), "1/s"},
        {"requests_per_s", Median(rates.requests_per_s), "1/s"},
        {"setup_s", Median(setup_times), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
  }

  checks.Guard(o.workload + ": pinned digests",
               [&] { CheckGoldens(o.workload, o.root, o.workdir, checks); });
  if (o.workload == "sys_tensor")
    checks.Guard("sys_tensor: smoke baseline",
                 [&] { CheckSmokeBaseline(o.root, checks); });
  for (Metric& m : metrics) {
    const bool ok = ValidMetricName(m.name) && std::isfinite(m.value);
    checks.Expect(ok, "metric " + m.name + " is named and finite");
    if (!std::isfinite(m.value)) m.value = 0.0;
  }
  std::cout << "{\"provenance\": " << provenance << "}\n";
  PrintResult(checks, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
