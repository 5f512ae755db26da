// Streaming end-to-end differentials: every synthetic stream generator and
// a compressed on-disk trace produce byte-identical SystemStats whether
// the demand is materialized up front (RunSystemCampaign) or handed over
// as a factory that regenerates / re-parses it (RunSystemCampaignStreaming)
// — at more than one thread count, since trial-parallel campaigns create a
// source per trial. Pins what the demand scan keeps (the requests up to the
// horizon, at most kMaxKeptDemandRequests) by counting factory calls, the
// generators' own determinism contract and MemorySystem's explicit-horizon
// precondition.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "sim/campaign.hpp"
#include "sim/memory_system.hpp"
#include "telemetry/json.hpp"
#include "timing/request_source.hpp"
#include "util/rng.hpp"
#include "workload/byte_source.hpp"
#include "workload/streams.hpp"
#include "workload/trace_io.hpp"
#include "workload/trace_stream.hpp"

namespace pair_ecc::sim {
namespace {

constexpr unsigned kTrials = 6;

SystemConfig BaseConfig() {
  SystemConfig cfg;
  cfg.scheme = ecc::SchemeKind::kPair4;
  cfg.faults_per_mcycle = 200.0;
  cfg.scrub.interval_cycles = 3000;
  cfg.repair.due_threshold = 2;
  cfg.seed = 42;
  cfg.threads = 1;
  return cfg;
}

workload::StreamConfig SmallStream(workload::StreamKind kind) {
  workload::StreamConfig cfg;
  cfg.kind = kind;
  cfg.num_requests = 400;
  cfg.banks = 16;
  cfg.seed = 7;
  return cfg;
}

void ExpectStreamingMatchesMaterialized(const SystemConfig& base,
                                        const timing::Trace& demand,
                                        const RequestSourceFactory& factory,
                                        const char* label) {
  for (const unsigned threads : {1u, 3u}) {
    SystemConfig cfg = base;
    cfg.threads = threads;
    const SystemStats materialized = RunSystemCampaign(cfg, demand, kTrials);
    StreamingDemandInfo info;
    const SystemStats streamed =
        RunSystemCampaignStreaming(cfg, factory, kTrials, nullptr, &info);
    EXPECT_EQ(materialized, streamed)
        << label << " at threads=" << threads;
    EXPECT_EQ(info.requests, demand.size()) << label;
    ASSERT_FALSE(demand.empty());
    EXPECT_GT(info.horizon_cycles, demand.back().arrival) << label;
  }
}

TEST(StreamingCampaign, EverySyntheticGeneratorMatchesMaterialized) {
  for (const auto kind :
       {workload::StreamKind::kTensorStream, workload::StreamKind::kPointerChase,
        workload::StreamKind::kBatchInference}) {
    const workload::StreamConfig stream = SmallStream(kind);
    const timing::Trace demand =
        timing::Materialize(*workload::MakeStream(stream));
    ExpectStreamingMatchesMaterialized(
        BaseConfig(), demand,
        [&stream] { return workload::MakeStream(stream); },
        workload::ToString(kind).c_str());
  }
}

TEST(StreamingCampaign, CompressedTraceFileMatchesMaterialized) {
  if (!workload::GzipSupported()) GTEST_SKIP() << "built without zlib";
  workload::StreamConfig wl;
  wl.read_fraction = 0.67;
  wl.intensity = 0.05;
  wl.kind = workload::StreamKind::kHotspot;
  wl.num_requests = 300;
  wl.seed = 13;
  const timing::Trace demand = timing::Materialize(*workload::MakeStream(wl));
  std::stringstream buffer;
  workload::WriteTrace(demand, buffer);
  const std::string path = ::testing::TempDir() + "/pair_system_demand.gz";
  workload::GzipWriteFile(path, buffer.str());

  ExpectStreamingMatchesMaterialized(
      BaseConfig(), demand,
      [path]() -> std::unique_ptr<timing::RequestSource> {
        return workload::OpenTraceStream(path);
      },
      "gzip trace");
}

TEST(StreamingCampaign, ExplicitHorizonMatchesBetweenPaths) {
  // With a caller-pinned horizon ScanDemand derives nothing; the two
  // demand sources must still agree bitwise.
  const workload::StreamConfig stream =
      SmallStream(workload::StreamKind::kTensorStream);
  const timing::Trace demand =
      timing::Materialize(*workload::MakeStream(stream));
  SystemConfig cfg = BaseConfig();
  cfg.horizon_cycles = demand.back().arrival + 50000;
  ExpectStreamingMatchesMaterialized(
      cfg, demand, [&stream] { return workload::MakeStream(stream); },
      "pinned horizon");
}

// ------------------------------------------------ what the demand scan keeps

/// `n` requests, one every 16 cycles, eight to a row across the 16 banks: a
/// cheap sorted stream of exactly the length a test picks.
class CountedStream final : public timing::RequestSource {
 public:
  explicit CountedStream(std::uint64_t n) : n_(n) {}

  bool Next(timing::Request& out) override {
    if (i_ == n_) return false;
    out = timing::Request{};
    out.arrival = 16 * i_;
    out.op = i_ % 4 == 3 ? timing::Op::kWrite : timing::Op::kRead;
    out.addr = {static_cast<unsigned>(i_ / 8 % 16),
                static_cast<unsigned>(i_ / 128 % 64),
                static_cast<unsigned>(i_ % 8)};
    ++i_;
    return true;
  }

  void Reset() override { i_ = 0; }

 private:
  std::uint64_t n_;
  std::uint64_t i_ = 0;
};

/// CountedStream(n) sources; `calls` counts them, from any worker thread.
RequestSourceFactory CountingFactory(std::uint64_t n,
                                     std::atomic<unsigned>& calls) {
  return [n, &calls] {
    calls.fetch_add(1, std::memory_order_relaxed);
    return std::make_unique<CountedStream>(n);
  };
}

/// No faults and no patrol scrub: trials over a long stream stay cheap.
SystemConfig QuietConfig() {
  SystemConfig cfg;
  cfg.faults_per_mcycle = 0.0;
  cfg.scrub.interval_cycles = 0;
  cfg.threads = 3;
  return cfg;
}

constexpr std::uint64_t kCapTrials = 3;

TEST(StreamingCampaign, DemandAtTheCapIsReadOnce) {
  std::atomic<unsigned> calls{0};
  StreamingDemandInfo info;
  const SystemStats stats = RunSystemCampaignStreaming(
      QuietConfig(), CountingFactory(kMaxKeptDemandRequests, calls),
      kCapTrials, nullptr, &info);
  EXPECT_EQ(calls.load(), 1u);
  EXPECT_EQ(info.requests, kMaxKeptDemandRequests);
  ASSERT_NE(info.kept, nullptr);
  EXPECT_EQ(info.kept->size(), kMaxKeptDemandRequests);
  EXPECT_EQ(stats.demand_reads + stats.demand_writes,
            kCapTrials * kMaxKeptDemandRequests);
}

TEST(StreamingCampaign, DemandAboveTheCapStreamsEveryTrial) {
  SystemConfig cfg = QuietConfig();
  std::atomic<unsigned> calls{0};
  StreamingDemandInfo info;
  const SystemStats stats = RunSystemCampaignStreaming(
      cfg, CountingFactory(kMaxKeptDemandRequests + 1, calls), kCapTrials,
      nullptr, &info);
  EXPECT_EQ(calls.load(), 1u + kCapTrials);
  EXPECT_EQ(info.requests, kMaxKeptDemandRequests + 1);
  EXPECT_EQ(info.kept, nullptr);
  EXPECT_EQ(stats.demand_reads + stats.demand_writes,
            kCapTrials * (kMaxKeptDemandRequests + 1));

  // The streamed trials are the trials a replay from memory runs (the
  // timing stats see every request): trial i draws its stream from the
  // i-th output of Xoshiro256(seed), as the engine derives it.
  cfg.horizon_cycles = info.horizon_cycles;
  const reliability::WorkingSet ws = MakeSystemWorkingSet(cfg);
  CountedStream stream(kMaxKeptDemandRequests + 1);
  const timing::Trace demand = timing::Materialize(stream);
  util::Xoshiro256 master(cfg.seed);
  SystemStats replayed;
  reliability::TrialTelemetry tel;
  for (std::uint64_t t = 0; t < kCapTrials; ++t) {
    util::Xoshiro256 rng(master());
    timing::VectorSource source(demand);
    MemorySystem(cfg, ws, source, rng).Run(replayed, tel);
  }
  EXPECT_EQ(stats, replayed);
}

TEST(StreamingCampaign, ExplicitHorizonKeepsOnlyItsPrefix) {
  // A stream past the cap whose horizon ends at request 99: the trials
  // read requests 0..99 only, so the scan keeps those and nothing else.
  SystemConfig cfg = QuietConfig();
  cfg.horizon_cycles = 16 * 99;
  std::atomic<unsigned> calls{0};
  StreamingDemandInfo info;
  const SystemStats stats = RunSystemCampaignStreaming(
      cfg, CountingFactory(kMaxKeptDemandRequests + 1, calls), kCapTrials,
      nullptr, &info);
  EXPECT_EQ(calls.load(), 1u);
  EXPECT_EQ(info.requests, kMaxKeptDemandRequests + 1);
  EXPECT_EQ(info.horizon_cycles, cfg.horizon_cycles);
  ASSERT_NE(info.kept, nullptr);
  CountedStream prefix(100);
  const timing::Trace want = timing::Materialize(prefix);
  ASSERT_EQ(info.kept->size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ((*info.kept)[i].arrival, want[i].arrival) << i;
    EXPECT_EQ((*info.kept)[i].op, want[i].op) << i;
    EXPECT_EQ((*info.kept)[i].addr, want[i].addr) << i;
  }
  EXPECT_EQ(stats.demand_reads + stats.demand_writes, kCapTrials * 100);
}

TEST(StreamingCampaign, SystemAndSplitCampaignsReadTheDemandOnce) {
  for (const bool split : {false, true}) {
    std::atomic<unsigned> calls{0};
    CampaignSpec spec;
    spec.mode = CampaignMode::kSystem;
    spec.system = QuietConfig();
    spec.system.faults_per_mcycle = 200.0;
    spec.demand = CountingFactory(400, calls);
    spec.trials = 40;
    spec.checkpoint_path =
        ::testing::TempDir() + "/pair_demand_read_once.json";
    std::remove(spec.checkpoint_path.c_str());
    spec.fingerprint = telemetry::JsonValue::MakeObject();
    if (split) {
      spec.split.thresholds = {1, 2};
      spec.split.replicas = 3;
    }
    ASSERT_TRUE(RunCampaign(spec).complete) << "split " << split;
    EXPECT_EQ(calls.load(), 1u) << "split " << split;
  }
}

// ------------------------------------------------------- stream generators

TEST(SyntheticStreams, DeterministicAndRewindable) {
  for (const auto kind :
       {workload::StreamKind::kTensorStream, workload::StreamKind::kPointerChase,
        workload::StreamKind::kBatchInference}) {
    const workload::StreamConfig cfg = SmallStream(kind);
    const timing::Trace a = timing::Materialize(*workload::MakeStream(cfg));
    const timing::Trace b = timing::Materialize(*workload::MakeStream(cfg));
    ASSERT_EQ(a.size(), cfg.num_requests) << workload::ToString(kind);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].arrival, b[i].arrival) << workload::ToString(kind);
      ASSERT_EQ(a[i].op, b[i].op) << workload::ToString(kind);
      ASSERT_EQ(a[i].addr, b[i].addr) << workload::ToString(kind);
      ASSERT_GE(i == 0 ? a[0].arrival : a[i].arrival,
                i == 0 ? 0 : a[i - 1].arrival)
          << workload::ToString(kind) << " not sorted at " << i;
      ASSERT_LT(a[i].addr.bank, cfg.banks) << workload::ToString(kind);
    }
    // Reset on one instance replays the same sequence.
    auto source = workload::MakeStream(cfg);
    const timing::Trace first = timing::Materialize(*source);
    source->Reset();
    const timing::Trace second = timing::Materialize(*source);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
      ASSERT_EQ(first[i].addr, second[i].addr) << workload::ToString(kind);
  }
}

TEST(SyntheticStreams, SeedChangesTheSequence) {
  workload::StreamConfig a = SmallStream(workload::StreamKind::kPointerChase);
  workload::StreamConfig b = a;
  b.seed = a.seed + 1;
  const timing::Trace ta = timing::Materialize(*workload::MakeStream(a));
  const timing::Trace tb = timing::Materialize(*workload::MakeStream(b));
  bool differs = false;
  for (std::size_t i = 0; i < ta.size() && i < tb.size(); ++i)
    differs |= !(ta[i].addr == tb[i].addr) || ta[i].arrival != tb[i].arrival;
  EXPECT_TRUE(differs);
}

TEST(SyntheticStreams, NamesRoundTripAndConfigValidates) {
  for (const auto kind :
       {workload::StreamKind::kTensorStream, workload::StreamKind::kPointerChase,
        workload::StreamKind::kBatchInference, workload::StreamKind::kStream,
        workload::StreamKind::kRandom, workload::StreamKind::kHotspot,
        workload::StreamKind::kLinear, workload::StreamKind::kStrided})
    EXPECT_EQ(workload::StreamKindFromString(workload::ToString(kind)), kind);
  EXPECT_THROW(workload::StreamKindFromString("gups"), std::exception);
  workload::StreamConfig cfg;
  cfg.Validate();
  cfg.banks = 0;
  EXPECT_THROW(cfg.Validate(), std::exception);
}

// --------------------------------------------------------- preconditions

TEST(StreamingMemorySystem, RequiresAnExplicitHorizon) {
  SystemConfig cfg = BaseConfig();
  const reliability::WorkingSet ws = MakeSystemWorkingSet(cfg);
  auto source = workload::MakeStream(
      SmallStream(workload::StreamKind::kTensorStream));
  util::Xoshiro256 rng(1);
  EXPECT_THROW(MemorySystem(cfg, ws, *source, rng), std::invalid_argument);
}

}  // namespace
}  // namespace pair_ecc::sim
