// Streaming end-to-end differentials: every synthetic stream generator and
// a compressed on-disk trace produce byte-identical SystemStats whether
// the demand is materialized up front and replayed from memory
// (RunSystemCampaign, a VectorSource per trial) or regenerated / re-parsed
// per trial (RunSystemCampaignStreaming) — at more than one thread count,
// since trial-parallel campaigns re-create the stream per trial. Also pins
// the generators' own determinism contract and MemorySystem's
// explicit-horizon precondition.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>

#include "sim/campaign.hpp"
#include "sim/memory_system.hpp"
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
