// End-to-end integration: replay one generated workload through BOTH the
// functional data path (scheme encode/decode against a shadow copy) and
// the timing path (controller + protocol checker), with faults arriving
// mid-stream — the closest thing to a full-system run the library does,
// exercising every layer together.
#include <gtest/gtest.h>

#include <map>

#include "dram/rank.hpp"
#include "ecc/scheme.hpp"
#include "faults/injector.hpp"
#include "reliability/outcome.hpp"
#include "timing/controller.hpp"
#include "util/rng.hpp"
#include "workload/streams.hpp"
#include "workload/trace_io.hpp"

namespace pair_ecc {
namespace {

using pair_ecc::util::BitVec;
using pair_ecc::util::Xoshiro256;

struct Replay {
  std::uint64_t reads = 0;
  std::uint64_t sdc = 0;
  std::uint64_t due = 0;
  std::uint64_t corrected = 0;
  timing::SimStats timing;
  std::vector<std::string> violations;
};

/// Runs the trace through the scheme functionally (with a shadow truth map)
/// and through the timing controller; injects `faults` evenly spaced
/// through the stream.
Replay RunBoth(ecc::SchemeKind kind, const workload::StreamConfig& wcfg,
           unsigned fault_count, std::uint64_t seed) {
  dram::RankGeometry rg;
  dram::Rank rank(rg);
  auto scheme = ecc::MakeScheme(kind, rank);
  Xoshiro256 rng(seed);

  auto trace = timing::Materialize(*workload::MakeStream(wcfg));

  // Functional replay.
  Replay out;
  std::map<std::tuple<unsigned, unsigned, unsigned>, BitVec> truth;
  std::vector<faults::RowRef> rows;
  for (unsigned r = 0; r < wcfg.rows; ++r)
    rows.push_back({r % wcfg.banks, r});
  faults::Injector injector(rank, rows);
  const std::size_t fault_every =
      fault_count ? trace.size() / (fault_count + 1) : trace.size() + 1;

  std::size_t i = 0;
  for (const auto& req : trace) {
    if (fault_count && i != 0 && i % fault_every == 0 &&
        i / fault_every <= fault_count) {
      injector.InjectFromMix(faults::FaultMix::Inherent(), rng);
      // Also plant one guaranteed-visible single-bit flip at the next read
      // in the stream, so every faulty run exercises the decode path
      // deterministically (mix faults may land outside the read set).
      for (std::size_t j = i; j < trace.size(); ++j) {
        if (trace[j].op != timing::Op::kRead) continue;
        const auto& a = trace[j].addr;
        rank.device(rng.UniformBelow(8))
            .InjectFlip(a.bank, a.row,
                        a.col * 64 + static_cast<unsigned>(rng.UniformBelow(64)));
        break;
      }
    }
    ++i;
    const auto key =
        std::make_tuple(req.addr.bank, req.addr.row, req.addr.col);
    if (req.op == timing::Op::kWrite) {
      const BitVec line = BitVec::Random(rg.LineBits(), rng);
      scheme->WriteLine(req.addr, line);
      truth[key] = line;
    } else {
      const auto it = truth.find(key);
      const auto read = scheme->ReadLine(req.addr);
      ++out.reads;
      // Unwritten lines are all-zero by construction.
      const BitVec expect =
          it == truth.end() ? BitVec(rg.LineBits()) : it->second;
      const auto outcome = reliability::Classify(read.claim, read.data, expect);
      out.sdc += reliability::IsSdc(outcome);
      out.due += outcome == reliability::Outcome::kDue;
      out.corrected += outcome == reliability::Outcome::kCorrected;
    }
  }

  // Timing replay of the same trace.
  const timing::TimingParams params = timing::TimingParams::Ddr4_3200();
  timing::Controller ctrl(
      params, timing::SchemeTiming::FromPerf(scheme->Perf(), params));
  auto timing_trace = trace;
  out.timing = ctrl.Run(timing_trace);
  out.violations = ctrl.checker().violations();
  return out;
}

workload::StreamConfig SmallWorkload(std::uint64_t seed) {
  workload::StreamConfig cfg;
  cfg.num_requests = 1500;
  cfg.kind = workload::StreamKind::kHotspot;
  cfg.read_fraction = 0.6;
  cfg.rows = 4;      // small working set so writes and reads collide
  cfg.hot_rows = 2;
  cfg.intensity = 0.1;
  cfg.seed = seed;
  return cfg;
}

class IntegrationTest : public ::testing::TestWithParam<ecc::SchemeKind> {};

TEST_P(IntegrationTest, FaultFreeRunIsPerfectlyClean) {
  const auto out = RunBoth(GetParam(), SmallWorkload(1), /*fault_count=*/0, 11);
  EXPECT_GT(out.reads, 0u);
  EXPECT_EQ(out.sdc, 0u);
  EXPECT_EQ(out.due, 0u);
  EXPECT_EQ(out.corrected, 0u);
  EXPECT_TRUE(out.violations.empty());
  EXPECT_EQ(out.timing.reads + out.timing.writes, 1500u);
}

TEST_P(IntegrationTest, FaultyRunNeverViolatesProtocolAndClassifiesSanely) {
  const auto out = RunBoth(GetParam(), SmallWorkload(2), /*fault_count=*/3, 13);
  EXPECT_TRUE(out.violations.empty());
  // With three inherent faults in a 4-row working set, a protected scheme
  // must be actively correcting or flagging — silent-SDC-only behaviour
  // would be suspicious everywhere except No-ECC.
  if (GetParam() != ecc::SchemeKind::kNoEcc) {
    EXPECT_GT(out.corrected + out.due, 0u);
  }
}

TEST_P(IntegrationTest, TimingCompletesEveryRequestInOrderConstraints) {
  const auto out = RunBoth(GetParam(), SmallWorkload(3), 1, 17);
  EXPECT_GT(out.timing.avg_read_latency, 0.0);
  EXPECT_LE(out.timing.bus_utilization, 1.0);
  EXPECT_GT(out.timing.cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, IntegrationTest,
    ::testing::Values(ecc::SchemeKind::kNoEcc, ecc::SchemeKind::kIecc,
                      ecc::SchemeKind::kIeccSecDed, ecc::SchemeKind::kXed,
                      ecc::SchemeKind::kDuo, ecc::SchemeKind::kPair2,
                      ecc::SchemeKind::kPair4, ecc::SchemeKind::kPair4SecDed),
    [](const auto& param_info) {
      std::string n = ecc::ToString(param_info.param);
      for (char& c : n)
        if (c == '-' || c == '+') c = '_';
      return n;
    });

TEST(IntegrationTraceIo, SavedTraceReplaysIdentically) {
  const auto cfg = SmallWorkload(4);
  auto trace = timing::Materialize(*workload::MakeStream(cfg));
  std::stringstream buffer;
  workload::WriteTrace(trace, buffer);
  auto loaded = workload::ReadTrace(buffer);

  const timing::TimingParams params;
  timing::Controller a(params, timing::SchemeTiming::FromPerf({}, params));
  timing::Controller b(params, timing::SchemeTiming::FromPerf({}, params));
  const auto sa = a.Run(trace);
  const auto sb = b.Run(loaded);
  EXPECT_EQ(sa.cycles, sb.cycles);
  EXPECT_EQ(sa.avg_read_latency, sb.avg_read_latency);
  EXPECT_EQ(sa.row_hits, sb.row_hits);
}

TEST(IntegrationSdc, NoEccEventuallyShowsSilentCorruption) {
  // Sanity of the whole pipeline's ground-truth accounting: the unprotected
  // configuration must exhibit SDC under injected faults.
  unsigned long long total_sdc = 0;
  for (std::uint64_t seed = 0; seed < 5 && total_sdc == 0; ++seed) {
    const auto out =
        RunBoth(ecc::SchemeKind::kNoEcc, SmallWorkload(5 + seed), 4, 19 + seed);
    total_sdc += out.sdc;
  }
  EXPECT_GT(total_sdc, 0u);
}

}  // namespace
}  // namespace pair_ecc
