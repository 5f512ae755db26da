// Workload-generator tests: configuration validation, determinism, address
// ranges, read/write mix, arrival pacing, per-pattern locality, pinned
// sequences for every generator kind, and trace file round trips.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "util/atomic_file.hpp"
#include "util/contract.hpp"
#include "workload/streams.hpp"
#include "workload/trace_io.hpp"

namespace pair_ecc::workload {
namespace {

TEST(WorkloadConfig, ValidatesFields) {
  StreamConfig cfg;
  cfg.Validate();
  cfg.read_fraction = 1.5;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  cfg = StreamConfig{};
  cfg.intensity = 0.0;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  cfg = StreamConfig{};
  cfg.hot_rows = cfg.rows + 1;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  cfg = StreamConfig{};
  cfg.num_requests = 0;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
}

// A NaN intensity used to pass Validate() and hang the first Next().
TEST(WorkloadConfig, RejectsNanIntensityAndReadFraction) {
  StreamConfig cfg;
  cfg.intensity = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(MakeStream(cfg), util::ContractViolation);
  cfg = StreamConfig{};
  cfg.read_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(MakeStream(cfg), util::ContractViolation);
}

TEST(Generator, ProducesRequestedCountSortedByArrival) {
  StreamConfig cfg;
  cfg.kind = StreamKind::kRandom;
  cfg.num_requests = 3000;
  const auto trace = timing::Materialize(*MakeStream(cfg));
  ASSERT_EQ(trace.size(), 3000u);
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
}

TEST(Generator, IsDeterministicPerSeed) {
  StreamConfig cfg;
  cfg.kind = StreamKind::kRandom;
  cfg.seed = 42;
  const auto a = timing::Materialize(*MakeStream(cfg));
  const auto b = timing::Materialize(*MakeStream(cfg));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].op, b[i].op);
    EXPECT_EQ(a[i].addr, b[i].addr);
  }
  cfg.seed = 43;
  const auto c = timing::Materialize(*MakeStream(cfg));
  bool differs = false;
  for (std::size_t i = 0; i < a.size() && !differs; ++i)
    differs = !(a[i].addr == c[i].addr);
  EXPECT_TRUE(differs);
}

TEST(Generator, AddressesStayInRange) {
  for (StreamKind p :
       {StreamKind::kStream, StreamKind::kRandom, StreamKind::kHotspot}) {
    StreamConfig cfg;
    cfg.kind = p;
    cfg.num_requests = 2000;
    cfg.banks = 8;
    cfg.rows = 16;
    cfg.cols = 32;
    for (const auto& req : timing::Materialize(*MakeStream(cfg))) {
      EXPECT_LT(req.addr.bank, 8u);
      EXPECT_LT(req.addr.row, 16u);
      EXPECT_LT(req.addr.col, 32u);
    }
  }
}

TEST(Generator, ReadFractionIsRespected) {
  StreamConfig cfg;
  cfg.kind = StreamKind::kRandom;
  cfg.num_requests = 20000;
  cfg.read_fraction = 0.25;
  const auto trace = timing::Materialize(*MakeStream(cfg));
  std::size_t reads = 0;
  for (const auto& req : trace) reads += req.op == timing::Op::kRead;
  EXPECT_NEAR(static_cast<double>(reads) / trace.size(), 0.25, 0.02);
}

TEST(Generator, IntensityControlsArrivalDensity) {
  StreamConfig cfg;
  cfg.kind = StreamKind::kRandom;
  cfg.num_requests = 10000;
  cfg.intensity = 0.1;
  const auto trace = timing::Materialize(*MakeStream(cfg));
  const double span = static_cast<double>(trace.back().arrival);
  // Mean inter-arrival should be ~1/intensity = 10 cycles.
  EXPECT_NEAR(span / trace.size(), 10.0, 1.5);
}

TEST(Generator, StreamWalksColumnsSequentially) {
  StreamConfig cfg;
  cfg.kind = StreamKind::kStream;
  cfg.num_requests = cfg.banks * 10;
  const auto trace = timing::Materialize(*MakeStream(cfg));
  // Consecutive requests rotate through banks; the column advances once the
  // bank index wraps.
  for (unsigned i = 0; i + 1 < cfg.banks; ++i) {
    EXPECT_EQ(trace[i].addr.bank, i % cfg.banks);
    EXPECT_EQ(trace[i].addr.col, 0u);
  }
  EXPECT_EQ(trace[cfg.banks].addr.col, 1u);
}

TEST(Generator, HotspotConcentratesTraffic) {
  StreamConfig cfg;
  cfg.kind = StreamKind::kHotspot;
  cfg.num_requests = 20000;
  cfg.hot_rows = 4;
  cfg.hot_fraction = 0.8;
  const auto trace = timing::Materialize(*MakeStream(cfg));
  std::map<std::pair<unsigned, unsigned>, std::size_t> per_row;
  for (const auto& req : trace) ++per_row[{req.addr.bank, req.addr.row}];
  // The top-4 rows should hold roughly 80% of requests.
  std::vector<std::size_t> counts;
  for (const auto& [row, count] : per_row) counts.push_back(count);
  std::sort(counts.rbegin(), counts.rend());
  std::size_t top4 = 0;
  for (std::size_t i = 0; i < 4 && i < counts.size(); ++i) top4 += counts[i];
  EXPECT_GT(static_cast<double>(top4) / trace.size(), 0.7);
}

TEST(Generator, PatternNames) {
  EXPECT_EQ(ToString(StreamKind::kStream), "stream");
  EXPECT_EQ(ToString(StreamKind::kRandom), "random");
  EXPECT_EQ(ToString(StreamKind::kHotspot), "hotspot");
}

// Pins the exact request sequence of every generator kind: a CRC of the
// serialized trace at a fixed non-default config. Any change to the RNG
// draw order, the arrival model or an address walk shows up here.
TEST(Generator, EveryKindMatchesItsPinnedDigest) {
  const auto digest = [](const timing::Trace& trace) {
    std::ostringstream text;
    WriteTrace(trace, text);
    return util::Crc32Hex(text.str());
  };
  const std::map<std::string, std::string> expected = {
      {"stream", "18afe8d1"},  {"random", "e726e792"},
      {"hotspot", "a2d8d99e"}, {"linear", "7fe311d8"},
      {"strided", "ad767418"}, {"tensor", "fc5fdff7"},
      {"pointer", "f7e56b32"}, {"batch", "799e6e8f"},
  };
  std::map<std::string, std::string> actual;
  for (StreamKind k :
       {StreamKind::kStream, StreamKind::kRandom, StreamKind::kHotspot,
        StreamKind::kLinear, StreamKind::kStrided, StreamKind::kTensorStream,
        StreamKind::kPointerChase, StreamKind::kBatchInference}) {
    StreamConfig cfg;
    cfg.kind = k;
    cfg.num_requests = 2000;
    cfg.read_fraction = 0.6;
    cfg.intensity = 0.2;
    cfg.ranks = 2;
    cfg.banks = 8;
    cfg.rows = 16;
    cfg.cols = 32;
    cfg.hot_rows = 6;
    cfg.hot_fraction = 0.7;
    cfg.burst_len = 100;
    cfg.gap_cycles = 500;
    cfg.interleave = dram::Interleave::kBankInterleaved;
    cfg.xor_bank_hash = k == StreamKind::kStrided;
    cfg.stride = 37;
    cfg.seed = 5;
    actual[ToString(k)] = digest(timing::Materialize(*MakeStream(cfg)));
  }
  EXPECT_EQ(actual, expected);
}

// ---------------------------------------------------------- Mapped patterns

TEST(Generator, LinearWalksPhysicalAddressSpace) {
  StreamConfig cfg;
  cfg.kind = StreamKind::kLinear;
  cfg.num_requests = 64;
  cfg.interleave = dram::Interleave::kBankInterleaved;
  const auto trace = timing::Materialize(*MakeStream(cfg));
  // Bank-interleaved linear: the first `banks` requests rotate banks.
  for (unsigned i = 0; i < cfg.banks; ++i)
    EXPECT_EQ(trace[i].addr.bank, i);
}

TEST(Generator, LinearRowInterleavedIsRowBufferFriendly) {
  StreamConfig cfg;
  cfg.kind = StreamKind::kLinear;
  cfg.num_requests = 128;
  cfg.interleave = dram::Interleave::kRowInterleaved;
  const auto trace = timing::Materialize(*MakeStream(cfg));
  // First 128 addresses stay in (bank 0, row 0), cols ascending.
  for (unsigned i = 0; i < 128; ++i) {
    EXPECT_EQ(trace[i].addr.bank, 0u);
    EXPECT_EQ(trace[i].addr.row, 0u);
    EXPECT_EQ(trace[i].addr.col, i);
  }
}

TEST(Generator, StridedWithoutHashHammersOneBank) {
  StreamConfig cfg;
  cfg.kind = StreamKind::kStrided;
  cfg.num_requests = 200;
  cfg.interleave = dram::Interleave::kRowInterleaved;
  cfg.stride = cfg.cols * cfg.banks;  // one full row group: same bank forever
  const auto trace = timing::Materialize(*MakeStream(cfg));
  for (const auto& req : trace) EXPECT_EQ(req.addr.bank, 0u);
}

TEST(Generator, XorHashSpreadsTheSameStride) {
  StreamConfig cfg;
  cfg.kind = StreamKind::kStrided;
  cfg.num_requests = 200;
  cfg.interleave = dram::Interleave::kRowInterleaved;
  cfg.stride = cfg.cols * cfg.banks;
  cfg.xor_bank_hash = true;
  const auto trace = timing::Materialize(*MakeStream(cfg));
  std::set<unsigned> banks;
  for (const auto& req : trace) banks.insert(req.addr.bank);
  EXPECT_GT(banks.size(), 8u);
}

TEST(Generator, StridedRejectsZeroStride) {
  StreamConfig cfg;
  cfg.kind = StreamKind::kStrided;
  cfg.stride = 0;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
}

TEST(Generator, MappedPatternNames) {
  EXPECT_EQ(ToString(StreamKind::kLinear), "linear");
  EXPECT_EQ(ToString(StreamKind::kStrided), "strided");
}

// ------------------------------------------------------------------ TraceIO

TEST(TraceIo, RoundTripPreservesEveryField) {
  StreamConfig cfg;
  cfg.kind = StreamKind::kRandom;
  cfg.num_requests = 500;
  cfg.seed = 77;
  const auto trace = timing::Materialize(*MakeStream(cfg));
  std::stringstream buffer;
  WriteTrace(trace, buffer);
  const auto parsed = ReadTrace(buffer);
  ASSERT_EQ(parsed.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(parsed[i].arrival, trace[i].arrival);
    EXPECT_EQ(parsed[i].op, trace[i].op);
    EXPECT_EQ(parsed[i].addr, trace[i].addr);
  }
}

TEST(TraceIo, SkipsCommentsAndBlankLines) {
  std::stringstream in(
      "# header comment\n"
      "\n"
      "10 R 1 2 3\n"
      "   # indented comment\n"
      "20 W 4 5 6\n");
  const auto trace = ReadTrace(in);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].arrival, 10u);
  EXPECT_EQ(trace[0].op, timing::Op::kRead);
  EXPECT_EQ(trace[1].op, timing::Op::kWrite);
  EXPECT_EQ(trace[1].addr.col, 6u);
}

TEST(TraceIo, AcceptsLowercaseOps) {
  std::stringstream in("0 r 0 0 0\n1 w 0 0 1\n");
  const auto trace = ReadTrace(in);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].op, timing::Op::kRead);
  EXPECT_EQ(trace[1].op, timing::Op::kWrite);
}

TEST(TraceIo, RankColumnIsOptionalOnInputAndPreservedOnOutput) {
  std::stringstream in("0 R 1 2 3\n5 W 1 2 4 2\n");
  const auto trace = ReadTrace(in);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].rank, 0u);  // five-field line defaults to rank 0
  EXPECT_EQ(trace[1].rank, 2u);
  std::stringstream out;
  WriteTrace(trace, out);
  const auto reparsed = ReadTrace(out);
  ASSERT_EQ(reparsed.size(), 2u);
  EXPECT_EQ(reparsed[0].rank, 0u);
  EXPECT_EQ(reparsed[1].rank, 2u);
}

TEST(TraceIo, RejectsMalformedLines) {
  {
    std::stringstream in("10 R 1 2\n");  // missing col
    EXPECT_THROW(ReadTrace(in), std::runtime_error);
  }
  {
    std::stringstream in("10 X 1 2 3\n");  // unknown op
    EXPECT_THROW(ReadTrace(in), std::runtime_error);
  }
  {
    std::stringstream in("10 R 1 2 3 4 5\n");  // trailing token after rank
    EXPECT_THROW(ReadTrace(in), std::runtime_error);
  }
  {
    std::stringstream in("10 R 1 2 3 x\n");  // unparsable rank column
    EXPECT_THROW(ReadTrace(in), std::runtime_error);
  }
  {
    std::stringstream in("10 R 1 2 3\n5 R 1 2 3\n");  // out of order
    EXPECT_THROW(ReadTrace(in), std::runtime_error);
  }
}

TEST(TraceIo, ErrorsCarrySourceAndLineNumber) {
  std::stringstream in("0 R 0 0 0\nbogus line here\n");
  try {
    ReadTrace(in, "demand.trace");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("demand.trace:2:"),
              std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, FileErrorsNameThePath) {
  const std::string path = ::testing::TempDir() + "/pair_bad_trace.txt";
  {
    std::ofstream os(path);
    os << "# ok comment\n0 R 0 0 0\n7 W 0 0\n";
  }
  try {
    ReadTraceFile(path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":3:"), std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, RoundTripEveryPattern) {
  for (StreamKind p :
       {StreamKind::kStream, StreamKind::kRandom, StreamKind::kHotspot,
        StreamKind::kLinear, StreamKind::kStrided}) {
    StreamConfig cfg;
    cfg.kind = p;
    cfg.num_requests = 300;
    cfg.seed = 21;
    const auto trace = timing::Materialize(*MakeStream(cfg));
    std::stringstream buffer;
    WriteTrace(trace, buffer);
    const auto parsed = ReadTrace(buffer, ToString(p));
    ASSERT_EQ(parsed.size(), trace.size()) << ToString(p);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ASSERT_EQ(parsed[i].arrival, trace[i].arrival) << ToString(p);
      ASSERT_EQ(parsed[i].op, trace[i].op) << ToString(p);
      ASSERT_EQ(parsed[i].addr, trace[i].addr) << ToString(p);
      ASSERT_EQ(parsed[i].rank, trace[i].rank) << ToString(p);
    }
  }
}

TEST(TraceIo, SampleTraceParses) {
  // The checked-in sample the CI smoke job replays through
  // `pairsim system --trace`.
  const auto trace =
      ReadTraceFile(std::string(PAIR_TEST_DATA_DIR) + "/tiny_trace.txt");
  ASSERT_EQ(trace.size(), 40u);
  EXPECT_EQ(trace.front().arrival, 0u);
  EXPECT_EQ(trace.back().arrival, 683u);
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_GE(trace[i].arrival, trace[i - 1].arrival);
  for (const auto& req : trace) {
    EXPECT_LT(req.addr.bank, 16u);
    EXPECT_EQ(req.rank, 0u);
  }
}

TEST(TraceIo, AcceptsCrlfAndTrailingWhitespace) {
  std::stringstream in(
      "# exported from Windows tooling\r\n"
      "\r\n"
      "10 R 1 2 3\r\n"
      "20 W 4 5 6   \r\n"
      "30 R 7 8 9\t\n"
      "40 W 1 2 3 1 \t \r\n");
  const auto trace = ReadTrace(in);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[0].arrival, 10u);
  EXPECT_EQ(trace[1].addr.col, 6u);
  EXPECT_EQ(trace[2].addr.col, 9u);
  EXPECT_EQ(trace[3].rank, 1u);
}

TEST(TraceIo, FileRoundTrip) {
  StreamConfig cfg;
  cfg.kind = StreamKind::kRandom;
  cfg.num_requests = 100;
  const auto trace = timing::Materialize(*MakeStream(cfg));
  const std::string path = ::testing::TempDir() + "/pair_trace_test.txt";
  WriteTraceFile(trace, path);
  const auto parsed = ReadTraceFile(path);
  EXPECT_EQ(parsed.size(), trace.size());
  EXPECT_THROW(ReadTraceFile("/nonexistent/dir/trace.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace pair_ecc::workload
