// Streaming trace subsystem tests: the chunked parser at every chunk size
// against ReadTrace, its default-chunk drain (same requests, same
// diagnostics), byte-source Reset/replay, and transparent gzip
// decompression behind the magic-byte sniffing opener.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "timing/request_source.hpp"
#include "workload/byte_source.hpp"
#include "workload/streams.hpp"
#include "workload/trace_io.hpp"
#include "workload/trace_stream.hpp"

namespace pair_ecc::workload {
namespace {

// Pulls every request out of a RequestSource.
timing::Trace Drain(timing::RequestSource& source) {
  timing::Trace out;
  timing::Request req;
  while (source.Next(req)) out.push_back(req);
  return out;
}

void ExpectSameTrace(const timing::Trace& a, const timing::Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].arrival, b[i].arrival) << "request " << i;
    ASSERT_EQ(a[i].op, b[i].op) << "request " << i;
    ASSERT_EQ(a[i].addr, b[i].addr) << "request " << i;
    ASSERT_EQ(a[i].rank, b[i].rank) << "request " << i;
  }
}

std::string GeneratedTraceText(unsigned requests, std::uint64_t seed) {
  StreamConfig cfg;
  cfg.read_fraction = 0.67;
  cfg.intensity = 0.05;
  cfg.kind = StreamKind::kRandom;
  cfg.num_requests = requests;
  cfg.seed = seed;
  std::stringstream buffer;
  WriteTrace(timing::Materialize(*MakeStream(cfg)), buffer);
  return buffer.str();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ------------------------------------------------------------ ParseTraceLine

TEST(ParseTraceLine, ClassifiesLineKinds) {
  timing::Request req;
  std::string error;
  EXPECT_EQ(ParseTraceLine("", req, error), TraceLineKind::kBlank);
  EXPECT_EQ(ParseTraceLine("   \t", req, error), TraceLineKind::kBlank);
  EXPECT_EQ(ParseTraceLine("# comment", req, error), TraceLineKind::kBlank);
  EXPECT_EQ(ParseTraceLine("12 R 1 2 3", req, error), TraceLineKind::kRequest);
  EXPECT_EQ(req.arrival, 12u);
  EXPECT_EQ(req.op, timing::Op::kRead);
  EXPECT_EQ(req.addr.bank, 1u);
  EXPECT_EQ(req.addr.row, 2u);
  EXPECT_EQ(req.addr.col, 3u);
  EXPECT_EQ(ParseTraceLine("12 R 1 2", req, error), TraceLineKind::kError);
  EXPECT_FALSE(error.empty());
}

TEST(ParseTraceLine, RejectsSignedAndTrailingGarbageNumbers) {
  timing::Request req;
  std::string error;
  EXPECT_EQ(ParseTraceLine("-1 R 0 0 0", req, error), TraceLineKind::kError);
  EXPECT_EQ(ParseTraceLine("+3 R 0 0 0", req, error), TraceLineKind::kError);
  EXPECT_EQ(ParseTraceLine("12x R 0 0 0", req, error), TraceLineKind::kError);
}

// ------------------------------------------------------ StreamingTraceParser

TEST(StreamingTraceParser, MatchesReadTraceAtEveryChunkSize) {
  const std::string text = GeneratedTraceText(400, 11);
  std::stringstream whole(text);
  const timing::Trace expected = ReadTrace(whole);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{4096}}) {
    StreamingTraceParser parser(std::make_unique<MemoryByteSource>(text),
                                "<mem>", chunk);
    ExpectSameTrace(Drain(parser), expected);
  }
}

TEST(StreamingTraceParser, ResetReplaysTheIdenticalSequence) {
  const std::string text = GeneratedTraceText(100, 5);
  StreamingTraceParser parser(std::make_unique<MemoryByteSource>(text),
                              "<mem>", 32);
  const timing::Trace first = Drain(parser);
  parser.Reset();
  ExpectSameTrace(Drain(parser), first);
  EXPECT_EQ(first.size(), 100u);
}

TEST(StreamingTraceParser, AcceptsUnterminatedFinalLine) {
  StreamingTraceParser parser(
      std::make_unique<MemoryByteSource>("0 R 0 0 0\n7 W 1 2 3"), "<mem>", 4);
  const timing::Trace trace = Drain(parser);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[1].arrival, 7u);
  EXPECT_EQ(trace[1].op, timing::Op::kWrite);
}

TEST(StreamingTraceParser, HandlesCrlfAcrossChunkBoundaries) {
  const std::string text = "10 R 1 2 3\r\n\r\n20 W 4 5 6\r\n";
  for (std::size_t chunk = 1; chunk <= text.size(); ++chunk) {
    StreamingTraceParser parser(std::make_unique<MemoryByteSource>(text),
                                "<mem>", chunk);
    const timing::Trace trace = Drain(parser);
    ASSERT_EQ(trace.size(), 2u) << "chunk " << chunk;
    EXPECT_EQ(trace[1].addr.col, 6u) << "chunk " << chunk;
  }
}

TEST(StreamingTraceParser, DiagnosticsMatchReadTrace) {
  const std::string bad_inputs[] = {
      "0 R 0 0 0\nbogus line\n",       // malformed fields
      "0 R 0 0 0\n5 Q 0 0 0\n",       // unknown op
      "10 R 0 0 0\n5 R 0 0 0\n",      // out-of-order cycles
      "0 R 0 0 0\n1 R 0 0 0 9 9\n",   // trailing token
  };
  for (const std::string& text : bad_inputs) {
    std::string whole_message;
    try {
      std::stringstream in(text);
      ReadTrace(in, "demand.trace");
      FAIL() << "ReadTrace accepted: " << text;
    } catch (const std::runtime_error& e) {
      whole_message = e.what();
    }
    StreamingTraceParser parser(std::make_unique<MemoryByteSource>(text),
                                "demand.trace", 8);
    try {
      Drain(parser);
      FAIL() << "streaming parser accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), whole_message);
    }
  }
}

TEST(StreamingTraceParser, OpensPlainFilesViaSniffingOpener) {
  StreamConfig cfg;
  cfg.kind = StreamKind::kRandom;
  cfg.read_fraction = 0.67;
  cfg.intensity = 0.05;
  cfg.num_requests = 150;
  cfg.seed = 3;
  const timing::Trace trace = timing::Materialize(*MakeStream(cfg));
  const std::string path = ::testing::TempDir() + "/pair_stream_plain.txt";
  WriteTraceFile(trace, path);
  const auto parser = OpenTraceStream(path);
  ExpectSameTrace(Drain(*parser), trace);
}

// ------------------------------------------------------------------- gzip

TEST(ByteSource, GzipRoundTripThroughSniffingOpener) {
  if (!GzipSupported()) GTEST_SKIP() << "built without zlib";
  StreamConfig cfg;
  cfg.kind = StreamKind::kRandom;
  cfg.read_fraction = 0.67;
  cfg.intensity = 0.05;
  cfg.num_requests = 300;
  cfg.seed = 9;
  const timing::Trace trace = timing::Materialize(*MakeStream(cfg));
  std::stringstream buffer;
  WriteTrace(trace, buffer);
  const std::string path = ::testing::TempDir() + "/pair_stream_trace.gz";
  GzipWriteFile(path, buffer.str());
  const auto parser = OpenTraceStream(path);
  ExpectSameTrace(Drain(*parser), trace);
  // Reset rewinds through the decompressor too.
  parser->Reset();
  ExpectSameTrace(Drain(*parser), trace);
}

TEST(ByteSource, ConcatenatedGzipMembersDecodeBackToBack) {
  if (!GzipSupported()) GTEST_SKIP() << "built without zlib";
  // Two members whose cycles continue across the seam, as produced by
  // `cat a.gz b.gz > all.gz`.
  const std::string a_path = ::testing::TempDir() + "/pair_gz_member_a.gz";
  const std::string b_path = ::testing::TempDir() + "/pair_gz_member_b.gz";
  GzipWriteFile(a_path, "0 R 0 0 0\n10 W 1 2 3\n");
  GzipWriteFile(b_path, "20 R 4 5 6\n");
  StreamingTraceParser parser(
      MakeInflateSource(std::make_unique<MemoryByteSource>(
                            ReadFileBytes(a_path) + ReadFileBytes(b_path)),
                        "<mem>"),
      "<mem>", 16);
  const timing::Trace trace = Drain(parser);
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[2].arrival, 20u);
}

TEST(ByteSource, TruncatedGzipStreamFailsLoudly) {
  if (!GzipSupported()) GTEST_SKIP() << "built without zlib";
  const std::string path = ::testing::TempDir() + "/pair_gz_trunc.gz";
  GzipWriteFile(path, GeneratedTraceText(200, 4));
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 20u);
  auto truncated = std::make_unique<MemoryByteSource>(
      bytes.substr(0, bytes.size() / 2));
  StreamingTraceParser parser(MakeInflateSource(std::move(truncated), "<mem>"),
                              "<mem>", 64);
  EXPECT_THROW(Drain(parser), std::runtime_error);
}

TEST(ByteSource, GarbageAfterGzipMagicFailsLoudly) {
  if (!GzipSupported()) GTEST_SKIP() << "built without zlib";
  std::string bytes = "\x1f\x8b";
  for (int i = 0; i < 64; ++i) bytes.push_back(static_cast<char>(i * 37));
  StreamingTraceParser parser(
      MakeInflateSource(std::make_unique<MemoryByteSource>(bytes), "<mem>"),
      "<mem>", 16);
  EXPECT_THROW(Drain(parser), std::runtime_error);
}

}  // namespace
}  // namespace pair_ecc::workload
