// Fuzz harness for the streaming trace frontend — the chunked parser (the
// only trace reader), its per-line parser, and the decompression seam.
//
// The input's first byte selects the mode and chunk size; the rest is the
// payload:
//
//   high bit clear — TEXT: the payload is trace text. Properties:
//     TP 1. The parser never crashes, hangs, or trips a sanitizer.
//     TP 2. Differential over chunking, on the one parser:
//           StreamingTraceParser at the fuzzer-chosen chunk size (down to
//           one byte) and at its default chunk size (via ReadTrace, which
//           drains it) either both accept with identical request
//           sequences, or both reject with the identical
//           "<source>:<line>:" diagnostic.
//   high bit set — BYTES: the payload is fed through the gzip/zstd
//     sniffing decompression path. Properties:
//     BP 1. No crash on arbitrary (truncated, corrupt, concatenated)
//           compressed input; failures surface as std::runtime_error.
//     BP 2. When the bytes do decode, the decompressed text obeys TP 2.
//
// Two build modes (tools/CMakeLists.txt): with PAIR_BUILD_FUZZERS=ON under
// Clang this is a libFuzzer target; otherwise PAIR_FUZZ_STANDALONE adds a
// main() that replays corpus files (tests/data/trace_fuzz_corpus/) as a
// plain ctest regression on any toolchain.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "timing/request.hpp"
#include "workload/byte_source.hpp"
#include "workload/trace_io.hpp"
#include "workload/trace_stream.hpp"

namespace {

using pair_ecc::timing::Request;
using pair_ecc::timing::Trace;
using pair_ecc::workload::ByteSource;
using pair_ecc::workload::MemoryByteSource;
using pair_ecc::workload::StreamingTraceParser;

struct ParseResult {
  bool ok = false;
  Trace trace;
  std::string error;
};

/// Default chunk size: ReadTrace drains a StreamingTraceParser.
ParseResult ParseDefaultChunk(const std::string& text) {
  ParseResult r;
  try {
    std::istringstream in(text);
    r.trace = pair_ecc::workload::ReadTrace(in, "fuzz");
    r.ok = true;
  } catch (const std::runtime_error& e) {
    r.error = e.what();
  }
  return r;
}

ParseResult ParseStreaming(const std::string& text, std::size_t chunk) {
  ParseResult r;
  try {
    StreamingTraceParser parser(std::make_unique<MemoryByteSource>(text),
                                "fuzz", chunk);
    Request req;
    while (parser.Next(req)) r.trace.push_back(req);
    r.ok = true;
  } catch (const std::runtime_error& e) {
    r.error = e.what();
  }
  return r;
}

// TP 2 / BP 2: both chunkings must agree exactly.
void CheckDifferential(const std::string& text, std::size_t chunk) {
  const ParseResult reference = ParseDefaultChunk(text);
  const ParseResult streaming = ParseStreaming(text, chunk);
  if (reference.ok != streaming.ok) __builtin_trap();
  if (reference.ok) {
    if (reference.trace.size() != streaming.trace.size()) __builtin_trap();
    for (std::size_t i = 0; i < reference.trace.size(); ++i) {
      const Request& a = reference.trace[i];
      const Request& b = streaming.trace[i];
      if (a.arrival != b.arrival || a.op != b.op || !(a.addr == b.addr) ||
          a.rank != b.rank)
        __builtin_trap();
    }
  } else if (reference.error != streaming.error) {
    __builtin_trap();
  }
}

void FuzzDecompression(const std::string& bytes, std::size_t chunk) {
  // Drain the sniffed (possibly inflating) source; corrupt input must
  // throw, never crash. A successful decode feeds the differential check.
  std::string text;
  try {
    auto memory = std::make_unique<MemoryByteSource>(bytes);
    const bool gzip = bytes.size() >= 2 && bytes[0] == '\x1f' &&
                      static_cast<unsigned char>(bytes[1]) == 0x8bu;
    std::unique_ptr<ByteSource> source =
        gzip ? pair_ecc::workload::MakeInflateSource(std::move(memory), "fuzz")
             : std::move(memory);
    char buffer[4096];
    std::size_t n = 0;
    while ((n = source->Read(buffer, sizeof(buffer))) > 0) {
      text.append(buffer, n);
      if (text.size() > (1u << 22)) return;  // decompression-bomb cap
    }
  } catch (const std::runtime_error&) {
    return;
  }
  CheckDifferential(text, chunk);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 1) return 0;
  const std::uint8_t selector = data[0];
  const std::size_t chunk = 1 + (selector & 0x3f);
  const std::string payload(reinterpret_cast<const char*>(data + 1), size - 1);
  if ((selector & 0x80) == 0) {
    CheckDifferential(payload, chunk);
  } else if (pair_ecc::workload::GzipSupported()) {
    FuzzDecompression(payload, chunk);
  }
  return 0;
}

#ifdef PAIR_FUZZ_STANDALONE
// Corpus replay mode: run each file given on the command line through the
// harness once. A property violation traps (nonzero exit), so ctest can
// gate on the committed seed corpus with any toolchain.
#include <cstdio>
#include <fstream>
#include <iterator>

int main(int argc, char** argv) {
  unsigned replayed = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "fuzz_trace_parser: cannot read %s\n", argv[i]);
      return 2;
    }
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                           bytes.size());
    ++replayed;
  }
  std::printf("fuzz_trace_parser: replayed %u corpus file(s)\n", replayed);
  return 0;
}
#endif
