// Constant-memory streaming trace parsing.
//
// StreamingTraceParser turns any ByteSource into a timing::RequestSource:
// bytes are pulled in fixed-size chunks, split into lines (LF or CRLF,
// with a final unterminated line accepted), and parsed line by line, while
// resident memory stays proportional to the chunk size plus the longest
// line, never the trace. It is the only trace reader: ReadTrace and
// ReadTraceFile (workload/trace_io.hpp) drain it into a timing::Trace.
//
// ParseTraceLine is the single-line parser; it is exposed so the fuzz
// harness can drive it directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "timing/request_source.hpp"
#include "workload/byte_source.hpp"

namespace pair_ecc::workload {

enum class TraceLineKind : std::uint8_t {
  kBlank,    ///< blank or comment line — no request
  kRequest,  ///< `req` filled in
  kError,    ///< malformed — `error` holds the (unprefixed) message
};

/// Parses one line of the trace format (`<cycle> <R|W> <bank> <row> <col>
/// [rank]`). Tolerates leading/trailing spaces, tabs, and CR (CRLF input).
/// Cross-line rules (cycle monotonicity) are the caller's job.
TraceLineKind ParseTraceLine(std::string_view line, timing::Request& req,
                             std::string& error);

/// Streams requests out of a (possibly compressed) byte stream. Next()
/// throws std::runtime_error with a "<source>:<line>: message"
/// diagnostic; Reset() rewinds the byte source, so a
/// file-backed stream replays identically for every simulator pass.
class StreamingTraceParser final : public timing::RequestSource {
 public:
  /// `source` names the stream in diagnostics (pass the file path).
  explicit StreamingTraceParser(std::unique_ptr<ByteSource> bytes,
                                std::string source = "<trace>",
                                std::size_t chunk_bytes = 64 * 1024);

  bool Next(timing::Request& out) override;
  void Reset() override;

  /// Lines consumed so far (including blanks/comments).
  std::uint64_t lines_seen() const noexcept { return line_no_; }

 private:
  /// Assembles the next line (without terminator) into `line_`; false at
  /// end of stream.
  bool NextLine();

  std::unique_ptr<ByteSource> bytes_;
  std::string source_;
  std::string chunk_;       ///< fixed-capacity read buffer
  std::size_t chunk_len_ = 0;
  std::size_t chunk_pos_ = 0;
  bool eof_ = false;
  std::string line_;        ///< current line (spans chunk boundaries)
  std::uint64_t line_no_ = 0;
  std::uint64_t last_arrival_ = 0;
  bool have_last_ = false;
};

/// Convenience: OpenByteSource(path) + StreamingTraceParser, so callers
/// stream plain or compressed trace files with one call.
std::unique_ptr<StreamingTraceParser> OpenTraceStream(const std::string& path);

}  // namespace pair_ecc::workload
