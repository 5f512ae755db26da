// Plain-text trace persistence, so externally generated request streams can
// drive the timing simulator and generated workloads can be archived.
//
// Format: one request per line, '#' comments and blank lines ignored:
//
//   <cycle> <R|W> <bank> <row> <col> [rank]
//
// e.g.  "120 R 3 1021 17" or "120 W 3 1021 17 1". The rank column is
// optional on input (default 0) and always written on output. Requests
// must be non-decreasing in cycle. Lines may end in LF or CRLF, and
// leading/trailing spaces and tabs are ignored.
//
// Reading is a drain of the streaming chunked parser
// (workload/trace_stream.hpp), so whole-trace and constant-memory
// streaming reads accept the same inputs with the same diagnostics.
#pragma once

#include <iosfwd>
#include <string>

#include "timing/request.hpp"

namespace pair_ecc::workload {

/// Serialises `trace` in the text format above.
void WriteTrace(const timing::Trace& trace, std::ostream& os);
void WriteTraceFile(const timing::Trace& trace, const std::string& path);

/// Parses a trace. Throws std::runtime_error with a "<source>:<line>:"
/// diagnostic on malformed input, out-of-order cycles, unknown op codes,
/// bad rank columns, or trailing tokens. `source` names the stream in the
/// diagnostic (ReadTraceFile passes the path). ReadTraceFile also reads
/// gzip/zstd files, like OpenTraceStream.
timing::Trace ReadTrace(std::istream& is, const std::string& source = "<trace>");
timing::Trace ReadTraceFile(const std::string& path);

}  // namespace pair_ecc::workload
