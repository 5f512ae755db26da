#include "workload/trace_io.hpp"

#include <fstream>
#include <istream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "workload/trace_stream.hpp"

namespace pair_ecc::workload {

void WriteTrace(const timing::Trace& trace, std::ostream& os) {
  os << "# pair-ecc trace: <cycle> <R|W> <bank> <row> <col> [rank]\n";
  for (const auto& req : trace) {
    os << req.arrival << ' ' << (req.op == timing::Op::kRead ? 'R' : 'W')
       << ' ' << req.addr.bank << ' ' << req.addr.row << ' ' << req.addr.col
       << ' ' << req.rank << '\n';
  }
}

void WriteTraceFile(const timing::Trace& trace, const std::string& path) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("WriteTraceFile: cannot open " + path);
  WriteTrace(trace, os);
}

timing::Trace ReadTrace(std::istream& is, const std::string& source) {
  std::ostringstream bytes;
  bytes << is.rdbuf();
  StreamingTraceParser parser(
      std::make_unique<MemoryByteSource>(std::move(bytes).str()), source);
  return timing::Materialize(parser);
}

timing::Trace ReadTraceFile(const std::string& path) {
  return timing::Materialize(*OpenTraceStream(path));
}

}  // namespace pair_ecc::workload
