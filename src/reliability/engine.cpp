#include "reliability/engine.hpp"

#include <cstddef>
#include <span>

namespace pair_ecc::reliability {

WorkingSet MakeWorkingSet(const dram::RankGeometry& geometry,
                          unsigned working_rows, unsigned lines_per_row,
                          unsigned row_mul, unsigned row_off) {
  const auto& g = geometry.device;
  WorkingSet ws;
  ws.rows.reserve(working_rows);
  for (unsigned i = 0; i < working_rows; ++i)
    ws.rows.push_back({i % g.banks, (i * row_mul + row_off) % g.rows_per_bank});
  ws.cols.reserve(lines_per_row);
  for (unsigned j = 0; j < lines_per_row; ++j)
    ws.cols.push_back(j * g.ColumnsPerRow() / lines_per_row);
  ws.addrs.reserve(std::size_t{working_rows} * lines_per_row);
  for (const auto& r : ws.rows)
    for (unsigned col : ws.cols) ws.addrs.push_back({r.bank, r.row, col});
  return ws;
}

namespace {

/// True when working row `row` shares an address with another working
/// line: a repeated column, or another working row on the same DRAM row.
bool SharesAnAddress(const WorkingSet& ws, std::size_t row) {
  for (std::size_t j = 1; j < ws.cols.size(); ++j)
    for (std::size_t k = 0; k < j; ++k)
      if (ws.cols[j] == ws.cols[k]) return true;
  for (std::size_t other = 0; other < ws.rows.size(); ++other)
    if (other != row && ws.rows[other].bank == ws.rows[row].bank &&
        ws.rows[other].row == ws.rows[row].row)
      return true;
  return false;
}

}  // namespace

TrialContext::TrialContext(const dram::RankGeometry& geometry,
                           ecc::SchemeKind kind, const WorkingSet& ws,
                           util::Xoshiro256& rng)
    : rank(geometry),
      scheme(ecc::MakeScheme(kind, rank)),
      ws_(ws),
      cols_(ws.cols.size()),
      touched_(ws.rows.size(), false),
      shared_(ws.rows.size(), false),
      epoch_(ws.rows.size(), 0),
      stored_taken_(ws.rows.size(), false),
      stored_(ws.rows.size()),
      read_line_at_(ws.addrs.size(), 0),
      write_line_at_(ws.addrs.size(), 0),
      scrub_line_at_(ws.addrs.size(), 0),
      read_line_(ws.addrs.size()),
      read_row_at_(ws.rows.size(), 0),
      scrub_row_at_(ws.rows.size(), 0),
      read_all_(ws.addrs.size()) {
  lines.reserve(ws.addrs.size());
  for (std::size_t i = 0; i < ws.addrs.size(); ++i)
    lines.push_back(util::BitVec::Random(geometry.LineBits(), rng));
  // Every trial-start write counts now; Materialize hands a row's share
  // over to the scheme's own counter.
  elided_.writes = ws.addrs.size();
  for (std::size_t row = 0; row < ws.rows.size(); ++row) {
    NewEpoch(row);
    shared_[row] = SharesAnAddress(ws, row);
    if (shared_[row]) Materialize(row);
  }
}

faults::Injector TrialContext::MakeInjector() {
  return faults::Injector(rank, ws_.rows, [this](std::size_t row) {
    Materialize(row);
    NewEpoch(row);
  });
}

void TrialContext::Materialize(std::size_t row) {
  if (touched_[row]) return;
  touched_[row] = true;
  const std::size_t first = row * cols_;
  scheme->WriteLines(
      std::span<const dram::Address>(ws_.addrs).subspan(first, cols_),
      std::span<const util::BitVec>(lines).subspan(first, cols_));
  elided_.writes -= cols_;
  NewEpoch(row);
}

void TrialContext::MaterializeAll() {
  for (std::size_t row = 0; row < touched_.size(); ++row) Materialize(row);
}

void TrialContext::Invalidate() {
  for (std::size_t row = 0; row < epoch_.size(); ++row) NewEpoch(row);
}

void TrialContext::NewEpoch(std::size_t row) {
  epoch_[row] = ++last_epoch_;
  stored_taken_[row] = false;
}

template <typename Op>
std::uint64_t TrialContext::Run(std::size_t row, Op&& op) {
  if (shared_[row]) {
    op();
    return 0;
  }
  const faults::RowRef& r = ws_.rows[row];
  std::vector<util::BitVec>& stored = stored_[row];
  if (!stored_taken_[row]) {
    stored.resize(rank.TotalDevices());
    for (unsigned d = 0; d < rank.TotalDevices(); ++d) {
      const util::BitVec* bits = rank.device(d).FindStoredRow(r.bank, r.row);
      stored[d] = bits != nullptr ? *bits : util::BitVec();
    }
    stored_taken_[row] = true;
  }
  op();
  for (unsigned d = 0; d < rank.TotalDevices(); ++d) {
    const util::BitVec* bits = rank.device(d).FindStoredRow(r.bank, r.row);
    if (bits != nullptr ? !(*bits == stored[d]) : !stored[d].empty()) {
      NewEpoch(row);
      return 0;
    }
  }
  return epoch_[row];
}

TrialContext::RecordedRead TrialContext::Classified(
    const ecc::ReadResult& result, const util::BitVec& truth) const {
  return {result.claim,
          {Classify(result.claim, result.data, truth), result.corrected_units}};
}

LineRead TrialContext::Read(std::size_t row, const dram::Address& addr,
                            const util::BitVec& truth) {
  if (!touched_[row]) {
    // What Scheme::ReadLine counts for a kClean read (corrected_units +0).
    elided_.CountRead(ecc::Claim::kClean, 0);
    return {};
  }
  ecc::ReadResult read;
  Run(row, [&] { read = scheme->ReadLine(addr); });
  return Classified(read, truth).read;
}

LineRead TrialContext::ReadLine(std::size_t slot) {
  const std::size_t row = slot / cols_;
  if (!touched_[row]) {
    elided_.CountRead(ecc::Claim::kClean, 0);
    return {};
  }
  RecordedRead& recorded = read_line_[slot];
  if (read_line_at_[slot] == epoch_[row]) {
    elided_.CountRead(recorded.claim, recorded.read.corrected_units);
    return recorded.read;
  }
  ecc::ReadResult read;
  read_line_at_[slot] =
      Run(row, [&] { read = scheme->ReadLine(ws_.addrs[slot]); });
  recorded = Classified(read, lines[slot]);
  return recorded.read;
}

void TrialContext::ReadAll(std::vector<ecc::ReadResult>& staging,
                           std::vector<LineRead>& out) {
  staging.resize(cols_);
  out.resize(ws_.addrs.size());
  for (std::size_t row = 0; row < touched_.size(); ++row) {
    const std::size_t first = row * cols_;
    if (!touched_[row]) {
      for (std::size_t i = first; i < first + cols_; ++i) {
        elided_.CountRead(ecc::Claim::kClean, 0);
        out[i] = {};
      }
      continue;
    }
    if (read_row_at_[row] == epoch_[row]) {
      for (std::size_t i = first; i < first + cols_; ++i)
        elided_.CountRead(read_all_[i].claim,
                          read_all_[i].read.corrected_units);
    } else {
      read_row_at_[row] = Run(row, [&] {
        scheme->ReadLines(
            std::span<const dram::Address>(ws_.addrs).subspan(first, cols_),
            staging);
      });
      for (std::size_t j = 0; j < cols_; ++j)
        read_all_[first + j] = Classified(staging[j], lines[first + j]);
    }
    for (std::size_t i = first; i < first + cols_; ++i)
      out[i] = read_all_[i].read;
  }
}

void TrialContext::WriteLine(std::size_t slot) {
  const std::size_t row = slot / cols_;
  if (!touched_[row] || write_line_at_[slot] == epoch_[row]) {
    ++elided_.writes;
    return;
  }
  write_line_at_[slot] =
      Run(row, [&] { scheme->WriteLine(ws_.addrs[slot], lines[slot]); });
}

void TrialContext::ScrubLine(std::size_t slot) {
  const std::size_t row = slot / cols_;
  if (!touched_[row] || scrub_line_at_[slot] == epoch_[row]) {
    ++elided_.scrub_lines;
    return;
  }
  scrub_line_at_[slot] = Run(row, [&] { scheme->ScrubLine(ws_.addrs[slot]); });
}

void TrialContext::ScrubRow(std::size_t row) {
  if (!touched_[row] || scrub_row_at_[row] == epoch_[row]) {
    ++elided_.scrub_rows;
    return;
  }
  scrub_row_at_[row] = Run(row, [&] {
    scheme->ScrubRowFull(ws_.rows[row].bank, ws_.rows[row].row);
  });
}

ecc::CodecCounters TrialContext::Counters() const {
  ecc::CodecCounters counters = elided_;
  counters += scheme->counters();
  return counters;
}

}  // namespace pair_ecc::reliability
