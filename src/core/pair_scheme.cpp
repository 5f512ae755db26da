#include "core/pair_scheme.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/contract.hpp"

namespace pair_ecc::core {

using gf::Elem;

namespace {
constexpr unsigned kSymbolBits = 8;

/// 8x8 bit-matrix transpose: bit 8 * i + j moves to bit 8 * j + i.
std::uint64_t Transpose8(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x ^= t ^ (t << 28);
  return x;
}

/// Bytes 0, 2, 4 and 6 of `x`, packed into its low four bytes.
std::uint64_t EvenBytes(std::uint64_t x) {
  x &= 0x00FF00FF00FF00FFull;
  x = (x | (x >> 8)) & 0x0000FFFF0000FFFFull;
  return (x | (x >> 16)) & 0x00000000FFFFFFFFull;
}

/// The symbols of pins [p, p + 8) (fewer past the last pin) in the 8-beat,
/// beat-major run of `bits` at `base`: byte i of the result is pin p + i's
/// symbol, beat j its bit j.
std::uint64_t LoadSymbols(const util::BitVec& bits, unsigned base,
                          unsigned pins, unsigned p) {
  // The two widths the presets use skip the per-beat gather: an x8 run is
  // one word whose byte j is beat j, already the matrix; an x16 run is two
  // words of four 16-bit beats, pins [p, p + 8) every other byte.
  if (pins == 8) return Transpose8(bits.GetWord(base, 64));
  if (pins == 16)
    return Transpose8(EvenBytes(bits.GetWord(base, 64) >> p) |
                      EvenBytes(bits.GetWord(base + 64, 64) >> p) << 32);
  const unsigned gp = std::min(8u, pins - p);
  std::uint64_t beats = 0;
  for (unsigned j = 0; j < kSymbolBits; ++j)
    beats |= bits.GetWord(base + j * pins + p, gp) << (8 * j);
  return Transpose8(beats);
}

/// Inverse of LoadSymbols for the pins whose byte of `mask` is 0xFF: writes
/// their symbols (bytes of `symbols`) and leaves every other bit as it was.
void StoreSymbols(util::BitVec& bits, unsigned base, unsigned pins,
                  unsigned p, std::uint64_t symbols, std::uint64_t mask) {
  const unsigned gp = std::min(8u, pins - p);
  const std::uint64_t beats = Transpose8(symbols);
  const std::uint64_t beat_mask = Transpose8(mask);
  for (unsigned j = 0; j < kSymbolBits; ++j) {
    const std::uint64_t m = (beat_mask >> (8 * j)) & 0xFF;
    if (m == 0) continue;
    const unsigned offset = base + j * pins + p;
    bits.SetWord(offset, gp,
                 (bits.GetWord(offset, gp) & ~m) | ((beats >> (8 * j)) & m));
  }
}

/// Packs `count` (<= 8) byte-valued lanes into the bytes of a word.
template <typename T>
std::uint64_t Pack8(const T* lanes, unsigned count) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < count; ++i)
    v |= static_cast<std::uint64_t>(lanes[i]) << (8 * i);
  return v;
}

/// Inverse of Pack8.
void Unpack8(std::uint64_t v, Elem* lanes, unsigned count) {
  for (unsigned i = 0; i < count; ++i)
    lanes[i] = static_cast<Elem>((v >> (8 * i)) & 0xFF);
}

/// One past the last address of the run that starts at `begin`: the
/// consecutive addresses on the (bank, row) of addrs[begin].
std::size_t RunEnd(std::span<const dram::Address> addrs, std::size_t begin) {
  PAIR_DCHECK(begin < addrs.size(), "RunEnd: run start past the batch");
  std::size_t end = begin + 1;
  while (end < addrs.size() && addrs[end].bank == addrs[begin].bank &&
         addrs[end].row == addrs[begin].row)
    ++end;
  return end;
}

}  // namespace

PairScheme::PairScheme(dram::Rank& rank, const PairConfig& config)
    : Scheme(rank),
      config_(config),
      code_(rs::Gf256Code(config.data_symbols + config.check_symbols,
                          config.data_symbols)) {
  config_.Validate();
  const auto& g = rank.geometry().device;
  PAIR_CHECK(!(g.burst_length % kSymbolBits != 0), "PAIR: burst length must be a whole number of symbols");
  PAIR_CHECK(!(g.PinLineBits() % kSymbolBits != 0), "PAIR: pin line must be a whole number of symbols");
  symbols_per_pin_ = g.PinLineBits() / kSymbolBits;
  PAIR_CHECK(!(symbols_per_pin_ % config_.data_symbols != 0), "PAIR: codewords must tile the pin line");
  cw_per_pin_ = symbols_per_pin_ / config_.data_symbols;
  subsymbols_per_col_ = g.burst_length / kSymbolBits;
  const unsigned parity_bits =
      g.dq_pins * cw_per_pin_ * config_.check_symbols * kSymbolBits;
  PAIR_CHECK(parity_bits <= g.spare_row_bits, "PAIR: spare region too small for parity");
  word_.resize(code_.n());
  pdelta_.resize(config_.check_symbols);
}

ecc::PerfDescriptor PairScheme::Perf() const {
  ecc::PerfDescriptor p;
  // The delta-parity write path needs no internal column cycle: old data and
  // parity are in the sense amplifiers of the open row. The scrub-on-write
  // ablation decodes the covering codeword first, which is an internal RMW.
  p.write_rmw = config_.scrub_on_write;
  p.read_decode_ns = config_.read_decode_ns;
  p.write_encode_ns = config_.scrub_on_write ? 2.5 : 0.8;
  p.storage_overhead = static_cast<double>(config_.check_symbols) /
                       static_cast<double>(config_.data_symbols);
  return p;
}

std::pair<unsigned, unsigned> PairScheme::CoveringCodewords(
    unsigned col) const {
  const unsigned s0 = col * subsymbols_per_col_;
  const unsigned first = s0 / code_.k();
  return {first, (s0 + subsymbols_per_col_ - 1) / code_.k() - first + 1};
}

unsigned PairScheme::Lane(unsigned wi, unsigned device, unsigned pin) const {
  return (wi * rank().DataDevices() + device) *
             rank().geometry().device.dq_pins +
         pin;
}

unsigned PairScheme::ParityBitOffset(unsigned pin, unsigned w,
                                     unsigned j) const {
  const auto& g = rank().geometry().device;
  return g.row_bits +
         ((pin * cw_per_pin_ + w) * config_.check_symbols + j) * kSymbolBits;
}

std::optional<PairScheme::SymbolRef> PairScheme::SymbolOfBit(
    unsigned bit) const {
  const auto& g = rank().geometry().device;
  PAIR_CHECK_RANGE(bit < g.TotalRowBits(),
                   "PairScheme::SymbolOfBit: bit " << bit << " of "
                                                   << g.TotalRowBits());
  const unsigned k = code_.k();
  if (bit < g.row_bits) {
    const unsigned symbol = dram::PinLineIndex(g, bit) / kSymbolBits;
    return SymbolRef{dram::PinOfBit(g, bit), symbol / k, symbol % k};
  }
  const unsigned group = (bit - g.row_bits) / kSymbolBits;
  const unsigned r = config_.check_symbols;
  const unsigned codeword = group / r;  // pin * cw_per_pin_ + w
  if (codeword >= g.dq_pins * cw_per_pin_) return std::nullopt;
  return SymbolRef{codeword / cw_per_pin_, codeword % cw_per_pin_,
                   k + group % r};
}

bool PairScheme::MarkSymbolErased(unsigned device, unsigned pin, unsigned w,
                                  unsigned position) {
  const auto& g = rank().geometry().device;
  PAIR_CHECK(!(device >= rank().DataDevices() || pin >= g.dq_pins ||
      w >= cw_per_pin_ || position >= code_.n()), "PairScheme::MarkSymbolErased: out of range");
  auto& list = erasures_[{device, pin, w}];
  for (unsigned p : list)
    if (p == position) return false;  // already registered
  list.push_back(position);
  return true;
}

void PairScheme::CheckCodewords(unsigned w_begin, unsigned wcount) const {
  PAIR_CHECK(wcount >= 1 && w_begin + wcount <= cw_per_pin_,
             "PairScheme: codewords [" << w_begin << ", +" << wcount
                 << ") outside the " << cw_per_pin_ << " per pin");
}

rs::CodewordBlock PairScheme::StageCodewords(unsigned bank, unsigned row,
                                             unsigned w_begin,
                                             unsigned wcount) {
  CheckCodewords(w_begin, wcount);
  const auto& g = rank().geometry().device;
  const unsigned pins = g.dq_pins;
  const unsigned k = code_.k();
  const unsigned lanes = wcount * rank().DataDevices() * pins;
  block_buf_.resize(std::size_t{code_.n()} * lanes);
  const rs::CodewordBlock block{block_buf_.data(), lanes, code_.n(), lanes};
  for (unsigned d = 0; d < rank().DataDevices(); ++d) {
    const util::BitVec image =
        rank().device(d).ReadBits(bank, row, 0, g.TotalRowBits());
    for (unsigned wi = 0; wi < wcount; ++wi) {
      const unsigned w = w_begin + wi;
      const unsigned l0 = Lane(wi, d, 0);
      for (unsigned i = 0; i < k; ++i)
        for (unsigned p = 0; p < pins; p += 8)
          Unpack8(LoadSymbols(image, (w * k + i) * kSymbolBits * pins, pins, p),
                  block.Row(i) + l0 + p, std::min(8u, pins - p));
      for (unsigned pin = 0; pin < pins; ++pin)
        for (unsigned j = 0; j < config_.check_symbols; ++j)
          block.Row(k + j)[l0 + pin] = static_cast<Elem>(
              image.GetWord(ParityBitOffset(pin, w, j), kSymbolBits));
    }
  }
  return block;
}

void PairScheme::DecodeStaged(const rs::CodewordBlock& block,
                              unsigned w_begin, unsigned wcount) {
  line_res_.resize(block.lines);
  lane_erasures_.clear();
  if (!erasures_.empty()) {
    lane_erasures_.resize(block.lines);
    for (const auto& [ref, list] : erasures_)
      if (ref.w >= w_begin && ref.w < w_begin + wcount)
        lane_erasures_[Lane(ref.w - w_begin, ref.device, ref.pin)] = list;
  }
  code_.DecodeBatch(block, line_res_, scratch_, lane_erasures_);
}

void PairScheme::MarkLane(unsigned l, unsigned lanes) {
  for (unsigned pos = 0; pos < code_.n(); ++pos)
    store_[std::size_t{pos} * lanes + l] = 0xFF;
}

void PairScheme::StoreMarked(unsigned bank, unsigned row,
                             const rs::CodewordBlock& block, unsigned w_begin,
                             unsigned wcount) {
  const auto& g = rank().geometry().device;
  const unsigned pins = g.dq_pins;
  const unsigned k = code_.k();
  const unsigned lanes = block.lines;
  for (unsigned d = 0; d < rank().DataDevices(); ++d) {
    // Resolved on the first marked symbol, so an access that stores
    // nothing allocates no row.
    util::BitVec* stored = nullptr;
    for (unsigned wi = 0; wi < wcount; ++wi) {
      const unsigned w = w_begin + wi;
      const unsigned l0 = Lane(wi, d, 0);
      for (unsigned pos = 0; pos < code_.n(); ++pos) {
        const std::uint8_t* marks = store_.data() + std::size_t{pos} * lanes;
        for (unsigned p = 0; p < pins; p += 8) {
          const unsigned gp = std::min(8u, pins - p);
          const std::uint64_t mask = Pack8(marks + l0 + p, gp);
          if (mask == 0) continue;
          if (stored == nullptr)
            stored = &rank().device(d).GetRow(bank, row).Stored();
          if (pos < k) {
            StoreSymbols(*stored, (w * k + pos) * kSymbolBits * pins, pins, p,
                         Pack8(block.Row(pos) + l0 + p, gp), mask);
            continue;
          }
          for (unsigned i = 0; i < gp; ++i)
            if (marks[l0 + p + i] != 0)
              stored->SetWord(ParityBitOffset(p + i, w, pos - k), kSymbolBits,
                              block.Row(pos)[l0 + p + i]);
        }
      }
    }
  }
}

PairScheme::RowState PairScheme::DataRowState(unsigned bank,
                                              unsigned row) const {
  RowState state;
  for (unsigned d = 0; d < rank().DataDevices(); ++d) {
    const dram::Device::Row* r = rank().device(d).FindRow(bank, row);
    if (r == nullptr) continue;
    state.absent = false;
    state.stuck = state.stuck || r->HasStuckBits();
  }
  return state;
}

bool PairScheme::RepeatsColumn(std::span<const dram::Address> run) {
  PAIR_DCHECK(!run.empty(), "RepeatsColumn: empty run");
  if (run.size() == 1) return false;
  cols_.clear();
  for (const dram::Address& addr : run) cols_.push_back(addr.col);
  std::sort(cols_.begin(), cols_.end());
  return std::adjacent_find(cols_.begin(), cols_.end()) != cols_.end();
}

std::pair<unsigned, unsigned> PairScheme::CoveringCodewords(
    std::span<const dram::Address> run) const {
  PAIR_DCHECK(!run.empty(), "CoveringCodewords: empty run");
  unsigned first = cw_per_pin_, end = 0;
  for (const dram::Address& addr : run) {
    const auto [f, count] = CoveringCodewords(addr.col);
    first = std::min(first, f);
    end = std::max(end, f + count);
  }
  return {first, end - first};
}

void PairScheme::DoWriteLines(std::span<const dram::Address> addrs,
                              std::span<const util::BitVec> lines) {
  PAIR_DCHECK(addrs.size() == lines.size(), "span extents rechecked in NVI");
  for (std::size_t begin = 0; begin < addrs.size();) {
    const std::size_t end = RunEnd(addrs, begin);
    const std::span<const dram::Address> run =
        addrs.subspan(begin, end - begin);
    const RowState state = DataRowState(run.front().bank, run.front().row);
    if (state.absent && erasures_.empty() && !config_.scrub_on_write &&
        !RepeatsColumn(run)) {
      WritePristine(run, lines.subspan(begin, run.size()));
      begin = end;
      continue;
    }
    // A stuck cell's storage takes the write, but the next staging reads
    // the stuck value, so on such a row the block after one line is not
    // what the next line would stage: stage afresh per line there.
    const std::size_t step = state.stuck ? 1 : run.size();
    for (; begin < end; begin += step)
      WriteRun(addrs.subspan(begin, step), lines.subspan(begin, step));
  }
}

void PairScheme::WriteRun(std::span<const dram::Address> run,
                          std::span<const util::BitVec> lines) {
  PAIR_DCHECK(!run.empty() && run.size() == lines.size(),
              "WriteRun: " << run.size() << " addresses, " << lines.size()
                           << " lines");
  const unsigned r = code_.r();
  const auto [w_begin, wcount] = CoveringCodewords(run);
  const unsigned bank = run.front().bank, row = run.front().row;
  const rs::CodewordBlock block = StageCodewords(bank, row, w_begin, wcount);
  const unsigned lanes = block.lines;
  // Decodes the dirty lanes (and lanes with erasures); clean lanes stay as
  // received. The received syndromes it leaves in the scratch classify
  // every lane exactly as IsCodeword would.
  DecodeStaged(block, w_begin, wcount);
  consistent_.assign(lanes, 0);
  if (!config_.scrub_on_write) {
    for (unsigned l = 0; l < lanes; ++l) {
      bool zero = true;
      for (unsigned j = 0; j < r; ++j)
        zero = zero && scratch_.batch_syn[std::size_t{j} * lanes + l] == 0;
      consistent_[l] = zero;
    }
  }
  store_.assign(std::size_t{code_.n()} * lanes, 0);
  for (std::size_t i = 0; i < run.size(); ++i)
    WriteStaged(block, w_begin, run[i], lines[i]);
  StoreMarked(bank, row, block, w_begin, wcount);
}

void PairScheme::WritePristine(std::span<const dram::Address> run,
                               std::span<const util::BitVec> lines) {
  PAIR_DCHECK(!run.empty() && run.size() == lines.size(),
              "WritePristine: " << run.size() << " addresses, "
                                << lines.size() << " lines");
  const auto [w_begin, wcount] = CoveringCodewords(run);
  CheckCodewords(w_begin, wcount);
  const auto& g = rank().geometry().device;
  const unsigned pins = g.dq_pins;
  const unsigned access = g.AccessBits();
  const unsigned k = code_.k();
  const unsigned r = code_.r();
  const unsigned bank = run.front().bank, row = run.front().row;
  for (unsigned d = 0; d < rank().DataDevices(); ++d) {
    // Created on the first nonzero slice, as StoreMarked creates it on the
    // first marked symbol.
    util::BitVec* stored = nullptr;
    parity_.assign(std::size_t{wcount} * pins * r, 0);
    for (std::size_t i = 0; i < run.size(); ++i) {
      const util::BitVec& line = lines[i];
      const unsigned base = d * access;
      bool nonzero = false;
      for (unsigned b = 0; b < access && !nonzero; b += 64)
        nonzero = line.GetWord(base + b, std::min(64u, access - b)) != 0;
      if (!nonzero) continue;
      if (stored == nullptr)
        stored = &rank().device(d).GetRow(bank, row).Stored();
      // A slice is beat-major, as the row is from the column's first bit.
      stored->SpliceFrom(g.ColumnBit(run[i].col), line, base, access);
      const unsigned s0 = run[i].col * subsymbols_per_col_;
      for (unsigned q = 0; q < subsymbols_per_col_; ++q) {
        const unsigned s = s0 + q;
        Elem* const lane_parity =
            parity_.data() + std::size_t{s / k - w_begin} * pins * r;
        for (unsigned p = 0; p < pins; p += 8) {
          const std::uint64_t syms =
              LoadSymbols(line, base + q * kSymbolBits * pins, pins, p);
          for (unsigned pi = 0; pi < std::min(8u, pins - p); ++pi) {
            const auto sym = static_cast<Elem>((syms >> (8 * pi)) & 0xFF);
            if (sym == 0) continue;
            code_.ParityDeltaInto(s % k, sym, pdelta_);
            Elem* const out = lane_parity + (p + pi) * r;
            for (unsigned j = 0; j < r; ++j) out[j] ^= pdelta_[j];
          }
        }
      }
    }
    if (stored == nullptr) continue;
    for (unsigned wi = 0; wi < wcount; ++wi)
      for (unsigned pin = 0; pin < pins; ++pin) {
        const Elem* const check = parity_.data() + (wi * pins + pin) * r;
        for (unsigned j = 0; j < r; j += 8) {
          const unsigned count = std::min(8u, r - j);
          stored->SetWord(ParityBitOffset(pin, w_begin + wi, j),
                          count * kSymbolBits, Pack8(check + j, count));
        }
      }
  }
}

void PairScheme::WriteStaged(const rs::CodewordBlock& block, unsigned w_begin,
                             const dram::Address& addr,
                             const util::BitVec& line) {
  const auto& g = rank().geometry().device;
  const unsigned pins = g.dq_pins;
  const unsigned k = code_.k();
  const unsigned r = code_.r();
  const unsigned lanes = block.lines;
  const unsigned s0 = addr.col * subsymbols_per_col_;
  for (unsigned d = 0; d < rank().DataDevices(); ++d) {
    for (unsigned q = 0; q < subsymbols_per_col_; ++q) {
      const unsigned s = s0 + q;
      const unsigned pos = s % k;
      const unsigned l0 = Lane(s / k - w_begin, d, 0);
      for (unsigned p = 0; p < pins; p += 8) {
        const std::uint64_t syms =
            LoadSymbols(line, d * g.AccessBits() + q * kSymbolBits * pins,
                        pins, p);
        for (unsigned i = 0; i < std::min(8u, pins - p); ++i) {
          const unsigned l = l0 + p + i;
          const auto new_sym = static_cast<Elem>((syms >> (8 * i)) & 0xFF);
          Elem& sym = block.Row(pos)[l];
          const Elem delta = sym ^ new_sym;
          sym = new_sym;
          if (delta == 0 || consistent_[l] == 0) continue;
          // Consistent lane, changed symbol: move the parity by the delta.
          code_.ParityDeltaInto(pos, delta, pdelta_);
          store_[std::size_t{pos} * lanes + l] = 0xFF;
          for (unsigned j = 0; j < r; ++j) {
            block.Row(k + j)[l] ^= pdelta_[j];
            store_[std::size_t{k + j} * lanes + l] = 0xFF;
          }
        }
      }
    }
  }

  // Slow path: re-encode each of the line's inconsistent lanes (decoded,
  // spliced) and rewrite all of it. It is a codeword from now on, unless
  // scrub_on_write sends every write down this path.
  const auto [first, count] = CoveringCodewords(addr.col);
  const unsigned lane_end = Lane(first + count - w_begin, 0, 0);
  for (unsigned l = Lane(first - w_begin, 0, 0); l < lane_end; ++l) {
    if (consistent_[l] != 0) continue;
    for (unsigned i = 0; i < k; ++i) word_[i] = block.Row(i)[l];
    code_.ComputeParityInto(std::span<const Elem>(word_.data(), k),
                            std::span<Elem>(word_.data() + k, r));
    for (unsigned j = 0; j < r; ++j) block.Row(k + j)[l] = word_[k + j];
    MarkLane(l, lanes);
    consistent_[l] = !config_.scrub_on_write;
  }
}

void PairScheme::DoReadLines(std::span<const dram::Address> addrs,
                             std::span<ecc::ReadResult> results) {
  PAIR_DCHECK(addrs.size() == results.size(), "span extents rechecked in NVI");
  const auto& g = rank().geometry().device;
  const unsigned pins = g.dq_pins;
  const unsigned k = code_.k();
  for (std::size_t begin = 0; begin < addrs.size();) {
    const std::size_t end = RunEnd(addrs, begin);
    const std::span<const dram::Address> run =
        addrs.subspan(begin, end - begin);
    // With decode_full_pin_line every codeword of the pin is checked (they
    // are all in the sense amplifiers); otherwise only the ones covering
    // the run's columns, and each line folds only its own.
    const auto [w_begin, wcount] =
        config_.decode_full_pin_line
            ? std::pair<unsigned, unsigned>{0, cw_per_pin_}
            : CoveringCodewords(run);
    const rs::CodewordBlock block =
        StageCodewords(run.front().bank, run.front().row, w_begin, wcount);
    DecodeStaged(block, w_begin, wcount);

    // Lines with the same lanes share one fold.
    ecc::ReadResult claim;
    unsigned lane_begin = 0, lane_end = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const dram::Address& addr = addrs[i];
      const auto [first, count] = config_.decode_full_pin_line
                                      ? std::pair<unsigned, unsigned>{0, wcount}
                                      : CoveringCodewords(addr.col);
      const unsigned lo = Lane(first - w_begin, 0, 0);
      const unsigned hi = Lane(first + count - w_begin, 0, 0);
      if (i == begin || lo != lane_begin || hi != lane_end) {
        claim = {};
        for (unsigned l = lo; l < hi; ++l)
          claim.Fold(line_res_[l].status, line_res_[l].corrected);
        lane_begin = lo;
        lane_end = hi;
      }
      ecc::ReadResult& result = results[i];
      result = claim;

      // Deliver the addressed column's symbols. DecodeBatch wrote
      // corrected lanes back into the block and left failed lanes as
      // received.
      result.data = util::BitVec(rank().geometry().LineBits());
      // The column's first pin-line symbol; ColumnBit refuses a column past
      // the row, whose lanes the full-pin-line staging does not hold.
      const unsigned s0 = g.ColumnBit(addr.col) / pins / kSymbolBits;
      for (unsigned d = 0; d < rank().DataDevices(); ++d) {
        for (unsigned q = 0; q < subsymbols_per_col_; ++q) {
          const unsigned s = s0 + q;
          const unsigned l0 = Lane(s / k - w_begin, d, 0);
          for (unsigned p = 0; p < pins; p += 8) {
            const unsigned gp = std::min(8u, pins - p);
            StoreSymbols(result.data,
                         d * g.AccessBits() + q * kSymbolBits * pins, pins, p,
                         Pack8(block.Row(s % k) + l0 + p, gp),
                         ~std::uint64_t{0});
          }
        }
      }
    }
    begin = end;
  }
}

PairScheme::ScrubStats PairScheme::ScrubCodewords(unsigned bank, unsigned row,
                                                  unsigned w_begin,
                                                  unsigned wcount) {
  const rs::CodewordBlock block = StageCodewords(bank, row, w_begin, wcount);
  DecodeStaged(block, w_begin, wcount);
  store_.assign(std::size_t{code_.n()} * block.lines, 0);
  ScrubStats stats;
  stats.codewords = block.lines;
  for (unsigned l = 0; l < block.lines; ++l) {
    switch (line_res_[l].status) {
      case rs::DecodeStatus::kNoError:
        break;
      case rs::DecodeStatus::kCorrected:
        ++stats.corrected;
        MarkLane(l, block.lines);
        break;
      case rs::DecodeStatus::kFailure:
        ++stats.uncorrectable;
        break;
    }
  }
  StoreMarked(bank, row, block, w_begin, wcount);
  return stats;
}

void PairScheme::DoScrubLine(const dram::Address& addr) {
  const auto [w_begin, wcount] = CoveringCodewords(addr.col);
  ScrubCodewords(addr.bank, addr.row, w_begin, wcount);
}

PairScheme::ScrubStats PairScheme::ScrubRow(unsigned bank, unsigned row) {
  return ScrubCodewords(bank, row, 0, cw_per_pin_);
}

}  // namespace pair_ecc::core
