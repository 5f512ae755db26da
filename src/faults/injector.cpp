#include "faults/injector.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/contract.hpp"

namespace pair_ecc::faults {

std::string ToString(FaultType type) {
  switch (type) {
    case FaultType::kSingleBit:  return "single-bit";
    case FaultType::kSingleWord: return "single-word";
    case FaultType::kSinglePin:  return "single-pin";
    case FaultType::kSingleRow:  return "single-row";
    case FaultType::kSingleBank: return "single-bank";
    case FaultType::kPinBurst:   return "pin-burst";
  }
  return "unknown";
}

double FaultMix::WeightOf(FaultType type) const {
  switch (type) {
    case FaultType::kSingleBit:  return single_bit;
    case FaultType::kSingleWord: return single_word;
    case FaultType::kSinglePin:  return single_pin;
    case FaultType::kSingleRow:  return single_row;
    case FaultType::kSingleBank: return single_bank;
    case FaultType::kPinBurst:   return pin_burst;
  }
  return 0.0;
}

double FaultMix::TotalWeight() const {
  double total = 0.0;
  for (FaultType t : kAllFaultTypes) total += WeightOf(t);
  return total;
}

FaultType SampleType(const FaultMix& mix, util::Xoshiro256& rng) {
  const double total = mix.TotalWeight();
  PAIR_CHECK(total > 0.0, "SampleType: fault mix has zero total weight");
  double draw = rng.UniformDouble() * total;
  for (FaultType t : kAllFaultTypes) {
    draw -= mix.WeightOf(t);
    if (draw < 0.0) return t;
  }
  return FaultType::kSingleBit;  // numeric edge: all mass consumed
}

Injector::Injector(dram::Rank& rank, std::vector<RowRef> working_set,
                   TouchHook on_touch)
    : rank_(rank),
      rows_(std::move(working_set)),
      on_touch_(std::move(on_touch)) {
  PAIR_CHECK(!(rows_.empty()), "Injector: empty working set");
  const auto& g = rank_.geometry().device;
  for (const auto& r : rows_)
    PAIR_CHECK_RANGE(!(r.bank >= g.banks || r.row >= g.rows_per_bank), "Injector: working-set row out of range");
}

std::size_t Injector::RandomRow(util::Xoshiro256& rng) const {
  return static_cast<std::size_t>(rng.UniformBelow(rows_.size()));
}

void Injector::Corrupt(unsigned device, std::size_t i, const Footprint& cells,
                       bool permanent, util::Xoshiro256& rng) {
  if (on_touch_) on_touch_(i);
  const RowRef where = rows_[i];
  auto& dev = rank_.device(device);
  const unsigned row_bits = rank_.geometry().device.TotalRowBits();
  unsigned word = cells.first / 64;
  std::uint64_t flip = 0, stuck = 0, value = 0;
  std::uint64_t& hit = permanent ? stuck : flip;
  const auto write = [&] {
    const unsigned offset = word * 64;
    dev.Corrupt(where.bank, where.row, offset, std::min(64u, row_bits - offset),
                flip, stuck, value);
    flip = stuck = value = 0;
  };
  for (unsigned n = 0, bit = cells.first; n < cells.count;
       ++n, bit += cells.stride) {
    if (bit / 64 != word) {
      write();
      word = bit / 64;
    }
    if (!cells.every && !rng.Bernoulli(0.5)) continue;
    const std::uint64_t cell = std::uint64_t{1} << (bit % 64);
    hit |= cell;
    if (permanent && rng.Bernoulli(0.5)) value |= cell;
  }
  write();
}

InjectedFault Injector::Inject(FaultType type, bool permanent,
                               util::Xoshiro256& rng) {
  const auto device =
      static_cast<unsigned>(rng.UniformBelow(rank_.TotalDevices()));
  if (type == FaultType::kPinBurst)
    return InjectPinBurst(
        device, 2 + static_cast<unsigned>(rng.UniformBelow(15)), rng);  // 2..16
  const auto& g = rank_.geometry().device;
  const std::size_t i = RandomRow(rng);
  InjectedFault f{type, permanent, device, rows_[i].bank, rows_[i].row};
  // Footprints and hit rules: the table in fault_model.hpp. Row and bank
  // faults keep this whole-row footprint.
  Footprint cells{0, g.TotalRowBits(), 1, permanent};
  switch (type) {
    case FaultType::kSingleBit:
      f.bit = static_cast<unsigned>(rng.UniformBelow(g.TotalRowBits()));
      cells = {f.bit, 1, 1, true};
      break;
    case FaultType::kSingleWord: {
      constexpr unsigned kWordBits = 128;
      f.bit = kWordBits *
              static_cast<unsigned>(rng.UniformBelow(g.row_bits / kWordBits));
      cells = {f.bit, kWordBits, 1, false};
      break;
    }
    case FaultType::kSinglePin:
      f.bit = static_cast<unsigned>(rng.UniformBelow(g.dq_pins));  // the pin
      cells = {f.bit, g.PinLineBits(), g.dq_pins, permanent};
      break;
    case FaultType::kSingleRow:
    case FaultType::kSingleBank:
    case FaultType::kPinBurst:
      break;
  }
  if (type == FaultType::kSingleBank) {
    for (std::size_t j = 0; j < rows_.size(); ++j)
      if (rows_[j].bank == f.bank) Corrupt(device, j, cells, permanent, rng);
  } else {
    Corrupt(device, i, cells, permanent, rng);
  }
  counters_.Record(f);
  return f;
}

InjectedFault Injector::InjectFromMix(const FaultMix& mix,
                                      util::Xoshiro256& rng) {
  const FaultType type = SampleType(mix, rng);
  const bool permanent = rng.Bernoulli(mix.permanent_fraction);
  return Inject(type, permanent, rng);
}

InjectedFault Injector::InjectPinBurst(unsigned device, unsigned length,
                                       util::Xoshiro256& rng) {
  const auto& g = rank_.geometry().device;
  const std::size_t i = RandomRow(rng);
  const auto pin = static_cast<unsigned>(rng.UniformBelow(g.dq_pins));
  PAIR_CHECK(!(length == 0 || length > g.PinLineBits()), "Injector: bad pin-burst length");
  const auto start =
      static_cast<unsigned>(rng.UniformBelow(g.PinLineBits() - length + 1));
  // A burst is a definite flip of consecutive beats on the pin, a
  // transfer-path transient.
  const InjectedFault f{FaultType::kPinBurst, false, device, rows_[i].bank,
                        rows_[i].row, start, length};
  Corrupt(device, i, {dram::PinLineBit(g, pin, start), length, g.dq_pins, true},
          false, rng);
  counters_.Record(f);
  return f;
}

}  // namespace pair_ecc::faults
