#include "faults/injector.hpp"

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

RowRef Injector::Touch(std::size_t i) {
  if (on_touch_) on_touch_(i);
  return rows_[i];
}

void Injector::CorruptBit(unsigned device, const RowRef& where, unsigned bit,
                          bool permanent, util::Xoshiro256& rng) {
  auto& dev = rank_.device(device);
  if (permanent) {
    dev.SetStuck(where.bank, where.row, bit, rng.Bernoulli(0.5));
  } else {
    dev.InjectFlip(where.bank, where.row, bit);
  }
}

void Injector::ApplySingleBit(InjectedFault& f, util::Xoshiro256& rng) {
  const auto& g = rank_.geometry().device;
  const RowRef where = Touch(RandomRow(rng));
  f.bank = where.bank;
  f.row = where.row;
  f.bit = static_cast<unsigned>(rng.UniformBelow(g.TotalRowBits()));
  if (f.permanent) {
    CorruptBit(f.device, where, f.bit, true, rng);
  } else {
    // A transient cell flip is a definite inversion.
    rank_.device(f.device).InjectFlip(where.bank, where.row, f.bit);
  }
}

void Injector::ApplySingleWord(InjectedFault& f, util::Xoshiro256& rng) {
  const auto& g = rank_.geometry().device;
  constexpr unsigned kWordBits = 128;
  const RowRef where = Touch(RandomRow(rng));
  f.bank = where.bank;
  f.row = where.row;
  const unsigned words = g.row_bits / kWordBits;
  const unsigned word = static_cast<unsigned>(rng.UniformBelow(words));
  f.bit = word * kWordBits;
  for (unsigned i = 0; i < kWordBits; ++i)
    if (rng.Bernoulli(0.5))
      CorruptBit(f.device, where, f.bit + i, f.permanent, rng);
}

void Injector::ApplySinglePin(InjectedFault& f, util::Xoshiro256& rng) {
  const auto& g = rank_.geometry().device;
  const RowRef where = Touch(RandomRow(rng));
  f.bank = where.bank;
  f.row = where.row;
  const unsigned pin = static_cast<unsigned>(rng.UniformBelow(g.dq_pins));
  f.bit = pin;  // record the pin index
  for (unsigned i = 0; i < g.PinLineBits(); ++i) {
    const unsigned bit = dram::PinLineBit(g, pin, i);
    if (f.permanent) {
      CorruptBit(f.device, where, bit, true, rng);
    } else if (rng.Bernoulli(0.5)) {
      rank_.device(f.device).InjectFlip(where.bank, where.row, bit);
    }
  }
}

void Injector::ApplyRowFootprint(unsigned device, const RowRef& where,
                                 bool permanent, util::Xoshiro256& rng) {
  const auto& g = rank_.geometry().device;
  for (unsigned bit = 0; bit < g.TotalRowBits(); ++bit) {
    if (permanent) {
      CorruptBit(device, where, bit, true, rng);
    } else if (rng.Bernoulli(0.5)) {
      rank_.device(device).InjectFlip(where.bank, where.row, bit);
    }
  }
}

void Injector::ApplySingleRow(InjectedFault& f, util::Xoshiro256& rng) {
  const RowRef where = Touch(RandomRow(rng));
  f.bank = where.bank;
  f.row = where.row;
  f.bit = 0;
  ApplyRowFootprint(f.device, where, f.permanent, rng);
}

void Injector::ApplySingleBank(InjectedFault& f, util::Xoshiro256& rng) {
  const RowRef seed = rows_[RandomRow(rng)];
  f.bank = seed.bank;
  f.row = seed.row;
  f.bit = 0;
  for (std::size_t i = 0; i < rows_.size(); ++i)
    if (rows_[i].bank == seed.bank)
      ApplyRowFootprint(f.device, Touch(i), f.permanent, rng);
}

void Injector::ApplyPinBurst(InjectedFault& f, util::Xoshiro256& rng) {
  const auto& g = rank_.geometry().device;
  const RowRef where = Touch(RandomRow(rng));
  f.bank = where.bank;
  f.row = where.row;
  const unsigned pin = static_cast<unsigned>(rng.UniformBelow(g.dq_pins));
  PAIR_CHECK(!(f.length == 0 || f.length > g.PinLineBits()), "Injector: bad pin-burst length");
  const unsigned start = static_cast<unsigned>(
      rng.UniformBelow(g.PinLineBits() - f.length + 1));
  f.bit = start;
  // A burst is a definite corruption of consecutive beats on the pin.
  for (unsigned i = 0; i < f.length; ++i)
    rank_.device(f.device).InjectFlip(where.bank, where.row,
                                      dram::PinLineBit(g, pin, start + i));
}

InjectedFault Injector::Inject(FaultType type, bool permanent,
                               util::Xoshiro256& rng) {
  InjectedFault f;
  f.type = type;
  f.permanent = permanent;
  f.device = static_cast<unsigned>(rng.UniformBelow(rank_.TotalDevices()));
  switch (type) {
    case FaultType::kSingleBit:  ApplySingleBit(f, rng); break;
    case FaultType::kSingleWord: ApplySingleWord(f, rng); break;
    case FaultType::kSinglePin:  ApplySinglePin(f, rng); break;
    case FaultType::kSingleRow:  ApplySingleRow(f, rng); break;
    case FaultType::kSingleBank: ApplySingleBank(f, rng); break;
    case FaultType::kPinBurst:
      f.permanent = false;  // bursts are transfer-path transients
      f.length = 2 + static_cast<unsigned>(rng.UniformBelow(15));  // 2..16
      ApplyPinBurst(f, rng);
      break;
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
  InjectedFault f;
  f.type = FaultType::kPinBurst;
  f.permanent = false;
  f.device = device;
  f.length = length;
  ApplyPinBurst(f, rng);
  counters_.Record(f);
  return f;
}

}  // namespace pair_ecc::faults
