#include "dram/device.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/contract.hpp"

namespace pair_ecc::dram {

Device::Device(const DeviceGeometry& geometry) : geom_(geometry) {
  geom_.Validate();
  spares_used_.assign(geom_.banks, 0);
}

std::uint64_t Device::PhysicalKey(unsigned bank, unsigned row) const {
  const std::uint64_t key = RowKey(bank, row);
  if (remap_.empty()) return key;
  const auto it = remap_.find(key);
  return it == remap_.end() ? key : it->second;
}

bool Device::PostPackageRepair(unsigned bank, unsigned row) {
  CheckAddress(bank, row);
  if (spares_used_[bank] >= kSpareRowsPerBank) return false;
  ++spares_used_[bank];
  // Abandon the defective physical row entirely (its stuck cells go with it).
  const auto old_it = rows_.find(PhysicalKey(bank, row));
  if (old_it != rows_.end()) {
    stuck_count_ -= old_it->second.stuck_mask_.Popcount();
    rows_.erase(old_it);
  }
  remap_[RowKey(bank, row)] = next_spare_id_++;
  return true;
}

unsigned Device::SpareRowsLeft(unsigned bank) const {
  PAIR_CHECK_RANGE(bank < geom_.banks, "Device::SpareRowsLeft: bank out of range");
  return kSpareRowsPerBank - spares_used_[bank];
}

void Device::CheckAddress(unsigned bank, unsigned row) const {
  PAIR_CHECK_RANGE(!(bank >= geom_.banks || row >= geom_.rows_per_bank), "Device: bank/row out of range");
}

Device::Row& Device::GetRow(unsigned bank, unsigned row) {
  auto [it, inserted] = rows_.try_emplace(PhysicalKey(bank, row));
  if (inserted) it->second.data_ = util::BitVec(geom_.TotalRowBits());
  return it->second;
}

const Device::Row* Device::FindRow(unsigned bank, unsigned row) const {
  const auto it = rows_.find(PhysicalKey(bank, row));
  return it == rows_.end() ? nullptr : &it->second;
}

util::BitVec Device::ReadBits(unsigned bank, unsigned row, unsigned offset,
                              unsigned count) const {
  PAIR_CHECK_RANGE(!(offset + count > geom_.TotalRowBits()), "Device::ReadBits: range out of row");
  const Row* state = FindRow(bank, row);
  if (state == nullptr) return util::BitVec(count);
  util::BitVec out = state->data_.Slice(offset, count);
  if (!state->HasStuckBits()) return out;
  for (unsigned at = 0; at < count; at += 64) {
    const unsigned n = std::min(64u, count - at);
    if (state->stuck_mask_.GetWord(offset + at, n) != 0)
      out.SetWord(at, n, state->Read(offset + at, n));
  }
  return out;
}

void Device::WriteBits(unsigned bank, unsigned row, unsigned offset,
                       const util::BitVec& bits) {
  PAIR_CHECK_RANGE(!(offset + bits.size() > geom_.TotalRowBits()), "Device::WriteBits: range out of row");
  GetRow(bank, row).data_.Splice(offset, bits);
}

void Device::Corrupt(unsigned bank, unsigned row, unsigned offset,
                     unsigned count, std::uint64_t flip, std::uint64_t stuck,
                     std::uint64_t value) {
  const std::uint64_t hit = flip | stuck;
  PAIR_CHECK_RANGE(count <= 64 && offset + count <= geom_.TotalRowBits() &&
                       (count == 64 || hit >> count == 0),
                   "Device::Corrupt: bits out of row");
  if (hit == 0) {
    CheckAddress(bank, row);
    return;
  }
  Row& state = GetRow(bank, row);  // checks the address
  if (flip != 0)
    state.data_.SetWord(offset, count, state.data_.GetWord(offset, count) ^ flip);
  if (stuck == 0) return;
  if (!state.HasStuckBits()) {
    state.stuck_mask_ = util::BitVec(geom_.TotalRowBits());
    state.stuck_value_ = util::BitVec(geom_.TotalRowBits());
  }
  const std::uint64_t was_stuck = state.stuck_mask_.GetWord(offset, count);
  stuck_count_ += static_cast<std::size_t>(__builtin_popcountll(stuck & ~was_stuck));
  state.stuck_mask_.SetWord(offset, count, was_stuck | stuck);
  const std::uint64_t forced = state.stuck_value_.GetWord(offset, count);
  state.stuck_value_.SetWord(offset, count, (forced & ~stuck) | (value & stuck));
}

}  // namespace pair_ecc::dram
