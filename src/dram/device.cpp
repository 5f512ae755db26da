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
    stuck_count_ -= old_it->second.stuck_mask.Popcount();
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

Device::RowState& Device::GetRow(unsigned bank, unsigned row) {
  auto [it, inserted] = rows_.try_emplace(PhysicalKey(bank, row));
  if (inserted) it->second.data = util::BitVec(geom_.TotalRowBits());
  return it->second;
}

const Device::RowState* Device::FindRow(unsigned bank, unsigned row) const {
  const auto it = rows_.find(PhysicalKey(bank, row));
  return it == rows_.end() ? nullptr : &it->second;
}

bool Device::ReadBit(unsigned bank, unsigned row, unsigned bit) const {
  PAIR_CHECK_RANGE(bit < geom_.TotalRowBits(), "Device::ReadBit: bit out of range");
  const RowState* state = FindRow(bank, row);
  return state != nullptr && state->Read(bit, 1) != 0;
}

void Device::WriteBit(unsigned bank, unsigned row, unsigned bit, bool value) {
  PAIR_CHECK_RANGE(bit < geom_.TotalRowBits(), "Device::WriteBit: bit out of range");
  GetRow(bank, row).data.Set(bit, value);
}

util::BitVec Device::ReadBits(unsigned bank, unsigned row, unsigned offset,
                              unsigned count) const {
  PAIR_CHECK_RANGE(!(offset + count > geom_.TotalRowBits()), "Device::ReadBits: range out of row");
  const RowState* state = FindRow(bank, row);
  if (state == nullptr) return util::BitVec(count);
  util::BitVec out = state->data.Slice(offset, count);
  if (state->stuck_mask.empty()) return out;
  for (unsigned at = 0; at < count; at += 64) {
    const unsigned n = std::min(64u, count - at);
    if (state->stuck_mask.GetWord(offset + at, n) != 0)
      out.SetWord(at, n, state->Read(offset + at, n));
  }
  return out;
}

void Device::WriteBits(unsigned bank, unsigned row, unsigned offset,
                       const util::BitVec& bits) {
  PAIR_CHECK_RANGE(!(offset + bits.size() > geom_.TotalRowBits()), "Device::WriteBits: range out of row");
  GetRow(bank, row).data.Splice(offset, bits);
}

std::uint64_t Device::ReadWord(unsigned bank, unsigned row, unsigned offset,
                              unsigned count) const {
  PAIR_CHECK_RANGE(count <= 64 && offset + count <= geom_.TotalRowBits(), "Device::ReadWord: range out of row");
  const RowState* state = FindRow(bank, row);
  return state == nullptr ? 0 : state->Read(offset, count);
}

void Device::WriteWord(unsigned bank, unsigned row, unsigned offset,
                       unsigned count, std::uint64_t value) {
  PAIR_CHECK_RANGE(count <= 64 && offset + count <= geom_.TotalRowBits(), "Device::WriteWord: range out of row");
  GetRow(bank, row).data.SetWord(offset, count, value);
}

util::BitVec& Device::StoredRow(unsigned bank, unsigned row) {
  return GetRow(bank, row).data;
}

const util::BitVec* Device::FindStoredRow(unsigned bank, unsigned row) const {
  const RowState* state = FindRow(bank, row);
  return state == nullptr ? nullptr : &state->data;
}

util::BitVec Device::ReadColumn(const Address& addr) const {
  PAIR_CHECK_RANGE(addr.col < geom_.ColumnsPerRow(), "Device::ReadColumn: column out of range");
  return ReadBits(addr.bank, addr.row, addr.col * geom_.AccessBits(),
                  geom_.AccessBits());
}

void Device::WriteColumn(const Address& addr, const util::BitVec& data) {
  PAIR_CHECK_RANGE(addr.col < geom_.ColumnsPerRow(), "Device::WriteColumn: column out of range");
  PAIR_CHECK(data.size() == geom_.AccessBits(), "Device::WriteColumn: wrong data width");
  WriteBits(addr.bank, addr.row, addr.col * geom_.AccessBits(), data);
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
  RowState& state = GetRow(bank, row);  // checks the address
  if (flip != 0)
    state.data.SetWord(offset, count, state.data.GetWord(offset, count) ^ flip);
  if (stuck == 0) return;
  if (state.stuck_mask.empty()) {
    state.stuck_mask = util::BitVec(geom_.TotalRowBits());
    state.stuck_value = util::BitVec(geom_.TotalRowBits());
  }
  const std::uint64_t was_stuck = state.stuck_mask.GetWord(offset, count);
  stuck_count_ += static_cast<std::size_t>(__builtin_popcountll(stuck & ~was_stuck));
  state.stuck_mask.SetWord(offset, count, was_stuck | stuck);
  const std::uint64_t forced = state.stuck_value.GetWord(offset, count);
  state.stuck_value.SetWord(offset, count, (forced & ~stuck) | (value & stuck));
}

bool Device::HasStuckBits(unsigned bank, unsigned row) const {
  const RowState* state = FindRow(bank, row);
  return state != nullptr && !state->stuck_mask.empty();
}

}  // namespace pair_ecc::dram
