#include "dram/rank.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/contract.hpp"

namespace pair_ecc::dram {

Rank::Rank(const RankGeometry& geometry) : geom_(geometry) {
  geom_.Validate();
  devices_.reserve(geom_.TotalDevices());
  for (unsigned d = 0; d < geom_.TotalDevices(); ++d)
    devices_.push_back(std::make_unique<Device>(geom_.device));
}

util::BitVec Rank::ReadLine(const Address& addr) const {
  const unsigned width = geom_.device.AccessBits();
  const unsigned column = geom_.device.ColumnBit(addr.col);
  util::BitVec line(geom_.LineBits());
  for (unsigned d = 0; d < geom_.data_devices; ++d) {
    const Device::Row* row = devices_[d]->FindRow(addr.bank, addr.row);
    if (row == nullptr) continue;  // an untouched row reads zero
    for (unsigned at = 0; at < width; at += 64) {
      const unsigned n = std::min(64u, width - at);
      line.SetWord(d * width + at, n, row->Read(column + at, n));
    }
  }
  return line;
}

void Rank::WriteLine(const Address& addr, const util::BitVec& line) {
  const unsigned width = geom_.device.AccessBits();
  PAIR_CHECK(line.size() == geom_.LineBits(), "Rank::WriteLine: wrong line width");
  const unsigned column = geom_.device.ColumnBit(addr.col);
  for (unsigned d = 0; d < geom_.data_devices; ++d) {
    Device::Row& row = devices_[d]->GetRow(addr.bank, addr.row);
    for (unsigned at = 0; at < width; at += 64) {
      const unsigned n = std::min(64u, width - at);
      row.Write(column + at, n, line.GetWord(d * width + at, n));
    }
  }
}

}  // namespace pair_ecc::dram
