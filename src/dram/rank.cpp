#include "dram/rank.hpp"

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
  util::BitVec line(geom_.LineBits());
  for (unsigned d = 0; d < geom_.data_devices; ++d)
    line.Splice(d * width, devices_[d]->ReadColumn(addr));
  return line;
}

void Rank::WriteLine(const Address& addr, const util::BitVec& line) {
  PAIR_CHECK(line.size() == geom_.LineBits(), "Rank::WriteLine: wrong line width");
  const unsigned width = geom_.device.AccessBits();
  for (unsigned d = 0; d < geom_.data_devices; ++d)
    devices_[d]->WriteColumn(addr, line.Slice(d * width, width));
}

util::BitVec Rank::DeviceSlice(const util::BitVec& line, unsigned d) const {
  const unsigned width = geom_.device.AccessBits();
  PAIR_CHECK(!(d >= geom_.data_devices || line.size() != geom_.LineBits()), "Rank::DeviceSlice: bad arguments");
  return line.Slice(d * width, width);
}

void Rank::SetDeviceSlice(util::BitVec& line, unsigned d,
                          const util::BitVec& slice) const {
  const unsigned width = geom_.device.AccessBits();
  PAIR_CHECK(!(d >= geom_.data_devices || line.size() != geom_.LineBits() ||
      slice.size() != width), "Rank::SetDeviceSlice: bad arguments");
  line.Splice(d * width, slice);
}

}  // namespace pair_ecc::dram
