// A rank of lockstep devices: the unit every ECC scheme operates on.
//
// Cache-line convention: one cache line is one column access across the
// data devices, laid out *device-major* — line bits [d * AccessBits(),
// (d+1) * AccessBits()) are device d's column, each column internally
// beat-major per geometry.hpp. The sidecar (ECC) devices carry whatever the
// active scheme stores there and are never part of ReadLine/WriteLine.
#pragma once

#include <memory>
#include <vector>

#include "dram/device.hpp"
#include "dram/geometry.hpp"
#include "util/bitvec.hpp"

namespace pair_ecc::dram {

class Rank {
 public:
  explicit Rank(const RankGeometry& geometry);

  const RankGeometry& geometry() const noexcept { return geom_; }

  unsigned DataDevices() const noexcept { return geom_.data_devices; }
  unsigned EccDevices() const noexcept { return geom_.ecc_devices; }
  unsigned TotalDevices() const noexcept { return geom_.TotalDevices(); }

  /// Device d: indices [0, DataDevices()) are data dies, the rest sidecar
  /// ECC dies.
  Device& device(unsigned d) { return *devices_.at(d); }
  const Device& device(unsigned d) const { return *devices_.at(d); }

  /// Raw cache-line access through the data devices (no ECC semantics).
  util::BitVec ReadLine(const Address& addr) const;
  void WriteLine(const Address& addr, const util::BitVec& line);

  /// Device-major slice helpers for schemes.
  util::BitVec DeviceSlice(const util::BitVec& line, unsigned d) const;
  void SetDeviceSlice(util::BitVec& line, unsigned d,
                      const util::BitVec& slice) const;

 private:
  RankGeometry geom_;
  std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace pair_ecc::dram
