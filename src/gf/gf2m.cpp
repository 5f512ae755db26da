#include "gf/gf2m.hpp"

#include <ios>
#include <map>
#include <mutex>

#include "util/contract.hpp"

namespace pair_ecc::gf {

std::uint32_t DefaultPrimitivePoly(unsigned m) {
  switch (m) {
    case 2:  return 0x7;      // x^2+x+1
    case 3:  return 0xB;      // x^3+x+1
    case 4:  return 0x13;     // x^4+x+1
    case 5:  return 0x25;     // x^5+x^2+1
    case 6:  return 0x43;     // x^6+x+1
    case 7:  return 0x89;     // x^7+x^3+1
    case 8:  return 0x11D;    // x^8+x^4+x^3+x^2+1
    default:
      PAIR_CHECK(false, "GF(2^m) requires m in [2, 8], got " << m);
  }
}

GfField::GfField(unsigned m, std::uint32_t poly) : m_(m), poly_(poly) {
  PAIR_CHECK(m >= 2 && m <= 8, "GF(2^m) requires m in [2, 8], got " << m);
  size_ = 1u << m;
  antilog_.assign(size_ - 1, 0);
  log_.assign(size_, 0);

  // Enumerate alpha^i by repeated multiplication by x modulo poly.
  std::uint32_t value = 1;
  for (unsigned i = 0; i < size_ - 1; ++i) {
    if (value >= size_ || (i != 0 && value == 1)) {
      // Cycle shorter than 2^m - 1: poly is not primitive.
      PAIR_CHECK(false, "polynomial 0x" << std::hex << poly
                            << " is not primitive over GF(2)");
    }
    antilog_[i] = static_cast<Elem>(value);
    log_[value] = i;
    value <<= 1;
    if (value & size_) value ^= poly;
  }
  PAIR_CHECK(value == 1, "polynomial 0x" << std::hex << poly
                             << " is not primitive over GF(2)");
}

const GfField& GfField::Get(unsigned m) {
  // PAIR_ANALYZE_ALLOW(THR-STATIC: lock for the interning cache below)
  static std::mutex mu;
  // Entries are immutable after construction and every access holds `mu`.
  // PAIR_ANALYZE_ALLOW(THR-STATIC: write-once interning cache behind `mu`)
  static std::map<unsigned, std::unique_ptr<GfField>> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(m);
  if (it == cache.end()) {
    it = cache.emplace(m, std::make_unique<GfField>(m, DefaultPrimitivePoly(m)))
             .first;
  }
  return *it->second;
}

}  // namespace pair_ecc::gf
