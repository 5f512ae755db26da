#include "rs/poly.hpp"

#include "util/contract.hpp"

namespace pair_ecc::rs {

int Degree(const Poly& p) noexcept {
  for (std::size_t i = p.size(); i-- > 0;)
    if (p[i] != 0) return static_cast<int>(i);
  return -1;
}

void Normalize(Poly& p) noexcept {
  while (!p.empty() && p.back() == 0) p.pop_back();
}

Elem Eval(const GfField& f, const Poly& p, Elem x) noexcept {
  Elem acc = 0;
  for (std::size_t i = p.size(); i-- > 0;) acc = f.Add(f.Mul(acc, x), p[i]);
  return acc;
}

Poly Mul(const GfField& f, const Poly& a, const Poly& b) {
  if (Degree(a) < 0 || Degree(b) < 0) return {};
  // Decode-loop polynomial products run in-place on DecodeScratch.
  // PAIR_ANALYZE_ALLOW(HOT-LOCAL: construction-time generator arithmetic)
  Poly out(a.size() + b.size() - 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == 0) continue;
    for (std::size_t j = 0; j < b.size(); ++j)
      out[i + j] ^= f.Mul(a[i], b[j]);
  }
  Normalize(out);
  return out;
}

Poly ShiftUp(const Poly& p, unsigned k) {
  if (Degree(p) < 0) return {};
  Poly out(p.size() + k, 0);
  for (std::size_t i = 0; i < p.size(); ++i) out[i + k] = p[i];
  return out;
}

Poly Mod(const GfField& f, const Poly& a, const Poly& b) {
  const int db = Degree(b);
  PAIR_CHECK(db >= 0, "polynomial mod by the zero polynomial");
  Poly r = a;
  Normalize(r);
  const Elem lead_inv = f.Inv(b[static_cast<std::size_t>(db)]);
  while (Degree(r) >= db) {
    const auto dr = static_cast<std::size_t>(Degree(r));
    const Elem q = f.Mul(r[dr], lead_inv);
    const std::size_t shift = dr - static_cast<std::size_t>(db);
    for (std::size_t i = 0; i <= static_cast<std::size_t>(db); ++i)
      r[i + shift] ^= f.Mul(q, b[i]);
    Normalize(r);
  }
  return r;
}

}  // namespace pair_ecc::rs
