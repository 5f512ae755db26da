// Galois-field arithmetic GF(2^m) for 2 <= m <= 8: one symbol is one byte.
//
// PAIR's codes are over GF(2^8); the narrower fields let tests exercise the
// Reed-Solomon machinery in src/rs on small, exhaustively checkable codes.
// Multiplication/division/inverse are table-driven (log/antilog), built
// once per (m, primitive polynomial) and shared through `GfField::Get`.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/contract.hpp"

namespace pair_ecc::gf {

/// Field element storage, one byte. Values are in [0, 2^m); below m = 8
/// the decoder's syndrome pass asserts range. A uint8_t streams as a
/// character, so cast an Elem to unsigned before printing it.
using Elem = std::uint8_t;

/// Default primitive polynomials (including the x^m term) for supported m.
/// GF(2^8) uses x^8+x^4+x^3+x^2+1 (0x11D), the polynomial used by most
/// storage/memory RS deployments.
std::uint32_t DefaultPrimitivePoly(unsigned m);

/// A concrete finite field GF(2^m) with cached log/antilog tables.
///
/// Instances are immutable after construction. Prefer `GfField::Get(m)` which
/// memoizes fields per (m, poly); constructing directly is useful in tests
/// that exercise alternative primitive polynomials.
class GfField {
 public:
  /// Builds the field. Throws std::invalid_argument if m is out of range or
  /// `poly` is not primitive over GF(2) of degree m (detected by the
  /// generator failing to enumerate all 2^m - 1 nonzero elements).
  GfField(unsigned m, std::uint32_t poly);

  /// Shared, memoized field with the default primitive polynomial.
  static const GfField& Get(unsigned m);

  unsigned m() const noexcept { return m_; }
  std::uint32_t poly() const noexcept { return poly_; }
  /// Number of field elements, 2^m.
  unsigned Size() const noexcept { return size_; }
  /// Multiplicative order, 2^m - 1. Also the length of a primitive RS code.
  unsigned Order() const noexcept { return size_ - 1; }

  Elem Add(Elem a, Elem b) const noexcept { return a ^ b; }
  Elem Sub(Elem a, Elem b) const noexcept { return a ^ b; }

  Elem Mul(Elem a, Elem b) const noexcept {
    if (a == 0 || b == 0) return 0;
    return antilog_[Mod(log_[a] + log_[b])];
  }

  /// Division a/b. Precondition: b != 0 — checked only by PAIR_DCHECK so
  /// the decoder hot path stays noexcept and branch-free in release builds
  /// (callers either guard the divisor or inherit it from a nonzero table
  /// entry). Division by zero aborts under PAIR_DCHECK builds and is
  /// undefined otherwise.
  Elem Div(Elem a, Elem b) const noexcept {
    PAIR_DCHECK(b != 0, "GF(2^" << m_ << ") division by zero");
    if (a == 0) return 0;
    return antilog_[Mod(log_[a] + Order() - log_[b])];
  }

  /// Multiplicative inverse; x must be nonzero.
  Elem Inv(Elem x) const {
    PAIR_CHECK(x != 0, "GF(2^" << m_ << ") inverse of zero");
    return antilog_[Mod(Order() - log_[x])];
  }

  /// alpha^power where alpha is the primitive element (power may exceed the
  /// order; it is reduced mod 2^m - 1). Negative powers via Order() offset.
  Elem AlphaPow(unsigned power) const noexcept {
    return antilog_[power % Order()];
  }

  /// Discrete log base alpha; x must be nonzero.
  unsigned Log(Elem x) const {
    PAIR_CHECK(x != 0, "GF(2^" << m_ << ") log of zero");
    return log_[x];
  }

  /// x^e by square-and-multiply over the log table (handles e == 0 -> 1).
  Elem Pow(Elem x, unsigned e) const {
    if (e == 0) return 1;
    if (x == 0) return 0;
    return antilog_[static_cast<unsigned>(
        (static_cast<std::uint64_t>(log_[x]) * e) % Order())];
  }

 private:
  unsigned Mod(unsigned v) const noexcept {
    return v >= Order() ? v - Order() : v;
  }

  unsigned m_;
  std::uint32_t poly_;
  unsigned size_;
  std::vector<Elem> antilog_;    // antilog_[i] = alpha^i, size 2*(2^m-1) avoided; single span with Mod().
  std::vector<unsigned> log_;    // log_[x] for x in [1, 2^m); log_[0] unused.
};

}  // namespace pair_ecc::gf
