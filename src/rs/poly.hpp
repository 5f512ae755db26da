// Dense polynomial arithmetic over GF(2^m), coefficient vectors in
// ascending-degree order (p[i] is the coefficient of x^i). These are the
// primitives the Reed-Solomon encoder/decoder is written in terms of.
//
// Polynomials are kept normalized (no trailing zero coefficients) by the
// operations that can change the degree; the zero polynomial is the empty
// vector and has Degree() == -1 by convention.
#pragma once

#include <vector>

#include "gf/gf2m.hpp"

namespace pair_ecc::rs {

using gf::Elem;
using gf::GfField;
using Poly = std::vector<Elem>;

/// Degree of p; -1 for the zero polynomial.
int Degree(const Poly& p) noexcept;

/// Removes trailing zero coefficients in place.
void Normalize(Poly& p) noexcept;

/// Evaluates p at x by Horner's rule.
Elem Eval(const GfField& f, const Poly& p, Elem x) noexcept;

/// a * b (schoolbook; code polynomials here are short).
Poly Mul(const GfField& f, const Poly& a, const Poly& b);

/// p * x^k (shift up by k).
Poly ShiftUp(const Poly& p, unsigned k);

/// Remainder of a / b. b must be nonzero.
Poly Mod(const GfField& f, const Poly& a, const Poly& b);

}  // namespace pair_ecc::rs
