#include "reliability/analytic.hpp"

#include <set>

#include "util/rng.hpp"

namespace pair_ecc::reliability {

DecodeBreakdown RsErrorBreakdown(const rs::RsCode& code, unsigned symbol_errors,
                                 std::uint64_t trials, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto& f = code.field();
  DecodeBreakdown out;
  rs::DecodeScratch scratch(code);
  std::vector<gf::Elem> clean(code.n()), word(code.n());
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    for (unsigned i = 0; i < code.k(); ++i)
      clean[i] = static_cast<gf::Elem>(rng.UniformBelow(f.Size()));
    code.ComputeParityInto(std::span<const gf::Elem>(clean).first(code.k()),
                           std::span<gf::Elem>(clean).subspan(code.k()));
    word = clean;
    std::set<unsigned> positions;
    while (positions.size() < symbol_errors)
      positions.insert(static_cast<unsigned>(rng.UniformBelow(code.n())));
    for (unsigned pos : positions)
      word[pos] ^= static_cast<gf::Elem>(1 + rng.UniformBelow(f.Size() - 1));

    switch (code.Decode(word, {}, scratch)) {
      case rs::DecodeStatus::kNoError:
        // The error pattern was itself a codeword: undetectable.
        ++out.undetected;
        break;
      case rs::DecodeStatus::kCorrected:
        if (word == clean) {
          ++out.corrected;
        } else {
          ++out.miscorrected;
        }
        break;
      case rs::DecodeStatus::kFailure:
        ++out.detected;
        break;
    }
  }
  const double n = trials ? static_cast<double>(trials) : 1.0;
  out.corrected /= n;
  out.miscorrected /= n;
  out.detected /= n;
  out.undetected /= n;
  return out;
}

double ProbMaxOccupancyAtLeast(unsigned bins, unsigned balls, unsigned k) {
  if (bins == 0 || k == 0) return 1.0;
  if (balls < k) return 0.0;

  // poly holds the truncated EGF (sum_{j<k} x^j/j!)^i coefficients.
  std::vector<double> poly(balls + 1, 0.0);
  std::vector<double> base(balls + 1, 0.0);
  double fact = 1.0;
  for (unsigned j = 0; j <= balls && j < k; ++j) {
    if (j > 0) fact *= static_cast<double>(j);
    base[j] = 1.0 / fact;
  }
  poly[0] = 1.0;
  for (unsigned i = 0; i < bins; ++i) {
    std::vector<double> next(balls + 1, 0.0);
    for (unsigned a = 0; a <= balls; ++a) {
      if (poly[a] == 0.0) continue;
      for (unsigned b = 0; a + b <= balls; ++b)
        next[a + b] += poly[a] * base[b];
    }
    poly = std::move(next);
  }

  // P(all < k) = balls! * [x^balls] poly / bins^balls.
  double numer = poly[balls];
  for (unsigned j = 2; j <= balls; ++j) numer *= static_cast<double>(j);
  for (unsigned j = 0; j < balls; ++j) numer /= static_cast<double>(bins);
  const double p_all_below = numer;
  return std::min(1.0, std::max(0.0, 1.0 - p_all_below));
}

OverwhelmProbability CodewordOverwhelmProbability(unsigned faults) {
  OverwhelmProbability p;
  // An 8 Kib row holds 64 x 128-bit on-die words and 16 PAIR-4 codewords
  // (8 pins x 2). Faults are uniform over the row, so uniform over either
  // partition.
  p.iecc = ProbMaxOccupancyAtLeast(64, faults, 2);
  p.pair4 = ProbMaxOccupancyAtLeast(16, faults, 3);
  return p;
}

double RsRandomWordMiscorrectionBound(const rs::RsCode& code) {
  const double q = static_cast<double>(code.field().Size());
  const double n = static_cast<double>(code.n());
  // V_t(n) = sum_{i=0..t} C(n,i) (q-1)^i, computed iteratively in doubles
  // (values stay far below overflow for GF(256) code sizes).
  double volume = 1.0;
  double binom = 1.0;
  double qpow = 1.0;
  for (unsigned i = 1; i <= code.t(); ++i) {
    binom *= (n - static_cast<double>(i - 1)) / static_cast<double>(i);
    qpow *= q - 1.0;
    volume += binom * qpow;
  }
  double denom = 1.0;
  for (unsigned j = 0; j < code.r(); ++j) denom *= q;
  return volume / denom;
}

}  // namespace pair_ecc::reliability
