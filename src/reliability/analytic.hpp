// Code-level miscorrection analysis (experiment T2): what happens when a
// decoder meets an error pattern beyond its guarantee. Hamming rates are
// exact (exhaustive); RS rates are Monte-Carlo over random patterns of a
// given symbol weight.
#pragma once

#include <cstdint>

#include "rs/rs_code.hpp"

namespace pair_ecc::reliability {

struct DecodeBreakdown {
  double corrected = 0.0;    ///< repaired to the written codeword
  double miscorrected = 0.0; ///< "repaired" to a different codeword (SDC)
  double detected = 0.0;     ///< reported uncorrectable
  double undetected = 0.0;   ///< pattern was itself a codeword offset (SDC)
};

/// Injects `symbol_errors` random distinct symbol errors into random
/// codewords of `code` and decodes, `trials` times.
DecodeBreakdown RsErrorBreakdown(const rs::RsCode& code, unsigned symbol_errors,
                                 std::uint64_t trials, std::uint64_t seed);

/// Sphere-packing estimate of the probability that a *random* word decodes
/// inside some codeword's radius-t sphere: V_t(n) / q^r with
/// V_t(n) = sum_{i<=t} C(n,i) (q-1)^i. This is the asymptotic miscorrection
/// rate for heavy garbage input (e.g. a dead pin) and the analytic row of
/// the T2 table.
double RsRandomWordMiscorrectionBound(const rs::RsCode& code);

/// Exact P(max bin occupancy >= k) when `balls` faults land uniformly and
/// independently in `bins` equal regions — the generalised birthday
/// probability behind every "two faults meet in one codeword" SDC path.
/// Computed via the EGF identity
///   P(all bins < k) = balls! · [x^balls] (sum_{j<k} x^j/j!)^bins.
/// Exact for balls <= 170 (double factorials); the reliability arguments
/// here use balls <= ~20.
double ProbMaxOccupancyAtLeast(unsigned bins, unsigned balls, unsigned k);

/// The F5 scaling argument in closed form: with `faults` independent
/// single-cell faults uniform over one device row, the probability that
/// some codeword region accumulates more errors than the code corrects —
/// IECC fails at 2 faults in one of 64 words, PAIR-4 at 3 in one of the
/// 16 pin codewords. (Multiply by the respective miscorrection rate from
/// T2 for the SDC estimate.)
struct OverwhelmProbability {
  double iecc;   ///< P(>=2 faults share a 128-bit word), 64 words/row
  double pair4;  ///< P(>=3 faults share a pin codeword), 16 codewords/row
};
OverwhelmProbability CodewordOverwhelmProbability(unsigned faults);

}  // namespace pair_ecc::reliability
