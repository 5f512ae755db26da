// Systematic Reed-Solomon codec over GF(2^m) with:
//
//  * shortening: any (n, k) with n <= 2^m - 1 shares the generator of the
//    primitive mother code, so one decoder services every length;
//  * expandability: the property PAIR exploits — a t-symbol-correcting code
//    keeps its 2t check symbols while the data span k grows (up to
//    2^m - 1 - 2t). `Expanded()` returns the longer sibling code;
//  * errors-and-erasures decoding (Berlekamp-Massey + Chien + Forney),
//    correcting e errors and f erasures whenever 2e + f <= n - k;
//  * incremental ("delta") parity update: when one data symbol changes,
//    the new parity is old parity XOR a precomputed monomial remainder
//    scaled by the symbol delta. This is the mechanism behind PAIR's
//    RMW-free write path (the whole write burst on a pin is one symbol).
//
// Conventions: codeword index 0 is the highest-degree coefficient; data
// occupies indices [0, k), parity [k, n). Narrow-sense code (first
// consecutive root alpha^1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "gf/gf2m.hpp"
#include "gf/gf_batch.hpp"
#include "rs/poly.hpp"

namespace pair_ecc::rs {

/// Outcome of a decode attempt.
enum class DecodeStatus : std::uint8_t {
  kNoError,   // syndromes were all zero; word returned untouched
  kCorrected, // errors/erasures located and repaired; word now a codeword
  kFailure,   // uncorrectable pattern detected; word left as received
};

struct Correction {
  unsigned position;  // codeword index
  Elem magnitude;     // value XOR-ed into that symbol
};

/// Structure-of-arrays view of `lines` codewords of the same (n, k) code:
/// symbol position `pos` of lane `l` lives at data[pos * stride + l], so one
/// codeword *position* across all lanes is a contiguous span — exactly the
/// shape the gf::BatchKernels span ops consume. stride >= lines leaves room
/// for padding lanes. A block with lines == 1 and stride == 1 is bit-for-bit
/// a plain contiguous codeword, which is how SyndromesInto delegates to the
/// batch pass.
///
/// Non-owning, like std::span: the caller provides lines * n (through
/// stride) symbols of backing storage.
struct CodewordBlock {
  Elem* data = nullptr;
  unsigned lines = 0;   // lane count
  unsigned n = 0;       // symbols per codeword
  unsigned stride = 0;  // lane pitch between consecutive positions

  /// The `lines` lanes of symbol position `pos`, contiguous.
  Elem* Row(unsigned pos) const noexcept {
    return data + std::size_t{pos} * stride;
  }
};

/// Per-lane outcome of DecodeBatch.
struct BatchLineResult {
  DecodeStatus status = DecodeStatus::kNoError;
  unsigned corrected = 0;  // symbols repaired; 0 unless kCorrected
};

class RsCode;

/// Reusable decoder workspace. A scheme keeps one per codec and threads it
/// through every Decode call. Built from its code, every member is reserved
/// to its bound, so a decode of one lane — clean, corrected or failed —
/// performs no heap allocation, not even the first. Only DecodeBatch's
/// block syndromes grow, past one lane, to the widest block decoded.
///
/// Not thread-safe: one scratch per thread (the trial engine gives every
/// worker its own Scheme instance, which owns its own scratch).
struct DecodeScratch {
  /// Reserves r syndromes, 2r + 2 coefficients per polynomial, and n error
  /// positions, corrections and lane symbols for `code`.
  explicit DecodeScratch(const RsCode& code);

  std::vector<Elem> syn;                 // r syndromes
  std::vector<Correction> corrections;   // valid after kCorrected
  // Berlekamp-Massey / Chien / Forney workspace.
  Poly gamma, lambda, b_poly, adj, prev, s_poly, omega, lambda_prime;
  std::vector<unsigned> err_pos;
  std::vector<Elem> err_xinv;
  // DecodeBatch workspace: r * lines block syndromes plus one staged lane.
  std::vector<Elem> batch_syn;
  std::vector<Elem> lane;

  unsigned NumCorrected() const noexcept {
    return static_cast<unsigned>(corrections.size());
  }
};

class RsCode {
 public:
  /// Builds an (n, k) shortened RS code over `field`. Requires
  /// k >= 1, n > k, and n <= 2^m - 1. Throws std::invalid_argument otherwise.
  RsCode(const GfField& field, unsigned n, unsigned k);


  const GfField& field() const noexcept { return field_; }
  unsigned n() const noexcept { return n_; }
  unsigned k() const noexcept { return k_; }
  /// Number of check symbols, n - k.
  unsigned r() const noexcept { return n_ - k_; }
  /// Guaranteed error-correction power in symbols, floor(r / 2).
  unsigned t() const noexcept { return (n_ - k_) / 2; }
  /// Largest k reachable by expansion at this redundancy.
  unsigned MaxK() const noexcept { return field_.Order() - r(); }
  /// Storage overhead r / k.
  double Overhead() const noexcept {
    return static_cast<double>(r()) / static_cast<double>(k_);
  }

  /// The sibling code with the same check-symbol count but `new_k` data
  /// symbols — RS "expandability". new_k must be in [1, MaxK()].
  RsCode Expanded(unsigned new_k) const { return RsCode(field_, new_k + r(), new_k); }

  /// Systematic parity: writes the r check symbols of `data` (k symbols)
  /// into `parity` (parity.size() == r).
  void ComputeParityInto(std::span<const Elem> data,
                         std::span<Elem> parity) const;

  /// Parity contribution of setting data symbol `data_index` to value
  /// `delta` relative to its previous value (delta = old XOR new), written
  /// into `out` (out.size() == r). XOR it into the stored parity to
  /// re-encode without touching the other k-1 data symbols. O(r) per
  /// changed symbol.
  void ParityDeltaInto(unsigned data_index, Elem delta,
                       std::span<Elem> out) const;

  /// Writes the r syndromes of `word` (n symbols) into `out` (size r).
  void SyndromesInto(std::span<const Elem> word, std::span<Elem> out) const;

  /// True iff `word` is a codeword: n symbols, all syndromes zero.
  bool IsCodeword(std::span<const Elem> word, DecodeScratch& scratch) const;

  /// Decodes in place. `erasures` lists codeword indices flagged as unreliable
  /// (e.g. a DQ pin known bad); duplicates/out-of-range entries are invalid.
  /// Corrects when 2*errors + erasures <= r, otherwise reports kFailure and
  /// leaves `word` unmodified. A successful correction is re-verified against
  /// the syndromes; verification failure downgrades to kFailure. All working
  /// memory lives in `scratch`; on kCorrected the applied corrections are in
  /// scratch.corrections (cleared on every call).
  DecodeStatus Decode(std::span<Elem> word, std::span<const unsigned> erasures,
                      DecodeScratch& scratch) const;

  /// Batch systematic encode over an SoA block (block.n == n): positions
  /// [0, k) hold the data lanes on entry, positions [k, n) receive the
  /// parity lanes. Bitwise-identical to ComputeParityInto lane by lane, for
  /// every kernel (GF arithmetic is exact).
  void EncodeBatchInto(const CodewordBlock& block) const;

  /// Batch syndromes: writes syndrome j of lane l to out[j * lines + l]
  /// (out.size() == r * lines). Lane l's column equals SyndromesInto of
  /// that lane's codeword.
  void SyndromesBatchInto(const CodewordBlock& block,
                          std::span<Elem> out) const;

  /// Batch decode-in-place: batch syndromes classify clean lanes (the
  /// overwhelmingly common case — one kernel sweep, no per-lane work), then
  /// each dirty lane runs the scalar decoder. kCorrected lanes are repaired
  /// in the block; kFailure lanes are left as received.
  /// results.size() == block.lines. `erasures` is empty (no lane has any)
  /// or holds one list per lane; a lane with a non-empty list always runs
  /// the scalar Decode with it, so every lane's status, correction count
  /// and contents equal Decode's for that lane. On return
  /// scratch.batch_syn holds the received block's syndromes, laid out as
  /// SyndromesBatchInto writes them.
  void DecodeBatch(const CodewordBlock& block,
                   std::span<BatchLineResult> results, DecodeScratch& scratch,
                   std::span<const std::span<const unsigned>> erasures = {}) const;

  /// The batch-kernel set this code dispatches to (chosen at construction
  /// from CPU features and PAIR_GF_KERNEL; spans shorter than
  /// kernels().min_lanes take the scalar loop regardless).
  const gf::BatchKernels& kernels() const noexcept { return *kernels_; }

  /// Test hook: re-point dispatch (e.g. the differential kernel test).
  /// Prepared constant tables are kernel-agnostic, so this is always safe.
  void UseKernelsForTest(const gf::BatchKernels& kernels) noexcept {
    kernels_ = &kernels;
  }

  /// Generator polynomial (ascending degree), degree r.
  const Poly& Generator() const noexcept { return generator_; }

 private:
  const GfField& field_;
  unsigned n_;
  unsigned k_;
  Poly generator_;
  // Parity footprints, flattened in codeword order: foot_rev_[i * r + j] is
  // the coefficient of x^(r-1-j) of x^(n-1-i) mod g(x), i.e. the amount
  // parity slot j moves when data symbol i changes by 1. The reversed
  // layout makes per-line parity/delta loops contiguous.
  std::vector<Elem> foot_rev_;
  // Prepared multiplier tables for the batch kernels, same indexing as
  // foot_rev_ (foot_tables_[i * r + j].c == foot_rev_[i * r + j]).
  std::vector<gf::MulTables> foot_tables_;
  // syn_tables_[j] prepares alpha^(j+1), the Horner constant of syndrome j.
  std::vector<gf::MulTables> syn_tables_;
  const gf::BatchKernels* kernels_;
};

/// The process-wide (n, k) code over GF(2^8) (the PAIR symbol size), built
/// on first use and shared by every later caller. A code is immutable after
/// construction, so every scheme instance of one shape holds the same
/// `const RsCode&` instead of rebuilding its generator and k*r + r
/// multiplier tables per trial. Write-once: an entry is never replaced or
/// freed, so the reference stays valid for the life of the process.
/// Thread-safe. A caller that needs a code of its own (to re-point its
/// kernels) copies it.
const RsCode& Gf256Code(unsigned n, unsigned k);

}  // namespace pair_ecc::rs
