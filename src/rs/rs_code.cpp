#include "rs/rs_code.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "util/contract.hpp"

namespace pair_ecc::rs {

const RsCode& Gf256Code(unsigned n, unsigned k) {
  // PAIR_ANALYZE_ALLOW(THR-STATIC: lock for the interning cache below)
  static std::mutex mu;
  // Entries are immutable after construction and every access holds `mu`;
  // a shape whose construction throws leaves no entry behind.
  // PAIR_ANALYZE_ALLOW(THR-STATIC: write-once (n, k) code cache behind `mu`)
  static std::map<std::pair<unsigned, unsigned>, std::unique_ptr<RsCode>> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find({n, k});
  if (it == cache.end())
    it = cache
             .emplace(std::pair{n, k},
                      std::make_unique<RsCode>(GfField::Get(8), n, k))
             .first;
  return *it->second;
}

DecodeScratch::DecodeScratch(const RsCode& code) {
  const std::size_t r = code.r(), n = code.n();
  syn.reserve(r);
  batch_syn.reserve(r);
  for (Poly* p : {&gamma, &lambda, &b_poly, &adj, &prev, &s_poly, &omega,
                  &lambda_prime})
    p->reserve(2 * r + 2);
  err_pos.reserve(n);
  err_xinv.reserve(n);
  corrections.reserve(n);
  lane.reserve(n);
}

RsCode::RsCode(const GfField& field, unsigned n, unsigned k)
    : field_(field), n_(n), k_(k) {
  PAIR_CHECK(k >= 1 && n > k, "RsCode needs 1 <= k < n, got (" << n << ", " << k << ")");
  PAIR_CHECK(n <= field.Order(),
             "RsCode length " << n << " exceeds 2^m - 1 = " << field.Order());

  // g(x) = prod_{i=1..r} (x - alpha^i), narrow-sense.
  generator_ = {1};
  for (unsigned i = 1; i <= r(); ++i) {
    const Poly factor = {field_.AlphaPow(i), 1};  // alpha^i + x
    generator_ = Mul(field_, generator_, factor);
  }

  // Parity footprint of each data symbol: x^(n-1-i) mod g(x).
  // Computed iteratively: rem(x^(r)) first, then multiply by x and reduce.
  // Data index k-1 is degree r, index 0 is degree n-1.
  std::vector<Poly> by_degree(k_);
  Poly cur(r() + 1, 0);
  cur.back() = 1;  // x^r
  cur = Mod(field_, cur, generator_);
  by_degree[k_ - 1] = cur;
  for (unsigned d = 1; d < k_; ++d) {
    cur = ShiftUp(cur, 1);
    cur = Mod(field_, cur, generator_);
    by_degree[k_ - 1 - d] = cur;
  }
  for (auto& p : by_degree) p.resize(r(), 0);

  // Flatten into codeword order (parity slot j <-> footprint degree r-1-j)
  // and prepare the batch-kernel tables for every fixed constant this code
  // will ever multiply by: the k*r parity footprints and the r syndrome
  // Horner constants alpha^(j+1). One-time cost, so the batch hot loops
  // start multiplying immediately.
  foot_rev_.resize(std::size_t{k_} * r());
  foot_tables_.reserve(foot_rev_.size());
  for (unsigned i = 0; i < k_; ++i)
    for (unsigned j = 0; j < r(); ++j) {
      const Elem c = by_degree[i][r() - 1 - j];
      foot_rev_[std::size_t{i} * r() + j] = c;
      foot_tables_.push_back(gf::MakeMulTables(field_, c));
    }
  syn_tables_.reserve(r());
  for (unsigned j = 0; j < r(); ++j)
    syn_tables_.push_back(gf::MakeMulTables(field_, field_.AlphaPow(j + 1)));
  kernels_ = &gf::SelectKernels(field_);
}

void RsCode::ComputeParityInto(std::span<const Elem> data,
                               std::span<Elem> parity) const {
  PAIR_CHECK(data.size() == k_, "ComputeParity expects " << k_
                                    << " data symbols, got " << data.size());
  PAIR_CHECK(parity.size() == r(), "parity span holds " << parity.size()
                                       << " symbols, expected " << r());
  // parity(x) = (data(x) * x^r) mod g(x). Accumulate via the precomputed
  // monomial remainders: linear in the number of nonzero data symbols.
  // foot_rev_ already stores each footprint in codeword order, so the
  // accumulation is a contiguous span op (the per-line shape of the batch
  // path's mul_add_into).
  std::fill(parity.begin(), parity.end(), Elem{0});
  for (unsigned i = 0; i < k_; ++i) {
    const Elem d = data[i];
    if (d == 0) continue;
    const Elem* foot = &foot_rev_[std::size_t{i} * r()];
    for (unsigned j = 0; j < r(); ++j) parity[j] ^= field_.Mul(d, foot[j]);
  }
}

void RsCode::ParityDeltaInto(unsigned data_index, Elem delta,
                             std::span<Elem> out) const {
  PAIR_CHECK(data_index < k_, "ParityDelta index " << data_index
                                  << " out of range for k = " << k_);
  PAIR_CHECK(out.size() == r(), "ParityDelta output holds " << out.size()
                                    << " symbols, expected " << r());
  if (delta == 0) {
    std::fill(out.begin(), out.end(), Elem{0});
    return;
  }
  const Elem* foot = &foot_rev_[std::size_t{data_index} * r()];
  for (unsigned j = 0; j < r(); ++j) out[j] = field_.Mul(delta, foot[j]);
}

void RsCode::SyndromesInto(std::span<const Elem> word,
                           std::span<Elem> out) const {
  PAIR_DCHECK(word.size() == n_, "syndrome input length " << word.size()
                                     << " != n = " << n_);
  // Batch of one; with out of size r the batch layout out[j * lines + l]
  // degenerates to out[j]. Syndrome computation never writes the word, so
  // the const_cast into the (span-like, non-owning) block view is safe.
  SyndromesBatchInto(
      CodewordBlock{const_cast<Elem*>(word.data()), 1, n_, 1}, out);
}

void RsCode::EncodeBatchInto(const CodewordBlock& block) const {
  PAIR_CHECK(block.n == n_, "EncodeBatchInto block has n = " << block.n
                                << ", expected " << n_);
  PAIR_CHECK(block.lines >= 1 && block.stride >= block.lines,
             "EncodeBatchInto block with " << block.lines
                 << " lines needs stride >= lines, got " << block.stride);
  const unsigned rr = r();
  const unsigned lines = block.lines;
  for (unsigned j = 0; j < rr; ++j)
    std::fill(block.Row(k_ + j), block.Row(k_ + j) + lines, Elem{0});
  // Accumulate each data row's parity footprint: parity row k+j gains
  // foot_rev_[i*r+j] * data row i. Zero data lanes contribute zero, so the
  // result matches the per-line encoder's nonzero-symbol walk bitwise.
  if (lines >= kernels_->min_lanes && kernels_ != &gf::ScalarKernels()) {
    for (unsigned i = 0; i < k_; ++i) {
      const Elem* src = block.Row(i);
      for (unsigned j = 0; j < rr; ++j) {
        const gf::MulTables& t = foot_tables_[std::size_t{i} * rr + j];
        if (t.c == 0) continue;
        kernels_->mul_add_into(t, src, block.Row(k_ + j), lines);
      }
    }
    return;
  }
  for (unsigned i = 0; i < k_; ++i) {
    const Elem* src = block.Row(i);
    for (unsigned j = 0; j < rr; ++j) {
      const Elem c = foot_rev_[std::size_t{i} * rr + j];
      if (c == 0) continue;
      Elem* dst = block.Row(k_ + j);
      for (unsigned l = 0; l < lines; ++l) dst[l] ^= field_.Mul(c, src[l]);
    }
  }
}

void RsCode::SyndromesBatchInto(const CodewordBlock& block,
                                std::span<Elem> out) const {
  PAIR_DCHECK(block.n == n_, "SyndromesBatchInto block has n = " << block.n
                                 << ", expected " << n_);
  PAIR_DCHECK(block.lines >= 1 && block.stride >= block.lines,
              "SyndromesBatchInto block with " << block.lines
                  << " lines needs stride >= lines, got " << block.stride);
  PAIR_DCHECK(out.size() == std::size_t{r()} * block.lines,
              "syndrome output length " << out.size() << " != r * lines = "
                                        << std::size_t{r()} * block.lines);
  // Below m = 8 an out-of-field symbol would index past the log tables in
  // the Mul/Add below; every decode path funnels through here, so guard
  // once (the loop is empty in release builds where PAIR_DCHECK compiles
  // out). At m = 8 every byte is a field element.
  if (field_.m() < 8)
    for (unsigned i = 0; i < n_; ++i)
      for (unsigned l = 0; l < block.lines; ++l)
        PAIR_DCHECK(block.Row(i)[l] < field_.Size(),
                    "received symbol (" << i << ", lane " << l << ") = "
                        << unsigned{block.Row(i)[l]} << " outside GF(2^"
                        << field_.m() << ")");
  // S_j = c(alpha^(j+1)); with codeword index i at degree n-1-i, evaluate by
  // Horner over the positions as written (highest degree first), all lanes
  // in lock-step: acc = alpha^(j+1) * acc XOR row.
  const unsigned rr = r();
  const unsigned lines = block.lines;
  if (lines >= kernels_->min_lanes && kernels_ != &gf::ScalarKernels()) {
    for (unsigned j = 0; j < rr; ++j) {
      Elem* acc = out.data() + std::size_t{j} * lines;
      std::fill(acc, acc + lines, Elem{0});
      for (unsigned i = 0; i < n_; ++i)
        kernels_->syndrome_accumulate(syn_tables_[j], block.Row(i), acc,
                                      lines);
    }
    return;
  }
  for (unsigned j = 0; j < rr; ++j) {
    const Elem a = field_.AlphaPow(j + 1);
    Elem* acc = out.data() + std::size_t{j} * lines;
    std::fill(acc, acc + lines, Elem{0});
    for (unsigned i = 0; i < n_; ++i) {
      const Elem* row = block.Row(i);
      for (unsigned l = 0; l < lines; ++l)
        acc[l] = field_.Add(field_.Mul(acc[l], a), row[l]);
    }
  }
}

void RsCode::DecodeBatch(const CodewordBlock& block,
                         std::span<BatchLineResult> results, DecodeScratch& sc,
                         std::span<const std::span<const unsigned>> erasures) const {
  PAIR_CHECK(block.n == n_, "DecodeBatch block has n = " << block.n
                                << ", expected " << n_);
  PAIR_CHECK(results.size() == block.lines,
             "DecodeBatch results span holds " << results.size()
                 << " entries, expected " << block.lines);
  PAIR_CHECK(erasures.empty() || erasures.size() == block.lines,
             "DecodeBatch erasure span holds " << erasures.size()
                 << " lists, expected 0 or " << block.lines);
  const unsigned rr = r();
  const unsigned lines = block.lines;
  sc.batch_syn.resize(std::size_t{rr} * lines);
  SyndromesBatchInto(block, sc.batch_syn);
  sc.lane.resize(n_);
  for (unsigned l = 0; l < lines; ++l) {
    bool clean = true;
    for (unsigned j = 0; j < rr; ++j)
      clean = clean && sc.batch_syn[std::size_t{j} * lines + l] == 0;
    const std::span<const unsigned> erased =
        erasures.empty() ? std::span<const unsigned>{} : erasures[l];
    if (clean && erased.empty()) {
      // Exactly the per-line kNoError classification: all syndromes zero.
      results[l] = {DecodeStatus::kNoError, 0};
      continue;
    }
    // Dirty or erasure-carrying lane: gather it and run the scalar decoder
    // (which recomputes these syndromes — exact arithmetic, identical
    // values).
    for (unsigned i = 0; i < n_; ++i) sc.lane[i] = block.Row(i)[l];
    const DecodeStatus status = Decode(std::span<Elem>(sc.lane), erased, sc);
    results[l].status = status;
    results[l].corrected =
        status == DecodeStatus::kCorrected ? sc.NumCorrected() : 0;
    // kFailure leaves the block lane as received, like per-line Decode.
    if (status == DecodeStatus::kCorrected)
      for (unsigned i = 0; i < n_; ++i) block.Row(i)[l] = sc.lane[i];
  }
}

// A wrong-length word is simply not a codeword, so the extent test is a
// legal answer rather than a contract violation.
// PAIR_ANALYZE_ALLOW(CON-SPAN: wrong length is a legal not-a-codeword answer)
bool RsCode::IsCodeword(std::span<const Elem> word,
                        DecodeScratch& scratch) const {
  if (word.size() != n_) return false;
  scratch.syn.resize(r());
  SyndromesInto(word, scratch.syn);
  return std::all_of(scratch.syn.begin(), scratch.syn.end(),
                     [](Elem s) { return s == 0; });
}

namespace {

/// a ^= b (a + b in characteristic 2) with zero-padding to max size, then
/// normalized, reusing a's capacity.
void AddInPlace(Poly& a, const Poly& b) {
  if (b.size() > a.size()) a.resize(b.size(), 0);
  for (std::size_t i = 0; i < b.size(); ++i) a[i] ^= b[i];
  Normalize(a);
}

}  // namespace

DecodeStatus RsCode::Decode(std::span<Elem> word,
                            std::span<const unsigned> erasures,
                            DecodeScratch& sc) const {
  PAIR_CHECK(word.size() == n_, "Decode expects " << n_ << " symbols, got "
                                                  << word.size());
  for (unsigned e : erasures)
    PAIR_CHECK(e < n_, "erasure index " << e << " out of range for n = " << n_);

  for (std::size_t i = 0; i < erasures.size(); ++i)
    for (std::size_t j = i + 1; j < erasures.size(); ++j)
      PAIR_CHECK(erasures[i] != erasures[j],
                 "duplicate erasure index " << erasures[i]);

  sc.corrections.clear();
  sc.syn.resize(r());
  SyndromesInto(word, sc.syn);
  const bool syn_zero =
      std::all_of(sc.syn.begin(), sc.syn.end(), [](Elem s) { return s == 0; });
  if (syn_zero && erasures.empty()) return DecodeStatus::kNoError;
  const unsigned f = static_cast<unsigned>(erasures.size());
  if (f > r()) return DecodeStatus::kFailure;
  if (syn_zero) {
    // Erasures flagged but the word is already a codeword: nothing to fix.
    return DecodeStatus::kNoError;
  }

  // Erasure locator Gamma(x) = prod (1 - X_i x), X_i = alpha^(n-1-pos),
  // built up in place one binomial factor at a time (degree f <= r).
  sc.gamma.assign(1, 1);
  for (unsigned pos : erasures) {
    const Elem x_i = field_.AlphaPow(n_ - 1 - pos);
    sc.gamma.push_back(0);
    for (std::size_t j = sc.gamma.size() - 1; j >= 1; --j)
      sc.gamma[j] ^= field_.Mul(x_i, sc.gamma[j - 1]);
  }

  // Berlekamp-Massey seeded with the erasure locator.
  sc.lambda = sc.gamma;
  sc.b_poly = sc.gamma;
  unsigned big_l = f;
  unsigned m_gap = 1;
  Elem b_disc = 1;
  for (unsigned iter = f; iter < r(); ++iter) {
    Elem delta = 0;
    for (unsigned i = 0; i < sc.lambda.size() && i <= iter; ++i)
      delta ^= field_.Mul(sc.lambda[i], sc.syn[iter - i]);
    if (delta == 0) {
      ++m_gap;
      continue;
    }
    // adj = b_poly * (delta / b_disc) * x^m_gap. b_poly is nonzero (it is
    // only ever seeded from Gamma or a lambda whose discrepancy was
    // nonzero), so no normalization is needed here.
    const Elem scale = field_.Div(delta, b_disc);
    sc.adj.assign(sc.b_poly.size() + m_gap, 0);
    for (std::size_t i = 0; i < sc.b_poly.size(); ++i)
      sc.adj[i + m_gap] = field_.Mul(sc.b_poly[i], scale);
    if (2 * big_l <= iter + f) {
      sc.prev = sc.lambda;
      AddInPlace(sc.lambda, sc.adj);
      big_l = iter + f + 1 - big_l;
      std::swap(sc.b_poly, sc.prev);
      b_disc = delta;
      m_gap = 1;
    } else {
      AddInPlace(sc.lambda, sc.adj);
      ++m_gap;
    }
  }

  const int deg_lambda = Degree(sc.lambda);
  if (deg_lambda <= 0 || static_cast<unsigned>(deg_lambda) != big_l ||
      big_l > r()) {
    return DecodeStatus::kFailure;
  }

  // Chien search restricted to the shortened code's valid positions. Roots
  // falling in the shortened-away region surface as a count mismatch below,
  // which is a genuine detection (the pattern is outside this code).
  sc.err_pos.clear();
  sc.err_xinv.clear();
  for (unsigned pos = 0; pos < n_; ++pos) {
    const unsigned e = n_ - 1 - pos;  // degree exponent of this position
    const Elem x_inv =
        e == 0 ? Elem{1} : field_.AlphaPow(field_.Order() - e);
    if (Eval(field_, sc.lambda, x_inv) == 0) {
      sc.err_pos.push_back(pos);
      sc.err_xinv.push_back(x_inv);
    }
  }
  if (sc.err_pos.size() != static_cast<std::size_t>(deg_lambda)) {
    return DecodeStatus::kFailure;
  }

  // Forney: Omega(x) = S(x) * Lambda(x) mod x^r; Y_i = Omega(Xinv)/Lambda'(Xinv).
  sc.s_poly.assign(sc.syn.begin(), sc.syn.end());
  Normalize(sc.s_poly);
  // omega = s_poly * lambda (schoolbook, into the scratch buffer; both
  // factors are nonzero here — syndromes are nonzero and deg(lambda) >= 1).
  sc.omega.assign(sc.s_poly.size() + sc.lambda.size() - 1, 0);
  for (std::size_t i = 0; i < sc.s_poly.size(); ++i) {
    if (sc.s_poly[i] == 0) continue;
    for (std::size_t j = 0; j < sc.lambda.size(); ++j)
      sc.omega[i + j] ^= field_.Mul(sc.s_poly[i], sc.lambda[j]);
  }
  if (sc.omega.size() > r()) sc.omega.resize(r());
  Normalize(sc.omega);
  // lambda_prime = the formal derivative of lambda: d/dx x^i = i x^(i-1),
  // and the integer i reduces mod 2, so odd-degree coefficients shift down
  // one and even ones vanish.
  sc.lambda_prime.assign(sc.lambda.size() - 1, 0);
  for (std::size_t i = 1; i < sc.lambda.size(); i += 2)
    sc.lambda_prime[i - 1] = sc.lambda[i];
  Normalize(sc.lambda_prime);

  for (std::size_t i = 0; i < sc.err_pos.size(); ++i) {
    const Elem denom = Eval(field_, sc.lambda_prime, sc.err_xinv[i]);
    if (denom == 0) return DecodeStatus::kFailure;
    const Elem magnitude =
        field_.Div(Eval(field_, sc.omega, sc.err_xinv[i]), denom);
    if (magnitude != 0) sc.corrections.push_back({sc.err_pos[i], magnitude});
  }

  // Apply and re-verify; a non-codeword after "correction" means the decoder
  // was fooled by a heavy pattern — report it as detected, not corrected.
  for (const auto& c : sc.corrections) word[c.position] ^= c.magnitude;
  SyndromesInto(word, sc.syn);
  const bool verified =
      std::all_of(sc.syn.begin(), sc.syn.end(), [](Elem s) { return s == 0; });
  if (!verified) {
    for (const auto& c : sc.corrections) word[c.position] ^= c.magnitude;
    sc.corrections.clear();
    return DecodeStatus::kFailure;
  }

  return DecodeStatus::kCorrected;
}

}  // namespace pair_ecc::rs
