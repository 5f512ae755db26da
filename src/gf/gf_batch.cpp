#include "gf/gf_batch.hpp"

#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#define PAIR_GF_BATCH_X86 1
#include <immintrin.h>
#endif

namespace pair_ecc::gf {

namespace {

constexpr std::uint32_t kDefaultPoly8 = 0x11D;

bool FieldIsGf256(const GfField& field) { return field.m() == 8; }

bool FieldIsDefaultGf256(const GfField& field) {
  return field.m() == 8 && field.poly() == kDefaultPoly8;
}

bool FieldAny(const GfField&) { return true; }

// --------------------------------------------------------------- scalar
// The reference kernel: GfField::Mul per element, exactly the arithmetic
// the per-line codec has always used. Every other kernel must match it
// bitwise (GF multiplication is exact, so "correct" implies "identical").

void ScalarMulInto(const MulTables& t, const Elem* src, Elem* dst,
                   std::size_t count) {
  const GfField& f = *t.field;
  const Elem c = t.c;
  for (std::size_t i = 0; i < count; ++i) dst[i] = f.Mul(c, src[i]);
}

void ScalarMulAddInto(const MulTables& t, const Elem* src, Elem* dst,
                      std::size_t count) {
  const GfField& f = *t.field;
  const Elem c = t.c;
  for (std::size_t i = 0; i < count; ++i)
    dst[i] = static_cast<Elem>(dst[i] ^ f.Mul(c, src[i]));
}

void ScalarSyndromeAccumulate(const MulTables& t, const Elem* row, Elem* acc,
                              std::size_t count) {
  const GfField& f = *t.field;
  const Elem c = t.c;
  for (std::size_t i = 0; i < count; ++i)
    acc[i] = f.Add(f.Mul(c, acc[i]), row[i]);
}

constexpr BatchKernels kScalar = {
    "scalar", /*min_lanes=*/0, &FieldAny,
    &ScalarMulInto, &ScalarMulAddInto, &ScalarSyndromeAccumulate,
};

#if PAIR_GF_BATCH_X86

// --------------------------------------------------------------- pclmul
// Eight byte lanes per iteration, widened in-register to 16-bit lanes so
// that four fit one 64-bit carry-less multiply: lane * c has degree <= 14
// and never crosses a lane boundary. Reduction mod the degree-8 polynomial
// uses x^8 == red (the low byte of the poly); with red = 0x1D (degree 4)
// two reduction rounds bring every lane below degree 8, which is why this
// kernel is gated on the default 0x11D field. The reduced lanes are < 256,
// so the saturating pack back to bytes is exact.

__attribute__((target("pclmul,sse2"))) inline __m128i
ClmulLanes(__m128i x, __m128i k) {
  // clmul acts on one 64-bit lane per operand; run both halves and stitch
  // the low qwords back together (products fit in 64 bits by construction).
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x01);
  return _mm_unpacklo_epi64(lo, hi);
}

__attribute__((target("pclmul,sse2"))) inline __m128i Load8(const Elem* p) {
  return _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
}

__attribute__((target("pclmul,sse2"))) inline void Store8(Elem* p,
                                                          __m128i v) {
  _mm_storel_epi64(reinterpret_cast<__m128i*>(p), v);
}

/// c * each of the 8 bytes at `src`, as the low 8 bytes of the result.
__attribute__((target("pclmul,sse2"))) inline __m128i
PclmulProduct(const Elem* src, __m128i cv, __m128i red) {
  const __m128i mask8 = _mm_set1_epi16(0x00FF);
  const __m128i v = _mm_unpacklo_epi8(Load8(src), _mm_setzero_si128());
  const __m128i p = ClmulLanes(v, cv);                      // degree <= 14
  const __m128i t1 = ClmulLanes(_mm_srli_epi16(p, 8), red); // degree <= 10
  const __m128i p2 = _mm_xor_si128(_mm_and_si128(p, mask8), t1);
  const __m128i t2 = ClmulLanes(_mm_srli_epi16(p2, 8), red); // degree <= 6
  const __m128i r = _mm_xor_si128(_mm_and_si128(p2, mask8), t2);
  return _mm_packus_epi16(r, r);
}

__attribute__((target("pclmul,sse2"))) void PclmulMulInto(
    const MulTables& t, const Elem* src, Elem* dst, std::size_t count) {
  const __m128i cv = _mm_set1_epi64x(t.c);
  const __m128i red = _mm_set1_epi64x(t.field->poly() & 0xFF);
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8)
    Store8(dst + i, PclmulProduct(src + i, cv, red));
  for (; i < count; ++i) dst[i] = t.field->Mul(t.c, src[i]);
}

__attribute__((target("pclmul,sse2"))) void PclmulMulAddInto(
    const MulTables& t, const Elem* src, Elem* dst, std::size_t count) {
  const __m128i cv = _mm_set1_epi64x(t.c);
  const __m128i red = _mm_set1_epi64x(t.field->poly() & 0xFF);
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8)
    Store8(dst + i,
           _mm_xor_si128(Load8(dst + i), PclmulProduct(src + i, cv, red)));
  for (; i < count; ++i)
    dst[i] = static_cast<Elem>(dst[i] ^ t.field->Mul(t.c, src[i]));
}

__attribute__((target("pclmul,sse2"))) void PclmulSyndromeAccumulate(
    const MulTables& t, const Elem* row, Elem* acc, std::size_t count) {
  const __m128i cv = _mm_set1_epi64x(t.c);
  const __m128i red = _mm_set1_epi64x(t.field->poly() & 0xFF);
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8)
    Store8(acc + i,
           _mm_xor_si128(PclmulProduct(acc + i, cv, red), Load8(row + i)));
  for (; i < count; ++i)
    acc[i] = t.field->Add(t.field->Mul(t.c, acc[i]), row[i]);
}

constexpr BatchKernels kPclmul = {
    "pclmul", /*min_lanes=*/8, &FieldIsDefaultGf256,
    &PclmulMulInto, &PclmulMulAddInto, &PclmulSyndromeAccumulate,
};

// ----------------------------------------------------------------- avx2
// Split-nibble PSHUFB over 32 byte lanes: one multiply is two shuffles and
// a XOR. The 16-bit shift carries a neighbour's bits into each byte's high
// nibble, which the mask clears.

__attribute__((target("avx2"))) inline __m256i Avx2Product(__m256i v,
                                                           __m256i lo,
                                                           __m256i hi,
                                                           __m256i mask) {
  const __m256i ln = _mm256_and_si256(v, mask);
  const __m256i hn = _mm256_and_si256(_mm256_srli_epi16(v, 4), mask);
  return _mm256_xor_si256(_mm256_shuffle_epi8(lo, ln),
                          _mm256_shuffle_epi8(hi, hn));
}

__attribute__((target("avx2"))) inline __m256i Load32(const Elem* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

__attribute__((target("avx2"))) inline void Store32(Elem* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

__attribute__((target("avx2"))) inline __m256i NibbleTable(
    const std::uint8_t* table) {
  return _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(table)));
}

__attribute__((target("avx2"))) void Avx2MulInto(const MulTables& t,
                                                 const Elem* src, Elem* dst,
                                                 std::size_t count) {
  const __m256i lo = NibbleTable(t.lo), hi = NibbleTable(t.hi);
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= count; i += 32)
    Store32(dst + i, Avx2Product(Load32(src + i), lo, hi, mask));
  for (; i < count; ++i) dst[i] = t.field->Mul(t.c, src[i]);
}

__attribute__((target("avx2"))) void Avx2MulAddInto(const MulTables& t,
                                                    const Elem* src, Elem* dst,
                                                    std::size_t count) {
  const __m256i lo = NibbleTable(t.lo), hi = NibbleTable(t.hi);
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= count; i += 32)
    Store32(dst + i, _mm256_xor_si256(Load32(dst + i),
                                      Avx2Product(Load32(src + i), lo, hi,
                                                  mask)));
  for (; i < count; ++i)
    dst[i] = static_cast<Elem>(dst[i] ^ t.field->Mul(t.c, src[i]));
}

__attribute__((target("avx2"))) void Avx2SyndromeAccumulate(
    const MulTables& t, const Elem* row, Elem* acc, std::size_t count) {
  const __m256i lo = NibbleTable(t.lo), hi = NibbleTable(t.hi);
  const __m256i mask = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= count; i += 32)
    Store32(acc + i, _mm256_xor_si256(Avx2Product(Load32(acc + i), lo, hi,
                                                  mask),
                                      Load32(row + i)));
  for (; i < count; ++i)
    acc[i] = t.field->Add(t.field->Mul(t.c, acc[i]), row[i]);
}

constexpr BatchKernels kAvx2 = {
    "avx2", /*min_lanes=*/32, &FieldIsGf256,
    &Avx2MulInto, &Avx2MulAddInto, &Avx2SyndromeAccumulate,
};

// ----------------------------------------------------------------- gfni
// GF2P8AFFINEQB applies an arbitrary 8x8 GF(2) bit matrix to each of 32
// bytes — the affine form works for any GF(2^8) polynomial (the
// instruction's *multiply* sibling is hardwired to 0x11B, which is why we
// don't use it).

__attribute__((target("gfni,avx2"))) inline __m256i GfniProduct(
    const Elem* src, __m256i m) {
  return _mm256_gf2p8affine_epi64_epi8(Load32(src), m, 0);
}

__attribute__((target("gfni,avx2"))) void GfniMulInto(const MulTables& t,
                                                      const Elem* src,
                                                      Elem* dst,
                                                      std::size_t count) {
  const __m256i m = _mm256_set1_epi64x(static_cast<long long>(t.affine));
  std::size_t i = 0;
  for (; i + 32 <= count; i += 32) Store32(dst + i, GfniProduct(src + i, m));
  for (; i < count; ++i) dst[i] = t.field->Mul(t.c, src[i]);
}

__attribute__((target("gfni,avx2"))) void GfniMulAddInto(const MulTables& t,
                                                         const Elem* src,
                                                         Elem* dst,
                                                         std::size_t count) {
  const __m256i m = _mm256_set1_epi64x(static_cast<long long>(t.affine));
  std::size_t i = 0;
  for (; i + 32 <= count; i += 32)
    Store32(dst + i,
            _mm256_xor_si256(Load32(dst + i), GfniProduct(src + i, m)));
  for (; i < count; ++i)
    dst[i] = static_cast<Elem>(dst[i] ^ t.field->Mul(t.c, src[i]));
}

__attribute__((target("gfni,avx2"))) void GfniSyndromeAccumulate(
    const MulTables& t, const Elem* row, Elem* acc, std::size_t count) {
  const __m256i m = _mm256_set1_epi64x(static_cast<long long>(t.affine));
  std::size_t i = 0;
  for (; i + 32 <= count; i += 32)
    Store32(acc + i,
            _mm256_xor_si256(GfniProduct(acc + i, m), Load32(row + i)));
  for (; i < count; ++i)
    acc[i] = t.field->Add(t.field->Mul(t.c, acc[i]), row[i]);
}

constexpr BatchKernels kGfni = {
    "gfni", /*min_lanes=*/32, &FieldIsGf256,
    &GfniMulInto, &GfniMulAddInto, &GfniSyndromeAccumulate,
};

#endif  // PAIR_GF_BATCH_X86

constexpr const BatchKernels* kCompiled[] = {
#if PAIR_GF_BATCH_X86
    &kGfni,
    &kAvx2,
    &kPclmul,
#endif
    &kScalar,
};

}  // namespace

MulTables MakeMulTables(const GfField& field, Elem c) {
  MulTables t;
  t.field = &field;
  t.c = c;
  if (field.m() != 8) return t;  // SIMD kernels never select such a field
  for (unsigned v = 0; v < 16; ++v) {
    t.lo[v] = static_cast<std::uint8_t>(field.Mul(c, static_cast<Elem>(v)));
    t.hi[v] =
        static_cast<std::uint8_t>(field.Mul(c, static_cast<Elem>(v << 4)));
  }
  // GF2P8AFFINEQB: result bit b of each byte is parity(matrix.byte[7-b] &
  // input), so byte 7-b carries the matrix row of result bit b. Row b's
  // column j is bit b of c * x^j.
  for (unsigned b = 0; b < 8; ++b) {
    std::uint8_t rowbits = 0;
    for (unsigned j = 0; j < 8; ++j) {
      const unsigned product = field.Mul(c, static_cast<Elem>(1u << j));
      rowbits = static_cast<std::uint8_t>(rowbits | (((product >> b) & 1u) << j));
    }
    t.affine |= static_cast<std::uint64_t>(rowbits) << (8 * (7 - b));
  }
  return t;
}

std::span<const BatchKernels* const> CompiledKernels() { return kCompiled; }

const BatchKernels& ScalarKernels() { return kScalar; }

const BatchKernels* KernelByName(std::string_view name) {
  for (const BatchKernels* k : kCompiled)
    if (name == k->name) return k;
  return nullptr;
}

bool KernelRunnable(const BatchKernels& kernels) {
  if (&kernels == &kScalar) return true;
#if PAIR_GF_BATCH_X86
  if (&kernels == &kPclmul) return __builtin_cpu_supports("pclmul") != 0;
  if (&kernels == &kAvx2) return __builtin_cpu_supports("avx2") != 0;
  if (&kernels == &kGfni)
    return __builtin_cpu_supports("gfni") != 0 &&
           __builtin_cpu_supports("avx2") != 0;
#endif
  return false;
}

const BatchKernels& SelectKernels(const GfField& field) {
  // getenv, not a cached static: a handful of codec constructions per trial
  // read it, and re-reading keeps tests free to re-point the dispatcher.
  const char* env = std::getenv("PAIR_GF_KERNEL");
  if (env != nullptr && *env != '\0') {
    const BatchKernels* k = KernelByName(env);
    if (k != nullptr && KernelRunnable(*k) && k->supports_field(field))
      return *k;
    return kScalar;  // unknown/unsupported names pin the oracle
  }
  for (const BatchKernels* k : kCompiled)
    if (KernelRunnable(*k) && k->supports_field(field)) return *k;
  return kScalar;
}

}  // namespace pair_ecc::gf
