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
// Four 16-bit lanes per 64-bit carry-less multiply: each lane holds an
// 8-bit symbol, so lane * c has degree <= 14 and never crosses a lane
// boundary. Reduction mod the degree-8 polynomial uses x^8 == red (the low
// byte of the poly); with red = 0x1D (degree 4) two reduction rounds bring
// every lane below degree 8, which is why this kernel is gated on the
// default 0x11D field.

__attribute__((target("pclmul,sse2"))) inline __m128i
ClmulLanes(__m128i x, __m128i k) {
  // clmul acts on one 64-bit lane per operand; run both halves and stitch
  // the low qwords back together (products fit in 64 bits by construction).
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x01);
  return _mm_unpacklo_epi64(lo, hi);
}

__attribute__((target("pclmul,sse2"))) inline __m128i
PclmulProduct(__m128i v, __m128i cv, __m128i red, __m128i mask8) {
  const __m128i p = ClmulLanes(v, cv);                      // degree <= 14
  const __m128i t1 = ClmulLanes(_mm_srli_epi16(p, 8), red); // degree <= 10
  const __m128i p2 = _mm_xor_si128(_mm_and_si128(p, mask8), t1);
  const __m128i t2 = ClmulLanes(_mm_srli_epi16(p2, 8), red); // degree <= 6
  return _mm_xor_si128(_mm_and_si128(p2, mask8), t2);
}

__attribute__((target("pclmul,sse2"))) void PclmulMulInto(
    const MulTables& t, const Elem* src, Elem* dst, std::size_t count) {
  const __m128i cv = _mm_set1_epi64x(t.c);
  const __m128i red = _mm_set1_epi64x(t.field->poly() & 0xFF);
  const __m128i mask8 = _mm_set1_epi16(0x00FF);
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     PclmulProduct(v, cv, red, mask8));
  }
  for (; i < count; ++i) dst[i] = t.field->Mul(t.c, src[i]);
}

__attribute__((target("pclmul,sse2"))) void PclmulMulAddInto(
    const MulTables& t, const Elem* src, Elem* dst, std::size_t count) {
  const __m128i cv = _mm_set1_epi64x(t.c);
  const __m128i red = _mm_set1_epi64x(t.field->poly() & 0xFF);
  const __m128i mask8 = _mm_set1_epi16(0x00FF);
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i d = _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, PclmulProduct(v, cv, red, mask8)));
  }
  for (; i < count; ++i)
    dst[i] = static_cast<Elem>(dst[i] ^ t.field->Mul(t.c, src[i]));
}

__attribute__((target("pclmul,sse2"))) void PclmulSyndromeAccumulate(
    const MulTables& t, const Elem* row, Elem* acc, std::size_t count) {
  const __m128i cv = _mm_set1_epi64x(t.c);
  const __m128i red = _mm_set1_epi64x(t.field->poly() & 0xFF);
  const __m128i mask8 = _mm_set1_epi16(0x00FF);
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m128i a =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + i));
    const __m128i r =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(acc + i),
                     _mm_xor_si128(PclmulProduct(a, cv, red, mask8), r));
  }
  for (; i < count; ++i)
    acc[i] = t.field->Add(t.field->Mul(t.c, acc[i]), row[i]);
}

constexpr BatchKernels kPclmul = {
    "pclmul", /*min_lanes=*/8, &FieldIsDefaultGf256,
    &PclmulMulInto, &PclmulMulAddInto, &PclmulSyndromeAccumulate,
};

// ----------------------------------------------------------------- avx2
// Split-nibble PSHUFB over 16-bit lanes: every lane's value is < 256, so
// the high byte is zero and indexes table entry 0 (= c * 0 = 0). One
// multiply is two shuffles and a XOR for 16 lanes.

__attribute__((target("avx2"))) inline __m256i Avx2Product(__m256i v,
                                                           __m256i lo,
                                                           __m256i hi,
                                                           __m256i mask) {
  const __m256i ln = _mm256_and_si256(v, mask);
  const __m256i hn = _mm256_and_si256(_mm256_srli_epi16(v, 4), mask);
  return _mm256_xor_si256(_mm256_shuffle_epi8(lo, ln),
                          _mm256_shuffle_epi8(hi, hn));
}

__attribute__((target("avx2"))) void Avx2MulInto(const MulTables& t,
                                                 const Elem* src, Elem* dst,
                                                 std::size_t count) {
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi)));
  const __m256i mask = _mm256_set1_epi16(0x000F);
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        Avx2Product(v, lo, hi, mask));
  }
  for (; i < count; ++i) dst[i] = t.field->Mul(t.c, src[i]);
}

__attribute__((target("avx2"))) void Avx2MulAddInto(const MulTables& t,
                                                    const Elem* src, Elem* dst,
                                                    std::size_t count) {
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi)));
  const __m256i mask = _mm256_set1_epi16(0x000F);
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, Avx2Product(v, lo, hi, mask)));
  }
  for (; i < count; ++i)
    dst[i] = static_cast<Elem>(dst[i] ^ t.field->Mul(t.c, src[i]));
}

__attribute__((target("avx2"))) void Avx2SyndromeAccumulate(
    const MulTables& t, const Elem* row, Elem* acc, std::size_t count) {
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi)));
  const __m256i mask = _mm256_set1_epi16(0x000F);
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        _mm256_xor_si256(Avx2Product(a, lo, hi, mask), r));
  }
  for (; i < count; ++i)
    acc[i] = t.field->Add(t.field->Mul(t.c, acc[i]), row[i]);
}

constexpr BatchKernels kAvx2 = {
    "avx2", /*min_lanes=*/16, &FieldIsGf256,
    &Avx2MulInto, &Avx2MulAddInto, &Avx2SyndromeAccumulate,
};

// ----------------------------------------------------------------- gfni
// GF2P8AFFINEQB applies an arbitrary 8x8 GF(2) bit matrix to every byte —
// the affine form works for any GF(2^8) polynomial (the instruction's
// *multiply* sibling is hardwired to 0x11B, which is why we don't use it).
// The zero high bytes of the 16-bit lanes map to zero under any matrix.

__attribute__((target("gfni,avx2"))) inline __m256i Gfni16(__m256i v,
                                                           __m256i m) {
  return _mm256_gf2p8affine_epi64_epi8(v, m, 0);
}

__attribute__((target("gfni,avx2"))) void GfniMulInto(const MulTables& t,
                                                      const Elem* src,
                                                      Elem* dst,
                                                      std::size_t count) {
  const __m256i m = _mm256_set1_epi64x(static_cast<long long>(t.affine));
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), Gfni16(v, m));
  }
  for (; i < count; ++i) dst[i] = t.field->Mul(t.c, src[i]);
}

__attribute__((target("gfni,avx2"))) void GfniMulAddInto(const MulTables& t,
                                                         const Elem* src,
                                                         Elem* dst,
                                                         std::size_t count) {
  const __m256i m = _mm256_set1_epi64x(static_cast<long long>(t.affine));
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<__m256i*>(dst + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_xor_si256(d, Gfni16(v, m)));
  }
  for (; i < count; ++i)
    dst[i] = static_cast<Elem>(dst[i] ^ t.field->Mul(t.c, src[i]));
}

__attribute__((target("gfni,avx2"))) void GfniSyndromeAccumulate(
    const MulTables& t, const Elem* row, Elem* acc, std::size_t count) {
  const __m256i m = _mm256_set1_epi64x(static_cast<long long>(t.affine));
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + i));
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + i),
                        _mm256_xor_si256(Gfni16(a, m), r));
  }
  for (; i < count; ++i)
    acc[i] = t.field->Add(t.field->Mul(t.c, acc[i]), row[i]);
}

constexpr BatchKernels kGfni = {
    "gfni", /*min_lanes=*/16, &FieldIsGf256,
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
