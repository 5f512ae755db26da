// Batched GF(2^m) kernels: the arithmetic layer under the span-of-lines
// codec data path (rs::CodewordBlock).
//
// The RS batch APIs process a *row* of a structure-of-arrays codeword block
// — the same symbol position across many lines — so every inner loop is
// "combine a contiguous span with one constant":
//
//   MulInto             dst[i]  = c * src[i]
//   MulAddInto          dst[i] ^= c * src[i]      (parity accumulation)
//   SyndromeAccumulate  acc[i]  = c * acc[i] ^ row[i]  (one Horner step)
//
// A lane is one symbol, one byte (gf::Elem). Those three ops exist in
// several implementations ("kernels"): a scalar reference that calls
// GfField::Mul per element — the bitwise oracle every other kernel must
// match exactly — plus x86 SIMD variants (PCLMUL on 8 lanes per step, AVX2
// split-nibble PSHUFB and GFNI affine on 32). GF multiplication is exact,
// so any correct kernel produces identical bits; the differential test in
// tests/gf_batch_test.cpp enforces it for every compiled-in kernel.
//
// Dispatch is by runtime CPUID, best kernel first (gfni > avx2 > pclmul >
// scalar). The PAIR_GF_KERNEL environment variable pins a kernel by name
// for testing; an unknown or unsupported name pins the scalar oracle so a
// forced-fallback CI leg behaves identically on any machine. SIMD kernels
// only apply to fields they support (m == 8; PCLMUL additionally requires
// the default 0x11D polynomial its two-step reduction is derived for) —
// SelectKernels() returns scalar for every other field.
//
// Per-constant preparation (split-nibble product tables, the GFNI bit
// matrix) is factored into MulTables so callers can amortize it: the RS
// codec precomputes tables for its fixed constants (syndrome alpha powers,
// parity footprints) once per code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "gf/gf2m.hpp"

namespace pair_ecc::gf {

/// One multiplication constant `c` of `field`, with the kernel-specific
/// prepared forms. The prepared parts are kernel-agnostic — every kernel
/// reads only the members it needs — so tables built once stay valid when
/// the active kernel changes (e.g. the differential test swapping kernels).
struct MulTables {
  const GfField* field = nullptr;
  Elem c = 0;
  /// Split-nibble product tables (filled when field->m() == 8):
  /// c * x == lo[x & 15] ^ hi[x >> 4] for x < 256. PSHUFB-ready.
  alignas(16) std::uint8_t lo[16] = {};
  alignas(16) std::uint8_t hi[16] = {};
  /// 8x8 GF(2) matrix of y -> c*y packed for GF2P8AFFINEQB (byte k holds
  /// result-bit 7-k's row). Filled when field->m() == 8.
  std::uint64_t affine = 0;
};

/// Builds the prepared forms of `c` over `field` (cheap: 32 table muls for
/// m == 8, nothing otherwise).
MulTables MakeMulTables(const GfField& field, Elem c);

/// One kernel implementation of the three batch ops. The function pointers
/// operate on raw spans; callers hold the (field, c) context in a MulTables.
struct BatchKernels {
  const char* name;
  /// Lane count below which per-call table staging outweighs the vector
  /// win; spans shorter than this should take the scalar loop. The scalar
  /// kernel's value is 0 (it has no staging cost).
  unsigned min_lanes;
  /// True when this kernel's tables are valid for `field` (scalar: always).
  bool (*supports_field)(const GfField& field);
  void (*mul_into)(const MulTables& t, const Elem* src, Elem* dst,
                   std::size_t count);
  void (*mul_add_into)(const MulTables& t, const Elem* src, Elem* dst,
                       std::size_t count);
  void (*syndrome_accumulate)(const MulTables& t, const Elem* row, Elem* acc,
                              std::size_t count);
};

/// Every kernel compiled into this binary, best first. CPU support is NOT
/// checked here — pair with KernelRunnable() (the differential test probes
/// exactly the runnable subset).
std::span<const BatchKernels* const> CompiledKernels();

/// The scalar reference kernel (always compiled, always runnable).
const BatchKernels& ScalarKernels();

/// Compiled-in kernel by name ("scalar", "pclmul", "avx2", "gfni");
/// nullptr when the name is unknown or the kernel is not compiled in.
const BatchKernels* KernelByName(std::string_view name);

/// True when the running CPU can execute this kernel's instructions.
bool KernelRunnable(const BatchKernels& kernels);

/// Dispatch: the best runnable kernel that supports `field`, unless the
/// PAIR_GF_KERNEL environment variable names one — then that kernel if it
/// is compiled in, runnable, and supports the field, else the scalar
/// oracle (so a forced-fallback leg is deterministic everywhere).
const BatchKernels& SelectKernels(const GfField& field);

}  // namespace pair_ecc::gf
