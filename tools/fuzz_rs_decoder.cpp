// Fuzz harness for the PAIR codec stack — both the raw Reed-Solomon
// decoder and every registered ecc::Scheme driven through the factory.
//
// The beyond-bound decode paths (Unraveling Codes, Hamburg et al.) are
// exactly where hand-written BM/Chien/Forney implementations go wrong, so
// the fuzzer drives arbitrary received words and checks self-consistency:
//
//   RS 1. Decode never crashes, hangs, or trips a sanitizer on any input.
//   RS 2. A claimed correction always lands on a true codeword
//         (re-verified independently via IsCodeword).
//   RS 3. Without erasures, a claimed correction never exceeds t symbols
//         (bounded-distance discipline: more than t would be a
//         miscorrection amplifier).
//   RS 4. Encode -> inject(<= t errors at fuzzer-chosen positions) ->
//         decode recovers the original exactly.
//
// Scheme properties, for the fuzzer-selected SchemeKind (all of
// AllSchemeKinds(), including the expanded-RS PAIR siblings):
//
//   SC 1. Clean write -> read returns the exact line with a kClean claim.
//   SC 2. One flipped bit inside the addressed column is corrected and
//         the delivered line is bit-exact (every scheme but No-ECC).
//   SC 3. PAIR t=2: two flips within one device row never escape the
//         budget (claim != kDetected, data exact) — the pin-alignment
//         containment guarantee.
//
// Two build modes (tools/CMakeLists.txt): with PAIR_BUILD_FUZZERS=ON under
// Clang this is a libFuzzer target; otherwise PAIR_FUZZ_STANDALONE adds a
// main() that replays corpus files (tests/data/fuzz_corpus/) as a plain
// ctest regression on any toolchain.
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dram/rank.hpp"
#include "ecc/scheme.hpp"
#include "gf/gf2m.hpp"
#include "rs/rs_code.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace {

using pair_ecc::dram::Address;
using pair_ecc::dram::Rank;
using pair_ecc::dram::RankGeometry;
using pair_ecc::gf::Elem;
using pair_ecc::rs::DecodeStatus;
using pair_ecc::rs::RsCode;
using pair_ecc::util::BitVec;
using pair_ecc::util::Xoshiro256;

const RsCode& PickCode(std::uint8_t selector) {
  // The three code shapes the study leans on: PAIR-2, PAIR-4, DUO-like.
  switch (selector % 3) {
    case 0: return pair_ecc::rs::Gf256Code(34, 32);
    case 1: return pair_ecc::rs::Gf256Code(68, 64);
    default: return pair_ecc::rs::Gf256Code(76, 64);
  }
}

void FuzzRsDecoder(const std::uint8_t* data, std::size_t size) {
  const RsCode& code = PickCode(data[0]);
  const std::size_t payload = size - 1;

  // RS 1-3: decode an arbitrary word. Every byte is a GF(256) element.
  pair_ecc::rs::DecodeScratch scratch(code);
  std::vector<Elem> word(code.n(), 0);
  for (unsigned i = 0; i < code.n(); ++i)
    word[i] = static_cast<Elem>(data[1 + (i % payload)] ^ (i * 37));
  std::vector<Elem> received = word;
  const DecodeStatus wild = code.Decode(received, {}, scratch);
  if (wild == DecodeStatus::kCorrected) {
    if (scratch.NumCorrected() > code.t()) __builtin_trap();
    if (!code.IsCodeword(received, scratch)) __builtin_trap();
  }
  if (wild == DecodeStatus::kFailure && !(received == word))
    __builtin_trap();  // failure must leave the word untouched

  // RS 4: bounded-error roundtrip from fuzzer-chosen bytes.
  std::vector<Elem> clean(code.n());
  for (unsigned i = 0; i < code.k(); ++i)
    clean[i] = static_cast<Elem>(data[1 + ((i * 3) % payload)]);
  code.ComputeParityInto(std::span<const Elem>(clean).first(code.k()),
                         std::span<Elem>(clean).subspan(code.k()));
  auto noisy = clean;
  const unsigned errors = data[1] % (code.t() + 1);
  for (unsigned e = 0; e < errors; ++e) {
    const unsigned pos =
        static_cast<unsigned>(data[1 + ((e * 7 + 2) % payload)]) % code.n();
    const Elem mag = static_cast<Elem>(1 + data[1 + ((e * 11 + 5) % payload)] % 255);
    noisy[pos] = static_cast<Elem>(noisy[pos] ^ mag);
  }
  const DecodeStatus result = code.Decode(noisy, {}, scratch);
  if (!(noisy == clean)) __builtin_trap();
  if (result == DecodeStatus::kFailure) __builtin_trap();
}

void FuzzScheme(const std::uint8_t* data, std::size_t size) {
  namespace ecc = pair_ecc::ecc;
  const std::size_t payload = size - 1;
  const auto byte = [&](std::size_t i) -> std::uint8_t {
    return data[1 + (i % payload)];
  };

  const auto kinds = ecc::AllSchemeKinds();
  const ecc::SchemeKind kind = kinds[byte(0) % kinds.size()];
  RankGeometry rg;
  Rank rank(rg);
  const auto scheme = ecc::MakeScheme(kind, rank);

  // Line contents come from a fuzzer-seeded deterministic RNG; addresses
  // and flip positions come straight from the input bytes.
  std::uint64_t seed = 0x9E3779B97F4A7C15ull;
  for (unsigned i = 0; i < 8; ++i) seed = (seed << 8) ^ byte(1 + i);
  Xoshiro256 rng(seed);

  const unsigned row_bits = rg.device.row_bits;
  const unsigned ops = 1 + byte(9) % 4;
  for (unsigned op = 0; op < ops; ++op) {
    const std::size_t base = 10 + static_cast<std::size_t>(op) * 6;
    const Address addr{byte(base) % rg.device.banks,
                       byte(base + 1) % rg.device.rows_per_bank,
                       byte(base + 2) % rg.device.ColumnsPerRow()};
    const BitVec line = BitVec::Random(rg.LineBits(), rng);
    scheme->WriteLine(addr, line);

    const unsigned dev = byte(base + 3) % rg.data_devices;
    const unsigned mode = byte(base + 4) % 3;
    if (mode == 0) {
      // SC 1: clean roundtrip.
      const auto r = scheme->ReadLine(addr);
      if (r.claim != ecc::Claim::kClean || !(r.data == line))
        __builtin_trap();
    } else if (mode == 1) {
      // SC 2: one flip inside the addressed column.
      const unsigned bit = addr.col * rg.device.AccessBits() +
                           byte(base + 5) % rg.device.AccessBits();
      rank.device(dev).InjectFlip(addr.bank, addr.row, bit);
      const auto r = scheme->ReadLine(addr);
      if (kind != ecc::SchemeKind::kNoEcc &&
          (r.claim != ecc::Claim::kCorrected || !(r.data == line)))
        __builtin_trap();
      rank.device(dev).InjectFlip(addr.bank, addr.row, bit);  // undo
    } else if (kind == ecc::SchemeKind::kPair4 ||
               kind == ecc::SchemeKind::kPair4SecDed) {
      // SC 3: two flips anywhere in the device row stay contained.
      const unsigned a = (byte(base + 5) * 257u) % row_bits;
      unsigned b = (byte(base + 5) * 263u + 1u) % row_bits;
      if (b == a) b = (b + 1) % row_bits;
      rank.device(dev).InjectFlip(addr.bank, addr.row, a);
      rank.device(dev).InjectFlip(addr.bank, addr.row, b);
      const auto r = scheme->ReadLine(addr);
      if (r.claim == ecc::Claim::kDetected || !(r.data == line))
        __builtin_trap();
      rank.device(dev).InjectFlip(addr.bank, addr.row, a);  // undo
      rank.device(dev).InjectFlip(addr.bank, addr.row, b);
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size < 2) return 0;
  FuzzRsDecoder(data, size);
  FuzzScheme(data, size);
  return 0;
}

#ifdef PAIR_FUZZ_STANDALONE
// Corpus replay mode: run each file given on the command line through the
// harness once. A property violation traps (nonzero exit), so ctest can
// gate on the committed seed corpus with any toolchain.
#include <cstdio>
#include <fstream>

int main(int argc, char** argv) {
  unsigned replayed = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "fuzz_rs_decoder: cannot read %s\n", argv[i]);
      return 2;
    }
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                           bytes.size());
    ++replayed;
  }
  std::printf("fuzz_rs_decoder: replayed %u corpus file(s)\n", replayed);
  return 0;
}
#endif
