// Google-benchmark microbenchmarks for the hot paths: field arithmetic,
// RS encode/decode at the PAIR and DUO shapes, the incremental parity
// delta, Hamming codecs, full scheme read/write paths, and controller
// scheduling throughput. These are simulator-engineering numbers (how fast
// the reproduction runs), not claims about DRAM hardware.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "bench/bench_common.hpp"
#include "core/pair_scheme.hpp"
#include "dram/rank.hpp"
#include "ecc/scheme.hpp"
#include "gf/gf_batch.hpp"
#include "hamming/hamming.hpp"
#include "rs/rs_code.hpp"
#include "timing/controller.hpp"
#include "timing/presets.hpp"
#include "util/rng.hpp"
#include "workload/streams.hpp"

#ifdef PAIR_ALLOC_COUNTER
// Global operator new/delete instrumentation (build with
// -DPAIR_ALLOC_COUNTER=ON). Counts every heap allocation in the process so
// the scratch-decode benchmark can report allocations-per-decode and prove
// the RS steady state allocates nothing.
#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1)))
    return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif  // PAIR_ALLOC_COUNTER

namespace {

using namespace pair_ecc;

void BM_GfMul(benchmark::State& state) {
  const auto& f = gf::GfField::Get(8);
  util::Xoshiro256 rng(1);
  gf::Elem a = static_cast<gf::Elem>(1 + rng.UniformBelow(255));
  gf::Elem b = static_cast<gf::Elem>(1 + rng.UniformBelow(255));
  for (auto _ : state) {
    a = f.Mul(a, b);
    b = static_cast<gf::Elem>(a | 1);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_GfMul);

/// A random codeword of `code`: k random data symbols and their parity.
std::vector<gf::Elem> RandomCodeword(const rs::RsCode& code, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<gf::Elem> cw(code.n());
  for (unsigned i = 0; i < code.k(); ++i)
    cw[i] = static_cast<gf::Elem>(rng.UniformBelow(256));
  code.ComputeParityInto(std::span<const gf::Elem>(cw).first(code.k()),
                         std::span<gf::Elem>(cw).subspan(code.k()));
  return cw;
}

void BM_RsEncode(benchmark::State& state) {
  const auto code = rs::Gf256Code(static_cast<unsigned>(state.range(0)) + 4,
                                      static_cast<unsigned>(state.range(0)));
  auto cw = RandomCodeword(code, 2);
  const std::span<const gf::Elem> data(cw.data(), code.k());
  const std::span<gf::Elem> parity(cw.data() + code.k(), code.r());
  for (auto _ : state) {
    code.ComputeParityInto(data, parity);
    benchmark::DoNotOptimize(cw.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RsEncode)->Arg(32)->Arg(64)->Arg(128);

// The steady-state hot path the trial engine runs: clean decode through a
// DecodeScratch built from its code. With PAIR_ALLOC_COUNTER=ON the
// "allocs_per_decode" counter proves the path allocates nothing.
void BM_RsDecodeCleanScratch(benchmark::State& state) {
  const auto code = rs::Gf256Code(68, 64);
  auto word = RandomCodeword(code, 3);
  rs::DecodeScratch scratch(code);
#ifdef PAIR_ALLOC_COUNTER
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
#endif
  for (auto _ : state) {
    auto status = code.Decode(std::span<gf::Elem>(word), {}, scratch);
    benchmark::DoNotOptimize(status);
  }
#ifdef PAIR_ALLOC_COUNTER
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
  state.counters["allocs_per_decode"] = benchmark::Counter(
      static_cast<double>(allocs) /
      static_cast<double>(std::max<std::int64_t>(state.iterations(), 1)));
#endif
}
BENCHMARK(BM_RsDecodeCleanScratch);

void BM_RsDecodeErrors(benchmark::State& state) {
  const auto code = rs::Gf256Code(68, 64);
  const auto clean = RandomCodeword(code, 4);
  rs::DecodeScratch scratch(code);
  const auto errors = static_cast<unsigned>(state.range(0));
  auto word = clean;
  for (auto _ : state) {
    word = clean;
    for (unsigned e = 0; e < errors; ++e)
      word[(e * 17) % word.size()] ^= static_cast<gf::Elem>(0x5A + e);
    auto status = code.Decode(std::span<gf::Elem>(word), {}, scratch);
    benchmark::DoNotOptimize(status);
  }
}
BENCHMARK(BM_RsDecodeErrors)->Arg(1)->Arg(2);

void BM_RsParityDelta(benchmark::State& state) {
  const auto code = rs::Gf256Code(68, 64);
  std::vector<gf::Elem> d(code.r());
  unsigned i = 0;
  for (auto _ : state) {
    code.ParityDeltaInto(i % code.k(), static_cast<gf::Elem>(i | 1), d);
    benchmark::DoNotOptimize(d.data());
    benchmark::ClobberMemory();
    ++i;
  }
}
BENCHMARK(BM_RsParityDelta);

void BM_HammingDecode136(benchmark::State& state) {
  const auto code = hamming::HammingCode::OnDie136();
  util::Xoshiro256 rng(5);
  auto cw = code.Encode(util::BitVec::Random(128, rng));
  cw.Flip(17);
  for (auto _ : state) {
    auto word = cw;
    auto res = code.Decode(word);
    benchmark::DoNotOptimize(res);
  }
}
BENCHMARK(BM_HammingDecode136);

// The scheme benchmarks run on the default DDR4 x8 BL8 rank, where IECC's
// 64-bit columns are half an on-die word, and (the *Ddr5 variants) on the
// DDR5 x8 BL16 rank of the DDR5-4800 preset, where a column is the word.
dram::RankGeometry Ddr5Rank() {
  return timing::MakePreset(timing::GeometryPreset::kDdr5_4800).geometry;
}

void SchemeWriteLine(benchmark::State& state, const dram::RankGeometry& rg) {
  dram::Rank rank(rg);
  auto scheme =
      ecc::MakeScheme(static_cast<ecc::SchemeKind>(state.range(0)), rank);
  util::Xoshiro256 rng(6);
  const auto line = util::BitVec::Random(rg.LineBits(), rng);
  const unsigned columns = rg.device.ColumnsPerRow();
  unsigned col = 0;
  for (auto _ : state) {
    scheme->WriteLine({0, 0, col}, line);
    col = (col + 1) % columns;
  }
  state.SetLabel(scheme->Name());
}

void BM_SchemeWriteLine(benchmark::State& state) {
  SchemeWriteLine(state, dram::RankGeometry{});
}
BENCHMARK(BM_SchemeWriteLine)
    ->Arg(static_cast<int>(ecc::SchemeKind::kIecc))
    ->Arg(static_cast<int>(ecc::SchemeKind::kIeccSecDed))
    ->Arg(static_cast<int>(ecc::SchemeKind::kXed))
    ->Arg(static_cast<int>(ecc::SchemeKind::kDuo))
    ->Arg(static_cast<int>(ecc::SchemeKind::kPair4));

void BM_SchemeWriteLineDdr5(benchmark::State& state) {
  SchemeWriteLine(state, Ddr5Rank());
}
BENCHMARK(BM_SchemeWriteLineDdr5)
    ->Arg(static_cast<int>(ecc::SchemeKind::kIecc));

void SchemeReadLine(benchmark::State& state, const dram::RankGeometry& rg) {
  dram::Rank rank(rg);
  auto scheme =
      ecc::MakeScheme(static_cast<ecc::SchemeKind>(state.range(0)), rank);
  util::Xoshiro256 rng(7);
  const unsigned columns = rg.device.ColumnsPerRow();
  for (unsigned col = 0; col < columns; ++col)
    scheme->WriteLine({0, 0, col}, util::BitVec::Random(rg.LineBits(), rng));
  unsigned col = 0;
  for (auto _ : state) {
    auto r = scheme->ReadLine({0, 0, col});
    benchmark::DoNotOptimize(r);
    col = (col + 1) % columns;
  }
  state.SetLabel(scheme->Name());
}

void BM_SchemeReadLine(benchmark::State& state) {
  SchemeReadLine(state, dram::RankGeometry{});
}
BENCHMARK(BM_SchemeReadLine)
    ->Arg(static_cast<int>(ecc::SchemeKind::kIecc))
    ->Arg(static_cast<int>(ecc::SchemeKind::kIeccSecDed))
    ->Arg(static_cast<int>(ecc::SchemeKind::kXed))
    ->Arg(static_cast<int>(ecc::SchemeKind::kDuo))
    ->Arg(static_cast<int>(ecc::SchemeKind::kPair4));

void BM_SchemeReadLineDdr5(benchmark::State& state) {
  SchemeReadLine(state, Ddr5Rank());
}
BENCHMARK(BM_SchemeReadLineDdr5)
    ->Arg(static_cast<int>(ecc::SchemeKind::kIecc));

void BM_ControllerThroughput(benchmark::State& state) {
  const timing::TimingParams params;
  workload::StreamConfig cfg;
  cfg.read_fraction = 0.67;
  cfg.intensity = 0.05;
  cfg.num_requests = 5000;
  cfg.kind = workload::StreamKind::kRandom;
  for (auto _ : state) {
    timing::Controller ctrl(params,
                            timing::SchemeTiming::FromPerf({}, params));
    auto trace = timing::Materialize(*workload::MakeStream(cfg));
    auto stats = ctrl.Run(trace);
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          cfg.num_requests);
}
BENCHMARK(BM_ControllerThroughput);

// The backlogged case: a write-heavy batch-inference stream at high
// intensity keeps the reorder window full, on DDR5-4800 with IECC's write
// read-modify-write under FR-FCFS. The stream is generated once; each
// iteration times one controller over it.
void BM_ControllerBacklogged(benchmark::State& state) {
  const timing::SystemPreset preset =
      timing::MakePreset(timing::GeometryPreset::kDdr5_4800);
  dram::RankGeometry rg = preset.geometry;
  dram::Rank rank(rg);
  const auto scheme = timing::SchemeTiming::FromPerf(
      ecc::MakeScheme(ecc::SchemeKind::kIecc, rank)->Perf(), preset.timing);
  workload::StreamConfig cfg;
  cfg.kind = workload::StreamKind::kBatchInference;
  cfg.read_fraction = 0.1;
  cfg.intensity = 0.9;
  cfg.num_requests = 5000;
  cfg.banks = preset.timing.banks;
  const timing::Trace trace = timing::Materialize(*workload::MakeStream(cfg));
  for (auto _ : state) {
    timing::Controller ctrl(preset.timing, scheme);
    timing::VectorSource source(trace);
    auto stats = ctrl.Run(source);
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          cfg.num_requests);
}
BENCHMARK(BM_ControllerBacklogged);

// ---------------------------------------------------------------- batch ----
// Span-of-lines codec section: throughput of EncodeBatchInto /
// SyndromesBatchInto / DecodeBatch per runnable GF kernel and batch size,
// plus a deterministic kernel-equivalence table, emitted as a pair-report
// ("CODEC-MICRO") for bench_diff. Throughput lands in the report's
// "timing" section, which diffs ignore by default; the equivalence table
// and shape meta are machine-independent and baselined.

/// Fills `block` with random codewords of `code` (kernel-independent: the
/// data is random, the parity is whatever the currently pinned kernel
/// computes — GF arithmetic is exact, so every kernel agrees).
void FillCodewords(const rs::RsCode& code, const rs::CodewordBlock& block,
                   util::Xoshiro256& rng) {
  for (unsigned i = 0; i < code.k(); ++i)
    for (unsigned l = 0; l < block.lines; ++l)
      block.Row(i)[l] = static_cast<gf::Elem>(rng.UniformBelow(256));
  code.EncodeBatchInto(block);
}

/// Runs `op` until ~20ms of wall clock accumulate and returns lines/sec.
template <typename Op>
double MeasureLinesPerSec(unsigned lines_per_call, Op&& op) {
  using Clock = std::chrono::steady_clock;
  op();  // warm caches and scratch
  std::uint64_t calls = 0;
  double elapsed = 0.0;
  const Clock::time_point t0 = Clock::now();
  do {
    for (int i = 0; i < 32; ++i) op();
    calls += 32;
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < 0.02);
  return static_cast<double>(calls) * lines_per_call / elapsed;
}

/// True iff `kernel` reproduces the scalar oracle bitwise on `code` for
/// encode, syndromes, and decode over random blocks of every batch size.
bool KernelMatchesScalar(rs::RsCode code, const gf::BatchKernels& kernel,
                         std::span<const unsigned> batch_sizes,
                         util::Xoshiro256& rng) {
  std::vector<gf::Elem> buf_a, buf_b, syn_a, syn_b;
  rs::DecodeScratch sc_a(code), sc_b(code);
  std::vector<rs::BatchLineResult> res_a, res_b;
  for (unsigned lanes : batch_sizes) {
    buf_a.assign(std::size_t{code.n()} * lanes, 0);
    const rs::CodewordBlock a{buf_a.data(), lanes, code.n(), lanes};
    code.UseKernelsForTest(gf::ScalarKernels());
    FillCodewords(code, a, rng);
    // Error mix: lane l gets l % (t+2) symbol errors (some beyond t).
    for (unsigned l = 0; l < lanes; ++l)
      for (unsigned e = 0; e < l % (code.t() + 2); ++e)
        a.Row((l * 7 + e * 13) % code.n())[l] ^=
            static_cast<gf::Elem>(1 + ((l + e) & 0xFF) % 255);
    buf_b = buf_a;
    const rs::CodewordBlock b{buf_b.data(), lanes, code.n(), lanes};

    syn_a.resize(std::size_t{code.r()} * lanes);
    syn_b.resize(std::size_t{code.r()} * lanes);
    code.SyndromesBatchInto(a, syn_a);
    res_a.resize(lanes);
    code.DecodeBatch(a, res_a, sc_a);

    code.UseKernelsForTest(kernel);
    code.SyndromesBatchInto(b, syn_b);
    res_b.resize(lanes);
    code.DecodeBatch(b, res_b, sc_b);

    if (syn_a != syn_b || buf_a != buf_b) return false;
    for (unsigned l = 0; l < lanes; ++l)
      if (res_a[l].status != res_b[l].status ||
          res_a[l].corrected != res_b[l].corrected)
        return false;
  }
  return true;
}

/// Returns false when the PAIR_ALLOC_COUNTER steady-state contract is
/// violated (and on success records allocs_per_batch_decode = 0).
bool RunBatchCodecSection() {
  bench::BenchReport report("CODEC-MICRO",
                            "batched RS codec: GF kernels and throughput");
  const auto& field = gf::GfField::Get(8);
  report.MetaString("selected_kernel", gf::SelectKernels(field).name);
  std::string compiled, runnable;
  for (const gf::BatchKernels* k : gf::CompiledKernels()) {
    if (!compiled.empty()) compiled += ",";
    compiled += k->name;
    if (gf::KernelRunnable(*k)) {
      if (!runnable.empty()) runnable += ",";
      runnable += k->name;
    }
  }
  report.MetaString("kernels_compiled", compiled);
  report.MetaString("kernels_runnable", runnable);

  constexpr unsigned kBatchSizes[] = {1, 16, 64, 256};

  // Deterministic equivalence table: every runnable kernel must reproduce
  // the scalar oracle bitwise at every code shape (kernels_ok is 1 on any
  // machine — only runnable kernels are exercised).
  struct Shape {
    const char* name;
    rs::RsCode code;
  };
  const Shape shapes[] = {
      {"PAIR-2 (34,32)", rs::Gf256Code(34, 32)},
      {"PAIR-4 (68,64)", rs::Gf256Code(68, 64)},
      {"DUO (76,64)", rs::Gf256Code(76, 64)},
      {"PAIR-4 expanded (132,128)", rs::Gf256Code(68, 64).Expanded(128)},
  };
  util::Table eq({"shape", "n", "k", "t", "batch sizes", "kernels_ok"});
  util::Xoshiro256 rng(0xBA7C4);
  bool all_ok = true;
  for (const Shape& s : shapes) {
    bool ok = true;
    for (const gf::BatchKernels* k : gf::CompiledKernels()) {
      if (!gf::KernelRunnable(*k)) continue;
      ok = ok && KernelMatchesScalar(s.code, *k, kBatchSizes, rng);
    }
    all_ok = all_ok && ok;
    eq.AddRowValues(s.name, s.code.n(), s.code.k(), s.code.t(),
                    sizeof(kBatchSizes) / sizeof(kBatchSizes[0]),
                    ok ? 1 : 0);
  }
  report.Emit("batch_equivalence", eq);

  // Throughput: lines/sec per kernel x batch size at the PAIR-4 shape.
  // Machine-dependent, so terminal + report "timing" section only.
  rs::RsCode code = rs::Gf256Code(68, 64);
  util::Table thr({"kernel", "batch", "encode Mlines/s", "syndrome Mlines/s",
                   "decode(clean) Mlines/s"});
  double scalar_enc256 = 0.0, scalar_syn256 = 0.0;
  double best_enc256 = 0.0, best_syn256 = 0.0;
  for (const gf::BatchKernels* k : gf::CompiledKernels()) {
    if (!gf::KernelRunnable(*k)) continue;
    code.UseKernelsForTest(*k);
    for (unsigned lanes : kBatchSizes) {
      std::vector<gf::Elem> buf(std::size_t{code.n()} * lanes, 0);
      const rs::CodewordBlock block{buf.data(), lanes, code.n(), lanes};
      FillCodewords(code, block, rng);
      std::vector<gf::Elem> syn(std::size_t{code.r()} * lanes);
      std::vector<rs::BatchLineResult> results(lanes);
      rs::DecodeScratch scratch(code);

      const double enc =
          MeasureLinesPerSec(lanes, [&] { code.EncodeBatchInto(block); });
      // Encode left parity consistent, so syndromes/decode see codewords.
      const double syn_lps = MeasureLinesPerSec(
          lanes, [&] { code.SyndromesBatchInto(block, syn); });
      const double dec = MeasureLinesPerSec(
          lanes, [&] { code.DecodeBatch(block, results, scratch); });
      thr.AddRowValues(k->name, lanes, util::Table::Fixed(enc / 1e6, 2),
                       util::Table::Fixed(syn_lps / 1e6, 2),
                       util::Table::Fixed(dec / 1e6, 2));
      const std::string suffix =
          std::string("_") + k->name + "_b" + std::to_string(lanes);
      report.report().AddTiming("encode_lines_per_sec" + suffix, enc);
      report.report().AddTiming("syndrome_lines_per_sec" + suffix, syn_lps);
      report.report().AddTiming("decode_lines_per_sec" + suffix, dec);
      if (lanes == 256) {
        if (k == &gf::ScalarKernels()) {
          scalar_enc256 = enc;
          scalar_syn256 = syn_lps;
        }
        best_enc256 = std::max(best_enc256, enc);
        best_syn256 = std::max(best_syn256, syn_lps);
      }
    }
  }
  bench::Emit(thr);
  const double enc_speedup =
      scalar_enc256 > 0.0 ? best_enc256 / scalar_enc256 : 0.0;
  const double syn_speedup =
      scalar_syn256 > 0.0 ? best_syn256 / scalar_syn256 : 0.0;
  report.report().AddTiming("encode_speedup_best_vs_scalar_b256", enc_speedup);
  report.report().AddTiming("syndrome_speedup_best_vs_scalar_b256",
                            syn_speedup);
  std::cout << "batch-256 speedup, best kernel vs scalar: encode "
            << util::Table::Fixed(enc_speedup, 1) << "x, syndrome "
            << util::Table::Fixed(syn_speedup, 1) << "x\n";

#ifdef PAIR_ALLOC_COUNTER
  // Steady-state allocation contract: a warm DecodeBatch over a block with
  // a correctable lane (scalar-lane fallback + write-back included) must
  // not touch the heap.
  {
    code.UseKernelsForTest(gf::SelectKernels(field));
    constexpr unsigned lanes = 64;
    std::vector<gf::Elem> buf(std::size_t{code.n()} * lanes, 0);
    const rs::CodewordBlock block{buf.data(), lanes, code.n(), lanes};
    FillCodewords(code, block, rng);
    std::vector<rs::BatchLineResult> results(lanes);
    rs::DecodeScratch scratch(code);
    block.Row(3)[5] ^= 0x5A;  // dirty lane: warm the block syndromes
    code.DecodeBatch(block, results, scratch);
    const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
    for (int i = 0; i < 100; ++i) {
      block.Row(3)[5] ^= 0x5A;
      code.DecodeBatch(block, results, scratch);
    }
    const std::uint64_t allocs =
        g_alloc_count.load(std::memory_order_relaxed) - before;
    report.report().AddTiming("allocs_per_batch_decode",
                              static_cast<double>(allocs) / 100.0);
    if (allocs != 0) {
      std::fprintf(stderr,
                   "FATAL: warm DecodeBatch allocated %llu times over 100 "
                   "calls (want 0)\n",
                   static_cast<unsigned long long>(allocs));
      return false;
    }
    std::cout << "allocs_per_batch_decode: 0 (100 warm calls)\n";
  }
#endif  // PAIR_ALLOC_COUNTER

  if (!all_ok) {
    std::fprintf(stderr, "FATAL: a GF kernel diverged from the scalar oracle\n");
    return false;
  }
  return true;
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN: the google-benchmark suite runs
// first (honouring --benchmark_filter etc.), then the batch codec section
// emits its pair-report. A kernel-equivalence or allocation-contract
// violation fails the binary.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return RunBatchCodecSection() ? 0 : 1;
}
