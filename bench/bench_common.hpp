// Shared helpers for the table/figure regeneration binaries.
//
// Each bench_* binary regenerates one table or figure of the reconstructed
// PAIR evaluation (see DESIGN.md's experiment index) and prints it as an
// aligned table plus, when PAIR_BENCH_CSV is set in the environment, as CSV
// for plotting pipelines. Binaries are deterministic: every stochastic
// component is seeded from the constants below and the seeds are printed.
//
// When PAIR_BENCH_JSON=<path> is set, the BenchReport wrapper additionally
// writes a versioned "pair-report" JSON artifact (every emitted table plus
// run meta and wall-clock timing) on exit — the input format of
// tools/bench_diff. Every Monte-Carlo bench honours PAIR_TRIALS via
// BenchReport::Trials(), which also records the effective trial count in
// the report's meta section.
#pragma once

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ecc/scheme.hpp"
#include "telemetry/report.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace pair_ecc::bench {

inline constexpr std::uint64_t kBenchSeed = 0xB0A7ull;

/// Trials per scenario: the binary's hardcoded default, overridable with the
/// PAIR_TRIALS environment variable (for quick smoke runs or high-precision
/// sweeps without a rebuild). An empty value counts as unset. A malformed,
/// zero or out-of-range value exits 1 with a one-line diagnostic instead of
/// silently running the default.
inline unsigned TrialsFromEnv(unsigned fallback) {
  const char* env = std::getenv("PAIR_TRIALS");
  if (env == nullptr || *env == '\0') return fallback;
  std::uint64_t v = 0;
  const util::ParseStatus status = util::ParseU64(env, v);
  if (status == util::ParseStatus::kOk && v != 0 &&
      v <= std::numeric_limits<unsigned>::max())
    return static_cast<unsigned>(v);
  std::cerr << "bench: PAIR_TRIALS: "
            << (status == util::ParseStatus::kInvalid
                    ? "invalid non-negative integer '" + std::string(env) + "'"
                    : "value " + std::string(env) + " is out of range")
            << "\n";
  std::exit(1);
}

/// The scheme line-up most experiments compare (order = table order).
inline std::vector<ecc::SchemeKind> ComparedSchemes() {
  return {ecc::SchemeKind::kIecc, ecc::SchemeKind::kSecDed,
          ecc::SchemeKind::kIeccSecDed, ecc::SchemeKind::kXed,
          ecc::SchemeKind::kDuo,  ecc::SchemeKind::kPair2,
          ecc::SchemeKind::kPair4, ecc::SchemeKind::kPair4SecDed};
}

inline void PrintHeader(const std::string& experiment,
                        const std::string& what) {
  std::cout << "==================================================\n"
            << experiment << ": " << what << "\n"
            << "(seed " << kBenchSeed << ", deterministic)\n"
            << "==================================================\n";
}

inline void Emit(const util::Table& table) {
  table.Print(std::cout);
  if (std::getenv("PAIR_BENCH_CSV") != nullptr) {
    std::cout << "\n[csv]\n";
    table.PrintCsv(std::cout);
  }
  std::cout << "\n";
}

/// One bench binary's run: prints the banner on construction, mirrors every
/// emitted table into a pair-report, and — when PAIR_BENCH_JSON=<path> is
/// set — writes the report (with wall-clock timing) on destruction.
///
/// Everything in the report except the "timing" section is deterministic in
/// (seed, PAIR_TRIALS): tables hold the same cells the terminal shows.
class BenchReport {
 public:
  BenchReport(std::string experiment, std::string what)
      : report_(experiment), start_(std::chrono::steady_clock::now()) {
    PrintHeader(experiment, what);
    report_.MetaString("experiment", experiment);
    report_.MetaString("what", what);
    report_.MetaInt("seed", static_cast<std::int64_t>(kBenchSeed));
  }

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() {
    const char* path = std::getenv("PAIR_BENCH_JSON");
    if (path == nullptr || *path == '\0') return;
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start_;
    report_.AddTiming("wall_seconds", elapsed.count());
    if (telemetry::WriteReportFile(report_, path))
      std::cout << "report written to " << path << "\n";
    else
      std::cerr << "bench: cannot write JSON report to " << path << "\n";
  }

  /// Resolves the effective Monte-Carlo trial count (PAIR_TRIALS override,
  /// else `fallback`) and records it in the report meta.
  unsigned Trials(unsigned fallback) {
    const unsigned trials = TrialsFromEnv(fallback);
    report_.MetaInt("trials", trials);
    return trials;
  }

  /// Extra run parameters worth diffing (request counts, sweep sizes...).
  void MetaInt(std::string_view key, std::int64_t value) {
    report_.MetaInt(key, value);
  }
  void MetaReal(std::string_view key, double value) {
    report_.MetaReal(key, value);
  }
  void MetaString(std::string_view key, std::string_view value) {
    report_.MetaString(key, value);
  }

  /// Prints the table (terminal + optional CSV) and mirrors it into the
  /// JSON report under `name`.
  void Emit(std::string_view name, const util::Table& table) {
    bench::Emit(table);
    report_.AddTable(name, table);
  }

  telemetry::Report& report() noexcept { return report_; }

 private:
  telemetry::Report report_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pair_ecc::bench
