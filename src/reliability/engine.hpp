// Deterministic sharded Monte-Carlo trial engine.
//
// Every reliability figure in the reproduction (F1 sweep, F2 breakdown, F5
// headline ratios, lifetime folds) is a sum over independent seeded trials,
// so the engine parallelizes them as a map-reduce with a hard determinism
// contract:
//
//  * Per-trial RNG streams are derived counter-style from (seed,
//    trial_index): a master Xoshiro256(seed) stream supplies trial i's
//    64-bit sub-seed as its i-th output (precomputed up front, so workers
//    never touch a shared generator), and the trial's Xoshiro256 state is
//    expanded from that sub-seed via SplitMix64. Trial i therefore draws an
//    identical stream no matter which worker runs it — and the stream is
//    bit-for-bit the one the original serial loop produced with
//    `master.Fork()`, which is what pins the pre-refactor golden values.
//  * Trials are grouped into fixed-size shards (kShardTrials, independent
//    of the thread count). Each shard accumulates into its own
//    default-constructed Result, and shard results are reduced serially in
//    shard order with `operator+=`. The reduction tree is thus a function
//    of (trials) alone, so results are bitwise identical for any thread
//    count — including floating-point accumulators.
//  * Workers share nothing mutable: each trial constructs its own
//    dram::Rank + Scheme (via TrialContext below), and read-only inputs
//    (config, working set) are captured by const reference.
//
// See docs/ARCHITECTURE.md ("Trial engine") for the layer diagram.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "dram/rank.hpp"
#include "ecc/scheme.hpp"
#include "faults/injector.hpp"
#include "util/bitvec.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace pair_ecc::reliability {

/// Wall-clock observations of one TrialEngine run — throughput, per-shard
/// times, and load balance. Timing is inherently non-deterministic, so
/// report serialisers place these in the separable "timing" section that
/// determinism tests and bench_diff ignore by default. Collecting them
/// never perturbs the trial result: the engine only reads clocks, never the
/// trial RNG streams.
struct EngineMetrics {
  unsigned workers = 0;        ///< worker threads actually used
  std::uint64_t trials = 0;
  std::uint64_t shards = 0;
  double wall_seconds = 0.0;   ///< whole call, including the reduce
  std::vector<double> shard_seconds;  ///< per-shard wall time, shard order

  double TrialsPerSec() const noexcept {
    return wall_seconds > 0.0 ? static_cast<double>(trials) / wall_seconds
                              : 0.0;
  }
  double MeanShardSeconds() const noexcept {
    if (shard_seconds.empty()) return 0.0;
    double sum = 0.0;
    for (double s : shard_seconds) sum += s;
    return sum / static_cast<double>(shard_seconds.size());
  }
  double MaxShardSeconds() const noexcept {
    double max = 0.0;
    for (double s : shard_seconds) max = std::max(max, s);
    return max;
  }
  /// Load imbalance: max shard time over mean shard time, minus one.
  /// 0 = perfectly balanced; 1 = the slowest shard took twice the mean.
  double ShardImbalance() const noexcept {
    const double mean = MeanShardSeconds();
    return mean > 0.0 ? MaxShardSeconds() / mean - 1.0 : 0.0;
  }
};

class TrialEngine {
 public:
  /// Trials per shard. Fixed (never derived from the thread count) so the
  /// reduction grouping — and therefore the merged result — is identical
  /// for any parallelism.
  static constexpr std::uint64_t kShardTrials = 16;

  /// Shards covering `trials` (the last may be partial). This is THE shard
  /// arithmetic: checkpoints, slice bounds, and report meta all derive from
  /// it, so a campaign resumed or split across processes agrees with the
  /// uninterrupted run on shard composition.
  static constexpr std::uint64_t ShardCount(std::uint64_t trials) noexcept {
    return (trials + kShardTrials - 1) / kShardTrials;
  }

  /// `threads` == 0 selects std::thread::hardware_concurrency().
  explicit TrialEngine(unsigned threads = 0)
      : threads_(ResolveThreads(threads)) {}

  unsigned threads() const noexcept { return threads_; }

  static unsigned ResolveThreads(unsigned requested) noexcept {
    if (requested != 0) return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
  }

  /// Runs `trials` independent trials of `body` and merges the per-shard
  /// accumulators in shard order. Result must be default-constructible and
  /// support `operator+=`; Body is invoked as
  ///   body(trial_index, rng, accumulator)
  /// and must draw all randomness from `rng` (a per-trial stream) and write
  /// only through the accumulator it is handed.
  ///
  /// When `metrics` is non-null it is filled with wall-clock observations
  /// (throughput, per-shard times). Timing collection never touches the
  /// trial RNG streams, so the returned Result is bit-identical whether or
  /// not metrics are requested.
  template <typename Result, typename Body>
  Result Run(std::uint64_t seed, std::uint64_t trials, Body&& body,
             EngineMetrics* metrics = nullptr) const {
    struct None {};
    return RunWithScratch<Result, None>(
        seed, trials,
        [&body](std::uint64_t trial, util::Xoshiro256& rng, Result& acc,
                None&) { body(trial, rng, acc); },
        metrics);
  }

  /// Like Run, but hands the body a per-shard Scratch (default-constructed
  /// at shard start) as a fourth argument:
  ///   body(trial_index, rng, accumulator, scratch)
  /// Scratch exists so trial bodies can reuse staging buffers (e.g. the
  /// span-of-lines ReadLines result vector) across a shard's trials
  /// without per-trial allocation. It is worker-local carry-over state and
  /// MUST NOT influence results: each trial must fully overwrite whatever
  /// it reads from it. The determinism contract is unchanged — scratch is
  /// per-shard, and shard composition is a function of (trials) alone.
  /// It is the whole-range fold over RunShardsObserved: `total += shard`
  /// in shard order, the same reduction a resumed campaign applies.
  template <typename Result, typename Scratch, typename Body>
  Result RunWithScratch(std::uint64_t seed, std::uint64_t trials, Body&& body,
                        EngineMetrics* metrics = nullptr) const {
    Result total{};
    RunShardsObserved<Result, Scratch>(
        seed, trials, 0, ShardCount(trials), body,
        [&total](std::uint64_t, const Result& shard) { total += shard; },
        nullptr, metrics);
    return total;
  }

  /// Resumable, shard-granular variant for the campaign runner: runs shards
  /// [first_shard, end_shard) of the `trials`-trial campaign seeded with
  /// `seed`, handing each completed shard's Result to
  ///   observer(shard_index, result)
  /// strictly in shard order (an internal reorder buffer holds
  /// out-of-order completions from parallel workers). Because the observer
  /// applies `+=` in the same serial shard order Run's reduce uses, an
  /// accumulator fed by any split of [0, ShardCount) across calls —
  /// checkpointed, resumed, or merged across processes — is bitwise
  /// identical to the uninterrupted Run at the same (seed, trials), for any
  /// thread count.
  ///
  /// `stop` (optional) requests graceful interruption: it is polled before
  /// each shard claim, in-flight shards always finish and are observed, and
  /// the claimed range stays dense — no observed shard is ever discarded.
  /// Returns one past the last observed shard (== end_shard when the range
  /// completed). The observer runs with an internal lock held and must not
  /// call back into the engine.
  ///
  /// `metrics` (optional) receives the wall-clock observations of this
  /// call: workers used, trials and shards observed, and per-shard seconds
  /// in shard order.
  template <typename Result, typename Scratch, typename Body,
            typename Observer>
  std::uint64_t RunShardsObserved(std::uint64_t seed, std::uint64_t trials,
                                  std::uint64_t first_shard,
                                  std::uint64_t end_shard, Body&& body,
                                  Observer&& observer,
                                  const std::atomic<bool>* stop = nullptr,
                                  EngineMetrics* metrics = nullptr) const {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point run_start = Clock::now();
    const std::uint64_t total_shards = ShardCount(trials);
    PAIR_CHECK(first_shard <= end_shard && end_shard <= total_shards,
               "RunShardsObserved: shard range [" << first_shard << ", "
                   << end_shard << ") outside [0, " << total_shards << ")");
    // Both bounds clamp to `trials`: with a partial last shard,
    // first_shard == total_shards starts past the trial count, and the
    // unclamped difference would underflow.
    const std::uint64_t first_trial =
        std::min(first_shard * kShardTrials, trials);
    const std::uint64_t last_trial =
        std::min(end_shard * kShardTrials, trials);

    // The master stream is positioned by drawing (not storing) the
    // sub-seeds of every earlier trial — trial i's stream is a pure
    // function of (seed, i), which is why a checkpoint needs no RNG state
    // beyond the next shard index.
    util::Xoshiro256 master(seed);
    for (std::uint64_t t = 0; t < first_trial; ++t) master();
    std::vector<std::uint64_t> trial_seeds(last_trial - first_trial);
    for (auto& s : trial_seeds) s = master();

    // Each shard is run by exactly one worker, so its slot needs no
    // synchronisation beyond the pool join.
    std::vector<double> shard_seconds(
        metrics != nullptr ? end_shard - first_shard : 0);
    auto run_shard = [&](std::uint64_t shard, Result& result) {
      const Clock::time_point shard_start =
          metrics != nullptr ? Clock::now() : Clock::time_point{};
      const std::uint64_t begin = shard * kShardTrials;
      const std::uint64_t end = std::min(begin + kShardTrials, trials);
      Scratch scratch{};
      for (std::uint64_t trial = begin; trial < end; ++trial) {
        util::Xoshiro256 rng(trial_seeds[trial - first_trial]);
        body(trial, rng, result, scratch);
      }
      if (metrics != nullptr)
        shard_seconds[shard - first_shard] =
            std::chrono::duration<double>(Clock::now() - shard_start).count();
    };
    const auto stopped = [stop] {
      return stop != nullptr && stop->load(std::memory_order_relaxed);
    };

    const unsigned workers = static_cast<unsigned>(
        std::min<std::uint64_t>(threads_, end_shard - first_shard));
    std::uint64_t next_observe = first_shard;
    if (workers <= 1) {
      for (; next_observe < end_shard && !stopped(); ++next_observe) {
        Result result{};
        run_shard(next_observe, result);
        observer(next_observe, result);
      }
    } else {
      // Parallel: a dense claim counter plus a shard-ordered reorder
      // buffer. Claims stop advancing once `stop` is observed; every
      // claimed shard still completes, so the flushed prefix is exactly
      // [first, next_claim).
      std::atomic<std::uint64_t> next_claim{first_shard};
      std::mutex mu;
      std::map<std::uint64_t, Result> pending;
      auto worker = [&] {
        for (;;) {
          if (stopped()) return;
          const std::uint64_t shard =
              next_claim.fetch_add(1, std::memory_order_relaxed);
          if (shard >= end_shard) return;
          Result result{};
          run_shard(shard, result);
          std::lock_guard<std::mutex> lock(mu);
          pending.emplace(shard, std::move(result));
          while (!pending.empty() && pending.begin()->first == next_observe) {
            observer(next_observe, pending.begin()->second);
            pending.erase(pending.begin());
            ++next_observe;
          }
        }
      };
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
      for (auto& t : pool) t.join();
    }

    if (metrics != nullptr) {
      metrics->workers = std::max(1u, workers);
      metrics->trials =
          std::min(next_observe * kShardTrials, trials) - first_trial;
      metrics->shards = next_observe - first_shard;
      metrics->wall_seconds =
          std::chrono::duration<double>(Clock::now() - run_start).count();
      shard_seconds.resize(next_observe - first_shard);
      metrics->shard_seconds = std::move(shard_seconds);
    }
    return next_observe;
  }

 private:
  unsigned threads_;
};

/// The (rows, columns) grid a reliability experiment writes and reads back.
/// Rows are spread over banks and row addresses with a caller-chosen affine
/// stride (monte_carlo and lifetime historically use different constants,
/// preserved to keep their seeds' results stable); line columns are spread
/// over the row so distinct on-die codewords are exercised.
struct WorkingSet {
  std::vector<faults::RowRef> rows;
  std::vector<unsigned> cols;
  /// The grid flattened row-major (rows x cols): addrs[i*cols.size() + j]
  /// = {rows[i].bank, rows[i].row, cols[j]}. This is the span handed to
  /// the schemes' batch WriteLines/ReadLines entry points; TrialContext
  /// ground-truth lines are indexed in parallel.
  std::vector<dram::Address> addrs;
};

WorkingSet MakeWorkingSet(const dram::RankGeometry& geometry,
                          unsigned working_rows, unsigned lines_per_row,
                          unsigned row_mul, unsigned row_off);

/// Per-trial state: a fresh rank, the scheme under test built over it, and
/// the ground-truth working-set contents — lines[i] is the line written at
/// ws.addrs[i]. All random lines are drawn first (one per cell, row-major —
/// the identical RNG draw sequence as the historical draw/write interleave,
/// since writes consume no randomness) and then written through one batch
/// scheme->WriteLines call. Shared by the single-shot Monte-Carlo and the
/// lifetime engine — the two previously duplicated this setup loop.
struct TrialContext {
  dram::Rank rank;
  std::unique_ptr<ecc::Scheme> scheme;
  std::vector<util::BitVec> lines;

  TrialContext(const dram::RankGeometry& geometry, ecc::SchemeKind kind,
               const WorkingSet& ws, util::Xoshiro256& rng);
};

}  // namespace pair_ecc::reliability
