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
//  * A shard is one unit of work, run by one worker, unless its Result
//    merges per trial (MergesPerTrial): then workers claim single trials,
//    and each shard's per-trial Results are folded in trial order, which
//    for such Results is the same accumulation.
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
#include "reliability/outcome.hpp"
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
  /// Per-shard seconds in shard order: the shard's wall time, or the sum
  /// of its trials' times when they ran on several workers.
  std::vector<double> shard_seconds;

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

/// Opt-in to trial-granular scheduling. A Result declares
///   static constexpr bool kMergesPerTrial = true;
/// when running trials one after another into one accumulator equals
/// running each into a fresh Result and folding those in trial order with
/// `+=` — true of integer counters and fixed-bucket histograms, not of
/// floating-point sums. The engine may then spread one shard's trials over
/// several workers without changing any result bit.
template <typename Result>
concept MergesPerTrial = requires { requires Result::kMergesPerTrial; };

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
  /// at shard start; per worker when Result merges per trial) as a fourth
  /// argument:
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

    // Units a worker claims: single trials when Result merges per trial,
    // whole shards otherwise.
    const std::uint64_t units = MergesPerTrial<Result>
                                    ? last_trial - first_trial
                                    : end_shard - first_shard;
    const unsigned workers =
        static_cast<unsigned>(std::min<std::uint64_t>(threads_, units));
    std::uint64_t next_observe = first_shard;
    if (workers <= 1) {
      for (; next_observe < end_shard && !stopped(); ++next_observe) {
        Result result{};
        run_shard(next_observe, result);
        observer(next_observe, result);
      }
    } else {
      // Parallel: dense claims plus a shard-ordered reorder buffer. Claims
      // stop advancing once `stop` is observed; every claimed shard still
      // completes, so the flushed prefix is exactly [first, next_claim).
      std::mutex mu;
      std::map<std::uint64_t, Result> pending;
      // Called with mu held.
      auto complete = [&](std::uint64_t shard, Result&& result) {
        pending.emplace(shard, std::move(result));
        while (!pending.empty() && pending.begin()->first == next_observe) {
          observer(next_observe, pending.begin()->second);
          pending.erase(pending.begin());
          ++next_observe;
        }
      };
      auto launch = [workers](auto&& worker) {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
        for (auto& t : pool) t.join();
      };
      if constexpr (MergesPerTrial<Result>) {
        // Trial-granular claims: a slow trial or a descheduled worker
        // holds the call up by one trial, not by the rest of its shard.
        // Each trial accumulates into its own Result; whoever finishes a
        // shard's last trial folds them in trial order, which
        // MergesPerTrial makes equal to the shard-serial accumulation.
        // `stop` is honoured only at a shard's first trial, so a shard
        // once begun is always finished.
        std::atomic<std::uint64_t> next_trial{first_trial};
        struct Partial {
          std::vector<Result> trials;
          std::uint64_t done = 0;
          double seconds = 0.0;
        };
        std::map<std::uint64_t, Partial> partial;
        auto claim = [&](std::uint64_t& trial) {
          std::uint64_t t = next_trial.load(std::memory_order_relaxed);
          do {
            if (t >= last_trial || (t % kShardTrials == 0 && stopped()))
              return false;
          } while (!next_trial.compare_exchange_weak(
              t, t + 1, std::memory_order_relaxed));
          trial = t;
          return true;
        };
        launch([&] {
          Scratch scratch{};  // per worker; it must not influence results
          std::uint64_t trial = 0;
          while (claim(trial)) {
            const Clock::time_point start =
                metrics != nullptr ? Clock::now() : Clock::time_point{};
            Result result{};
            util::Xoshiro256 rng(trial_seeds[trial - first_trial]);
            body(trial, rng, result, scratch);
            const double seconds =
                metrics != nullptr
                    ? std::chrono::duration<double>(Clock::now() - start)
                          .count()
                    : 0.0;
            const std::uint64_t shard = trial / kShardTrials;
            const std::uint64_t begin = shard * kShardTrials;
            const std::uint64_t size =
                std::min(begin + kShardTrials, trials) - begin;
            std::lock_guard<std::mutex> lock(mu);
            Partial& p = partial[shard];
            if (p.trials.empty()) p.trials.resize(size);
            p.trials[trial - begin] = std::move(result);
            p.seconds += seconds;
            if (++p.done < size) continue;
            Result total{};
            for (const Result& r : p.trials) total += r;
            if (metrics != nullptr)
              shard_seconds[shard - first_shard] = p.seconds;
            partial.erase(shard);
            complete(shard, std::move(total));
          }
        });
      } else {
        std::atomic<std::uint64_t> next_claim{first_shard};
        launch([&] {
          for (;;) {
            if (stopped()) return;
            const std::uint64_t shard =
                next_claim.fetch_add(1, std::memory_order_relaxed);
            if (shard >= end_shard) return;
            Result result{};
            run_shard(shard, result);
            std::lock_guard<std::mutex> lock(mu);
            complete(shard, std::move(result));
          }
        });
      }
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

/// One working line read back and classified against its ground truth.
struct LineRead {
  Outcome outcome = Outcome::kNoError;
  unsigned corrected_units = 0;
};

/// Per-trial state: a fresh rank, the scheme under test built over it, and
/// the ground-truth working-set contents — lines[i] is the line of
/// ws.addrs[i]. All random lines are drawn at construction (one per cell,
/// row-major), the RNG draw sequence of the historical draw/write loop.
/// Shared by the Monte-Carlo scenario trial, the lifetime engine and the
/// system simulator.
///
/// Untouched rows. The truth of a trial never changes and faults land only
/// in working rows, so a working row that no fault has reached holds
/// exactly its truth lines as the scheme encodes them on pristine storage:
/// every read of it decodes kClean with 0 corrected units, and re-writing
/// its truth or scrubbing it leaves storage unchanged. The context
/// therefore writes a row through the scheme only when the row is first
/// touched:
///  * by a fault — the injector from MakeInjector() materializes the row
///    before it changes the row's first bit;
///  * by a repair — its erasures apply across rows, so the caller runs
///    MaterializeAll before the first repair, which ends elision for the
///    rest of the trial.
/// Until then the operations below skip all codec work on the row and add
/// to the trial's codec counters exactly what the skipped ecc::Scheme
/// wrapper would have added; Counters() is that sum plus the scheme's own.
/// A row that shares an address with another working line is written at
/// construction: re-writing one of the two lines changes what the other
/// reads back, so the invariant does not hold for it.
///
/// Repeated operations. A scheme operation on a line or row is a pure
/// function of the row's stored bits on every device, the row's stuck
/// overlay and the scheme's repair state: every scheme keeps its check
/// bits in the addressed row (spare region or sidecar devices), and only
/// repairs change its own state. Each touched row therefore has an epoch
/// that advances whenever one of those may have changed — a fault reaching
/// the row (the injector's hook), a repair (Invalidate), or an operation
/// that left the row's stored bits different. An operation that left them
/// as they were is recorded at the row's epoch; while the epoch stands,
/// running it again would read the same bits, return the same result and
/// store nothing new, so the context returns the recorded result and adds
/// the wrapper's counts instead. A row that shares an address with another
/// working row is never recorded. Callers change the rank or the scheme
/// only through this context, the injector from MakeInjector(), and
/// repairs followed by Invalidate().
class TrialContext {
 public:
  /// `ws` must outlive the context.
  TrialContext(const dram::RankGeometry& geometry, ecc::SchemeKind kind,
               const WorkingSet& ws, util::Xoshiro256& rng);

  // The injector's touch hook points back at this context.
  TrialContext(const TrialContext&) = delete;
  TrialContext& operator=(const TrialContext&) = delete;

  dram::Rank rank;
  std::unique_ptr<ecc::Scheme> scheme;
  std::vector<util::BitVec> lines;

  /// An injector over the working rows that materializes each row before
  /// its first corrupted bit and starts a new epoch of every row a fault
  /// reaches. It must not outlive this context.
  faults::Injector MakeInjector();

  /// Writes every working row not yet touched through the scheme.
  void MaterializeAll();

  /// Starts a new epoch on every working row. Call it after a repair (or
  /// anything else outside the context) changed the rank or the scheme.
  void Invalidate();

  /// Reads `addr` of working row `row` and classifies it against `truth`.
  /// `addr` may be any column of the row, so this read is never recorded.
  LineRead Read(std::size_t row, const dram::Address& addr,
                const util::BitVec& truth);
  /// Reads working line ws.addrs[slot] against lines[slot].
  LineRead ReadLine(std::size_t slot);
  /// Reads every working line in address order into `out`; each touched
  /// row goes through one scheme ReadLines call staged in `staging`.
  void ReadAll(std::vector<ecc::ReadResult>& staging,
               std::vector<LineRead>& out);

  /// Host re-write of working line `slot` with its unchanged truth.
  void WriteLine(std::size_t slot);
  void ScrubLine(std::size_t slot);
  /// Patrol scrub of working row `row` (Scheme::ScrubRowFull).
  void ScrubRow(std::size_t row);

  /// The trial's codec telemetry: the scheme's counters plus every elided
  /// or repeated operation.
  ecc::CodecCounters Counters() const;

 private:
  /// A read's claim and classification, as recorded for a repeat.
  struct RecordedRead {
    ecc::Claim claim = ecc::Claim::kClean;
    LineRead read;
  };

  /// Writes working row `row`'s truth lines through the scheme unless it
  /// is already touched.
  void Materialize(std::size_t row);
  /// Advances row `row` to a fresh epoch; what was recorded lapses.
  void NewEpoch(std::size_t row);
  /// Runs `op`, a scheme operation on touched row `row`. Returns the epoch
  /// to record it at: the row's, when the op left the row's stored bits as
  /// they were; otherwise 0, which no row ever holds.
  template <typename Op>
  std::uint64_t Run(std::size_t row, Op&& op);
  RecordedRead Classified(const ecc::ReadResult& result,
                          const util::BitVec& truth) const;

  const WorkingSet& ws_;
  std::size_t cols_;
  std::vector<bool> touched_;
  std::vector<bool> shared_;  ///< row shares an address with another
  ecc::CodecCounters elided_;

  // Per working row: the current epoch, and its stored bits on every
  // device (empty: the device stores nothing there yet) once taken.
  std::uint64_t last_epoch_ = 0;
  std::vector<std::uint64_t> epoch_;
  std::vector<bool> stored_taken_;
  std::vector<std::vector<util::BitVec>> stored_;

  // Recorded operations: the epoch each was recorded at (0: none) and, for
  // reads, what it returned. ReadLine and ReadAll record separately.
  std::vector<std::uint64_t> read_line_at_, write_line_at_, scrub_line_at_;
  std::vector<RecordedRead> read_line_;
  std::vector<std::uint64_t> read_row_at_, scrub_row_at_;
  std::vector<RecordedRead> read_all_;
};

}  // namespace pair_ecc::reliability
