// Deterministic sharded Monte-Carlo trial engine.
//
// Every reliability figure in the reproduction (F1 sweep, F2 breakdown, F5
// headline ratios, lifetime folds) is a sum over independent seeded trials,
// so the engine parallelizes them as a map-reduce with a hard determinism
// contract:
//
//  * Per-trial RNG streams are derived counter-style from (seed,
//    trial_index): a master Xoshiro256(seed) stream supplies trial i's
//    64-bit sub-seed as its i-th output (drawn when the trial is claimed;
//    claims are dense and in trial order), and the trial's Xoshiro256 state
//    is expanded from that sub-seed via SplitMix64. Trial i therefore draws
//    an identical stream no matter which worker runs it — and the stream is
//    bit-for-bit the one the original serial loop produced with
//    `master.Fork()`, which is what pins the pre-refactor golden values.
//  * Trials are grouped into fixed-size shards (kShardTrials, independent
//    of the thread count). Each trial accumulates into its own
//    default-constructed Result; a shard's Result is its trials' Results
//    folded in trial order, and shard Results are reduced serially in shard
//    order, both with `operator+=`. The reduction tree is thus a function of
//    (trials) alone, so results are bitwise identical for any thread count
//    — including floating-point accumulators.
//  * One claim loop schedules single trials for every thread count; with
//    one worker it runs inline on the calling thread.
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
#include <exception>
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
  /// Per-shard seconds in shard order: the sum of the shard's trials'
  /// times, whichever workers ran them.
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

  /// Like Run, but hands the body a per-worker Scratch (default-constructed
  /// when the worker starts) as a fourth argument:
  ///   body(trial_index, rng, accumulator, scratch)
  /// Scratch exists so trial bodies can reuse staging buffers (e.g. the
  /// span-of-lines ReadLines result vector) across the trials one worker
  /// runs without per-trial allocation. It is worker-local carry-over state
  /// and MUST NOT influence results: each trial must fully overwrite
  /// whatever it reads from it.
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
  /// strictly in shard order. Because the observer applies `+=` in the same
  /// serial shard order Run's reduce uses, an accumulator fed by any split
  /// of [0, ShardCount) across calls — checkpointed, resumed, or merged
  /// across processes — is bitwise identical to the uninterrupted Run at
  /// the same (seed, trials), for any thread count.
  ///
  /// One claim loop serves every thread count (run inline for one worker):
  /// a worker claims the next trial and draws its sub-seed from the master
  /// stream under the engine's lock, so claims are dense and in trial order
  /// and nothing is stored per trial ahead of its claim. Each trial runs
  /// into a fresh Result; whoever finishes the next shard to observe folds
  /// its trials' Results in trial order and hands the sum to the observer.
  /// A shard's Result is therefore the same trial-ordered fold whichever
  /// workers ran its trials.
  ///
  /// The observer runs without the engine's lock, so the other workers
  /// keep claiming and running trials while it works (a checkpoint fsync
  /// stalls one worker, not all). Its calls never overlap: one worker at a
  /// time observes, handing over through the lock, so consecutive calls
  /// are ordered (happens-before) even when different threads make them.
  /// The observer must not call back into the engine.
  ///
  /// `stop` (optional) requests graceful interruption: it is polled at
  /// each shard's first trial, so a shard once begun always finishes and is
  /// observed, and the claimed range stays dense — no observed shard is
  /// ever discarded. Returns one past the last observed shard (== end_shard
  /// when the range completed). An observer that raises `stop` ends the
  /// run right after its shard only with one worker; with more, the
  /// workers may already have begun later shards, which then finish.
  ///
  /// The first exception thrown by a trial or by the observer stops all
  /// further claims and observer calls, and is rethrown here once every
  /// worker has returned.
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

    // Everything below is guarded by `mu`. A shard enters `open` at its
    // first finished trial and leaves it when handed to the observer.
    // `observing` is set while one worker folds and observes shards with
    // `mu` released, so observer calls never overlap and stay in order.
    struct OpenShard {
      std::vector<Result> trials;  // by position in the shard
      std::uint64_t done = 0;
      double seconds = 0.0;        // sum of its trials' times
    };
    std::mutex mu;
    std::map<std::uint64_t, OpenShard> open;
    std::uint64_t next_trial = first_trial;
    std::uint64_t next_observe = first_shard;
    bool observing = false;
    std::exception_ptr error;
    std::vector<double> shard_seconds;

    const auto claimable = [&] {
      return error == nullptr && next_trial < last_trial &&
             !(next_trial % kShardTrials == 0 && stop != nullptr &&
               stop->load(std::memory_order_relaxed));
    };
    const auto work = [&] {
      std::unique_lock<std::mutex> lock(mu, std::defer_lock);
      try {
        Scratch scratch{};  // per worker; it must not influence results
        lock.lock();
        while (claimable()) {
          const std::uint64_t trial = next_trial++;
          util::Xoshiro256 rng(master());
          lock.unlock();
          const Clock::time_point start =
              metrics != nullptr ? Clock::now() : Clock::time_point{};
          Result result{};
          body(trial, rng, result, scratch);
          const double seconds =
              metrics != nullptr
                  ? std::chrono::duration<double>(Clock::now() - start).count()
                  : 0.0;
          lock.lock();
          if (error != nullptr) break;
          const std::uint64_t begin = trial / kShardTrials * kShardTrials;
          OpenShard& shard = open[trial / kShardTrials];
          if (shard.trials.empty())
            shard.trials.resize(std::min(begin + kShardTrials, trials) - begin);
          shard.trials[trial - begin] = std::move(result);
          shard.seconds += seconds;
          ++shard.done;
          if (observing) continue;  // that worker observes this shard too
          observing = true;
          for (auto it = open.find(next_observe);
               error == nullptr && it != open.end() &&
               it->second.done == it->second.trials.size();
               it = open.find(next_observe)) {
            const std::uint64_t shard_index = next_observe;
            const std::vector<Result> trials_done =
                std::move(it->second.trials);
            if (metrics != nullptr) shard_seconds.push_back(it->second.seconds);
            open.erase(it);
            // Fold and observe without the lock: the other workers keep
            // claiming and running trials meanwhile (a checkpoint write
            // stalls only this worker).
            lock.unlock();
            Result sum{};
            for (const Result& r : trials_done) sum += r;
            observer(shard_index, sum);
            lock.lock();
            ++next_observe;
          }
          observing = false;
        }
      } catch (...) {
        if (!lock.owns_lock()) lock.lock();
        if (error == nullptr) error = std::current_exception();
      }
    };

    const unsigned workers = static_cast<unsigned>(std::max<std::uint64_t>(
        1, std::min<std::uint64_t>(threads_, last_trial - first_trial)));
    if (workers == 1) {
      work();
    } else {
      std::vector<std::thread> pool;
      try {
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) pool.emplace_back(work);
      } catch (...) {  // the workers already started must still be joined
        const std::lock_guard<std::mutex> lock(mu);
        if (error == nullptr) error = std::current_exception();
      }
      for (auto& t : pool) t.join();
    }
    if (error != nullptr) std::rethrow_exception(error);

    if (metrics != nullptr) {
      metrics->workers = workers;
      metrics->trials =
          std::min(next_observe * kShardTrials, trials) - first_trial;
      metrics->shards = next_observe - first_shard;
      metrics->wall_seconds =
          std::chrono::duration<double>(Clock::now() - run_start).count();
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
