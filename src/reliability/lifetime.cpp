#include "reliability/lifetime.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "dram/rank.hpp"
#include "faults/injector.hpp"
#include "reliability/engine.hpp"
#include "reliability/telemetry.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace pair_ecc::reliability {

namespace {

/// Poisson sample via inversion (rates here are well below 30).
unsigned SamplePoisson(double lambda, util::Xoshiro256& rng) {
  const double limit = std::exp(-lambda);
  double product = rng.UniformDouble();
  unsigned count = 0;
  while (product > limit) {
    ++count;
    product *= rng.UniformDouble();
  }
  return count;
}

/// Shard accumulator for the trial engine: the public stats plus the
/// epoch sum that becomes `mean_sdc_epoch` after the reduce.
struct LifetimeAccum {
  LifetimeStats stats;
  std::uint64_t sdc_epoch_sum = 0;
  TrialTelemetry tel;

  static constexpr auto kFields = std::tuple{
      util::Field{&LifetimeAccum::stats, "stats"},
      util::Field{&LifetimeAccum::sdc_epoch_sum, "sdc_epoch_sum"},
      util::Field{&LifetimeAccum::tel, "tel"},
  };

  LifetimeAccum& operator+=(const LifetimeAccum& other) {
    return util::MergeFields(*this, other);
  }
};

/// Per-worker staging for the batch demand-read path (see ScenarioScratch
/// in campaign.hpp): reused across trials and epochs, fully overwritten
/// by every ReadAll call.
struct LifetimeScratch {
  std::vector<ecc::ReadResult> results;
  std::vector<LineRead> reads;
};

}  // namespace

LifetimeStats RunLifetime(const LifetimeConfig& config, std::uint64_t trials,
                          ScenarioTelemetry* telemetry) {
  config.geometry.Validate();
  // SamplePoisson stops once a product of uniforms falls to exp(-rate).
  // Past -log(DBL_MIN) ~ 708 that limit leaves the normal range, and past
  // ~745 it is 0, so every draw would return the same count. A NaN or
  // negative rate draws no faults at all.
  PAIR_CHECK(config.faults_per_epoch >= 0.0 &&
                 std::exp(-config.faults_per_epoch) >=
                     std::numeric_limits<double>::min(),
             "LifetimeConfig: faults_per_epoch " << config.faults_per_epoch
                 << " must be finite, non-negative and at most 708.39 "
                    "(exp(-rate) must stay a normal double)");
  const auto& g = config.geometry.device;
  const WorkingSet ws =
      MakeWorkingSet(config.geometry, config.working_rows, config.lines_per_row,
                     /*row_mul=*/41, /*row_off=*/3);

  const TrialEngine engine(config.threads);
  LifetimeAccum accum = engine.RunWithScratch<LifetimeAccum, LifetimeScratch>(
      config.seed, trials,
      [&config, &ws, &g](std::uint64_t /*trial*/, util::Xoshiro256& rng,
                         LifetimeAccum& acc, LifetimeScratch& scratch) {
        TrialContext ctx(config.geometry, config.scheme, ws, rng);
        faults::Injector injector = ctx.MakeInjector();

        bool saw_sdc = false, saw_due = false;
        unsigned sdc_epoch = config.epochs;
        for (unsigned epoch = 0; epoch < config.epochs && !saw_sdc; ++epoch) {
          const unsigned arrivals = SamplePoisson(config.faults_per_epoch, rng);
          for (unsigned f = 0; f < arrivals; ++f)
            injector.InjectFromMix(config.mix, rng);

          // Demand reads: the whole working set once per epoch (the
          // per-line loop had no early exit, so batching reads the same
          // lines); classification walks results in address order.
          ctx.ReadAll(scratch.results, scratch.reads);
          for (const LineRead& read : scratch.reads) {
            acc.tel.corrected_units.Record(read.corrected_units);
            acc.stats.total_corrections +=
                read.outcome == Outcome::kCorrected;
            if (IsSdc(read.outcome) && !saw_sdc) {
              saw_sdc = true;
              sdc_epoch = epoch;
            }
            saw_due |= read.outcome == Outcome::kDue;
          }

          // Patrol scrub walks the whole working rows: each scheme repairs
          // what it can in place, flushing accumulated transient errors
          // (stuck defects survive).
          if (config.scrub_interval != 0 && !saw_sdc &&
              (epoch + 1) % config.scrub_interval == 0) {
            for (std::size_t row = 0; row < ws.rows.size(); ++row) {
              ctx.ScrubRow(row);
              ++acc.stats.total_scrub_writebacks;
            }
          }
        }

        // Horizon audit of every column of the working rows: cold data is
        // eventually consumed too, and without the audit damage outside the
        // hot lines would go unmeasured. Unwritten columns hold the
        // all-zero line, which every scheme encodes with all-zero parity,
        // so ground truth is well defined row-wide.
        if (!saw_sdc) {
          const util::BitVec zero_line(config.geometry.LineBits());
          for (std::size_t row = 0; row < ws.rows.size(); ++row) {
            const faults::RowRef& r = ws.rows[row];
            for (unsigned col = 0; col < g.ColumnsPerRow() && !saw_sdc;
                 ++col) {
              const dram::Address addr{r.bank, r.row, col};
              const util::BitVec* expect = &zero_line;
              for (std::size_t i = 0; i < ws.addrs.size(); ++i)
                if (ws.addrs[i] == addr) expect = &ctx.lines[i];
              const LineRead read = ctx.Read(row, addr, *expect);
              acc.tel.corrected_units.Record(read.corrected_units);
              if (IsSdc(read.outcome)) {
                saw_sdc = true;
                sdc_epoch = config.epochs;
              }
              saw_due |= read.outcome == Outcome::kDue;
            }
          }
        }
        ++acc.stats.trials;
        acc.stats.trials_with_sdc += saw_sdc;
        acc.stats.trials_with_due += saw_due;
        acc.sdc_epoch_sum += sdc_epoch;

        // Harvest codec + injection counters; pure reads, no RNG draws.
        acc.tel.codec += ctx.Counters();
        acc.tel.injection += injector.counters();
      },
      telemetry != nullptr ? &telemetry->engine : nullptr);

  LifetimeStats stats = accum.stats;
  stats.mean_sdc_epoch =
      trials ? static_cast<double>(accum.sdc_epoch_sum) /
                   static_cast<double>(trials)
             : 0.0;
  if (telemetry != nullptr) telemetry->trial = std::move(accum.tel);
  return stats;
}

}  // namespace pair_ecc::reliability
