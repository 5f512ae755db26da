#include "reliability/campaign.hpp"

#include <string>

#include "dram/rank.hpp"
#include "faults/injector.hpp"
#include "telemetry/checkpoint.hpp"
#include "telemetry/fields.hpp"

namespace pair_ecc::reliability {

using telemetry::JsonValue;

WorkingSet MakeScenarioWorkingSet(const ScenarioConfig& config) {
  return MakeWorkingSet(config.geometry, config.working_rows,
                        config.lines_per_row, /*row_mul=*/37, /*row_off=*/11);
}

void RunScenarioTrial(const ScenarioConfig& config, const WorkingSet& ws,
                      util::Xoshiro256& rng, ScenarioShardState& acc,
                      ScenarioScratch& scratch) {
  RunScenarioTrial(config, ws, rng, acc, scratch, config.faults_per_trial);
}

void RunScenarioTrial(const ScenarioConfig& config, const WorkingSet& ws,
                      util::Xoshiro256& rng, ScenarioShardState& acc,
                      ScenarioScratch& scratch, unsigned faults) {
  OutcomeCounts& counts = acc.counts;
  TrialContext ctx(config.geometry, config.scheme, ws, rng);

  faults::Injector injector = ctx.MakeInjector();
  for (unsigned f = 0; f < faults; ++f)
    injector.InjectFromMix(config.mix, rng);

  // Read the whole working set back; rows no fault reached classify
  // without decoding (TrialContext), the rest decode batch-wise.
  ctx.ReadAll(scratch.results, scratch.reads);
  bool any_sdc = false, any_due = false;
  for (const LineRead& read : scratch.reads) {
    counts.Add(read.outcome);
    acc.tel.corrected_units.Record(read.corrected_units);
    any_sdc |= IsSdc(read.outcome);
    any_due |= read.outcome == Outcome::kDue;
  }
  ++counts.trials;
  counts.trials_with_sdc += any_sdc;
  counts.trials_with_due += any_due;
  counts.trials_with_failure += (any_sdc || any_due);

  // Harvest the trial's codec and injection counters. Pure reads of
  // already-accumulated state: no RNG draws, no extra DRAM traffic,
  // so the outcome counts match the uninstrumented run bitwise.
  acc.tel.codec += ctx.Counters();
  acc.tel.injection += injector.counters();
}

JsonValue ScenarioStateToJson(const ScenarioShardState& state) {
  return telemetry::FieldsToJson(state);
}

ScenarioShardState ScenarioStateFromJson(const JsonValue& value) {
  return telemetry::FieldsFromJson<ScenarioShardState>(
      value, "checkpoint scenario state");
}

}  // namespace pair_ecc::reliability
