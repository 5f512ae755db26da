#include "reliability/campaign.hpp"

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "dram/rank.hpp"
#include "faults/injector.hpp"
#include "telemetry/checkpoint.hpp"

namespace pair_ecc::reliability {

using telemetry::HistogramFromJson;
using telemetry::HistogramToJson;
using telemetry::JsonValue;
using telemetry::RequireField;
using telemetry::RequireU64;

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

JsonValue OutcomeCountsToJson(const OutcomeCounts& counts) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("trials", JsonValue(counts.trials));
  obj.Set("reads", JsonValue(counts.reads));
  obj.Set("no_error", JsonValue(counts.no_error));
  obj.Set("corrected", JsonValue(counts.corrected));
  obj.Set("due", JsonValue(counts.due));
  obj.Set("sdc_miscorrected", JsonValue(counts.sdc_miscorrected));
  obj.Set("sdc_undetected", JsonValue(counts.sdc_undetected));
  obj.Set("trials_with_sdc", JsonValue(counts.trials_with_sdc));
  obj.Set("trials_with_due", JsonValue(counts.trials_with_due));
  obj.Set("trials_with_failure", JsonValue(counts.trials_with_failure));
  return obj;
}

OutcomeCounts OutcomeCountsFromJson(const JsonValue& value) {
  const std::string what = "checkpoint outcome counts";
  OutcomeCounts counts;
  counts.trials = RequireU64(value, "trials", what);
  counts.reads = RequireU64(value, "reads", what);
  counts.no_error = RequireU64(value, "no_error", what);
  counts.corrected = RequireU64(value, "corrected", what);
  counts.due = RequireU64(value, "due", what);
  counts.sdc_miscorrected = RequireU64(value, "sdc_miscorrected", what);
  counts.sdc_undetected = RequireU64(value, "sdc_undetected", what);
  counts.trials_with_sdc = RequireU64(value, "trials_with_sdc", what);
  counts.trials_with_due = RequireU64(value, "trials_with_due", what);
  counts.trials_with_failure = RequireU64(value, "trials_with_failure", what);
  return counts;
}

JsonValue TrialTelemetryToJson(const TrialTelemetry& tel) {
  JsonValue codec = JsonValue::MakeObject();
  codec.Set("writes", JsonValue(tel.codec.writes));
  codec.Set("decodes", JsonValue(tel.codec.decodes));
  codec.Set("claim_clean", JsonValue(tel.codec.claim_clean));
  codec.Set("claim_corrected", JsonValue(tel.codec.claim_corrected));
  codec.Set("claim_detected", JsonValue(tel.codec.claim_detected));
  codec.Set("corrected_units", JsonValue(tel.codec.corrected_units));
  codec.Set("scrub_lines", JsonValue(tel.codec.scrub_lines));
  codec.Set("scrub_rows", JsonValue(tel.codec.scrub_rows));
  codec.Set("devices_erased", JsonValue(tel.codec.devices_erased));

  JsonValue injection = JsonValue::MakeObject();
  injection.Set("total", JsonValue(tel.injection.total));
  injection.Set("permanent", JsonValue(tel.injection.permanent));
  injection.Set("transient", JsonValue(tel.injection.transient));
  // by_type is a positional array in faults::kAllFaultTypes order — the
  // same order AddTrialTelemetry names them in reports, and a stable part
  // of the fault model's public enumeration.
  JsonValue by_type = JsonValue::MakeArray();
  for (const std::uint64_t n : tel.injection.by_type)
    by_type.Append(JsonValue(n));
  injection.Set("by_type", std::move(by_type));

  JsonValue obj = JsonValue::MakeObject();
  obj.Set("codec", std::move(codec));
  obj.Set("injection", std::move(injection));
  obj.Set("corrected_units_per_read", HistogramToJson(tel.corrected_units));
  return obj;
}

TrialTelemetry TrialTelemetryFromJson(const JsonValue& value) {
  const std::string what = "checkpoint trial telemetry";
  TrialTelemetry tel;

  const JsonValue& codec = RequireField(value, "codec", what);
  tel.codec.writes = RequireU64(codec, "writes", what);
  tel.codec.decodes = RequireU64(codec, "decodes", what);
  tel.codec.claim_clean = RequireU64(codec, "claim_clean", what);
  tel.codec.claim_corrected = RequireU64(codec, "claim_corrected", what);
  tel.codec.claim_detected = RequireU64(codec, "claim_detected", what);
  tel.codec.corrected_units = RequireU64(codec, "corrected_units", what);
  tel.codec.scrub_lines = RequireU64(codec, "scrub_lines", what);
  tel.codec.scrub_rows = RequireU64(codec, "scrub_rows", what);
  tel.codec.devices_erased = RequireU64(codec, "devices_erased", what);

  const JsonValue& injection = RequireField(value, "injection", what);
  tel.injection.total = RequireU64(injection, "total", what);
  tel.injection.permanent = RequireU64(injection, "permanent", what);
  tel.injection.transient = RequireU64(injection, "transient", what);
  const JsonValue& by_type = RequireField(injection, "by_type", what);
  if (by_type.kind() != JsonValue::Kind::kArray ||
      by_type.AsArray().size() != tel.injection.by_type.size())
    throw std::runtime_error(what +
                             ": field 'by_type' must be an array with one "
                             "entry per fault type");
  for (std::size_t i = 0; i < tel.injection.by_type.size(); ++i) {
    const JsonValue& entry = by_type.AsArray()[i];
    if (entry.kind() != JsonValue::Kind::kInt || entry.AsInt() < 0)
      throw std::runtime_error(
          what + ": field 'by_type' entries must be non-negative integers");
    tel.injection.by_type[i] = static_cast<std::uint64_t>(entry.AsInt());
  }

  tel.corrected_units =
      HistogramFromJson(RequireField(value, "corrected_units_per_read", what),
                        what + ": corrected_units_per_read");
  return tel;
}

JsonValue ScenarioStateToJson(const ScenarioShardState& state) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("counts", OutcomeCountsToJson(state.counts));
  obj.Set("telemetry", TrialTelemetryToJson(state.tel));
  return obj;
}

ScenarioShardState ScenarioStateFromJson(const JsonValue& value) {
  const std::string what = "checkpoint scenario state";
  ScenarioShardState state;
  state.counts = OutcomeCountsFromJson(RequireField(value, "counts", what));
  state.tel = TrialTelemetryFromJson(RequireField(value, "telemetry", what));
  return state;
}

}  // namespace pair_ecc::reliability
