#include "reliability/telemetry.hpp"

#include <cstdint>
#include <string>

#include "telemetry/fields.hpp"

namespace pair_ecc::reliability {

void AddTrialTelemetry(telemetry::Report& report,
                       const TrialTelemetry& trial) {
  telemetry::AddFieldCounters(report, trial);
}

void AddEngineTiming(telemetry::Report& report, const EngineMetrics& engine) {
  report.AddTiming("wall_seconds", engine.wall_seconds);
  report.AddTiming("trials_per_sec", engine.TrialsPerSec());
  report.AddTiming("workers", static_cast<double>(engine.workers));
  report.AddTiming("shard_seconds_mean", engine.MeanShardSeconds());
  report.AddTiming("shard_seconds_max", engine.MaxShardSeconds());
  report.AddTiming("shard_imbalance", engine.ShardImbalance());
}

namespace {

std::int64_t ShardCount(std::uint64_t trials) {
  return static_cast<std::int64_t>(TrialEngine::ShardCount(trials));
}

}  // namespace

void AddScenarioCounters(telemetry::Report& report,
                         const OutcomeCounts& counts) {
  telemetry::AddFieldCounters(report, counts);
  report.AddMetric("trial_sdc_rate", counts.TrialSdcRate());
  report.AddMetric("trial_due_rate", counts.TrialDueRate());
  report.AddMetric("trial_failure_rate", counts.TrialFailureRate());
}

telemetry::Report BuildScenarioReport(const ScenarioConfig& config,
                                      std::uint64_t trials,
                                      const OutcomeCounts& counts,
                                      const ScenarioTelemetry& telemetry) {
  telemetry::Report report("pairsim-reliability");
  report.MetaString("scheme", ecc::ToString(config.scheme));
  report.MetaInt("seed", static_cast<std::int64_t>(config.seed));
  report.MetaInt("trials", static_cast<std::int64_t>(trials));
  report.MetaInt("shards", ShardCount(trials));
  report.MetaInt("faults_per_trial", config.faults_per_trial);
  report.MetaInt("working_rows", config.working_rows);
  report.MetaInt("lines_per_row", config.lines_per_row);

  AddScenarioCounters(report, counts);
  AddTrialTelemetry(report, telemetry.trial);
  AddEngineTiming(report, telemetry.engine);
  return report;
}

telemetry::Report BuildLifetimeReport(const LifetimeConfig& config,
                                      std::uint64_t trials,
                                      const LifetimeStats& stats,
                                      const ScenarioTelemetry& telemetry) {
  telemetry::Report report("pairsim-lifetime");
  report.MetaString("scheme", ecc::ToString(config.scheme));
  report.MetaInt("seed", static_cast<std::int64_t>(config.seed));
  report.MetaInt("trials", static_cast<std::int64_t>(trials));
  report.MetaInt("shards", ShardCount(trials));
  report.MetaInt("epochs", config.epochs);
  report.MetaReal("faults_per_epoch", config.faults_per_epoch);
  report.MetaInt("scrub_interval", config.scrub_interval);
  report.MetaInt("final_audit", config.final_audit ? 1 : 0);
  report.MetaInt("working_rows", config.working_rows);
  report.MetaInt("lines_per_row", config.lines_per_row);

  auto& c = report.counters();
  c.Set("trials", stats.trials);
  c.Set("trials_with_sdc", stats.trials_with_sdc);
  c.Set("trials_with_due", stats.trials_with_due);
  c.Set("total_corrections", stats.total_corrections);
  c.Set("total_scrub_writebacks", stats.total_scrub_writebacks);

  report.AddMetric("sdc_probability", stats.SdcProbability());
  report.AddMetric("due_probability", stats.DueProbability());
  report.AddMetric("mean_sdc_epoch", stats.mean_sdc_epoch);

  AddTrialTelemetry(report, telemetry.trial);
  AddEngineTiming(report, telemetry.engine);
  return report;
}

}  // namespace pair_ecc::reliability
