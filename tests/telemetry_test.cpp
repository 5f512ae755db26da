// Telemetry layer contract tests (src/telemetry/ + reliability report
// builders).
//
// Three contracts pinned here:
//  1. Golden schema: the pair-report document layout (section names, order,
//     schema version, per-section field names) is stable — bench_diff and
//     committed baselines depend on it, so renames must fail a test.
//  2. Determinism: every section except "timing" is a pure function of
//     (config, seed, trials) — two runs, and runs at different thread
//     counts, serialise byte-identically with ToJson(false).
//  3. The primitives (JsonValue, Counters, Histogram) behave as their
//     headers document, including the shard-merge semantics the engine
//     relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "reliability/monte_carlo.hpp"
#include "reliability/telemetry.hpp"
#include "telemetry/diff.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"

namespace pair_ecc::telemetry {
namespace {

// ---------------------------------------------------------------- JsonValue

TEST(Json, ObjectsPreserveInsertionOrder) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("zeta", 1);
  obj.Set("alpha", 2);
  obj.Set("mid", 3);
  obj.Set("alpha", 4);  // replace in place, keep position
  const auto& items = obj.AsObject();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].first, "zeta");
  EXPECT_EQ(items[1].first, "alpha");
  EXPECT_EQ(items[1].second.AsInt(), 4);
  EXPECT_EQ(items[2].first, "mid");
}

TEST(Json, RoundTripPreservesValuesAndIntegerness) {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("count", std::int64_t{12345678901234});
  obj.Set("rate", 0.25);
  obj.Set("name", "pair-4");
  obj.Set("flag", true);
  obj.Set("none", JsonValue());
  JsonValue arr = JsonValue::MakeArray();
  arr.Append(1);
  arr.Append(2.5);
  obj.Set("seq", std::move(arr));

  const JsonValue parsed = JsonValue::Parse(obj.Dump());
  EXPECT_EQ(parsed, obj);
  EXPECT_EQ(parsed.Find("count")->kind(), JsonValue::Kind::kInt);
  EXPECT_EQ(parsed.Find("rate")->kind(), JsonValue::Kind::kReal);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(JsonValue::Parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("[1,]"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(JsonValue::Parse(""), std::runtime_error);
}

// Numbers outside JSON's grammar and lone surrogate escapes were taken:
// "01" read as 1, and "\ud800" became bytes that are not UTF-8. Each is
// refused with one line naming where and what.
TEST(Json, ParseRefusesWhatJsonForbids) {
  const std::pair<std::string, std::string> cases[] = {
      {"01", "at byte 0: bad number '01'"},
      {"-01", "at byte 0: bad number '-01'"},
      {"[01]", "at byte 1: bad number '01'"},
      {"1.", "at byte 0: bad number '1.'"},
      {".5", "at byte 0: bad number '.5'"},
      {"1.e5", "at byte 0: bad number '1.e5'"},
      {"1e", "at byte 0: bad number '1e'"},
      {"-", "at byte 0: bad number '-'"},
      {"[1,]", "at byte 3: unexpected character"},
      {"\"\\ud800\"", "at byte 7: lone high surrogate in \\u escape"},
      {"\"\\ud800\\u0041\"", "at byte 13: lone high surrogate in \\u escape"},
      {"\"\\udc00\"", "at byte 7: lone low surrogate in \\u escape"},
      {"\"a\x01z\"", "at byte 2: raw control character in string"},
      {"\"\xff\xfe\"", "at byte 1: invalid UTF-8 in string"},
      {"\"\xc0\xaf\"", "at byte 1: invalid UTF-8 in string"},
      {"\"\xed\xa0\x80\"", "at byte 1: invalid UTF-8 in string"},
      {"\"\xf4\x90\x80\x80\"", "at byte 1: invalid UTF-8 in string"},
      {"\"ok\xe2\x82\"", "at byte 3: invalid UTF-8 in string"},
  };
  for (const auto& [text, where] : cases) {
    std::string what = "parsed";
    try {
      JsonValue::Parse(text);
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_EQ(what, "JSON parse error " + where) << text;
  }
}

TEST(Json, ParseTakesJsonNumbersAndSurrogatePairs) {
  EXPECT_EQ(JsonValue::Parse("0").AsInt(), 0);
  EXPECT_EQ(JsonValue::Parse("-0").AsInt(), 0);
  EXPECT_EQ(JsonValue::Parse("10").AsInt(), 10);
  EXPECT_EQ(JsonValue::Parse("0.5").AsReal(), 0.5);
  EXPECT_EQ(JsonValue::Parse("-0.5e+1").AsReal(), -5.0);
  EXPECT_EQ(JsonValue::Parse("1E-2").AsReal(), 0.01);
  EXPECT_EQ(JsonValue::Parse("1e5").AsReal(), 1e5);
  // U+1F600 as a surrogate pair: four bytes of UTF-8, written back as is.
  const JsonValue pair = JsonValue::Parse("\"\\ud83d\\ude00\"");
  EXPECT_EQ(pair.AsString(), "\xF0\x9F\x98\x80");
  EXPECT_EQ(JsonValue::Parse(pair.Dump()), pair);
}

// Whatever Dump writes, Parse reads back: every one-byte character (the
// control characters escaped), UTF-8 at each sequence length's bounds, and
// the surrogate block's neighbours. A string that is not UTF-8, which
// Parse would refuse, Dump refuses to write.
TEST(Json, DumpedStringsParseBack) {
  std::vector<std::string> strings;
  for (int c = 0; c < 0x80; ++c) strings.emplace_back(1, static_cast<char>(c));
  // U+0080 U+07FF, U+0800 U+D7FF U+E000, U+FFFF U+10000 U+10FFFF.
  strings.push_back("\xC2\x80 \xDF\xBF");
  strings.push_back("\xE0\xA0\x80 \xED\x9F\xBF \xEE\x80\x80");
  strings.push_back("\xEF\xBF\xBF \xF0\x90\x80\x80 \xF4\x8F\xBF\xBF");
  for (const std::string& s : strings) {
    const JsonValue v(s);
    EXPECT_EQ(JsonValue::Parse(v.Dump()), v) << v.Dump();
  }
  for (const char* bad :
       {"\xff\xfe", "a\xc0\xaf", "\xed\xa0\x80", "\xf4\x90\x80\x80", "\xe2\x82"})
    EXPECT_THROW(JsonValue(bad).Dump(), std::runtime_error);
}

// 200000 open brackets overflowed the parser's stack: nesting is refused
// past 64 levels, at the offset of the first bracket too deep.
TEST(Json, ParseRefusesNestingPastItsBound) {
  for (const std::size_t depth : {64u, 65u, 200000u}) {
    std::string what = "parsed";
    try {
      JsonValue::Parse(std::string(depth, '[') + std::string(depth, ']'));
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_EQ(what, depth == 64 ? "parsed"
                                : "JSON parse error at byte 64: nesting "
                                  "deeper than 64 levels");
  }
}

// ----------------------------------------------------------------- Counters

TEST(Counters, MergeIsNameWiseAndOrderIndependent) {
  Counters a, b;
  a.Add("reads", 3);
  a.Add("writes", 1);
  b.Add("writes", 2);
  b.Add("decodes", 7);

  Counters ab = a;
  ab += b;
  Counters ba = b;
  ba += a;
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.Get("reads"), 3u);
  EXPECT_EQ(ab.Get("writes"), 3u);
  EXPECT_EQ(ab.Get("decodes"), 7u);
  EXPECT_EQ(ab.Get("absent"), 0u);
}

// ---------------------------------------------------------------- Histogram

TEST(Histogram, BucketEdgesAreInclusive) {
  Histogram h({2, 5});
  h.Record(0);  // bucket 0 (<= 2)
  h.Record(2);  // bucket 0
  h.Record(3);  // bucket 1 (<= 5)
  h.Record(5);  // bucket 1
  h.Record(6);  // overflow
  ASSERT_EQ(h.counts().size(), 3u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 2u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.Sum(), 16u);
  EXPECT_EQ(h.TotalCount(), 5u);
}

TEST(Histogram, DefaultConstructedAdoptsBoundsOnMerge) {
  // The engine's shard accumulators are default-constructed; a shard that
  // never recorded must merge as identity.
  Histogram shard = Histogram::UpTo(3);
  shard.Record(1);
  Histogram total;
  total += shard;
  EXPECT_EQ(total, shard);
  total += Histogram();  // empty right-hand side is also identity
  EXPECT_EQ(total, shard);
}

TEST(Histogram, NeverRecordedRightHandSideLeavesTheTargetUnchanged) {
  // A per-trial fold adds one never-recorded histogram per trial that read
  // nothing: it must not turn an empty accumulator into all-zero buckets.
  Histogram total;
  total += Histogram::UpTo(3);
  total += Histogram::UpTo(3);
  EXPECT_EQ(total, Histogram());
  EXPECT_TRUE(total.counts().empty());

  Histogram recorded = Histogram::UpTo(3);
  recorded.Record(2);
  const Histogram before = recorded;
  recorded += Histogram::UpTo(3);
  recorded += Histogram::UpTo(7);  // bounds of an empty side do not matter
  EXPECT_EQ(recorded, before);
}

// ---------------------------------------------------------- report builders

reliability::ScenarioConfig TestConfig(unsigned threads) {
  reliability::ScenarioConfig cfg;
  cfg.scheme = ecc::SchemeKind::kPair4;
  cfg.mix = faults::FaultMix::Inherent();
  cfg.faults_per_trial = 2;
  cfg.working_rows = 1;
  cfg.lines_per_row = 4;
  cfg.seed = 0xD5EED;
  cfg.threads = threads;
  return cfg;
}

Report RunAndBuildReport(unsigned threads, unsigned trials = 48) {
  const auto cfg = TestConfig(threads);
  reliability::ScenarioTelemetry tel;
  const reliability::OutcomeCounts counts =
      reliability::RunMonteCarlo(cfg, trials, &tel);
  return reliability::BuildScenarioReport(cfg, trials, counts, tel);
}

TEST(ReportSchema, GoldenTopLevelLayout) {
  const JsonValue doc = RunAndBuildReport(1).ToJson();
  const auto& sections = doc.AsObject();
  // Fixed section order is part of the byte-identity contract.
  const std::vector<std::string> expect = {
      "schema",   "schema_version", "tool",   "meta",
      "counters", "metrics",        "histograms", "tables", "timing"};
  ASSERT_EQ(sections.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i)
    EXPECT_EQ(sections[i].first, expect[i]) << "section " << i;

  EXPECT_EQ(doc.Find("schema")->AsString(), kReportSchema);
  EXPECT_EQ(doc.Find("schema_version")->AsInt(), kReportSchemaVersion);
  EXPECT_EQ(doc.Find("tool")->AsString(), "pairsim-reliability");
}

TEST(ReportSchema, GoldenScenarioFieldNames) {
  const JsonValue doc = RunAndBuildReport(1).ToJson();

  for (const char* key : {"scheme", "seed", "trials", "shards",
                          "faults_per_trial", "working_rows", "lines_per_row"})
    EXPECT_NE(doc.Find("meta")->Find(key), nullptr) << "meta." << key;

  for (const char* key :
       {"trials", "reads", "outcome.no_error", "outcome.corrected",
        "outcome.due", "outcome.sdc_miscorrected", "outcome.sdc_undetected",
        "trials_with_sdc", "trials_with_due", "trials_with_failure",
        "codec.writes", "codec.decodes", "codec.claim_clean",
        "codec.claim_corrected", "codec.claim_detected",
        "codec.corrected_units", "codec.scrub_lines", "codec.scrub_rows",
        "codec.devices_erased", "faults.injected", "faults.permanent",
        "faults.transient"})
    EXPECT_NE(doc.Find("counters")->Find(key), nullptr) << "counters." << key;

  for (const char* key :
       {"trial_sdc_rate", "trial_due_rate", "trial_failure_rate"})
    EXPECT_NE(doc.Find("metrics")->Find(key), nullptr) << "metrics." << key;

  const JsonValue* hist =
      doc.Find("histograms")->Find("corrected_units_per_read");
  ASSERT_NE(hist, nullptr);
  EXPECT_NE(hist->Find("bounds"), nullptr);
  EXPECT_NE(hist->Find("counts"), nullptr);
  EXPECT_NE(hist->Find("sum"), nullptr);

  for (const char* key : {"wall_seconds", "trials_per_sec", "workers"})
    EXPECT_NE(doc.Find("timing")->Find(key), nullptr) << "timing." << key;
}

TEST(ReportSchema, ValidatorAcceptsBuiltReportsAndRejectsBrokenOnes) {
  JsonValue doc = RunAndBuildReport(1).ToJson();
  EXPECT_TRUE(ValidateReportSchema(doc).empty());

  JsonValue wrong_schema = doc;
  wrong_schema.Set("schema", "not-a-pair-report");
  EXPECT_FALSE(ValidateReportSchema(wrong_schema).empty());

  JsonValue future_version = doc;
  future_version.Set("schema_version", kReportSchemaVersion + 1);
  EXPECT_FALSE(ValidateReportSchema(future_version).empty());

  EXPECT_FALSE(ValidateReportSchema(JsonValue::Parse("{}")).empty());
  EXPECT_FALSE(ValidateReportSchema(JsonValue::Parse("[1,2]")).empty());
}

TEST(ReportDeterminism, SameSeedSameThreadsIsByteIdentical) {
  const std::string a = RunAndBuildReport(2).ToJson().Dump();
  const std::string b = RunAndBuildReport(2).ToJson().Dump();
  // Full documents (including timing) may differ; everything else may not.
  const std::string a_det =
      RunAndBuildReport(2).ToJson(/*include_timing=*/false).Dump();
  const std::string b_det =
      RunAndBuildReport(2).ToJson(/*include_timing=*/false).Dump();
  EXPECT_EQ(a_det, b_det);
  EXPECT_NE(a_det, a) << "timing section should be present in full dumps";
  (void)b;
}

TEST(ReportDeterminism, ThreadCountDoesNotChangeDeterministicSections) {
  const std::string serial =
      RunAndBuildReport(1).ToJson(/*include_timing=*/false).Dump();
  for (unsigned threads : {2u, 8u}) {
    const std::string parallel =
        RunAndBuildReport(threads).ToJson(/*include_timing=*/false).Dump();
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

// ------------------------------------------------------------- diff library

TEST(Flatten, ProducesDocumentedPaths) {
  Report report("unit-test");
  report.MetaInt("trials", 100);
  report.MetaString("scheme", "pair4");  // non-numeric: not flattened
  report.counters().Add("reads", 7);
  report.AddMetric("sdc_rate", 0.125);
  Histogram h({1, 2});
  h.Record(0);
  h.Record(5);  // beyond the last bound: overflow bucket
  report.AddHistogram("units", h);
  report.AddTiming("wall_seconds", 1.5);

  util::Table table({"scheme", "rate"});
  table.AddRow({"PAIR-4", "0.5"});
  report.AddTable("rates", table);

  const auto flat = FlattenMetrics(report.ToJson());
  auto value_of = [&](const std::string& path) -> double {
    for (const auto& [p, v] : flat)
      if (p == path) return v;
    ADD_FAILURE() << "missing path " << path;
    return -1.0;
  };
  EXPECT_EQ(value_of("meta.trials"), 100.0);
  EXPECT_EQ(value_of("counters.reads"), 7.0);
  EXPECT_EQ(value_of("metrics.sdc_rate"), 0.125);
  EXPECT_EQ(value_of("histograms.units.le_1"), 1.0);
  EXPECT_EQ(value_of("histograms.units.overflow"), 1.0);
  EXPECT_EQ(value_of("histograms.units.sum"), 5.0);
  EXPECT_EQ(value_of("tables.rates.PAIR-4.rate"), 0.5);
  EXPECT_EQ(value_of("timing.wall_seconds"), 1.5);
  for (const auto& [p, v] : flat)
    EXPECT_NE(p, "meta.scheme") << "string meta must not flatten";
}

}  // namespace
}  // namespace pair_ecc::telemetry
