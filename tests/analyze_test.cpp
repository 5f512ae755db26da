// Tests for the pair_analyze static-analysis framework: the scanner
// (blanking, includes, function recognition, suppressions), every rule
// family against fixture sources with known violations (positive +
// suppressed + clean), the hygiene rules, the baseline ratchet, and a pin
// of the findings-report JSON schema.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analyze/analyze.hpp"
#include "telemetry/diff.hpp"

namespace pair_ecc::analyze {
namespace {

/// A config whose scoping matches the fixtures below instead of the real
/// tree, so rules are tested in isolation from repo layout churn.
AnalyzerConfig FixtureConfig() {
  AnalyzerConfig config;
  config.layer_deps = {
      {"telemetry", {"util"}},
      {"util", {"telemetry"}},  // fixture-only: lets util include report.hpp
      {"gf", {"util"}},
      {"rs", {"gf", "util"}},
  };
  config.report_path_prefixes = {"src/telemetry/"};
  config.report_writer_headers = {"telemetry/report.hpp"};
  config.hot_file_prefixes = {"src/rs/"};
  config.hot_function_names = {"Decode"};
  config.hot_banned_calls = {"Syndromes"};
  config.contract_prefixes = {"src/"};
  config.atomic_write_prefixes = {"src/", "tools/"};
  config.atomic_write_exempt = {"src/util/atomic_file.hpp"};
  return config;
}

AnalysisResult RunOn(const std::string& path, const std::string& text) {
  const Analyzer analyzer = Analyzer::WithDefaultRules(FixtureConfig());
  std::vector<SourceFile> files;
  files.push_back(SourceFile::FromString(path, text));
  return analyzer.Run(files);
}

std::vector<std::string> RuleIds(const AnalysisResult& result) {
  std::vector<std::string> ids;
  for (const auto& f : result.findings) ids.push_back(f.rule);
  return ids;
}

// ----------------------------------------------------------------- scanner

TEST(AnalyzeScanner, BlanksCommentsAndStringsButKeepsOffsets) {
  const auto f = SourceFile::FromString(
      "src/util/x.cpp",
      "int a; // rand()\nconst char* s = \"rand()\";\nint rand();\n");
  EXPECT_EQ(f.code().size(), f.text().size());
  // The only surviving 'rand' token is the real declaration on line 3.
  EXPECT_EQ(f.code().find("rand"), f.text().find("int rand();") + 4);
}

TEST(AnalyzeScanner, HandlesRawStringsAndCharLiterals) {
  const auto f = SourceFile::FromString(
      "src/util/x.cpp",
      "auto r = R\"(srand(1))\";\nchar c = ')';\nint y = 1;\n");
  EXPECT_EQ(f.code().find("srand"), std::string::npos);
  EXPECT_NE(f.code().find("int y"), std::string::npos);
}

TEST(AnalyzeScanner, ParsesIncludesWithLines) {
  const auto f = SourceFile::FromString(
      "src/rs/x.cpp",
      "#include \"gf/gf2m.hpp\"\n#include <vector>\n  #include \"rs/poly.hpp\"\n");
  ASSERT_EQ(f.includes().size(), 3u);
  EXPECT_EQ(f.includes()[0].path, "gf/gf2m.hpp");
  EXPECT_FALSE(f.includes()[0].angled);
  EXPECT_EQ(f.includes()[1].path, "vector");
  EXPECT_TRUE(f.includes()[1].angled);
  EXPECT_EQ(f.includes()[2].line, 3u);
}

TEST(AnalyzeScanner, RecognisesFunctionsSkippingControlFlowAndLambdas) {
  const auto f = SourceFile::FromString("src/util/x.cpp", R"(
int Foo(int a) {
  if (a > 0) { return a; }
  auto fn = [&](int b) { return b; };
  for (int i = 0; i < a; ++i) { fn(i); }
  return 0;
}
struct S {
  S(int v) : v_(v), w_(v) { }
  int Bar() const noexcept { return v_; }
  int v_, w_;
};
)");
  std::vector<std::string> names;
  for (const auto& fn : f.functions()) names.push_back(fn.name);
  EXPECT_EQ(names, (std::vector<std::string>{"Foo", "S", "Bar"}));
}

TEST(AnalyzeScanner, QualifiedNamesAndParams) {
  const auto f = SourceFile::FromString(
      "src/rs/x.cpp",
      "void RsCode::Decode(std::span<Elem> word, DecodeScratch& sc) {\n"
      "  sc.syn.resize(3);\n}\n");
  ASSERT_EQ(f.functions().size(), 1u);
  EXPECT_EQ(f.functions()[0].name, "Decode");
  EXPECT_EQ(f.functions()[0].qualified, "RsCode::Decode");
  EXPECT_NE(f.functions()[0].params.find("DecodeScratch"), std::string::npos);
}

TEST(AnalyzeScanner, ModuleClassification) {
  EXPECT_EQ(SourceFile::FromString("src/rs/a.cpp", "").Module(), "rs");
  EXPECT_EQ(SourceFile::FromString("tools/a.cpp", "").Module(), "");
  EXPECT_EQ(SourceFile::FromString("tools/a.cpp", "").TopDir(), "tools");
}

// --------------------------------------------------------------------- DET

TEST(AnalyzeDet, FiresOnRandomDevice) {
  const auto result = RunOn("src/util/x.cpp",
                            "#include <random>\n"
                            "int Draw() { std::random_device rd; return rd(); }\n");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "DET-RAND");
  EXPECT_EQ(result.findings[0].line, 2u);
}

TEST(AnalyzeDet, SuppressionDischargesAndIsMarkedUsed) {
  const auto result = RunOn(
      "src/util/x.cpp",
      "// PAIR_ANALYZE_ALLOW(DET-RAND: entropy for the CLI banner only)\n"
      "int Draw() { return rand(); }\n");
  EXPECT_TRUE(result.findings.empty());
  ASSERT_EQ(result.suppressed.size(), 1u);
  EXPECT_EQ(result.suppressed[0].rule, "DET-RAND");
}

TEST(AnalyzeDet, CleanFileHasNoFindings) {
  const auto result = RunOn("src/util/x.cpp",
                            "#include \"util/rng.hpp\"\n"
                            "int Draw(pair_ecc::util::Xoshiro256& rng);\n");
  EXPECT_TRUE(result.findings.empty());
}

TEST(AnalyzeDet, WallClockFires) {
  const auto result = RunOn(
      "src/util/x.cpp",
      "#include <chrono>\n"
      "auto Now() { return std::chrono::system_clock::now(); }\n");
  EXPECT_EQ(RuleIds(result), (std::vector<std::string>{"DET-TIME"}));
}

TEST(AnalyzeDet, UnorderedOnlyFlaggedOnReportPath) {
  const std::string body = "std::unordered_map<int, int> m;\n";
  // Not a report path: src/util is neither a listed prefix nor includes a
  // writer header.
  EXPECT_TRUE(RunOn("src/util/x.cpp", body).findings.empty());
  // Same text under src/telemetry/ is a finding.
  const auto result = RunOn("src/telemetry/x.cpp", body);
  EXPECT_EQ(RuleIds(result), (std::vector<std::string>{"DET-UNORD"}));
  // ... as is any file that includes a report-writer header.
  const auto via_header = RunOn(
      "src/util/x.cpp", "#include \"telemetry/report.hpp\"\n" + body);
  EXPECT_EQ(RuleIds(via_header), (std::vector<std::string>{"DET-UNORD"}));
}

// --------------------------------------------------------------------- HOT

TEST(AnalyzeHot, AllocationInHotFunctionFires) {
  const auto result = RunOn(
      "src/rs/x.cpp",
      "int Decode(std::span<int> w) {\n"
      "  PAIR_CHECK(!w.empty(), \"empty\");\n"
      "  int* p = new int[3];\n  delete[] p;\n  return 0;\n}\n");
  EXPECT_EQ(RuleIds(result), (std::vector<std::string>{"HOT-ALLOC"}));
}

TEST(AnalyzeHot, LocalContainerInHotFunctionFires) {
  const auto result = RunOn(
      "src/rs/x.cpp",
      "int Decode(std::span<int> w) {\n"
      "  PAIR_CHECK(!w.empty(), \"empty\");\n"
      "  std::vector<int> tmp(w.size());\n  return (int)tmp.size();\n}\n");
  EXPECT_EQ(RuleIds(result), (std::vector<std::string>{"HOT-LOCAL"}));
}

TEST(AnalyzeHot, ReferencesAndCallsDoNotFire) {
  const auto result = RunOn(
      "src/rs/x.cpp",
      "int Decode(std::span<int> w, std::vector<int>& out) {\n"
      "  PAIR_CHECK(!w.empty(), \"empty\");\n"
      "  const std::vector<int>& view = out;\n"
      "  return (int)view.size();\n}\n");
  EXPECT_TRUE(result.findings.empty());
}

TEST(AnalyzeHot, ColdApiCallFromHotBodyFires) {
  const auto result = RunOn(
      "src/rs/x.cpp",
      "int Decode(std::span<int> w) {\n"
      "  PAIR_CHECK(!w.empty(), \"empty\");\n"
      "  return Syndromes(w);\n}\n");
  EXPECT_EQ(RuleIds(result), (std::vector<std::string>{"HOT-COLDAPI"}));
}

TEST(AnalyzeHot, ScratchParamMarksFunctionHotAnywhere) {
  // File outside hot prefixes, name not in the hot list — the
  // DecodeScratch parameter alone makes it hot.
  const auto result = RunOn(
      "src/util/x.cpp",
      "int Chew(std::span<int> w, DecodeScratch& sc) {\n"
      "  PAIR_CHECK(!w.empty(), \"empty\");\n"
      "  std::vector<int> tmp;\n  return 0;\n}\n");
  EXPECT_EQ(RuleIds(result), (std::vector<std::string>{"HOT-LOCAL"}));
}

TEST(AnalyzeHot, SuppressedAllocIsDischarged) {
  const auto result = RunOn(
      "src/rs/x.cpp",
      "int Decode(std::span<int> w) {\n"
      "  PAIR_CHECK(!w.empty(), \"empty\");\n"
      "  // PAIR_ANALYZE_ALLOW(HOT-LOCAL: cold fallback, measured harmless)\n"
      "  std::vector<int> tmp(w.size());\n  return 0;\n}\n");
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.suppressed.size(), 1u);
}

// --------------------------------------------------------------------- LAY

TEST(AnalyzeLay, UpwardIncludeFires) {
  const auto result = RunOn("src/gf/x.cpp", "#include \"rs/rs_code.hpp\"\n");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "LAY-UPWARD");
  EXPECT_EQ(result.findings[0].line, 1u);
}

TEST(AnalyzeLay, TransitiveClosureAllowsIndirectDeps) {
  // rs -> gf directly and rs -> util via gf's deps: both fine.
  const auto result = RunOn(
      "src/rs/x.cpp",
      "#include \"gf/gf2m.hpp\"\n#include \"util/contract.hpp\"\n"
      "#include \"rs/poly.hpp\"\n#include <vector>\n");
  EXPECT_TRUE(result.findings.empty());
}

TEST(AnalyzeLay, UnknownModuleFires) {
  const auto result = RunOn("src/newthing/x.cpp", "int x;\n");
  EXPECT_EQ(RuleIds(result), (std::vector<std::string>{"LAY-UNKNOWN"}));
}

TEST(AnalyzeLay, AppDirsAreExempt) {
  const auto result =
      RunOn("tools/x.cpp", "#include \"rs/rs_code.hpp\"\n"
                           "#include \"sim/simulator.hpp\"\n");
  EXPECT_TRUE(result.findings.empty());
}

TEST(AnalyzeLay, SuppressionDischarges) {
  const auto result = RunOn(
      "src/gf/x.cpp",
      "// PAIR_ANALYZE_ALLOW(LAY-UPWARD: transitional, tracked in ROADMAP)\n"
      "#include \"rs/rs_code.hpp\"\n");
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.suppressed.size(), 1u);
}

// --------------------------------------------------------------------- CON

TEST(AnalyzeCon, SpanFunctionWithoutCheckFires) {
  const auto result = RunOn(
      "src/util/x.cpp",
      "int Sum(std::span<const int> xs) {\n"
      "  int s = 0;\n  for (int x : xs) s += x;\n  return s;\n}\n");
  EXPECT_EQ(RuleIds(result), (std::vector<std::string>{"CON-SPAN"}));
}

TEST(AnalyzeCon, AnyContractMacroSatisfies) {
  for (const char* macro : {"PAIR_CHECK", "PAIR_DCHECK", "PAIR_CHECK_RANGE"}) {
    const auto result = RunOn(
        "src/util/x.cpp",
        std::string("int Sum(std::span<const int> xs) {\n  ") + macro +
            "(!xs.empty(), \"empty\");\n  return 0;\n}\n");
    EXPECT_TRUE(result.findings.empty()) << macro;
  }
}

TEST(AnalyzeCon, OnlyContractPrefixesAreChecked) {
  const auto result = RunOn(
      "tools/x.cpp",
      "int Sum(std::span<const int> xs) { return (int)xs.size(); }\n");
  EXPECT_TRUE(result.findings.empty());
}

TEST(AnalyzeCon, SuppressionDischarges) {
  const auto result = RunOn(
      "src/util/x.cpp",
      "// PAIR_ANALYZE_ALLOW(CON-SPAN: delegates to SumInto, which checks)\n"
      "int Sum(std::span<const int> xs) { return SumInto(xs); }\n");
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.suppressed.size(), 1u);
}

TEST(AnalyzeCon, OfstreamOnJsonPathFires) {
  const auto result = RunOn(
      "tools/report_writer.cpp",
      "void WriteReport(const std::string& json_path) {\n"
      "  std::ofstream out(json_path, std::ios::binary);\n"
      "  out << \"{}\";\n}\n");
  EXPECT_EQ(RuleIds(result), (std::vector<std::string>{"CON-ATOMIC"}));
}

TEST(AnalyzeCon, OfstreamWithoutJsonContextDoesNotFire) {
  // A plain-text trace writer is allowed to stream directly.
  const auto result = RunOn(
      "src/util/trace_io.cpp",
      "void WriteTraceFile(const std::string& path) {\n"
      "  std::ofstream os(path);\n  os << \"# trace\\n\";\n}\n");
  EXPECT_EQ(RuleIds(result), std::vector<std::string>{});
}

TEST(AnalyzeCon, AtomicWriterItselfIsExempt) {
  const auto result = RunOn(
      "src/util/atomic_file.hpp",
      "void AtomicWriteFile(const std::string& json_path) {\n"
      "  std::ofstream out(json_path);\n}\n");
  EXPECT_TRUE(result.findings.empty());
}

TEST(AnalyzeCon, AtomicRuleScopedToConfiguredPrefixes) {
  const auto result = RunOn(
      "examples/demo.cpp",
      "void Demo() { std::ofstream out(json_path); }\n");
  EXPECT_TRUE(result.findings.empty());
}

TEST(AnalyzeCon, AtomicSuppressionDischarges) {
  const auto result = RunOn(
      "tools/report_writer.cpp",
      "void WriteReport(const std::string& json_path) {\n"
      "  // PAIR_ANALYZE_ALLOW(CON-ATOMIC: streams to a pipe, not a file)\n"
      "  std::ofstream out(json_path);\n}\n");
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.suppressed.size(), 1u);
}

// --------------------------------------------------------------------- THR

TEST(AnalyzeThr, MutableFunctionLocalStaticFires) {
  const auto result = RunOn(
      "src/util/x.cpp",
      "int Next() {\n  static int counter = 0;\n  return ++counter;\n}\n");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "THR-STATIC");
  EXPECT_NE(result.findings[0].message.find("function-local"),
            std::string::npos);
}

TEST(AnalyzeThr, NamespaceScopeStaticFires) {
  const auto result =
      RunOn("src/util/x.cpp", "static int g_count = 0;\nint Get();\n");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "THR-STATIC");
}

TEST(AnalyzeThr, ConstConstexprAndFunctionsDoNotFire) {
  const auto result = RunOn(
      "src/util/x.cpp",
      "static constexpr int kMax = 8;\n"
      "static const char* Name() { return \"x\"; }\n"
      "struct S { static int Helper(int v); };\n"
      "int F() { static const int kTable = 3; return kTable; }\n"
      "void G() { static_assert(sizeof(int) == 4); int x = static_cast<int>(1.0); (void)x; }\n");
  EXPECT_TRUE(result.findings.empty());
}

TEST(AnalyzeThr, ConstOnlyInsideTemplateArgumentsFires) {
  const auto result = RunOn(
      "src/util/x.cpp",
      "static std::map<int, std::unique_ptr<const Code>> cache;\n");
  ASSERT_EQ(result.findings.size(), 1u);
  EXPECT_EQ(result.findings[0].rule, "THR-STATIC");
}

TEST(AnalyzeThr, ConstContainersDoNotFire) {
  const auto result = RunOn(
      "src/util/x.cpp",
      "static const std::vector<int> kSizes = {1, 2};\n"
      "static constexpr std::array<std::pair<int, int>, 2> kPairs{};\n");
  EXPECT_TRUE(result.findings.empty());
}

TEST(AnalyzeThr, SuppressionDischarges) {
  const auto result = RunOn(
      "src/util/x.cpp",
      "int Get() {\n"
      "  // PAIR_ANALYZE_ALLOW(THR-STATIC: write-once cache behind a mutex)\n"
      "  static std::map<int, int> cache;\n  return (int)cache.size();\n}\n");
  EXPECT_TRUE(result.findings.empty());
  EXPECT_EQ(result.suppressed.size(), 1u);
}

// --------------------------------------------------------------------- ANA

TEST(AnalyzeAna, MalformedSuppressionFires) {
  // Rule-shaped but missing the ": reason" tail.
  const auto result = RunOn("src/util/x.cpp",
                            "// PAIR_ANALYZE_ALLOW(DET-RAND)\nint x;\n");
  EXPECT_EQ(RuleIds(result), (std::vector<std::string>{"ANA-BAD-ALLOW"}));
}

TEST(AnalyzeAna, EmptyReasonFires) {
  const auto result = RunOn("src/util/x.cpp",
                            "// PAIR_ANALYZE_ALLOW(DET-RAND: )\nint x;\n");
  EXPECT_EQ(RuleIds(result), (std::vector<std::string>{"ANA-BAD-ALLOW"}));
}

TEST(AnalyzeAna, UnusedSuppressionFires) {
  const auto result = RunOn(
      "src/util/x.cpp",
      "// PAIR_ANALYZE_ALLOW(DET-RAND: no rand call below anymore)\nint x;\n");
  EXPECT_EQ(RuleIds(result), (std::vector<std::string>{"ANA-UNUSED-ALLOW"}));
}

TEST(AnalyzeAna, LowercasePlaceholderIsProse) {
  const auto result = RunOn(
      "src/util/x.cpp",
      "// docs may say PAIR_ANALYZE_ALLOW(<rule-id>: <reason>) freely\nint x;\n");
  EXPECT_TRUE(result.findings.empty());
}

// ---------------------------------------------------------------- baseline

TEST(AnalyzeBaseline, RatchetPassesAtBaselineAndFailsAboveIt) {
  const std::string two_statics =
      "int A() { static int a = 0; return ++a; }\n"
      "int B() { static int b = 0; return ++b; }\n";
  const auto result = RunOn("src/util/x.cpp", two_statics);
  ASSERT_EQ(result.findings.size(), 2u);

  // A baseline carrying both findings: nothing new.
  const auto baseline = BaselineFromReport(ResultToReport(result));
  EXPECT_TRUE(NewFindings(result.findings, baseline).empty());

  // A third static exceeds the (rule, file) allowance by exactly one.
  const auto grown = RunOn("src/util/x.cpp",
                           two_statics +
                               "int C() { static int c = 0; return ++c; }\n");
  const auto fresh = NewFindings(grown.findings, baseline);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].rule, "THR-STATIC");

  // Line-number churn alone does not break the ratchet.
  const auto moved = RunOn("src/util/x.cpp", "// pushed down\n" + two_statics);
  EXPECT_TRUE(NewFindings(moved.findings, baseline).empty());
}

TEST(AnalyzeBaseline, UnknownFileIsAlwaysNew) {
  const auto result =
      RunOn("src/util/y.cpp", "int A() { static int a = 0; return ++a; }\n");
  EXPECT_EQ(NewFindings(result.findings, {}).size(), 1u);
}

// ------------------------------------------------------------- JSON schema

TEST(AnalyzeReport, SchemaIsPinned) {
  const auto result = RunOn(
      "src/util/x.cpp",
      "int Next() {\n  static int counter = 0;\n  return ++counter;\n}\n");
  const telemetry::JsonValue report = ResultToReport(result);

  // Valid pair-report, so bench_diff and every downstream consumer can
  // read analyzer output unchanged.
  EXPECT_TRUE(telemetry::ValidateReportSchema(report).empty());
  EXPECT_EQ(report.Find("schema")->AsString(), "pair-report");
  EXPECT_EQ(report.Find("tool")->AsString(), "pair_analyze");

  // Pinned layout of the findings table: these names are what the
  // committed baseline and CI artifact parsing depend on.
  const auto* findings = report.Find("tables")->Find("findings");
  ASSERT_NE(findings, nullptr);
  const auto& columns = findings->Find("columns")->AsArray();
  ASSERT_EQ(columns.size(), 4u);
  EXPECT_EQ(columns[0].AsString(), "rule");
  EXPECT_EQ(columns[1].AsString(), "file");
  EXPECT_EQ(columns[2].AsString(), "line");
  EXPECT_EQ(columns[3].AsString(), "message");
  ASSERT_EQ(findings->Find("rows")->AsArray().size(), 1u);
  const auto& row = findings->Find("rows")->AsArray()[0].AsArray();
  EXPECT_EQ(row[0].AsString(), "THR-STATIC");
  EXPECT_EQ(row[1].AsString(), "src/util/x.cpp");
  EXPECT_EQ(row[2].AsString(), "2");

  // Counters carry the per-family rollup.
  EXPECT_EQ(report.Find("counters")->Find("findings_total")->AsInt(), 1);
  EXPECT_EQ(report.Find("counters")->Find("findings_THR")->AsInt(), 1);

  // Byte-identical across runs (the determinism contract).
  EXPECT_EQ(report.Dump(), ResultToReport(result).Dump());
}

TEST(AnalyzeReport, SuppressedTableIsCarried) {
  const auto result = RunOn(
      "src/util/x.cpp",
      "// PAIR_ANALYZE_ALLOW(DET-RAND: fixture)\nint D() { return rand(); }\n");
  const auto report = ResultToReport(result);
  EXPECT_EQ(report.Find("counters")->Find("suppressed_total")->AsInt(), 1);
  EXPECT_EQ(report.Find("tables")
                ->Find("suppressed")
                ->Find("rows")
                ->AsArray()
                .size(),
            1u);
}

// The default config's DAG must stay acyclic and self-consistent: every
// named dependency is itself a known module.
TEST(AnalyzeConfig, DefaultLayeringDagIsClosed) {
  const AnalyzerConfig config = AnalyzerConfig::Default();
  for (const auto& [module, deps] : config.layer_deps)
    for (const auto& dep : deps)
      EXPECT_TRUE(config.layer_deps.count(dep) != 0)
          << module << " depends on unknown module " << dep;
}

}  // namespace
}  // namespace pair_ecc::analyze
