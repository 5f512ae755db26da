#include "analyze/analyze.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "telemetry/report.hpp"
#include "util/table.hpp"

namespace pair_ecc::analyze {
namespace {

bool IsIdentChar(char c) {
  return (std::isalnum(static_cast<unsigned char>(c)) != 0) || c == '_';
}

bool IsSpace(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

/// [begin, end) byte ranges of comments in the raw text.
struct CommentRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Replaces comment and string/char-literal contents with spaces (newlines
/// kept) so later passes can pattern-match code without tripping on
/// literals. Returns the blanked text and the comment ranges.
std::string BlankNonCode(const std::string& text,
                         std::vector<CommentRange>& comments) {
  std::string out = text;
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString,
  };
  State state = State::kCode;
  std::size_t comment_begin = 0;
  std::string raw_delim;  // )delim" terminator for raw strings
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          comment_begin = i;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          comment_begin = i;
          out[i] = ' ';
        } else if (c == '"') {
          // R"delim( ... )delim"
          if (i >= 1 && text[i - 1] == 'R' &&
              (i < 2 || !IsIdentChar(text[i - 2]))) {
            std::size_t p = i + 1;
            while (p < text.size() && text[p] != '(') ++p;
            raw_delim = ")" + text.substr(i + 1, p - i - 1) + "\"";
            state = State::kRawString;
          } else {
            state = State::kString;
          }
          out[i] = ' ';
        } else if (c == '\'') {
          // Heuristic: treat as char literal only when it closes nearby
          // (avoids eating digit separators like 1'000'000).
          bool is_literal = false;
          std::size_t p = i + 1;
          for (unsigned len = 0; p < text.size() && len < 4; ++p, ++len) {
            if (text[p] == '\\') { ++p; continue; }
            if (text[p] == '\'') { is_literal = true; break; }
            if (text[p] == '\n') break;
          }
          if (is_literal && !(i >= 1 && IsIdentChar(text[i - 1]))) {
            state = State::kChar;
            out[i] = ' ';
          }
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          comments.push_back({comment_begin, i});
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          state = State::kCode;
          comments.push_back({comment_begin, i + 1});
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n' && i + 1 < text.size()) out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (next != '\n' && i + 1 < text.size()) out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t j = 0; j < raw_delim.size(); ++j) out[i + j] = ' ';
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  if (state == State::kLineComment || state == State::kBlockComment)
    comments.push_back({comment_begin, text.size()});
  return out;
}

/// Extracts the identifier ending at (and including) offset `end` in
/// `code`, walking `::` qualification chains. Returns the full qualified
/// spelling and sets `begin` to its first byte.
std::string QualifiedIdentEndingAt(const std::string& code, std::size_t end,
                                   std::size_t& begin) {
  std::size_t lo = end + 1;
  while (lo > 0 && (IsIdentChar(code[lo - 1]) || code[lo - 1] == '~')) --lo;
  if (lo > end) {
    begin = end + 1;
    return "";
  }
  // Swallow `Namespace::` chains.
  while (lo >= 2 && code[lo - 1] == ':' && code[lo - 2] == ':') {
    std::size_t p = lo - 2;
    while (p > 0 && IsIdentChar(code[p - 1])) --p;
    if (p == lo - 2) break;
    lo = p;
  }
  begin = lo;
  return code.substr(lo, end + 1 - lo);
}

std::size_t SkipSpaceBack(const std::string& code, std::size_t i) {
  while (i != std::string::npos && i > 0 && IsSpace(code[i])) --i;
  if (i == 0 && IsSpace(code[0])) return std::string::npos;
  return i;
}

/// Finds the '(' matching the ')' at `close` (blanked code). Returns npos
/// when unmatched.
std::size_t MatchParenBack(const std::string& code, std::size_t close) {
  int depth = 0;
  for (std::size_t i = close + 1; i-- > 0;) {
    if (code[i] == ')') ++depth;
    if (code[i] == '(') {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

/// Finds the '}' matching the '{' at `open`. Returns npos when unmatched.
std::size_t MatchBraceForward(const std::string& code, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '{') ++depth;
    if (code[i] == '}') {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

const std::set<std::string>& ControlKeywords() {
  static const std::set<std::string> kw = {"if",     "for",   "while",
                                           "switch", "catch", "return",
                                           "sizeof", "alignof"};
  return kw;
}

const std::set<std::string>& TrailingQualifiers() {
  static const std::set<std::string> kw = {"const",    "noexcept", "override",
                                           "final",    "mutable",  "volatile",
                                           "try",      "&&"};
  return kw;
}

/// Skippable groups between a parameter list and the body: noexcept(...),
/// requires(...), decltype(...) in a trailing return.
const std::set<std::string>& GroupKeywords() {
  static const std::set<std::string> kw = {"noexcept", "requires", "decltype",
                                           "alignas"};
  return kw;
}

struct FunctionScanState {
  std::vector<FunctionDef> defs;
};

/// Heuristic function-definition recognition: for every '{', walk backward
/// over qualifiers and constructor member-init lists looking for a
/// `name(params)` head. Control statements, lambdas, class/namespace
/// bodies, and brace initializers are rejected along the way.
void ScanFunctions(const SourceFile& file, const std::string& code,
                   std::vector<FunctionDef>& out) {
  for (std::size_t i = 0; i < code.size(); ++i) {
    if (code[i] != '{') continue;
    std::size_t j = i == 0 ? std::string::npos : i - 1;
    bool rejected = false;
    FunctionDef def;
    bool found = false;
    // Walk backward through qualifiers / init-list entries.
    for (int hops = 0; hops < 32 && !rejected && !found; ++hops) {
      j = SkipSpaceBack(code, j);
      if (j == std::string::npos) { rejected = true; break; }
      const char c = code[j];
      if (IsIdentChar(c)) {
        std::size_t begin = 0;
        const std::string ident = QualifiedIdentEndingAt(code, j, begin);
        if (TrailingQualifiers().count(ident) != 0) {
          j = begin == 0 ? std::string::npos : begin - 1;
          continue;  // e.g. `) const noexcept {`
        }
        rejected = true;  // `else {`, `do {`, `struct X {`, `enum ... {`
      } else if (c == ')') {
        const std::size_t open = MatchParenBack(code, j);
        if (open == std::string::npos || open == 0) { rejected = true; break; }
        std::size_t name_end = SkipSpaceBack(code, open - 1);
        if (name_end == std::string::npos) { rejected = true; break; }
        if (!IsIdentChar(code[name_end])) {
          rejected = true;  // lambda `](...) {`, call through pointer, ...
          break;
        }
        std::size_t name_begin = 0;
        const std::string qualified =
            QualifiedIdentEndingAt(code, name_end, name_begin);
        if (qualified.empty()) { rejected = true; break; }
        const std::string unqualified =
            qualified.substr(qualified.rfind(':') == std::string::npos
                                 ? 0
                                 : qualified.rfind(':') + 1);
        if (ControlKeywords().count(unqualified) != 0) {
          rejected = true;
          break;
        }
        if (GroupKeywords().count(unqualified) != 0) {
          // `) noexcept(...) {` — keep walking left of the keyword.
          j = name_begin == 0 ? std::string::npos : name_begin - 1;
          continue;
        }
        // Constructor member-init-list entry? `Ctor(a) : x_(a), y_(b) {`
        const std::size_t before =
            name_begin == 0 ? std::string::npos
                            : SkipSpaceBack(code, name_begin - 1);
        if (before != std::string::npos &&
            (code[before] == ',' ||
             (code[before] == ':' &&
              !(before >= 1 && code[before - 1] == ':')))) {
          j = before == 0 ? std::string::npos : before - 1;
          continue;
        }
        def.name = unqualified;
        def.qualified = qualified;
        def.params = code.substr(open + 1, j - open - 1);
        def.line = file.LineOf(name_begin);
        found = true;
      } else {
        rejected = true;  // `= {`, `, {`, `({`, `: {` ...
      }
    }
    if (!found || rejected) continue;
    const std::size_t close = MatchBraceForward(code, i);
    if (close == std::string::npos) continue;
    def.body_begin = i + 1;
    def.body_end = close;
    out.push_back(std::move(def));
  }
}

// -------------------------------------------------- token match helpers

/// Calls `fn(begin, end)` for every identifier token in code[range).
template <typename Fn>
void ForEachIdent(const std::string& code, std::size_t begin, std::size_t end,
                  Fn&& fn) {
  std::size_t i = begin;
  end = std::min(end, code.size());
  while (i < end) {
    if (IsIdentChar(code[i]) &&
        (i == 0 || !IsIdentChar(code[i - 1]))) {
      std::size_t j = i;
      while (j < end && IsIdentChar(code[j])) ++j;
      fn(i, j);
      i = j;
    } else {
      ++i;
    }
  }
}

/// True when the identifier at [begin,end) is followed (after whitespace)
/// by an opening parenthesis — i.e. spelled as a call or declaration head.
bool FollowedByParen(const std::string& code, std::size_t end) {
  while (end < code.size() && IsSpace(code[end])) ++end;
  return end < code.size() && code[end] == '(';
}

/// Skips a balanced template-argument list starting at `i` when code[i]
/// is '<'; returns the offset past it (or `i` unchanged).
std::size_t SkipTemplateArgs(const std::string& code, std::size_t i) {
  if (i >= code.size() || code[i] != '<') return i;
  int depth = 0;
  for (std::size_t j = i; j < code.size(); ++j) {
    if (code[j] == '<') ++depth;
    if (code[j] == '>') {
      --depth;
      if (depth == 0) return j + 1;
    }
    if (code[j] == ';' || code[j] == '{') break;  // not template args
  }
  return i;
}

bool HasPathPrefix(const std::string& path,
                   const std::vector<std::string>& prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](const std::string& p) {
                       return path.compare(0, p.size(), p) == 0;
                     });
}

// ------------------------------------------------------------ DET rules

class DetRandRule final : public Rule {
 public:
  std::string_view Id() const override { return "DET-RAND"; }
  std::string_view Family() const override { return "DET"; }
  std::string_view Description() const override {
    return "nondeterministic or platform-dependent randomness source "
           "(use util::Xoshiro256 / util::SplitMix64)";
  }
  void Check(const SourceFile& file, const AnalyzerConfig&,
             std::vector<Finding>& out) const override {
    static const std::set<std::string> kBanned = {
        "random_device", "rand",   "srand",          "rand_r",
        "drand48",       "lrand48", "random_shuffle",
        // libstdc++/libc++ disagree on distribution algorithms, so a
        // std::*_distribution breaks cross-platform bitwise goldens even
        // under a deterministic engine.
        "uniform_int_distribution", "uniform_real_distribution",
        "normal_distribution", "poisson_distribution",
        "bernoulli_distribution", "exponential_distribution",
        "discrete_distribution"};
    const std::string& code = file.code();
    ForEachIdent(code, 0, code.size(), [&](std::size_t b, std::size_t e) {
      const std::string ident = code.substr(b, e - b);
      if (kBanned.count(ident) == 0) return;
      out.push_back({std::string(Id()), file.path(), file.LineOf(b),
                     "'" + ident + "' is a nondeterminism source; derive all "
                     "randomness from the seeded util:: RNGs"});
    });
  }
};

class DetTimeRule final : public Rule {
 public:
  std::string_view Id() const override { return "DET-TIME"; }
  std::string_view Family() const override { return "DET"; }
  std::string_view Description() const override {
    return "wall-clock time source feeding logic (only the report's "
           "'timing' section may observe the clock, via steady_clock)";
  }
  void Check(const SourceFile& file, const AnalyzerConfig&,
             std::vector<Finding>& out) const override {
    static const std::set<std::string> kBanned = {
        "system_clock", "gettimeofday", "clock_gettime", "localtime",
        "gmtime",       "asctime",      "ctime",         "strftime",
        "high_resolution_clock"};
    const std::string& code = file.code();
    ForEachIdent(code, 0, code.size(), [&](std::size_t b, std::size_t e) {
      const std::string ident = code.substr(b, e - b);
      if (kBanned.count(ident) == 0) return;
      out.push_back({std::string(Id()), file.path(), file.LineOf(b),
                     "'" + ident + "' reads the wall clock; deterministic "
                     "sections must not depend on it"});
    });
  }
};

class DetUnorderedRule final : public Rule {
 public:
  std::string_view Id() const override { return "DET-UNORD"; }
  std::string_view Family() const override { return "DET"; }
  std::string_view Description() const override {
    return "unordered container in a telemetry/report/golden output path "
           "(iteration order is unspecified; use std::map / std::set or a "
           "sorted vector)";
  }
  void Check(const SourceFile& file, const AnalyzerConfig& config,
             std::vector<Finding>& out) const override {
    bool report_path = HasPathPrefix(file.path(), config.report_path_prefixes);
    if (!report_path) {
      for (const auto& inc : file.includes()) {
        for (const auto& hdr : config.report_writer_headers)
          report_path |= inc.path == hdr;
      }
    }
    if (!report_path) return;
    static const std::set<std::string> kBanned = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    const std::string& code = file.code();
    ForEachIdent(code, 0, code.size(), [&](std::size_t b, std::size_t e) {
      const std::string ident = code.substr(b, e - b);
      if (kBanned.count(ident) == 0) return;
      if (FollowedByParen(code, e)) return;  // include guard-ish macros
      out.push_back({std::string(Id()), file.path(), file.LineOf(b),
                     "'" + ident + "' in a report-writing file: iteration "
                     "order is unspecified and would leak into the "
                     "byte-identical report contract"});
    });
  }
};

// ------------------------------------------------------------ HOT rules

bool IsHotFunction(const SourceFile& file, const FunctionDef& fn,
                   const AnalyzerConfig& config) {
  if (fn.params.find(config.hot_param_marker) != std::string::npos)
    return true;
  if (!HasPathPrefix(file.path(), config.hot_file_prefixes)) return false;
  return config.hot_function_names.count(fn.name) != 0;
}

class HotAllocRule final : public Rule {
 public:
  std::string_view Id() const override { return "HOT-ALLOC"; }
  std::string_view Family() const override { return "HOT"; }
  std::string_view Description() const override {
    return "direct heap allocation inside an allocation-free decode path";
  }
  void Check(const SourceFile& file, const AnalyzerConfig& config,
             std::vector<Finding>& out) const override {
    static const std::set<std::string> kAlloc = {
        "new",  "malloc",      "calloc",      "realloc",
        "free", "make_unique", "make_shared", "strdup"};
    const std::string& code = file.code();
    for (const auto& fn : file.functions()) {
      if (!IsHotFunction(file, fn, config)) continue;
      ForEachIdent(code, fn.body_begin, fn.body_end,
                   [&](std::size_t b, std::size_t e) {
                     const std::string ident = code.substr(b, e - b);
                     if (kAlloc.count(ident) == 0) return;
                     out.push_back(
                         {std::string(Id()), file.path(), file.LineOf(b),
                          "'" + ident + "' inside hot function '" + fn.name +
                              "' — the decode path must stay allocation-free "
                              "(rs::DecodeScratch contract)"});
                   });
    }
  }
};

class HotLocalRule final : public Rule {
 public:
  std::string_view Id() const override { return "HOT-LOCAL"; }
  std::string_view Family() const override { return "HOT"; }
  std::string_view Description() const override {
    return "allocating local container constructed per call in a decode "
           "path (thread a DecodeScratch through instead)";
  }
  void Check(const SourceFile& file, const AnalyzerConfig& config,
             std::vector<Finding>& out) const override {
    static const std::set<std::string> kTypes = {
        "vector", "string",        "map",     "set",   "deque",
        "list",   "DecodeScratch", "Poly",    "BitVec"};
    const std::string& code = file.code();
    for (const auto& fn : file.functions()) {
      if (!IsHotFunction(file, fn, config)) continue;
      ForEachIdent(code, fn.body_begin, fn.body_end,
                   [&](std::size_t b, std::size_t e) {
        const std::string ident = code.substr(b, e - b);
        if (kTypes.count(ident) == 0) return;
        std::size_t p = SkipTemplateArgs(code, e);
        while (p < code.size() && IsSpace(code[p])) ++p;
        if (p >= code.size()) return;
        // A declaration (`vector<..> name`) or a temporary (`vector<..>(`)
        // allocates; a reference/pointer binding does not.
        const bool declares = IsIdentChar(code[p]) || (code[p] == '(' && p != e);
        if (!declares || code[p] == '&' || code[p] == '*') return;
        if (IsIdentChar(code[p])) {
          std::size_t q = p;
          while (q < code.size() && IsIdentChar(code[q])) ++q;
          // `Poly` used as a nested template arg was already skipped by
          // SkipTemplateArgs; `vector` followed by `::` is a type access.
          if (q + 1 < code.size() && code[q] == ':' && code[q + 1] == ':')
            return;
        }
        out.push_back({std::string(Id()), file.path(), file.LineOf(b),
                       "local '" + ident + "' constructed inside hot "
                       "function '" + fn.name + "' allocates per call"});
      });
    }
  }
};

class HotColdApiRule final : public Rule {
 public:
  std::string_view Id() const override { return "HOT-COLDAPI"; }
  std::string_view Family() const override { return "HOT"; }
  std::string_view Description() const override {
    return "call to an allocating convenience codec API from a decode "
           "path (use the *Into / scratch overloads)";
  }
  void Check(const SourceFile& file, const AnalyzerConfig& config,
             std::vector<Finding>& out) const override {
    const std::string& code = file.code();
    for (const auto& fn : file.functions()) {
      if (!IsHotFunction(file, fn, config)) continue;
      ForEachIdent(code, fn.body_begin, fn.body_end,
                   [&](std::size_t b, std::size_t e) {
                     const std::string ident = code.substr(b, e - b);
                     if (config.hot_banned_calls.count(ident) == 0) return;
                     if (!FollowedByParen(code, e)) return;
                     out.push_back(
                         {std::string(Id()), file.path(), file.LineOf(b),
                          "'" + ident + "(...)' allocates its result; hot "
                          "function '" + fn.name +
                              "' must use the span-out *Into or scratch "
                              "overload"});
                   });
    }
  }
};

// ------------------------------------------------------------ LAY rule

class LayeringRule final : public Rule {
 public:
  std::string_view Id() const override { return "LAY-UPWARD"; }
  std::string_view Family() const override { return "LAY"; }
  std::string_view Description() const override {
    return "include that points upward in the module layering DAG";
  }
  void Check(const SourceFile& file, const AnalyzerConfig& config,
             std::vector<Finding>& out) const override {
    if (config.app_dirs.count(file.TopDir()) != 0) return;
    const std::string module = file.Module();
    if (module.empty()) return;
    const auto deps = config.layer_deps.find(module);
    if (deps == config.layer_deps.end()) {
      out.push_back({"LAY-UNKNOWN", file.path(), 1,
                     "module '" + module + "' is not in the layering DAG; "
                     "add it to AnalyzerConfig::Default() (and the catalog "
                     "in docs/CORRECTNESS.md)"});
      return;
    }
    const std::set<std::string> allowed = Closure(config, module);
    for (const auto& inc : file.includes()) {
      if (inc.angled) continue;
      const auto slash = inc.path.find('/');
      if (slash == std::string::npos) continue;
      const std::string target = inc.path.substr(0, slash);
      if (target == module || allowed.count(target) != 0) continue;
      if (config.layer_deps.count(target) == 0) {
        out.push_back({"LAY-UNKNOWN", file.path(), inc.line,
                       "include of '" + inc.path + "': module '" + target +
                           "' is not in the layering DAG"});
        continue;
      }
      out.push_back({std::string(Id()), file.path(), inc.line,
                     "module '" + module + "' must not include '" + inc.path +
                         "' — '" + target +
                         "' is not among its allowed dependencies"});
    }
  }

 private:
  static std::set<std::string> Closure(const AnalyzerConfig& config,
                                       const std::string& module) {
    std::set<std::string> seen;
    std::vector<std::string> stack = {module};
    while (!stack.empty()) {
      const std::string m = stack.back();
      stack.pop_back();
      const auto it = config.layer_deps.find(m);
      if (it == config.layer_deps.end()) continue;
      for (const auto& dep : it->second)
        if (seen.insert(dep).second) stack.push_back(dep);
    }
    return seen;
  }
};

// ------------------------------------------------------------ CON rule

class ContractSpanRule final : public Rule {
 public:
  std::string_view Id() const override { return "CON-SPAN"; }
  std::string_view Family() const override { return "CON"; }
  std::string_view Description() const override {
    return "span-taking function definition without a PAIR_CHECK / "
           "PAIR_DCHECK entry contract";
  }
  void Check(const SourceFile& file, const AnalyzerConfig& config,
             std::vector<Finding>& out) const override {
    if (!HasPathPrefix(file.path(), config.contract_prefixes)) return;
    const std::string& code = file.code();
    for (const auto& fn : file.functions()) {
      if (fn.params.find("span<") == std::string::npos) continue;
      bool has_check = false;
      ForEachIdent(code, fn.body_begin, fn.body_end,
                   [&](std::size_t b, std::size_t e) {
                     const std::string ident = code.substr(b, e - b);
                     has_check |= ident == "PAIR_CHECK" ||
                                  ident == "PAIR_CHECK_RANGE" ||
                                  ident == "PAIR_DCHECK";
                   });
      if (has_check) continue;
      out.push_back({std::string(Id()), file.path(), fn.line,
                     "'" + fn.qualified + "' takes a span but its body has "
                     "no PAIR_CHECK/PAIR_DCHECK — validate extents on entry "
                     "(or suppress with the delegation it relies on)"});
    }
  }
};

// ------------------------------------------------------------ THR rule

class ThreadStaticRule final : public Rule {
 public:
  std::string_view Id() const override { return "THR-STATIC"; }
  std::string_view Family() const override { return "THR"; }
  std::string_view Description() const override {
    return "mutable static storage — shared state reachable from "
           "TrialEngine shards (the tsan race surface)";
  }
  void Check(const SourceFile& file, const AnalyzerConfig&,
             std::vector<Finding>& out) const override {
    const std::string& code = file.code();
    ForEachIdent(code, 0, code.size(), [&](std::size_t b, std::size_t e) {
      if (code.substr(b, e - b) != "static") return;
      // Classify by the tokens between `static` and the first structural
      // delimiter: a '(' before '=' / ';' / '{' means a function; const,
      // constexpr or constinit outside template arguments means immutable
      // (`std::map<K, const T*>` is a mutable map).
      bool is_const = false;
      bool is_function = false;
      std::size_t i = e;
      int angle_depth = 0;
      while (i < code.size()) {
        const char c = code[i];
        if (c == '<') ++angle_depth;
        if (c == '>' && angle_depth > 0) --angle_depth;
        if (angle_depth == 0 && (c == ';' || c == '=' || c == '{')) break;
        if (angle_depth == 0 && c == '(') {
          is_function = true;
          break;
        }
        if (IsIdentChar(c) && (i == 0 || !IsIdentChar(code[i - 1]))) {
          std::size_t j = i;
          while (j < code.size() && IsIdentChar(code[j])) ++j;
          const std::string tok = code.substr(i, j - i);
          if (angle_depth == 0 &&
              (tok == "const" || tok == "constexpr" || tok == "constinit"))
            is_const = true;
          if (tok == "assert" || tok == "cast") is_function = true;
          i = j;
          continue;
        }
        ++i;
      }
      if (is_const || is_function) return;
      const bool in_function = std::any_of(
          file.functions().begin(), file.functions().end(),
          [&](const FunctionDef& fn) {
            return b >= fn.body_begin && b < fn.body_end;
          });
      out.push_back(
          {std::string(Id()), file.path(), file.LineOf(b),
           std::string(in_function ? "function-local static"
                                   : "static-storage variable") +
               " without const/constexpr: mutable state shared across "
               "TrialEngine shards must be per-instance or lock-protected"});
    });
  }
};

// ----------------------------------------------------- CON-ATOMIC rule

class ContractAtomicWriteRule final : public Rule {
 public:
  std::string_view Id() const override { return "CON-ATOMIC"; }
  std::string_view Family() const override { return "CON"; }
  std::string_view Description() const override {
    return "raw std::ofstream on a JSON report/checkpoint path — use "
           "util::AtomicWriteFile so a crash mid-write never leaves a "
           "torn artifact";
  }
  void Check(const SourceFile& file, const AnalyzerConfig& config,
             std::vector<Finding>& out) const override {
    if (!HasPathPrefix(file.path(), config.atomic_write_prefixes)) return;
    if (config.atomic_write_exempt.count(file.path()) != 0) return;
    const std::string& code = file.code();
    ForEachIdent(code, 0, code.size(), [&](std::size_t b, std::size_t e) {
      if (code.substr(b, e - b) != "ofstream") return;
      // Scope the JSON-ness test to the enclosing function when the scanner
      // recognised one; fall back to the whole file for free code.
      std::size_t begin = 0, end = code.size();
      for (const FunctionDef& fn : file.functions()) {
        if (b >= fn.body_begin && b < fn.body_end) {
          begin = fn.body_begin;
          end = fn.body_end;
          break;
        }
      }
      bool mentions_json = false;
      ForEachIdent(code, begin, end, [&](std::size_t ib, std::size_t ie) {
        std::string ident = code.substr(ib, ie - ib);
        std::transform(ident.begin(), ident.end(), ident.begin(),
                       [](unsigned char c) {
                         return static_cast<char>(std::tolower(c));
                       });
        mentions_json |= ident.find("json") != std::string::npos;
      });
      if (!mentions_json) return;
      out.push_back(
          {std::string(Id()), file.path(), file.LineOf(b),
           "std::ofstream opened where a JSON artifact is written; "
           "report/checkpoint files must go through util::AtomicWriteFile "
           "(write-temp, fsync, rename) so readers and crashes never "
           "observe a torn file"});
    });
  }
};

// --------------------------------------------------- suppression parsing

constexpr std::string_view kAllowMarker = "PAIR_ANALYZE_ALLOW(";

bool IsRuleIdChar(char c) {
  return (std::isupper(static_cast<unsigned char>(c)) != 0) ||
         (std::isdigit(static_cast<unsigned char>(c)) != 0) || c == '-';
}

void ParseSuppressions(const std::string& text,
                       const std::vector<CommentRange>& comments,
                       const SourceFile& file,
                       std::vector<Suppression>& out) {
  for (const auto& range : comments) {
    std::size_t pos = range.begin;
    while (true) {
      pos = text.find(kAllowMarker, pos);
      if (pos == std::string::npos || pos >= range.end) break;
      const std::size_t inner = pos + kAllowMarker.size();
      std::size_t p = inner;
      while (p < range.end && IsRuleIdChar(text[p])) ++p;
      const std::string rule = text.substr(inner, p - inner);
      Suppression s;
      s.line = file.LineOf(pos);
      // Only uppercase-rule-shaped content is treated as a (possibly
      // malformed) suppression; anything else is prose about the marker.
      if (rule.empty() ||
          std::isupper(static_cast<unsigned char>(rule[0])) == 0) {
        pos = inner;
        continue;
      }
      std::size_t q = p;
      while (q < range.end && IsSpace(text[q])) ++q;
      if (q < range.end && text[q] == ':') {
        ++q;
        const std::size_t close = text.find(')', q);
        if (close != std::string::npos && close < range.end) {
          std::string reason = text.substr(q, close - q);
          // Trim.
          const auto first = reason.find_first_not_of(" \t");
          const auto last = reason.find_last_not_of(" \t");
          reason = first == std::string::npos
                       ? ""
                       : reason.substr(first, last - first + 1);
          if (!reason.empty()) {
            s.rule = rule;
            s.reason = reason;
            out.push_back(std::move(s));
            pos = close;
            continue;
          }
        }
      }
      // Rule-shaped but missing ": reason" — keep as malformed (rule left
      // empty) so the analyzer can flag it.
      out.push_back(std::move(s));
      pos = inner;
    }
  }
}

}  // namespace

// ------------------------------------------------------------ SourceFile

SourceFile SourceFile::FromString(std::string path, std::string text) {
  SourceFile f;
  f.path_ = std::move(path);
  f.text_ = std::move(text);
  f.line_offsets_.push_back(0);
  for (std::size_t i = 0; i < f.text_.size(); ++i)
    if (f.text_[i] == '\n') f.line_offsets_.push_back(i + 1);

  std::vector<CommentRange> comments;
  f.code_ = BlankNonCode(f.text_, comments);

  // Include directives (from raw text; the string contents are blanked in
  // code_).
  std::size_t line_no = 1;
  std::size_t start = 0;
  while (start <= f.text_.size()) {
    std::size_t nl = f.text_.find('\n', start);
    if (nl == std::string::npos) nl = f.text_.size();
    std::string_view line(f.text_.data() + start, nl - start);
    std::size_t i = 0;
    while (i < line.size() && IsSpace(line[i])) ++i;
    if (i < line.size() && line[i] == '#') {
      ++i;
      while (i < line.size() && IsSpace(line[i])) ++i;
      if (line.compare(i, 7, "include") == 0) {
        i += 7;
        while (i < line.size() && IsSpace(line[i])) ++i;
        if (i < line.size() && (line[i] == '"' || line[i] == '<')) {
          const char closer = line[i] == '"' ? '"' : '>';
          const std::size_t close = line.find(closer, i + 1);
          if (close != std::string::npos) {
            IncludeDirective inc;
            inc.line = static_cast<unsigned>(line_no);
            inc.path = std::string(line.substr(i + 1, close - i - 1));
            inc.angled = closer == '>';
            f.includes_.push_back(std::move(inc));
          }
        }
      }
    }
    ++line_no;
    if (nl == f.text_.size()) break;
    start = nl + 1;
  }

  ScanFunctions(f, f.code_, f.functions_);
  ParseSuppressions(f.text_, comments, f, f.suppressions_);
  return f;
}

SourceFile SourceFile::Load(const std::string& fs_path, std::string rel_path) {
  std::ifstream in(fs_path, std::ios::binary);
  if (!in) throw std::runtime_error("pair_analyze: cannot read " + fs_path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return FromString(std::move(rel_path), buf.str());
}

std::string SourceFile::TopDir() const {
  const auto slash = path_.find('/');
  return slash == std::string::npos ? std::string() : path_.substr(0, slash);
}

std::string SourceFile::Module() const {
  if (TopDir() != "src") return "";
  const auto first = path_.find('/');
  const auto second = path_.find('/', first + 1);
  if (second == std::string::npos) return "";
  return path_.substr(first + 1, second - first - 1);
}

unsigned SourceFile::LineOf(std::size_t offset) const {
  const auto it = std::upper_bound(line_offsets_.begin(), line_offsets_.end(),
                                   offset);
  return static_cast<unsigned>(it - line_offsets_.begin());
}

std::string_view SourceFile::LineText(unsigned line) const {
  if (line == 0 || line > line_offsets_.size()) return {};
  const std::size_t begin = line_offsets_[line - 1];
  std::size_t end = line < line_offsets_.size() ? line_offsets_[line] - 1
                                                : text_.size();
  if (end > begin && text_[end - 1] == '\r') --end;
  return std::string_view(text_).substr(begin, end - begin);
}

// ---------------------------------------------------------------- config

AnalyzerConfig AnalyzerConfig::Default() {
  AnalyzerConfig c;
  // Derived from the CMake link graph (src/*/CMakeLists.txt) — the
  // transitive closure is taken, so listing direct dependencies is enough.
  // This is the DAG refinement of the coarse ordering
  //   util < gf/hamming < rs < ecc < core < faults/dram/timing
  //        < reliability/workload < sim,
  // with telemetry as a util-level leaf library that the layers above
  // reliability write reports through.
  c.layer_deps = {
      {"util", {}},
      {"telemetry", {"util"}},
      {"gf", {"util"}},
      {"hamming", {"util"}},
      {"rs", {"gf", "util"}},
      {"dram", {"util"}},
      {"faults", {"dram", "util"}},
      {"ecc", {"rs", "hamming", "dram", "util"}},
      {"core", {"ecc", "rs", "util"}},
      {"timing", {"ecc", "util"}},
      {"workload", {"dram", "timing", "util"}},
      {"reliability", {"core", "faults", "telemetry", "util"}},
      {"sim", {"reliability", "timing", "telemetry", "util"}},
  };
  c.report_path_prefixes = {"src/telemetry/", "src/reliability/", "src/sim/",
                            "bench/", "tools/"};
  c.report_writer_headers = {"telemetry/report.hpp", "telemetry/json.hpp",
                             "telemetry/metrics.hpp", "util/table.hpp"};
  c.hot_file_prefixes = {"src/rs/", "src/gf/"};
  c.hot_function_names = {
      "Decode",        "IsCodeword", "SyndromesInto",
      "ComputeParityInto", "ParityDeltaInto", "Eval", "Normalize",
      "Degree",        "AddInPlace", "Mul",  "Div", "Inv", "Add",
      "AlphaPow",      "Log",
      // Batch codec data path: the RS span-of-lines entry points and the
      // per-kernel GF batch primitives (scalar oracle + each vectorized
      // variant) are as hot as the per-line codec they feed.
      "EncodeBatchInto",          "SyndromesBatchInto",
      "ScalarMulInto",            "ScalarMulAddInto",
      "ScalarSyndromeAccumulate", "PclmulMulInto",
      "PclmulMulAddInto",         "PclmulSyndromeAccumulate",
      "Avx2MulInto",              "Avx2MulAddInto",
      "Avx2SyndromeAccumulate",   "GfniMulInto",
      "GfniMulAddInto",           "GfniSyndromeAccumulate"};
  c.hot_banned_calls = {"Encode", "ComputeParity", "ParityDelta", "Syndromes"};
  c.contract_prefixes = {"src/"};
  c.atomic_write_prefixes = {"src/", "tools/"};
  c.atomic_write_exempt = {"src/util/atomic_file.hpp"};
  return c;
}

// -------------------------------------------------------------- analyzer

Analyzer& Analyzer::AddRule(std::unique_ptr<Rule> rule) {
  rules_.push_back(std::move(rule));
  return *this;
}

Analyzer Analyzer::WithDefaultRules(AnalyzerConfig config) {
  Analyzer a(std::move(config));
  a.AddRule(std::make_unique<DetRandRule>());
  a.AddRule(std::make_unique<DetTimeRule>());
  a.AddRule(std::make_unique<DetUnorderedRule>());
  a.AddRule(std::make_unique<HotAllocRule>());
  a.AddRule(std::make_unique<HotLocalRule>());
  a.AddRule(std::make_unique<HotColdApiRule>());
  a.AddRule(std::make_unique<LayeringRule>());
  a.AddRule(std::make_unique<ContractSpanRule>());
  a.AddRule(std::make_unique<ContractAtomicWriteRule>());
  a.AddRule(std::make_unique<ThreadStaticRule>());
  return a;
}

AnalysisResult Analyzer::Run(const std::vector<SourceFile>& files) const {
  AnalysisResult result;
  for (const SourceFile& file : files) {
    ++result.files_scanned;
    result.functions_scanned += file.functions().size();

    std::vector<Finding> raw;
    for (const auto& rule : rules_) rule->Check(file, config_, raw);

    // Suppressions: a PAIR_ANALYZE_ALLOW(rule: reason) discharges findings
    // of that rule on its own line or the line directly below. ANA-*
    // hygiene findings are not suppressible.
    for (Finding& finding : raw) {
      bool suppressed = false;
      for (const Suppression& s : file.suppressions()) {
        if (s.rule.empty() || s.rule != finding.rule) continue;
        if (finding.line == s.line || finding.line == s.line + 1) {
          s.used = true;
          suppressed = true;
        }
      }
      (suppressed ? result.suppressed : result.findings)
          .push_back(std::move(finding));
    }

    for (const Suppression& s : file.suppressions()) {
      if (s.rule.empty()) {
        result.findings.push_back(
            {"ANA-BAD-ALLOW", file.path(), s.line,
             "malformed PAIR_ANALYZE_ALLOW: want (RULE-ID: reason) with a "
             "nonempty reason"});
      } else if (!s.used) {
        result.findings.push_back(
            {"ANA-UNUSED-ALLOW", file.path(), s.line,
             "suppression for '" + s.rule + "' matched no finding — stale "
             "after a fix? remove it"});
      }
    }
  }

  const auto order = [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  };
  std::sort(result.findings.begin(), result.findings.end(), order);
  std::sort(result.suppressed.begin(), result.suppressed.end(), order);
  return result;
}

std::vector<SourceFile> LoadSourceTree(const std::string& repo_root,
                                       const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, fs::path>> discovered;  // rel, abs
  for (const std::string& root : roots) {
    const fs::path base = fs::path(repo_root) / root;
    if (!fs::exists(base))
      throw std::runtime_error("pair_analyze: no such root: " + base.string());
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
      std::string rel =
          fs::relative(entry.path(), fs::path(repo_root)).generic_string();
      discovered.emplace_back(std::move(rel), entry.path());
    }
  }
  std::sort(discovered.begin(), discovered.end());
  std::vector<SourceFile> out;
  out.reserve(discovered.size());
  for (auto& [rel, abs] : discovered)
    out.push_back(SourceFile::Load(abs.string(), rel));
  return out;
}

// ----------------------------------------------------- report & baseline

telemetry::JsonValue ResultToReport(const AnalysisResult& result) {
  telemetry::Report report("pair_analyze");
  report.MetaInt("files_scanned",
                 static_cast<std::int64_t>(result.files_scanned));
  report.MetaInt("functions_scanned",
                 static_cast<std::int64_t>(result.functions_scanned));

  report.counters().Add("findings_total", result.findings.size());
  report.counters().Add("suppressed_total", result.suppressed.size());
  std::map<std::string, std::uint64_t> by_family;
  for (const Finding& f : result.findings) {
    const auto dash = f.rule.find('-');
    by_family[f.rule.substr(0, dash)] += 1;
  }
  for (const auto& [family, count] : by_family)
    report.counters().Add("findings_" + family, count);

  const auto table_of = [](const std::vector<Finding>& findings) {
    util::Table t({"rule", "file", "line", "message"});
    for (const Finding& f : findings)
      t.AddRow({f.rule, f.file, std::to_string(f.line), f.message});
    return t;
  };
  report.AddTable("findings", table_of(result.findings));
  report.AddTable("suppressed", table_of(result.suppressed));
  return report.ToJson(/*include_timing=*/false);
}

std::map<std::pair<std::string, std::string>, std::uint64_t> FindingCounts(
    const std::vector<Finding>& findings) {
  std::map<std::pair<std::string, std::string>, std::uint64_t> counts;
  for (const Finding& f : findings) ++counts[{f.rule, f.file}];
  return counts;
}

std::map<std::pair<std::string, std::string>, std::uint64_t>
BaselineFromReport(const telemetry::JsonValue& report) {
  std::map<std::pair<std::string, std::string>, std::uint64_t> counts;
  const telemetry::JsonValue* tables = report.Find("tables");
  if (tables == nullptr)
    throw std::runtime_error("baseline: report has no tables section");
  const telemetry::JsonValue* findings = tables->Find("findings");
  if (findings == nullptr)
    throw std::runtime_error("baseline: report has no findings table");
  const telemetry::JsonValue* columns = findings->Find("columns");
  const telemetry::JsonValue* rows = findings->Find("rows");
  if (columns == nullptr || rows == nullptr)
    throw std::runtime_error("baseline: findings table malformed");
  int rule_col = -1;
  int file_col = -1;
  const auto& cols = columns->AsArray();
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (cols[i].AsString() == "rule") rule_col = static_cast<int>(i);
    if (cols[i].AsString() == "file") file_col = static_cast<int>(i);
  }
  if (rule_col < 0 || file_col < 0)
    throw std::runtime_error("baseline: findings table lacks rule/file");
  for (const auto& row : rows->AsArray()) {
    const auto& cells = row.AsArray();
    ++counts[{cells[static_cast<std::size_t>(rule_col)].AsString(),
              cells[static_cast<std::size_t>(file_col)].AsString()}];
  }
  return counts;
}

std::vector<Finding> NewFindings(
    const std::vector<Finding>& findings,
    const std::map<std::pair<std::string, std::string>, std::uint64_t>&
        baseline) {
  std::map<std::pair<std::string, std::string>, std::uint64_t> seen;
  std::vector<Finding> fresh;
  for (const Finding& f : findings) {
    const auto key = std::make_pair(f.rule, f.file);
    const std::uint64_t index = seen[key]++;
    const auto it = baseline.find(key);
    const std::uint64_t allowance = it == baseline.end() ? 0 : it->second;
    if (index >= allowance) fresh.push_back(f);
  }
  return fresh;
}

}  // namespace pair_ecc::analyze
