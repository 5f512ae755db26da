// Fuzz harness for telemetry::JsonValue::Parse, the reader behind every
// checkpoint, merge and bench_diff input. A checkpoint is parsed whole
// before its CRC is checked, so a corrupt file reaches the parser as is.
//
// The input is the document text. Properties:
//
//   JP 1. Parse returns a value or throws std::runtime_error; it never
//         crashes, overflows the stack or trips a sanitizer.
//   JP 2. A parsed value re-parses from its own Dump() to an equal value.
//         Numbers compare by value: the writer renders a double with an
//         integral value without a fraction ("1", "-0"), so it reads back
//         as an integer (json.hpp). A parsed number is always finite, so
//         the writer's non-finite-to-null rule never applies.
//
// Two build modes (tools/CMakeLists.txt): with PAIR_BUILD_FUZZERS=ON under
// Clang this is a libFuzzer target; otherwise PAIR_FUZZ_STANDALONE adds a
// main() that replays corpus files (tests/data/json_fuzz_corpus/) as a
// plain ctest regression on any toolchain.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "telemetry/json.hpp"

namespace {

using pair_ecc::telemetry::JsonValue;

// JP 2's equality: JsonValue's own, except that numbers compare by value.
bool SameDocument(const JsonValue& a, const JsonValue& b) {
  if (a.IsNumber() && b.IsNumber()) {
    if (a.kind() == JsonValue::Kind::kInt && b.kind() == JsonValue::Kind::kInt)
      return a.AsInt() == b.AsInt();
    return a.AsReal() == b.AsReal();
  }
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case JsonValue::Kind::kArray: {
      const JsonValue::Array& x = a.AsArray();
      const JsonValue::Array& y = b.AsArray();
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i)
        if (!SameDocument(x[i], y[i])) return false;
      return true;
    }
    case JsonValue::Kind::kObject: {
      const JsonValue::Object& x = a.AsObject();
      const JsonValue::Object& y = b.AsObject();
      if (x.size() != y.size()) return false;
      for (std::size_t i = 0; i < x.size(); ++i)
        if (x[i].first != y[i].first || !SameDocument(x[i].second, y[i].second))
          return false;
      return true;
    }
    default:
      return a == b;
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  JsonValue parsed;
  try {
    parsed = JsonValue::Parse(text);  // JP 1
  } catch (const std::runtime_error&) {
    return 0;
  }
  // JP 2: the writer's output is a document the parser takes back.
  if (!SameDocument(JsonValue::Parse(parsed.Dump()), parsed)) __builtin_trap();
  return 0;
}

#ifdef PAIR_FUZZ_STANDALONE
// Corpus replay mode: run each file given on the command line through the
// harness once. A property violation traps (nonzero exit), so ctest can
// gate on the committed seed corpus with any toolchain.
#include <cstdio>
#include <fstream>
#include <iterator>
#include <vector>

int main(int argc, char** argv) {
  unsigned replayed = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "fuzz_json: cannot read %s\n", argv[i]);
      return 2;
    }
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                           bytes.size());
    ++replayed;
  }
  std::printf("fuzz_json: replayed %u corpus file(s)\n", replayed);
  return 0;
}
#endif
