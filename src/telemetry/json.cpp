#include "telemetry/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace pair_ecc::telemetry {

namespace {

[[noreturn]] void KindError(const char* want, JsonValue::Kind got) {
  throw std::runtime_error(std::string("JsonValue: expected ") + want +
                           ", held kind " +
                           std::to_string(static_cast<int>(got)));
}

}  // namespace

bool JsonValue::AsBool() const {
  if (const auto* b = std::get_if<bool>(&value_)) return *b;
  KindError("bool", kind());
}

std::int64_t JsonValue::AsInt() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  KindError("int", kind());
}

double JsonValue::AsReal() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_))
    return static_cast<double>(*i);
  if (const auto* d = std::get_if<double>(&value_)) return *d;
  KindError("number", kind());
}

const std::string& JsonValue::AsString() const {
  if (const auto* s = std::get_if<std::string>(&value_)) return *s;
  KindError("string", kind());
}

const JsonValue::Array& JsonValue::AsArray() const {
  if (const auto* a = std::get_if<Array>(&value_)) return *a;
  KindError("array", kind());
}

JsonValue::Array& JsonValue::AsArray() {
  if (auto* a = std::get_if<Array>(&value_)) return *a;
  KindError("array", kind());
}

const JsonValue::Object& JsonValue::AsObject() const {
  if (const auto* o = std::get_if<Object>(&value_)) return *o;
  KindError("object", kind());
}

JsonValue::Object& JsonValue::AsObject() {
  if (auto* o = std::get_if<Object>(&value_)) return *o;
  KindError("object", kind());
}

JsonValue& JsonValue::Set(std::string_view key, JsonValue value) {
  Object& obj = AsObject();
  for (auto& [k, v] : obj) {
    if (k == key) {
      v = std::move(value);
      return v;
    }
  }
  obj.emplace_back(std::string(key), std::move(value));
  return obj.back().second;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  const Object& obj = AsObject();
  for (const auto& [k, v] : obj)
    if (k == key) return &v;
  return nullptr;
}

void JsonValue::Append(JsonValue value) {
  AsArray().push_back(std::move(value));
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

std::string FormatJsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

namespace {

/// Length of the well-formed UTF-8 sequence that starts at byte `i` of
/// `s`, or 0 when none does: overlong forms, surrogates (ED A0..BF), code
/// points above U+10FFFF and truncated sequences are not UTF-8.
std::size_t Utf8Length(std::string_view s, std::size_t i) {
  const auto lead = static_cast<unsigned char>(s[i]);
  if (lead < 0x80) return 1;
  std::size_t len = 0;
  unsigned lo = 0x80, hi = 0xBF;  // the second byte's range
  if (lead >= 0xC2 && lead <= 0xDF) {
    len = 2;
  } else if (lead >= 0xE0 && lead <= 0xEF) {
    len = 3;
    if (lead == 0xE0) lo = 0xA0;
    if (lead == 0xED) hi = 0x9F;
  } else if (lead >= 0xF0 && lead <= 0xF4) {
    len = 4;
    if (lead == 0xF0) lo = 0x90;
    if (lead == 0xF4) hi = 0x8F;
  } else {
    return 0;
  }
  if (i + len > s.size()) return 0;
  for (std::size_t j = 1; j < len; ++j) {
    const auto b = static_cast<unsigned char>(s[i + j]);
    if (b < (j == 1 ? lo : 0x80) || b > (j == 1 ? hi : 0xBF)) return 0;
  }
  return len;
}

/// Writes `s` as a JSON string. Throws std::runtime_error when `s` is not
/// UTF-8, which Parse would refuse.
void WriteString(std::ostream& os, const std::string& s) {
  for (std::size_t i = 0; i < s.size();) {
    const std::size_t len = Utf8Length(s, i);
    if (len == 0)
      throw std::runtime_error("JSON string is not UTF-8 at byte " +
                               std::to_string(i));
    i += len;
  }
  os << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"':  os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\b': os << "\\b"; break;
      case '\f': os << "\\f"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

void Indent(std::ostream& os, int depth) {
  for (int i = 0; i < depth * 2; ++i) os << ' ';
}

}  // namespace

void JsonValue::WriteIndented(std::ostream& os, int depth) const {
  switch (kind()) {
    case Kind::kNull:
      os << "null";
      break;
    case Kind::kBool:
      os << (std::get<bool>(value_) ? "true" : "false");
      break;
    case Kind::kInt:
      os << std::get<std::int64_t>(value_);
      break;
    case Kind::kReal:
      os << FormatJsonNumber(std::get<double>(value_));
      break;
    case Kind::kString:
      WriteString(os, std::get<std::string>(value_));
      break;
    case Kind::kArray: {
      const Array& a = std::get<Array>(value_);
      if (a.empty()) {
        os << "[]";
        break;
      }
      os << "[\n";
      for (std::size_t i = 0; i < a.size(); ++i) {
        Indent(os, depth + 1);
        a[i].WriteIndented(os, depth + 1);
        if (i + 1 < a.size()) os << ',';
        os << '\n';
      }
      Indent(os, depth);
      os << ']';
      break;
    }
    case Kind::kObject: {
      const Object& o = std::get<Object>(value_);
      if (o.empty()) {
        os << "{}";
        break;
      }
      os << "{\n";
      for (std::size_t i = 0; i < o.size(); ++i) {
        Indent(os, depth + 1);
        WriteString(os, o[i].first);
        os << ": ";
        o[i].second.WriteIndented(os, depth + 1);
        if (i + 1 < o.size()) os << ',';
        os << '\n';
      }
      Indent(os, depth);
      os << '}';
      break;
    }
  }
}

void JsonValue::Write(std::ostream& os) const {
  WriteIndented(os, 0);
  os << '\n';
}

std::string JsonValue::Dump() const {
  std::ostringstream ss;
  Write(ss);
  return ss.str();
}

// ---------------------------------------------------------------------------
// Parser: recursive descent over a string_view with a byte cursor.
// ---------------------------------------------------------------------------

namespace {

// Containers nested deeper than this are refused instead of recursed into:
// the recursion would otherwise overflow the stack on a corrupt or hostile
// file. The deepest document the writer emits is a checkpoint, 6 levels
// (envelope, body, state, telemetry, injection, by_type), so the bound sits
// ten times above it.
constexpr unsigned kMaxJsonDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue ParseDocument() {
    JsonValue v = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char ch) {
    if (Peek() != ch) Fail(std::string("expected '") + ch + "'");
    ++pos_;
  }

  bool Consume(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue ParseValue() {
    SkipWhitespace();
    const char ch = Peek();
    switch (ch) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth)
          Fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
               " levels");
        ++depth_;
        JsonValue container = ch == '{' ? ParseObject() : ParseArray();
        --depth_;
        return container;
      }
      case '"': return JsonValue(ParseString());
      case 't':
        if (!Consume("true")) Fail("bad literal");
        return JsonValue(true);
      case 'f':
        if (!Consume("false")) Fail("bad literal");
        return JsonValue(false);
      case 'n':
        if (!Consume("null")) Fail("bad literal");
        return JsonValue();
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseObject() {
    Expect('{');
    JsonValue obj = JsonValue::MakeObject();
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      obj.AsObject().emplace_back(std::move(key), ParseValue());
      SkipWhitespace();
      const char next = Peek();
      ++pos_;
      if (next == '}') return obj;
      if (next != ',') Fail("expected ',' or '}' in object");
    }
  }

  JsonValue ParseArray() {
    Expect('[');
    JsonValue arr = JsonValue::MakeArray();
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.Append(ParseValue());
      SkipWhitespace();
      const char next = Peek();
      ++pos_;
      if (next == ']') return arr;
      if (next != ',') Fail("expected ',' or ']' in array");
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char ch = text_[pos_];
      if (static_cast<unsigned char>(ch) < 0x20)
        Fail("raw control character in string");
      if (ch != '"' && ch != '\\') {
        const std::size_t len = Utf8Length(text_, pos_);
        if (len == 0) Fail("invalid UTF-8 in string");
        out.append(text_.substr(pos_, len));
        pos_ += len;
        continue;
      }
      ++pos_;
      if (ch == '"') return out;
      if (pos_ >= text_.size()) Fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':  out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/':  out.push_back('/'); break;
        case 'b':  out.push_back('\b'); break;
        case 'f':  out.push_back('\f'); break;
        case 'n':  out.push_back('\n'); break;
        case 'r':  out.push_back('\r'); break;
        case 't':  out.push_back('\t'); break;
        case 'u': {
          unsigned code = ParseHex4();
          if (code >= 0xDC00 && code <= 0xDFFF)
            Fail("lone low surrogate in \\u escape");
          if (code >= 0xD800 && code <= 0xDBFF) {
            // A high surrogate must pair with a low one: one code point
            // past the BMP, four bytes of UTF-8.
            if (!Consume("\\u")) Fail("lone high surrogate in \\u escape");
            const unsigned low = ParseHex4();
            if (low < 0xDC00 || low > 0xDFFF)
              Fail("lone high surrogate in \\u escape");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          AppendUtf8(code, out);
          break;
        }
        default:
          Fail("unknown escape");
      }
    }
  }

  /// The four hex digits of a unicode escape, as a code unit.
  unsigned ParseHex4() {
    if (pos_ + 4 > text_.size()) Fail("short \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else Fail("bad hex digit in \\u escape");
    }
    return code;
  }

  /// Appends code point `code` (not a surrogate) as UTF-8.
  static void AppendUtf8(unsigned code, std::string& out) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  /// Digits at the cursor, consumed; returns how many.
  std::size_t ConsumeDigits() {
    const std::size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
      ++pos_;
    return pos_ - from;
  }

  /// JSON's number grammar, no more: -?(0|[1-9][0-9]*)(.[0-9]+)?
  /// ([eE][+-]?[0-9]+)?. A leading zero, a '.' without digits on both
  /// sides and an exponent without digits are refused.
  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    const std::size_t int_start = pos_;
    const std::size_t int_digits = ConsumeDigits();
    bool ok = int_digits == 1 || (int_digits > 1 && text_[int_start] != '0');
    bool is_real = false;
    if (ok && pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      is_real = true;
      ok = ConsumeDigits() > 0;
    }
    if (ok && pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      is_real = true;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      ok = ConsumeDigits() > 0;
    }
    if (!ok) {
      // Name the whole would-be number, offset at its first byte.
      std::size_t end = start;
      while (end < text_.size() &&
             std::string_view("0123456789+-.eE").find(text_[end]) !=
                 std::string_view::npos)
        ++end;
      pos_ = start;
      Fail(end == start ? "unexpected character"
                        : "bad number '" +
                              std::string(text_.substr(start, end - start)) +
                              "'");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (!is_real) {
      std::int64_t value = 0;
      const auto res =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (res.ec == std::errc() && res.ptr == token.data() + token.size())
        return JsonValue(value);
      // Out-of-range integer: fall through to double.
    }
    double value = 0.0;
    const auto res =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (res.ec != std::errc() || res.ptr != token.data() + token.size())
      Fail("bad number '" + std::string(token) + "'");
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  unsigned depth_ = 0;  // containers open at the cursor
};

}  // namespace

JsonValue JsonValue::Parse(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace pair_ecc::telemetry
