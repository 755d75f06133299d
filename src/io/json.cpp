#include "io/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <system_error>

#include "util/error.h"

namespace sramlp::io {

namespace {

/// Append a number token: the exact unsigned lane in decimal, a double as
/// %.17g — the shortest fixed precision that round-trips every finite
/// double.  std::to_chars with an explicit precision is specified to
/// match printf in the C locale byte for byte, and runs several times
/// faster than snprintf.
void append_number(std::string& out, bool exact_uint, std::uint64_t uint,
                   double value) {
  char buf[32];
  std::to_chars_result result{};
  if (exact_uint) {
    result = std::to_chars(buf, buf + sizeof buf, uint);
  } else {
    SRAMLP_REQUIRE(std::isfinite(value),
                   "JSON cannot represent a non-finite number");
    result = std::to_chars(buf, buf + sizeof buf, value,
                           std::chars_format::general, 17);
  }
  out.append(buf, result.ptr);
}

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Parse (and emit) recursion ceiling.  The parser is recursive-descent,
/// so nesting depth is stack depth: without a cap, a frame of a few
/// thousand '[' bytes overflows the stack (found by tests/fuzz/fuzz_json
/// in about a second).  64 levels is far beyond any document the
/// serializers produce (deepest real shape: ~6 levels), and parse rejects
/// deeper input with a normal Error instead of crashing.
constexpr int kMaxParseDepth = 64;

/// Recursive-descent parser over a string_view with offset-based errors.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    SRAMLP_REQUIRE(pos_ == text_.size(),
                   "JSON: trailing characters at offset " +
                       std::to_string(pos_));
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("JSON: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue parse_value() {
    if (depth_ >= kMaxParseDepth) fail("nesting too deep");
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return JsonValue::string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::boolean(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::boolean(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return JsonValue::null();
        fail("bad literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    ++depth_;
    JsonValue obj = JsonValue::object();
    if (peek() == '}') {
      ++pos_;
      --depth_;
      return obj;
    }
    while (true) {
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      expect(':');
      obj.set(std::move(key), parse_value());
      const char c = peek();
      ++pos_;
      if (c == '}') {
        --depth_;
        return obj;
      }
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    expect('[');
    ++depth_;
    JsonValue arr = JsonValue::array();
    if (peek() == ']') {
      ++pos_;
      --depth_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') {
        --depth_;
        return arr;
      }
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // UTF-8 encode (BMP only; our own writer never emits \u beyond
          // control characters, surrogate pairs are rejected).
          SRAMLP_REQUIRE(code < 0xD800 || code > 0xDFFF,
                         "JSON: surrogate pairs are not supported");
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("bad number");
    const char* const first = token.data();
    const char* const last = first + token.size();
    if (integral && token[0] != '-') {
      // Exact unsigned lane: untruncated uint64_t plus the double view.
      // Past 2^64 - 1 the token falls through to the double lane.
      std::uint64_t u = 0;
      const auto [end, ec] = std::from_chars(first, last, u);
      if (ec == std::errc() && end == last) return JsonValue::integer(u);
    }
    // std::from_chars rounds correctly, like strtod, at a fraction of the
    // cost.  What it refuses (a leading '+', a value that under- or
    // overflows) takes the strtod path, so every token keeps its verdict.
    double d = 0.0;
    const auto [end, ec] = std::from_chars(first, last, d);
    if (ec != std::errc() || end != last) {
      const std::string copy(token);
      char* copy_end = nullptr;
      d = std::strtod(copy.c_str(), &copy_end);
      if (copy_end != copy.c_str() + copy.size()) fail("bad number");
    }
    SRAMLP_REQUIRE(std::isfinite(d), "JSON: number overflows a double");
    return JsonValue::number(d);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< current container nesting (kMaxParseDepth cap)
};

}  // namespace

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double value) {
  SRAMLP_REQUIRE(std::isfinite(value),
                 "JSON cannot represent a non-finite number");
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::integer(std::uint64_t value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = static_cast<double>(value);
  v.uint_ = value;
  v.exact_uint_ = true;
  return v;
}

JsonValue JsonValue::string(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

bool JsonValue::as_bool() const {
  SRAMLP_REQUIRE(kind_ == Kind::kBool, "JSON value is not a bool");
  return bool_;
}

double JsonValue::as_double() const {
  SRAMLP_REQUIRE(kind_ == Kind::kNumber, "JSON value is not a number");
  return number_;
}

std::uint64_t JsonValue::as_uint() const {
  SRAMLP_REQUIRE(kind_ == Kind::kNumber, "JSON value is not a number");
  SRAMLP_REQUIRE(exact_uint_,
                 "JSON number is not an exact unsigned integer");
  return uint_;
}

const std::string& JsonValue::as_string() const {
  SRAMLP_REQUIRE(kind_ == Kind::kString, "JSON value is not a string");
  return string_;
}

std::size_t JsonValue::size() const {
  if (kind_ == Kind::kArray) return elements_.size();
  if (kind_ == Kind::kObject) return members_.size();
  throw Error("JSON value has no size (not an array or object)");
}

const JsonValue& JsonValue::at(std::size_t index) const {
  SRAMLP_REQUIRE(kind_ == Kind::kArray, "JSON value is not an array");
  SRAMLP_REQUIRE(index < elements_.size(), "JSON array index out of range");
  return elements_[index];
}

JsonValue& JsonValue::push_back(JsonValue value) {
  SRAMLP_REQUIRE(kind_ == Kind::kArray, "JSON value is not an array");
  elements_.push_back(std::move(value));
  return elements_.back();
}

bool JsonValue::has(std::string_view key) const {
  SRAMLP_REQUIRE(kind_ == Kind::kObject, "JSON value is not an object");
  for (const auto& [k, v] : members_)
    if (k == key) return true;
  return false;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  SRAMLP_REQUIRE(kind_ == Kind::kObject, "JSON value is not an object");
  for (const auto& [k, v] : members_)
    if (k == key) return v;
  throw Error("JSON object has no member '" + std::string(key) + "'");
}

const JsonValue& JsonValue::get(std::string_view key) const {
  static const JsonValue kNull;
  SRAMLP_REQUIRE(kind_ == Kind::kObject, "JSON value is not an object");
  for (const auto& [k, v] : members_)
    if (k == key) return v;
  return kNull;
}

JsonValue& JsonValue::set(std::string key, JsonValue value) {
  SRAMLP_REQUIRE(kind_ == Kind::kObject, "JSON value is not an object");
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  SRAMLP_REQUIRE(kind_ == Kind::kObject, "JSON value is not an object");
  return members_;
}

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  const auto newline_and_pad = [&](int levels) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * levels), ' ');
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += bool_ ? "true" : "false"; return;
    case Kind::kNumber:
      append_number(out, exact_uint_, uint_, number_);
      return;
    case Kind::kString: append_escaped(out, string_); return;
    case Kind::kArray: {
      if (elements_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < elements_.size(); ++i) {
        if (i) out += ',';
        newline_and_pad(depth + 1);
        elements_[i].dump_to(out, indent, depth + 1);
      }
      newline_and_pad(depth);
      out += ']';
      return;
    }
    case Kind::kObject: {
      if (members_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i) out += ',';
        newline_and_pad(depth + 1);
        append_escaped(out, members_[i].first);
        out += ':';
        if (indent > 0) out += ' ';
        members_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_and_pad(depth);
      out += '}';
      return;
    }
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace sramlp::io
