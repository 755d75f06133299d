// Minimal self-contained JSON document model: emit + parse, no external
// dependencies.  Built for the distributed-execution subsystem, whose
// correctness contract is bit-identical merges: a sweep result serialized
// by a worker process and parsed back by the service must reproduce
// every double to the bit.  Hence the two non-negotiable number rules:
//
//   * doubles are emitted with 17 significant digits (%.17g), the shortest
//     width guaranteed to round-trip any finite IEEE-754 double through a
//     correctly-rounded strtod;
//   * unsigned integers (indices, cycle counts) travel on a separate exact
//     lane: a number token without '.', 'e' or '-' parses into an
//     untruncated uint64_t alongside its double view, so 2^53+1 survives.
//
// Non-finite doubles are rejected at emit time (JSON has no encoding for
// them and a NaN energy is a bug upstream, not a formatting problem).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sramlp::io {

/// One JSON value (null / bool / number / string / array / object).
/// Object member order is preserved (insertion order), so emitted
/// documents are deterministic — equal values produce equal bytes.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  ///< null

  static JsonValue null() { return JsonValue(); }
  static JsonValue boolean(bool b);
  static JsonValue number(double value);          ///< finite doubles only
  static JsonValue integer(std::uint64_t value);  ///< exact unsigned lane
  static JsonValue string(std::string value);
  static JsonValue array();
  static JsonValue object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  // --- typed accessors (throw sramlp::Error on kind mismatch) ------------
  bool as_bool() const;
  double as_double() const;  ///< any number
  /// Numbers parsed/built on the exact unsigned lane only; a fractional or
  /// negative number throws rather than silently truncating.
  std::uint64_t as_uint() const;
  std::size_t as_size() const { return static_cast<std::size_t>(as_uint()); }
  const std::string& as_string() const;

  // --- arrays ------------------------------------------------------------
  std::size_t size() const;  ///< element count (array) or member count (object)
  const JsonValue& at(std::size_t index) const;     ///< array element
  JsonValue& push_back(JsonValue value);            ///< returns the new element

  // --- objects -----------------------------------------------------------
  bool has(std::string_view key) const;
  /// Member lookup; throws sramlp::Error when the key is missing.
  const JsonValue& at(std::string_view key) const;
  /// Member lookup returning null for missing keys (optional fields).
  const JsonValue& get(std::string_view key) const;
  /// Insert or overwrite a member; returns *this for chaining.
  JsonValue& set(std::string key, JsonValue value);
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  // --- emit / parse ------------------------------------------------------
  /// Serialize.  @p indent 0 emits one compact line (the JSONL form);
  /// positive values pretty-print with that many spaces per level.
  std::string dump(int indent = 0) const;

  /// Parse one JSON document (trailing garbage is an error).
  /// Throws sramlp::Error with an offset-annotated message on bad input,
  /// including container nesting beyond 64 levels — the parser is
  /// recursive, and untrusted wire input must not choose our stack depth.
  static JsonValue parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::uint64_t uint_ = 0;
  bool exact_uint_ = false;  ///< number carries an exact unsigned value
  std::string string_;
  std::vector<JsonValue> elements_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace sramlp::io
