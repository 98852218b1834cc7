#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dpmerge::obs {

/// Appends `s` to `out` as a JSON string literal (surrounding quotes plus
/// RFC 8259 escaping; control characters become \u00XX). Byte sequences
/// that are not valid UTF-8 — overlong encodings, stray continuation
/// bytes, truncated sequences, encoded surrogates — are replaced with
/// U+FFFD (one replacement per rejected byte), so the output is always a
/// valid JSON string no matter what a hostile node/span name contains.
void json_append_quoted(std::string& out, std::string_view s);

std::string json_quote(std::string_view s);

/// Formats a double for JSON output. NaN/inf (not representable in JSON)
/// are emitted as 0. The format is fixed ("%.6g"), so equal inputs always
/// produce equal bytes — stats artifacts stay diffable.
std::string json_number(double v);

/// Checks that `text` is exactly one complete JSON value (objects, arrays,
/// strings, numbers, true/false/null, arbitrary nesting). Used by the obs
/// tests and CI smoke checks to validate emitted trace/stats artifacts.
/// On failure returns false and, if `error` is non-null, a message with the
/// byte offset of the first problem.
bool json_valid(std::string_view text, std::string* error = nullptr);

/// A parsed JSON value. One struct, no variant gymnastics: exactly one of
/// the payload fields is meaningful per `kind`. Objects preserve source
/// key order (profiles are written with fixed key order, and diffs want to
/// render in it).
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  bool is_object() const { return kind == Kind::Object; }
  bool is_array() const { return kind == Kind::Array; }

  /// Typed member accessors with defaults (for tolerant artifact readers).
  double num(std::string_view key, double def = 0.0) const;
  std::string_view text(std::string_view key,
                        std::string_view def = {}) const;
};

/// Parses exactly one complete JSON value (the grammar json_valid checks;
/// \uXXXX escapes, surrogate pairs included, are decoded to UTF-8). On
/// failure returns false and, if `error` is non-null, a message with the
/// byte offset of the first problem.
bool json_parse(std::string_view text, JsonValue* out,
                std::string* error = nullptr);

}  // namespace dpmerge::obs
