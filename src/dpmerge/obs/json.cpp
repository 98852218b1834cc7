#include "dpmerge/obs/json.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace dpmerge::obs {

namespace {

/// Length of the valid UTF-8 sequence starting at s[i], or 0 if the bytes
/// at i do not begin one (stray continuation byte, overlong encoding,
/// encoded surrogate, value above U+10FFFF, or truncation at the end of s).
std::size_t utf8_sequence_length(std::string_view s, std::size_t i) {
  const auto byte = [&](std::size_t k) {
    return static_cast<unsigned char>(s[k]);
  };
  const unsigned char b0 = byte(i);
  std::size_t len;
  std::uint32_t cp;
  if (b0 < 0x80) {
    return 1;
  } else if ((b0 & 0xE0) == 0xC0) {
    len = 2;
    cp = b0 & 0x1Fu;
  } else if ((b0 & 0xF0) == 0xE0) {
    len = 3;
    cp = b0 & 0x0Fu;
  } else if ((b0 & 0xF8) == 0xF0) {
    len = 4;
    cp = b0 & 0x07u;
  } else {
    return 0;
  }
  if (i + len > s.size()) return 0;
  for (std::size_t k = 1; k < len; ++k) {
    const unsigned char b = byte(i + k);
    if ((b & 0xC0) != 0x80) return 0;
    cp = (cp << 6) | (b & 0x3Fu);
  }
  // Reject overlong forms, surrogates, and out-of-range code points.
  static constexpr std::uint32_t kMin[] = {0, 0, 0x80, 0x800, 0x10000};
  if (cp < kMin[len]) return 0;
  if (cp >= 0xD800 && cp <= 0xDFFF) return 0;
  if (cp > 0x10FFFF) return 0;
  return len;
}

}  // namespace

void json_append_quoted(std::string& out, std::string_view s) {
  out.push_back('"');
  for (std::size_t i = 0; i < s.size();) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    switch (c) {
      case '"':
        out += "\\\"";
        ++i;
        continue;
      case '\\':
        out += "\\\\";
        ++i;
        continue;
      case '\n':
        out += "\\n";
        ++i;
        continue;
      case '\t':
        out += "\\t";
        ++i;
        continue;
      case '\r':
        out += "\\r";
        ++i;
        continue;
      default:
        break;
    }
    if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
      ++i;
      continue;
    }
    if (c < 0x80) {
      out.push_back(s[i]);
      ++i;
      continue;
    }
    // Non-ASCII: pass through complete, valid UTF-8 sequences untouched;
    // anything else becomes U+FFFD, one replacement per rejected byte so
    // distinct hostile inputs stay distinguishable in the artifact.
    const std::size_t len = utf8_sequence_length(s, i);
    if (len == 0) {
      out += "\\ufffd";
      ++i;
    } else {
      out.append(s, i, len);
      i += len;
    }
  }
  out.push_back('"');
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  json_append_quoted(out, s);
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::num(std::string_view key, double def) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->kind == Kind::Number) ? v->number : def;
}

std::string_view JsonValue::text(std::string_view key,
                                 std::string_view def) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->kind == Kind::String) ? std::string_view(v->str)
                                                   : def;
}

namespace {

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

/// Materialising recursive-descent parser: the one JSON grammar (json_valid
/// parses into a scratch value and discards it).
class Parser {
 public:
  explicit Parser(std::string_view t) : t_(t) {}

  bool run(JsonValue* out, std::string* error) {
    skip_ws();
    bool ok = value(out);
    if (ok) {
      skip_ws();
      if (pos_ != t_.size()) {
        ok = false;
        err_ = "trailing content";
      }
    }
    if (!ok && error) {
      *error = err_.empty() ? "malformed JSON" : err_;
      *error += " at byte " + std::to_string(pos_);
    }
    return ok;
  }

 private:
  bool fail(const char* why) {
    if (err_.empty()) err_ = why;
    return false;
  }
  char peek() const { return pos_ < t_.size() ? t_[pos_] : '\0'; }
  bool eat(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (pos_ < t_.size() &&
           (t_[pos_] == ' ' || t_[pos_] == '\t' || t_[pos_] == '\n' ||
            t_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (t_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool hex4(std::uint32_t* out) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      std::uint32_t d;
      if (c >= '0' && c <= '9') {
        d = static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        d = static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        d = static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("bad \\u escape");
      }
      v = (v << 4) | d;
      ++pos_;
    }
    *out = v;
    return true;
  }

  bool string(std::string* out) {
    if (!eat('"')) return fail("expected string");
    while (pos_ < t_.size()) {
      const unsigned char c = static_cast<unsigned char>(t_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return fail("raw control character in string");
      if (c != '\\') {
        out->push_back(t_[pos_]);
        ++pos_;
        continue;
      }
      ++pos_;
      const char e = peek();
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out->push_back(e);
          ++pos_;
          break;
        case 'b':
          out->push_back('\b');
          ++pos_;
          break;
        case 'f':
          out->push_back('\f');
          ++pos_;
          break;
        case 'n':
          out->push_back('\n');
          ++pos_;
          break;
        case 'r':
          out->push_back('\r');
          ++pos_;
          break;
        case 't':
          out->push_back('\t');
          ++pos_;
          break;
        case 'u': {
          ++pos_;
          std::uint32_t cp = 0;
          if (!hex4(&cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF && t_.substr(pos_, 2) == "\\u") {
            // High surrogate followed by an escaped low surrogate: combine.
            const std::size_t save = pos_;
            pos_ += 2;
            std::uint32_t lo = 0;
            if (!hex4(&lo)) return false;
            if (lo >= 0xDC00 && lo <= 0xDFFF) {
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else {
              pos_ = save;  // not a pair; emit the lone surrogate below
            }
          }
          if (cp >= 0xD800 && cp <= 0xDFFF) cp = 0xFFFD;  // lone surrogate
          append_utf8(*out, cp);
          break;
        }
        default:
          return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool number(double* out) {
    const std::size_t start = pos_;
    eat('-');
    if (!std::isdigit(static_cast<unsigned char>(peek()))) {
      return fail("expected digit");
    }
    if (!eat('0')) {
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (eat('.')) {
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("expected fraction digit");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) {
        return fail("expected exponent digit");
      }
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    const std::string text(t_.substr(start, pos_ - start));
    *out = std::strtod(text.c_str(), nullptr);
    return true;
  }

  bool value(JsonValue* out) {
    if (++depth_ > 256) return fail("nesting too deep");
    bool ok = false;
    switch (peek()) {
      case '{': {
        ++pos_;
        out->kind = JsonValue::Kind::Object;
        skip_ws();
        if (eat('}')) {
          ok = true;
          break;
        }
        for (;;) {
          skip_ws();
          std::string key;
          if (!string(&key)) break;
          skip_ws();
          if (!eat(':')) {
            fail("expected ':'");
            break;
          }
          skip_ws();
          JsonValue member;
          if (!value(&member)) break;
          out->object.emplace_back(std::move(key), std::move(member));
          skip_ws();
          if (eat(',')) continue;
          ok = eat('}');
          if (!ok) fail("expected ',' or '}'");
          break;
        }
        break;
      }
      case '[': {
        ++pos_;
        out->kind = JsonValue::Kind::Array;
        skip_ws();
        if (eat(']')) {
          ok = true;
          break;
        }
        for (;;) {
          skip_ws();
          JsonValue item;
          if (!value(&item)) break;
          out->array.push_back(std::move(item));
          skip_ws();
          if (eat(',')) continue;
          ok = eat(']');
          if (!ok) fail("expected ',' or ']'");
          break;
        }
        break;
      }
      case '"':
        out->kind = JsonValue::Kind::String;
        ok = string(&out->str);
        break;
      case 't':
        out->kind = JsonValue::Kind::Bool;
        out->boolean = true;
        ok = literal("true");
        break;
      case 'f':
        out->kind = JsonValue::Kind::Bool;
        out->boolean = false;
        ok = literal("false");
        break;
      case 'n':
        out->kind = JsonValue::Kind::Null;
        ok = literal("null");
        break;
      default:
        out->kind = JsonValue::Kind::Number;
        ok = number(&out->number);
    }
    --depth_;
    return ok;
  }

  std::string_view t_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string err_;
};

}  // namespace

bool json_valid(std::string_view text, std::string* error) {
  JsonValue scratch;
  return Parser(text).run(&scratch, error);
}

bool json_parse(std::string_view text, JsonValue* out, std::string* error) {
  *out = JsonValue{};
  return Parser(text).run(out, error);
}

}  // namespace dpmerge::obs
