#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "base/error.h"
#include "base/lexer.h"

namespace secflow {
namespace {

std::string kind_name(JsonValue::Kind k) {
  switch (k) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  char buf[40];
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else if (std::isfinite(v)) {
    // 17 significant digits round-trip an IEEE-754 double exactly.
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  } else {
    // JSON has no Inf/NaN; null is the conventional degradation.
    std::snprintf(buf, sizeof(buf), "null");
  }
  out += buf;
}

void dump_rec(const JsonValue& v, int indent, int depth, std::string& out) {
  const std::string pad(indent > 0 ? static_cast<std::size_t>(indent) *
                                         (static_cast<std::size_t>(depth) + 1)
                                   : 0,
                        ' ');
  const std::string close_pad(
      indent > 0 ? static_cast<std::size_t>(indent) *
                       static_cast<std::size_t>(depth)
                 : 0,
      ' ');
  const char* nl = indent > 0 ? "\n" : "";
  switch (v.kind()) {
    case JsonValue::Kind::kNull: out += "null"; break;
    case JsonValue::Kind::kBool: out += v.as_bool() ? "true" : "false"; break;
    case JsonValue::Kind::kNumber: append_number(out, v.as_number()); break;
    case JsonValue::Kind::kString: append_escaped(out, v.as_string()); break;
    case JsonValue::Kind::kArray: {
      if (v.items().empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < v.items().size(); ++i) {
        out += pad;
        dump_rec(v.items()[i], indent, depth + 1, out);
        if (i + 1 < v.items().size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      if (v.members().empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < v.members().size(); ++i) {
        out += pad;
        append_escaped(out, v.members()[i].first);
        out += indent > 0 ? ": " : ":";
        dump_rec(v.members()[i].second, indent, depth + 1, out);
        if (i + 1 < v.members().size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += '}';
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw_parse_error("json", SourcePos::of(text_, pos_), what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_word(std::string_view w) {
    if (text_.substr(pos_, w.size()) != w) return false;
    pos_ += w.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      // Recursion guard: parse_object/parse_array recurse through here, so
      // a deeply nested document would otherwise overflow the stack.
      if (depth_ >= kMaxDepth) {
        fail("nesting depth exceeds " + std::to_string(kMaxDepth));
      }
      ++depth_;
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    if (c == '"') return JsonValue(parse_string());
    if (consume_word("null")) return JsonValue();
    if (consume_word("true")) return JsonValue(true);
    if (consume_word("false")) return JsonValue(false);
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
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
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // UTF-8 encode (surrogate pairs are not needed by our writers).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || tok.empty()) fail("bad number");
    return JsonValue(v);
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue out = JsonValue::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      out.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue out = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      if (out.find(key) != nullptr) fail("duplicate object key '" + key + "'");
      skip_ws();
      expect(':');
      out.set(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  /// Deeper than any document our writers emit, far shallower than the
  /// stack can take at this frame size.
  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool JsonValue::as_bool() const {
  SECFLOW_CHECK(kind_ == Kind::kBool,
                "JsonValue: expected bool, have " + kind_name(kind_));
  return bool_;
}

double JsonValue::as_number() const {
  SECFLOW_CHECK(kind_ == Kind::kNumber,
                "JsonValue: expected number, have " + kind_name(kind_));
  return num_;
}

const std::string& JsonValue::as_string() const {
  SECFLOW_CHECK(kind_ == Kind::kString,
                "JsonValue: expected string, have " + kind_name(kind_));
  return str_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  SECFLOW_CHECK(kind_ == Kind::kArray,
                "JsonValue: expected array, have " + kind_name(kind_));
  return arr_;
}

std::vector<JsonValue>& JsonValue::items() {
  SECFLOW_CHECK(kind_ == Kind::kArray,
                "JsonValue: expected array, have " + kind_name(kind_));
  return arr_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  SECFLOW_CHECK(kind_ == Kind::kObject,
                "JsonValue: expected object, have " + kind_name(kind_));
  return obj_;
}

JsonValue& JsonValue::push_back(JsonValue v) {
  SECFLOW_CHECK(kind_ == Kind::kArray,
                "JsonValue: push_back on " + kind_name(kind_));
  arr_.push_back(std::move(v));
  return *this;
}

JsonValue& JsonValue::set(std::string key, JsonValue v) {
  SECFLOW_CHECK(kind_ == Kind::kObject,
                "JsonValue: set on " + kind_name(kind_));
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return *this;
    }
  }
  obj_.emplace_back(std::move(key), std::move(v));
  return *this;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue* JsonValue::find(std::string_view key) {
  if (kind_ != Kind::kObject) return nullptr;
  for (auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool JsonValue::operator==(const JsonValue& o) const {
  if (kind_ != o.kind_) return false;
  switch (kind_) {
    case Kind::kNull: return true;
    case Kind::kBool: return bool_ == o.bool_;
    case Kind::kNumber: return num_ == o.num_;
    case Kind::kString: return str_ == o.str_;
    case Kind::kArray: return arr_ == o.arr_;
    case Kind::kObject: return obj_ == o.obj_;
  }
  return false;
}

std::string json_dump(const JsonValue& v, int indent) {
  std::string out;
  dump_rec(v, indent, 0, out);
  return out;
}

JsonValue json_parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace secflow
