// The one tokenizer behind every text reader: mini-HDL, structural
// Verilog, Liberty, LEF, DEF and checkpoint payloads.
//
// A Lexer walks a std::string_view and hands out Tokens that are views
// into it, each with the 1-based line and column where it starts; no token
// is copied or allocated.  It has one fixed, C-like rule set and two ways
// to read:
//
//  * next()/peek() — identifiers ([A-Za-z_][A-Za-z0-9_$]*, or a Verilog
//    `\escaped` name up to whitespace, backslash included), numbers (a C
//    preprocessing number: a digit, or '.' and a digit, then letters,
//    digits, '_', '.' and exponent signs — `12abc` is one number token, so
//    the strict parse below rejects it whole), "strings" (text without
//    the quotes, no escapes), one-character punctuation and `<=`.
//    Whitespace, // and /* */ comments separate tokens.
//  * word() — the next run of non-whitespace bytes, and take(n), the next n
//    bytes verbatim.  Whitespace-separated formats (LEF, DEF, checkpoint
//    payloads) read names and signed numbers as words.
//
// A grammar that needs more builds it from tokens in its own parser (HDL
// sized literals, Liberty's signed values).  Every failure throws
// ParseError("<format> <line>:<column>", what).
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace secflow {

/// A 1-based line and column (counted in bytes) in a source text.
struct SourcePos {
  int line = 1;
  int column = 1;

  /// The position of byte `offset` of `source`.
  static SourcePos of(std::string_view source, std::size_t offset);
};

struct Token {
  enum class Kind { kEnd, kIdent, kNumber, kString, kPunct, kWord };

  Kind kind = Kind::kEnd;
  /// A view into the source; a string's text excludes the quotes.  Empty
  /// at the end of input.
  std::string_view text;
  SourcePos pos;

  /// This token without its first `n` <= text.size() bytes (e.g. the
  /// digits of `M1`).
  Token tail(std::size_t n) const {
    return {kind, text.substr(n), {pos.line, pos.column + static_cast<int>(n)}};
  }
};

/// Throws ParseError("<format> <line>:<column>", what) — the one location
/// format of every text reader.
[[noreturn]] void throw_parse_error(std::string_view format, SourcePos at,
                                    const std::string& what);

/// `text`, whole, as a T in [min, max]: a decimal integer for an integral
/// T (no sign on an unsigned one), a decimal or exponent number for a
/// floating T.  Empty when malformed, out of range or NaN.
template <typename T>
std::optional<T> parse_number(std::string_view text, T min, T max) {
  T v{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  // Written so that a NaN fails the range test.
  if (ec == std::errc{} && stop == end && v >= min && v <= max) return v;
  return std::nullopt;
}

/// A number as the range in a number error prints it.
template <typename T>
std::string number_text(T v) {
  if constexpr (std::is_integral_v<T>) {
    return std::to_string(v);
  } else {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
  }
}

class Lexer {
 public:
  /// `format` names the text in every error ("hdl", "def", ...); both
  /// views must outlive the lexer.
  Lexer(std::string_view source, std::string_view format)
      : src_(source), format_(format) {}

  /// The next token, left in place.
  const Token& peek();
  /// The next token.
  Token next();
  /// The next run of non-whitespace bytes; throws at the end of input.
  Token word();
  /// The next `n` bytes verbatim.
  std::string_view take(std::size_t n);

  /// True when the next token is not a string and reads `text`.
  bool at(std::string_view text);
  /// Consumes the next token, which must read `text`.
  void expect(std::string_view text);

  /// The next token parsed whole as a T in [min, max] (parse_number).
  template <typename T>
  T number(std::string_view what, T min, T max) {
    return number(next(), what, min, max);
  }
  /// `t` parsed whole as a T in [min, max] (parse_number).
  template <typename T>
  T number(const Token& t, std::string_view what, T min, T max) const {
    if (const std::optional<T> v = parse_number(t.text, min, max)) return *v;
    fail(t.pos, "expected " + std::string(what) + " in [" + number_text(min) +
                    ", " + number_text(max) + "], got '" +
                    std::string(t.text) + "'");
  }

  /// Throws the ParseError for this source at `at`.
  [[noreturn]] void fail(SourcePos at, const std::string& what) const;
  /// Throws the ParseError for this source at the next token.
  [[noreturn]] void fail(const std::string& what);

 private:
  struct Cursor {
    std::size_t off = 0;
    int line = 1;
    std::size_t line_start = 0;  ///< offset of the first byte of `line`
  };

  SourcePos pos(const Cursor& c) const;
  void advance_to(Cursor& c, std::size_t off) const;
  void skip_blanks(Cursor& c) const;  ///< whitespace
  void skip_space(Cursor& c) const;   ///< whitespace and comments
  Token scan(Cursor& c) const;

  std::string_view src_;
  std::string_view format_;
  Cursor cur_;    ///< start of the unread input
  Cursor after_;  ///< just past tok_, while peeked_
  Token tok_;
  bool peeked_ = false;
};

}  // namespace secflow
