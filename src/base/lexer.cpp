#include "base/lexer.h"

#include <algorithm>

#include "base/error.h"

namespace secflow {
namespace {

bool is_space(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\f' ||
         c == '\v';
}
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool is_ident_char(char c) {
  return is_ident_start(c) || is_digit(c) || c == '$';
}

std::string describe(const Token& t) {
  return t.kind == Token::Kind::kEnd ? std::string("end of input")
                                     : "'" + std::string(t.text) + "'";
}

}  // namespace

SourcePos SourcePos::of(std::string_view source, std::size_t offset) {
  offset = std::min(offset, source.size());
  const std::string_view head = source.substr(0, offset);
  const std::size_t nl = head.rfind('\n');
  const std::size_t line_start = nl == std::string_view::npos ? 0 : nl + 1;
  return {1 + static_cast<int>(std::count(head.begin(), head.end(), '\n')),
          1 + static_cast<int>(offset - line_start)};
}

void throw_parse_error(std::string_view format, SourcePos at,
                       const std::string& what) {
  throw ParseError(std::string(format) + ' ' + std::to_string(at.line) + ':' +
                       std::to_string(at.column),
                   what);
}

void Lexer::fail(SourcePos at, const std::string& what) const {
  throw_parse_error(format_, at, what);
}

void Lexer::fail(const std::string& what) { fail(peek().pos, what); }

SourcePos Lexer::pos(const Cursor& c) const {
  return {c.line, static_cast<int>(c.off - c.line_start) + 1};
}

void Lexer::advance_to(Cursor& c, std::size_t off) const {
  for (; c.off < off; ++c.off) {
    if (src_[c.off] == '\n') {
      ++c.line;
      c.line_start = c.off + 1;
    }
  }
}

void Lexer::skip_blanks(Cursor& c) const {
  std::size_t end = c.off;
  while (end < src_.size() && is_space(src_[end])) ++end;
  advance_to(c, end);
}

void Lexer::skip_space(Cursor& c) const {
  for (;;) {
    skip_blanks(c);
    const std::string_view rest = src_.substr(c.off);
    if (rest.starts_with("//")) {
      c.off = std::min(src_.find('\n', c.off), src_.size());
    } else if (rest.starts_with("/*")) {
      const std::size_t close = src_.find("*/", c.off + 2);
      if (close == std::string_view::npos) {
        fail(pos(c), "unterminated /* comment");
      }
      advance_to(c, close + 2);
    } else {
      return;
    }
  }
}

Token Lexer::scan(Cursor& c) const {
  skip_space(c);
  const SourcePos at = pos(c);
  const std::size_t start = c.off;
  const std::size_t n = src_.size();
  if (start == n) return {Token::Kind::kEnd, {}, at};
  const char ch = src_[start];
  const char ch1 = start + 1 < n ? src_[start + 1] : '\0';
  Token::Kind kind = Token::Kind::kPunct;
  std::size_t end = start + 1;
  if (is_ident_start(ch)) {
    kind = Token::Kind::kIdent;
    while (end < n && is_ident_char(src_[end])) ++end;
  } else if (ch == '\\' && start + 1 < n && !is_space(ch1)) {
    kind = Token::Kind::kIdent;
    while (end < n && !is_space(src_[end])) ++end;
  } else if (is_digit(ch) || (ch == '.' && is_digit(ch1))) {
    kind = Token::Kind::kNumber;
    while (end < n) {
      const char d = src_[end];
      if ((d == '+' || d == '-') &&
          (src_[end - 1] == 'e' || src_[end - 1] == 'E')) {
        ++end;
      } else if (is_ident_char(d) || d == '.') {
        ++end;
      } else {
        break;
      }
    }
  } else if (ch == '"') {
    const std::size_t close = src_.find('"', start + 1);
    if (close == std::string_view::npos) fail(at, "unterminated string");
    advance_to(c, close + 1);
    return {Token::Kind::kString, src_.substr(start + 1, close - start - 1),
            at};
  } else if (ch == '<' && ch1 == '=') {
    end = start + 2;
  }
  c.off = end;
  return {kind, src_.substr(start, end - start), at};
}

const Token& Lexer::peek() {
  if (!peeked_) {
    after_ = cur_;
    tok_ = scan(after_);
    peeked_ = true;
  }
  return tok_;
}

Token Lexer::next() {
  peek();
  cur_ = after_;
  peeked_ = false;
  return tok_;
}

Token Lexer::word() {
  peeked_ = false;
  skip_blanks(cur_);
  const SourcePos at = pos(cur_);
  const std::size_t start = cur_.off;
  if (start == src_.size()) fail(at, "unexpected end of input");
  while (cur_.off < src_.size() && !is_space(src_[cur_.off])) ++cur_.off;
  return {Token::Kind::kWord, src_.substr(start, cur_.off - start), at};
}

std::string_view Lexer::take(std::size_t n) {
  peeked_ = false;
  if (n > src_.size() - cur_.off) {
    fail(pos(cur_), "expected " + std::to_string(n) + " more bytes, got " +
                        std::to_string(src_.size() - cur_.off));
  }
  const std::string_view bytes = src_.substr(cur_.off, n);
  advance_to(cur_, cur_.off + n);
  return bytes;
}

bool Lexer::at(std::string_view text) {
  const Token& t = peek();
  return t.kind != Token::Kind::kString && t.text == text;
}

void Lexer::expect(std::string_view text) {
  if (!at(text)) {
    fail("expected '" + std::string(text) + "', got " + describe(peek()));
  }
  next();
}

}  // namespace secflow
