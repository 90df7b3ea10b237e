// Error handling for secflow.
//
// Library code throws secflow::Error (a std::runtime_error carrying a
// formatted message).  SECFLOW_CHECK is used for precondition / invariant
// checks that must stay on in release builds: a failed check is a usage or
// internal-consistency error, never a recoverable condition.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

namespace secflow {

/// Base exception for all secflow library errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Error raised while parsing one of the text formats (Verilog subset,
/// Liberty-lite, LEF-lite, DEF-lite, mini-HDL, checkpoint payloads, JSON).
/// Carries a location string, "<format> <line>:<column>" (base/lexer.h).
class ParseError : public Error {
 public:
  ParseError(const std::string& where, const std::string& what)
      : Error(where + ": " + what), where_(where) {}

  const std::string& where() const { return where_; }

 private:
  std::string where_;
};

/// Throws one Error listing every violation a validator collected, headed
/// by `what` ("FlowOptions", "campaign spec"): `<what>: <violation>` for
/// one, `<what>: N violations:` and a `\n  - <violation>` line each for
/// more.  Returns when `violations` is empty.
void throw_violations(const std::string& what,
                      const std::vector<std::string>& violations);

[[noreturn]] void check_failed(const char* file, int line, const char* expr,
                               const std::string& msg);

}  // namespace secflow

/// Always-on invariant check; throws secflow::Error on failure.
#define SECFLOW_CHECK(expr, msg)                                    \
  do {                                                              \
    if (!(expr)) ::secflow::check_failed(__FILE__, __LINE__, #expr, (msg)); \
  } while (false)
