// Small declarative argv parser shared by every CLI subcommand.
//
// Declare the accepted flags, options and positionals up front, then
// parse().  Both `--key value` and `--key=value` spellings are accepted
// for options; `--help` is always available and prints the generated
// usage text.  Unknown arguments, missing option values and missing
// required positionals raise Error with a message naming the offender,
// and so does a numeric option whose value is malformed or out of range.
//
//   ArgParser p("secflow_cli flow", "run the flow on a design");
//   p.positional("design.v", "mini-HDL input file");
//   p.flag("regular", "run the regular flow instead of the secure one");
//   p.option("out", "DIR", "artifact output directory");
//   if (!p.parse(argc, argv)) return 0;   // --help was printed
//   if (p.has("regular")) ...
//   std::string dir = p.get("out", "default_out");
//   int n = p.get_number("count", 100, 1, 1000);  // 100 when not passed
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace secflow {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// A boolean switch: present or absent, takes no value.
  ArgParser& flag(std::string name, std::string help);

  /// An option taking one value, `--name VALUE` or `--name=VALUE`.
  ArgParser& option(std::string name, std::string value_name,
                    std::string help);

  /// A positional argument, consumed in declaration order.  Optional
  /// positionals must come after all required ones.
  ArgParser& positional(std::string name, std::string help,
                        bool required = true);

  /// Parse argv (NOT including the program/subcommand words — pass the
  /// tail).  Returns false when --help was requested, after printing
  /// the usage text to stdout.  Throws Error on malformed input.
  bool parse(int argc, char** argv);

  /// True when the flag was passed or the option was given a value.
  bool has(std::string_view name) const;

  /// The option's value, or `fallback` when it was not passed.
  std::string get(std::string_view name, std::string fallback = "") const;

  /// The option's value as a T in [min, max], or `fallback` when it was
  /// not passed.  The whole value must parse: a decimal integer for an
  /// integral T (no sign on an unsigned one), a decimal or exponent
  /// number for a floating T.  A malformed or out-of-range value throws
  /// Error naming the option and the value.  Defined for int,
  /// std::uint64_t and double.
  template <typename T>
  T get_number(std::string_view name, T fallback,
               T min = std::numeric_limits<T>::lowest(),
               T max = std::numeric_limits<T>::max()) const;

  /// The positional's value ("" when an optional one was omitted).
  std::string pos(std::string_view name) const;

  /// The generated usage/help text.
  std::string usage() const;

 private:
  struct Spec {
    std::string name;
    std::string value_name;  ///< empty for flags
    std::string help;
    bool is_flag = false;
    bool seen = false;
    std::string value;
  };
  struct Positional {
    std::string name;
    std::string help;
    bool required = true;
    std::string value;
  };

  Spec* find(std::string_view name);
  const Spec* find(std::string_view name) const;

  std::string program_;
  std::string description_;
  std::vector<Spec> specs_;
  std::vector<Positional> positionals_;
};

}  // namespace secflow
