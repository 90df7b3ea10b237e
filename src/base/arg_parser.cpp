#include "base/arg_parser.h"

#include <cstdio>
#include <type_traits>

#include "base/error.h"
#include "base/lexer.h"

namespace secflow {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::flag(std::string name, std::string help) {
  Spec s;
  s.name = std::move(name);
  s.help = std::move(help);
  s.is_flag = true;
  specs_.push_back(std::move(s));
  return *this;
}

ArgParser& ArgParser::option(std::string name, std::string value_name,
                             std::string help) {
  Spec s;
  s.name = std::move(name);
  s.value_name = std::move(value_name);
  s.help = std::move(help);
  specs_.push_back(std::move(s));
  return *this;
}

ArgParser& ArgParser::positional(std::string name, std::string help,
                                 bool required) {
  if (required && !positionals_.empty()) {
    SECFLOW_CHECK(positionals_.back().required,
                  "ArgParser: required positional '" + name +
                      "' declared after an optional one");
  }
  Positional p;
  p.name = std::move(name);
  p.help = std::move(help);
  p.required = required;
  positionals_.push_back(std::move(p));
  return *this;
}

ArgParser::Spec* ArgParser::find(std::string_view name) {
  for (Spec& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const ArgParser::Spec* ArgParser::find(std::string_view name) const {
  for (const Spec& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

bool ArgParser::parse(int argc, char** argv) {
  std::size_t next_positional = 0;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) == 0) {
      // --key or --key=value.
      const std::size_t eq = arg.find('=');
      const std::string_view key =
          arg.substr(2, eq == std::string_view::npos ? eq : eq - 2);
      Spec* spec = find(key);
      SECFLOW_CHECK(spec != nullptr, program_ + ": unknown option '--" +
                                         std::string(key) + "'");
      spec->seen = true;
      if (spec->is_flag) {
        SECFLOW_CHECK(eq == std::string_view::npos,
                      program_ + ": flag '--" + spec->name +
                          "' does not take a value");
      } else if (eq != std::string_view::npos) {
        spec->value = std::string(arg.substr(eq + 1));
      } else {
        SECFLOW_CHECK(i + 1 < argc, program_ + ": option '--" + spec->name +
                                        "' needs a value");
        spec->value = argv[++i];
      }
    } else {
      SECFLOW_CHECK(next_positional < positionals_.size(),
                    program_ + ": unexpected argument '" + std::string(arg) +
                        "'");
      positionals_[next_positional++].value = std::string(arg);
    }
  }
  for (const Positional& p : positionals_) {
    SECFLOW_CHECK(!p.required || !p.value.empty(),
                  program_ + ": missing required argument <" + p.name + ">");
  }
  return true;
}

bool ArgParser::has(std::string_view name) const {
  const Spec* s = find(name);
  return s != nullptr && s->seen;
}

std::string ArgParser::get(std::string_view name, std::string fallback) const {
  const Spec* s = find(name);
  SECFLOW_CHECK(s != nullptr && !s->is_flag,
                "ArgParser: get() on undeclared option '" + std::string(name) +
                    "'");
  return s->seen ? s->value : std::move(fallback);
}

template <typename T>
T ArgParser::get_number(std::string_view name, T fallback, T min,
                        T max) const {
  const std::string text = get(name);  // throws on an undeclared name
  if (!has(name)) return fallback;
  if (const std::optional<T> v = parse_number(text, min, max)) return *v;
  throw Error(program_ + ": option '--" + std::string(name) + "' needs " +
              (std::is_integral_v<T> ? "an integer" : "a number") + " in [" +
              number_text(min) + ", " + number_text(max) + "], got '" + text +
              "'");
}

template int ArgParser::get_number<int>(std::string_view, int, int,
                                        int) const;
template std::uint64_t ArgParser::get_number<std::uint64_t>(
    std::string_view, std::uint64_t, std::uint64_t, std::uint64_t) const;
template double ArgParser::get_number<double>(std::string_view, double,
                                              double, double) const;

std::string ArgParser::pos(std::string_view name) const {
  for (const Positional& p : positionals_) {
    if (p.name == name) return p.value;
  }
  throw Error("ArgParser: pos() on undeclared positional '" +
              std::string(name) + "'");
}

std::string ArgParser::usage() const {
  std::string text = "usage: " + program_;
  for (const Positional& p : positionals_) {
    text += p.required ? " <" + p.name + ">" : " [" + p.name + "]";
  }
  if (!specs_.empty()) text += " [options]";
  text += "\n\n" + description_ + "\n";
  if (!positionals_.empty()) {
    text += "\narguments:\n";
    for (const Positional& p : positionals_) {
      text += "  " + p.name;
      if (p.name.size() < 22) text.append(22 - p.name.size(), ' ');
      text += "  " + p.help + "\n";
    }
  }
  text += "\noptions:\n";
  for (const Spec& s : specs_) {
    std::string lhs = "--" + s.name;
    if (!s.is_flag) lhs += " " + s.value_name;
    text += "  " + lhs;
    if (lhs.size() < 22) text.append(22 - lhs.size(), ' ');
    text += "  " + s.help + "\n";
  }
  text += "  --help                  show this message\n";
  return text;
}

}  // namespace secflow
