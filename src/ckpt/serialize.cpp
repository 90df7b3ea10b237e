#include "ckpt/serialize.h"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "base/error.h"
#include "base/lexer.h"
#include "ckpt/hash.h"

namespace secflow {
namespace {

/// The text a serializer appends to.  Numbers print through to_chars:
/// integers in decimal, doubles as append_double() prints them.
class Out {
 public:
  Out& operator<<(std::string_view s) {
    text_ += s;
    return *this;
  }
  Out& operator<<(char c) {
    text_ += c;
    return *this;
  }
  Out& operator<<(double v) {
    append_double(text_, v);
    return *this;
  }
  template <std::integral T>
    requires(!std::same_as<T, bool> && !std::same_as<T, char>)
  Out& operator<<(T v) {
    char buf[24];
    text_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return *this;
  }

  /// Moves the text out; the writer's last call.
  std::string str() { return std::move(text_); }

 private:
  std::string text_;
};

/// Free text that may contain spaces (but no newlines are required either):
/// length-prefixed as `<n>:<bytes>`.
void put_str(Out& os, const std::string& s) {
  os << s.size() << ':' << s;
}

// Payload readers: keywords and punctuation are tokens, names and numbers
// whitespace-separated words, and put_str strings length-prefixed bytes.

template <typename T>
T integer(Lexer& lex) {
  return lex.number<T>(lex.word(), "integer", std::numeric_limits<T>::min(),
                       std::numeric_limits<T>::max());
}

double real(Lexer& lex) {
  return lex.number<double>(lex.word(), "number",
                            std::numeric_limits<double>::lowest(),
                            std::numeric_limits<double>::max());
}

bool flag(Lexer& lex) {
  return lex.number<int>(lex.word(), "0/1 flag", 0, 1) == 1;
}

/// A record count, bounded by the size of the payload that holds them.
std::size_t count(Lexer& lex, std::string_view text) {
  return lex.number<std::size_t>(lex.word(), "count", 0, text.size());
}

/// Inverse of put_str.
std::string sized_str(Lexer& lex) {
  const std::size_t n = lex.number<std::size_t>(
      "string length", 0, std::numeric_limits<std::size_t>::max());
  lex.expect(":");
  return std::string(lex.take(n));
}

std::uint64_t hash(Lexer& lex) {
  const Token t = lex.word();
  try {
    return parse_hash_hex(t.text);
  } catch (const ParseError& e) {
    lex.fail(t.pos, e.what());
  }
}

void done(Lexer& lex) {
  if (lex.peek().kind != Token::Kind::kEnd) {
    lex.fail("trailing data '" + std::string(lex.peek().text) + "'");
  }
}

}  // namespace

void append_double(std::string& out, double v) {
  char buf[32];  // "%.17g" prints at most 24 characters
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::general, 17)
                      .ptr);
}

// --- CellLibrary -----------------------------------------------------------

std::string write_cell_library(const CellLibrary& lib) {
  Out os;
  os << "CELLLIB ";
  put_str(os, lib.name());
  os << ' ' << lib.size() << '\n';
  for (const CellTypeId id : lib.all()) {
    const CellType& c = lib.cell(id);
    os << "CELL " << c.name << ' ' << static_cast<int>(c.kind) << ' '
       << (c.negedge_clock ? 1 : 0) << ' ' << c.function.n_inputs() << ' '
       << hash_hex(c.function.table()) << ' ' << c.area_um2 << ' ' << c.width_um << ' '
       << c.height_um << ' ' << c.intrinsic_delay_ps << ' '
       << c.drive_res_kohm << ' ' << c.internal_cap_ff << ' ' << c.pins.size()
       << '\n';
    for (const PinDef& p : c.pins) {
      os << "PIN " << p.name << ' ' << (p.dir == PinDir::kOutput ? 1 : 0)
         << ' ' << p.cap_ff << '\n';
    }
  }
  return os.str();
}

CellLibrary parse_cell_library(const std::string& text) {
  Lexer lex(text, "ckpt:cell_library");
  lex.expect("CELLLIB");
  CellLibrary lib(sized_str(lex));
  const std::size_t n = count(lex, text);
  for (std::size_t i = 0; i < n; ++i) {
    lex.expect("CELL");
    CellType c;
    c.name = lex.word().text;
    c.kind = static_cast<CellKind>(lex.number<int>(lex.word(), "cell kind", 0, 2));
    c.negedge_clock = flag(lex);
    const int fn_inputs = integer<int>(lex);
    c.function = LogicFn(fn_inputs, hash(lex));
    c.area_um2 = real(lex);
    c.width_um = real(lex);
    c.height_um = real(lex);
    c.intrinsic_delay_ps = real(lex);
    c.drive_res_kohm = real(lex);
    c.internal_cap_ff = real(lex);
    const std::size_t npins = count(lex, text);
    for (std::size_t p = 0; p < npins; ++p) {
      lex.expect("PIN");
      PinDef pin;
      pin.name = lex.word().text;
      pin.dir = flag(lex) ? PinDir::kOutput : PinDir::kInput;
      pin.cap_ff = real(lex);
      c.pins.push_back(std::move(pin));
    }
    lib.add(std::move(c));
  }
  done(lex);
  lib.validate();
  return lib;
}

// --- Extraction ------------------------------------------------------------

std::string write_extraction(const Extraction& ex) {
  std::vector<const std::string*> names;
  names.reserve(ex.nets.size());
  for (const auto& [name, p] : ex.nets) names.push_back(&name);
  std::sort(names.begin(), names.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });

  Out os;
  os << "EXTRACTION " << ex.nets.size() << '\n';
  for (const std::string* name : names) {
    const NetParasitics& p = ex.nets.at(*name);
    os << "NET " << *name << ' ' << p.wire_cap_ff << ' ' << p.pin_cap_ff
       << ' ' << p.coupling_cap_ff << ' ' << p.res_kohm << ' '
       << p.couplings.size() << '\n';
    for (const auto& [other, cc] : p.couplings) {
      os << "COUPLE " << other << ' ' << cc << '\n';
    }
  }
  return os.str();
}

Extraction parse_extraction(const std::string& text) {
  Lexer lex(text, "ckpt:extraction");
  lex.expect("EXTRACTION");
  const std::size_t n = count(lex, text);
  Extraction ex;
  ex.nets.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    lex.expect("NET");
    const Token name = lex.word();
    NetParasitics p;
    p.wire_cap_ff = real(lex);
    p.pin_cap_ff = real(lex);
    p.coupling_cap_ff = real(lex);
    p.res_kohm = real(lex);
    const std::size_t nc = count(lex, text);
    p.couplings.reserve(nc);
    for (std::size_t c = 0; c < nc; ++c) {
      lex.expect("COUPLE");
      const std::string_view other = lex.word().text;
      const double cc = real(lex);
      p.couplings.emplace_back(other, cc);
    }
    if (!ex.nets.emplace(name.text, std::move(p)).second) {
      lex.fail(name.pos, "duplicate net '" + std::string(name.text) + "'");
    }
  }
  done(lex);
  return ex;
}

// --- CapTable --------------------------------------------------------------

std::string write_cap_table(const CapTable& caps) {
  std::vector<const std::string*> names;
  names.reserve(caps.size());
  for (const auto& [name, ff] : caps) names.push_back(&name);
  std::sort(names.begin(), names.end(),
            [](const std::string* a, const std::string* b) { return *a < *b; });

  Out os;
  os << "CAPTABLE " << caps.size() << '\n';
  for (const std::string* name : names) {
    os << "CAP " << *name << ' ' << caps.at(*name) << '\n';
  }
  return os.str();
}

CapTable parse_cap_table(const std::string& text) {
  Lexer lex(text, "ckpt:cap_table");
  lex.expect("CAPTABLE");
  const std::size_t n = count(lex, text);
  CapTable caps;
  caps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    lex.expect("CAP");
    const Token name = lex.word();
    const double ff = real(lex);
    if (!caps.emplace(name.text, ff).second) {
      lex.fail(name.pos, "duplicate net '" + std::string(name.text) + "'");
    }
  }
  done(lex);
  return caps;
}

// --- TimingReport ----------------------------------------------------------

std::string write_timing_report(const TimingReport& r) {
  Out os;
  os << "TIMING " << r.critical_delay_ps << ' ' << r.min_period_ps << ' ';
  put_str(os, r.endpoint);
  os << '\n';
  os << "PATH " << r.critical_path.size() << '\n';
  for (const PathNode& n : r.critical_path) {
    os << "NODE ";
    put_str(os, n.instance);
    os << ' ';
    put_str(os, n.net);
    os << ' ' << n.arrival_ps << '\n';
  }
  os << "ARRIVALS " << r.net_arrival_ps.size() << '\n';
  for (const double a : r.net_arrival_ps) os << "A " << a << '\n';
  return os.str();
}

TimingReport parse_timing_report(const std::string& text) {
  Lexer lex(text, "ckpt:timing_report");
  TimingReport r;
  lex.expect("TIMING");
  r.critical_delay_ps = real(lex);
  r.min_period_ps = real(lex);
  r.endpoint = sized_str(lex);
  lex.expect("PATH");
  const std::size_t np = count(lex, text);
  r.critical_path.reserve(np);
  for (std::size_t i = 0; i < np; ++i) {
    lex.expect("NODE");
    PathNode n;
    n.instance = sized_str(lex);
    n.net = sized_str(lex);
    n.arrival_ps = real(lex);
    r.critical_path.push_back(std::move(n));
  }
  lex.expect("ARRIVALS");
  const std::size_t na = count(lex, text);
  r.net_arrival_ps.reserve(na);
  for (std::size_t i = 0; i < na; ++i) {
    lex.expect("A");
    r.net_arrival_ps.push_back(real(lex));
  }
  done(lex);
  return r;
}

// --- small stats structs ---------------------------------------------------

std::string write_route_stats(const RouteStats& s) {
  Out os;
  os << "ROUTESTATS " << s.wirelength_dbu << ' ' << s.vias << ' '
     << s.nets_routed << ' ' << s.iterations << ' ' << s.expanded_nodes
     << ' ' << s.window_escalations << ' ' << s.full_grid_searches << ' '
     << s.nets_ripped << '\n';
  return os.str();
}

RouteStats parse_route_stats(const std::string& text) {
  Lexer lex(text, "ckpt:route_stats");
  lex.expect("ROUTESTATS");
  RouteStats s;
  s.wirelength_dbu = integer<std::int64_t>(lex);
  s.vias = integer<int>(lex);
  s.nets_routed = integer<int>(lex);
  s.iterations = integer<int>(lex);
  s.expanded_nodes = integer<std::int64_t>(lex);
  s.window_escalations = integer<int>(lex);
  s.full_grid_searches = integer<int>(lex);
  s.nets_ripped = integer<std::int64_t>(lex);
  done(lex);
  return s;
}

std::string write_substitution_stats(const SubstitutionStats& s) {
  Out os;
  os << "SUBSTATS " << s.inverters_removed << ' ' << s.buffers_removed << ' '
     << s.gates_substituted << ' ' << s.flops_substituted << ' '
     << s.ties_substituted << ' ' << s.port_buffers_added << '\n';
  return os.str();
}

SubstitutionStats parse_substitution_stats(const std::string& text) {
  Lexer lex(text, "ckpt:substitution_stats");
  lex.expect("SUBSTATS");
  SubstitutionStats s;
  s.inverters_removed = integer<int>(lex);
  s.buffers_removed = integer<int>(lex);
  s.gates_substituted = integer<int>(lex);
  s.flops_substituted = integer<int>(lex);
  s.ties_substituted = integer<int>(lex);
  s.port_buffers_added = integer<int>(lex);
  done(lex);
  return s;
}

std::string write_lec_result(const LecResult& r) {
  Out os;
  os << "LEC " << (r.equivalent ? 1 : 0) << ' ' << r.compared_points << ' '
     << r.mismatches.size() << '\n';
  for (const LecMismatch& m : r.mismatches) {
    os << "MISMATCH ";
    put_str(os, m.what);
    os << ' ';
    put_str(os, m.counterexample);
    os << '\n';
  }
  return os.str();
}

LecResult parse_lec_result(const std::string& text) {
  Lexer lex(text, "ckpt:lec_result");
  lex.expect("LEC");
  LecResult r;
  r.equivalent = flag(lex);
  r.compared_points = integer<int>(lex);
  const std::size_t n = count(lex, text);
  r.mismatches.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    lex.expect("MISMATCH");
    LecMismatch m;
    m.what = sized_str(lex);
    m.counterexample = sized_str(lex);
    r.mismatches.push_back(std::move(m));
  }
  done(lex);
  return r;
}

std::string write_check_result(const CheckResult& r) {
  Out os;
  os << "CHECK " << (r.ok ? 1 : 0) << ' ' << r.nets_checked << ' '
     << r.pins_checked << ' ' << r.issues.size() << '\n';
  for (const CheckIssue& i : r.issues) {
    os << "ISSUE ";
    put_str(os, i.net);
    os << ' ';
    put_str(os, i.what);
    os << '\n';
  }
  return os.str();
}

CheckResult parse_check_result(const std::string& text) {
  Lexer lex(text, "ckpt:check_result");
  lex.expect("CHECK");
  CheckResult r;
  r.ok = flag(lex);
  r.nets_checked = integer<int>(lex);
  r.pins_checked = integer<int>(lex);
  const std::size_t n = count(lex, text);
  r.issues.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    lex.expect("ISSUE");
    CheckIssue issue;
    issue.net = sized_str(lex);
    issue.what = sized_str(lex);
    r.issues.push_back(std::move(issue));
  }
  done(lex);
  return r;
}

}  // namespace secflow
