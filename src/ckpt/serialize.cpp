#include "ckpt/serialize.h"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <limits>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/error.h"
#include "base/lexer.h"
#include "ckpt/hash.h"

namespace secflow {
namespace {

// A field list names each line of a payload once, in order, and speaks to
// either walker through:
//   io.key(kw)                a new line, headed by the keyword `kw`
//   io.field(v...)            integers; doubles, as append_double prints
//                             them; bools, as 0 or 1; and LogicFns, as
//                             their arity and then 16 hex digits
//   io.choice(v, last, what)  an enumerator, as its value in [0, last]
//   io.text(s), io.word(s)    free text, as `<n>:<n bytes>`; a name
//   io.records(kw, xs, body)  the count xs.size(); then per element a line
//                             `kw` whose fields body(x) names
//   io.map(kw, m, body)       records over a name -> value map, each line
//                             `kw <name>` and body(value), in name order;
//                             the reader rejects a repeated name
// Every field is a space and its text; a line ends where the next begins.

/// Prints a field list.
class Writer {
 public:
  void key(std::string_view kw) {
    if (!text_.empty()) text_ += '\n';
    text_ += kw;
  }
  template <class... T>
  void field(const T&... v) {
    (put(v), ...);
  }
  template <class E>
  void choice(E v, E, std::string_view) {
    put(static_cast<int>(v));
  }
  void text(const std::string& s) {
    put(s.size());
    (text_ += ':') += s;
  }
  void word(std::string_view s) { (text_ += ' ') += s; }
  template <class V, class Body>
  void records(std::string_view kw, const V& xs, Body&& body) {
    put(xs.size());
    for (const auto& x : xs) {
      key(kw);
      body(x);
    }
  }
  template <class Map, class Body>
  void map(std::string_view kw, const Map& m, Body&& body) {
    std::vector<const typename Map::value_type*> sorted;
    for (const auto& e : m) sorted.push_back(&e);
    std::ranges::sort(sorted, {}, [](auto* e) -> auto& { return e->first; });
    records(kw, sorted, [&](auto* e) {
      word(e->first);
      body(e->second);
    });
  }
  /// The payload; the writer's last call.
  std::string take() {
    text_ += '\n';
    return std::move(text_);
  }

 private:
  template <class T>
  void put(T v) {
    text_ += ' ';
    if constexpr (std::is_same_v<T, bool>) {
      text_ += v ? '1' : '0';
    } else if constexpr (std::is_floating_point_v<T>) {
      append_double(text_, v);
    } else {
      char buf[24];
      text_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    }
  }
  void put(const LogicFn& f) {
    put(f.n_inputs());
    word(hash_hex(f.table()));
  }

  std::string text_;
};

/// Parses a field list with the Lexer, naming the payload `format` in every
/// ParseError: keywords are tokens, names and numbers whitespace-separated
/// words, and text length-prefixed bytes.
class Reader {
 public:
  Reader(std::string_view text, std::string_view format)
      : lex_(text, format), size_(text.size()) {}
  void key(std::string_view kw) { lex_.expect(kw); }
  template <class... T>
  void field(T&... v) {
    (get(v), ...);
  }
  template <class E>
  void choice(E& v, E last, std::string_view what) {
    v = static_cast<E>(number(what, 0, static_cast<int>(last)));
  }
  void text(std::string& s) {
    const auto n = lex_.number<std::size_t>("string length", 0, SIZE_MAX);
    lex_.expect(":");
    s = lex_.take(n);
  }
  void word(std::string& s) { s = lex_.word().text; }
  template <class V, class Body>
  void records(std::string_view kw, V& xs, Body&& body) {
    const std::size_t n = count();
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      key(kw);
      body(xs.emplace_back());
    }
  }
  template <class Map, class Body>
  void map(std::string_view kw, Map& m, Body&& body) {
    const std::size_t n = count();
    m.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      key(kw);
      const Token name = lex_.word();
      const auto [at, added] = m.try_emplace(std::string(name.text));
      if (!added) lex_.fail(name.pos, "duplicate net '" + at->first + "'");
      body(at->second);
    }
  }
  /// Rejects anything after the payload; the reader's last call.
  void done() {
    if (lex_.peek().kind != Token::Kind::kEnd) {
      lex_.fail("trailing data '" + std::string(lex_.peek().text) + "'");
    }
  }

 private:
  /// The next word as a T in [lo, hi]; `what` names it in the error.
  template <class T>
  T number(std::string_view what, T lo, T hi) {
    return lex_.number<T>(lex_.word(), what, lo, hi);
  }
  template <class T>
  void get(T& v) {
    using Lim = std::numeric_limits<T>;
    if constexpr (std::is_same_v<T, bool>) {
      v = number("0/1 flag", 0, 1) == 1;
    } else if constexpr (std::is_floating_point_v<T>) {
      v = number("number", Lim::lowest(), Lim::max());
    } else {
      v = number("integer", Lim::min(), Lim::max());
    }
  }
  void get(LogicFn& f) {
    int n_inputs = 0;
    get(n_inputs);
    const Token t = lex_.word();
    try {
      f = LogicFn(n_inputs, parse_hash_hex(t.text));
    } catch (const ParseError& e) {
      lex_.fail(t.pos, e.what());
    }
  }
  /// A record count, bounded by the size of the payload that holds them.
  std::size_t count() { return number<std::size_t>("count", 0, size_); }

  Lexer lex_;
  std::size_t size_;
};

/// A `T`, const when a field list walks it to print it.
template <class U, class T>
concept Of = std::same_as<std::remove_const_t<U>, T>;

// --- one field list per payload format --------------------------------------

/// A cell library: its name, then its cells in id order.
void fields(auto& io, Of<std::string> auto& name,
            Of<std::vector<CellType>> auto& cells) {
  io.key("CELLLIB");
  io.text(name);
  io.records("CELL", cells, [&](auto& c) {
    io.word(c.name);
    io.choice(c.kind, CellKind::kTie, "cell kind");
    io.field(c.negedge_clock, c.function, c.area_um2, c.width_um,
             c.height_um, c.intrinsic_delay_ps, c.drive_res_kohm,
             c.internal_cap_ff);
    io.records("PIN", c.pins, [&](auto& p) {
      io.word(p.name);
      io.choice(p.dir, PinDir::kOutput, "pin direction");
      io.field(p.cap_ff);
    });
  });
}

void fields(auto& io, Of<Extraction> auto& ex) {
  io.key("EXTRACTION");
  io.map("NET", ex.nets, [&](auto& p) {
    io.field(p.wire_cap_ff, p.pin_cap_ff, p.coupling_cap_ff, p.res_kohm);
    io.records("COUPLE", p.couplings, [&](auto& c) {
      io.word(c.first);
      io.field(c.second);
    });
  });
}

void fields(auto& io, Of<CapTable> auto& caps) {
  io.key("CAPTABLE");
  io.map("CAP", caps, [&](auto& ff) { io.field(ff); });
}

void fields(auto& io, Of<TimingReport> auto& r) {
  io.key("TIMING");
  io.field(r.critical_delay_ps, r.min_period_ps);
  io.text(r.endpoint);
  io.key("PATH");
  io.records("NODE", r.critical_path, [&](auto& n) {
    io.text(n.instance);
    io.text(n.net);
    io.field(n.arrival_ps);
  });
  io.key("ARRIVALS");
  io.records("A", r.net_arrival_ps, [&](auto& a) { io.field(a); });
}

void fields(auto& io, Of<RouteStats> auto& s) {
  io.key("ROUTESTATS");
  io.field(s.wirelength_dbu, s.vias, s.nets_routed, s.iterations,
           s.expanded_nodes, s.window_escalations, s.full_grid_searches,
           s.nets_ripped);
}

void fields(auto& io, Of<SubstitutionStats> auto& s) {
  io.key("SUBSTATS");
  io.field(s.inverters_removed, s.buffers_removed, s.gates_substituted,
           s.flops_substituted, s.ties_substituted, s.port_buffers_added);
}

void fields(auto& io, Of<LecResult> auto& r) {
  io.key("LEC");
  io.field(r.equivalent, r.compared_points);
  io.records("MISMATCH", r.mismatches, [&](auto& m) {
    io.text(m.what);
    io.text(m.counterexample);
  });
}

void fields(auto& io, Of<CheckResult> auto& r) {
  io.key("CHECK");
  io.field(r.ok, r.nets_checked, r.pins_checked);
  io.records("ISSUE", r.issues, [&](auto& i) {
    io.text(i.net);
    io.text(i.what);
  });
}

/// The payload that the field list of `x...` prints.
template <class... T>
std::string write_payload(const T&... x) {
  Writer io;
  fields(io, x...);
  return io.take();
}

/// Parses `text`, named `format` in every ParseError, into `x...`.
template <class... T>
void read_payload(std::string_view text, std::string_view format, T&... x) {
  Reader io(text, format);
  fields(io, x...);
  io.done();
}

}  // namespace

void append_double(std::string& out, double v) {
  char buf[32];  // "%.17g" prints at most 24 characters
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v,
                                std::chars_format::general, 17)
                      .ptr);
}

std::string write_cell_library(const CellLibrary& lib) {
  return write_payload(lib.name(), lib.cells());
}
CellLibrary parse_cell_library(const std::string& text) {
  std::string name;
  std::vector<CellType> cells;
  read_payload(text, "ckpt:cell_library", name, cells);
  CellLibrary lib(std::move(name));
  for (CellType& c : cells) lib.add(std::move(c));
  lib.validate();
  return lib;
}

// write_<name> and parse_<name> of a payload read straight into its type,
// named "ckpt:<name>" in its ParseErrors.
#define SECFLOW_PAYLOAD(T, name)                                    \
  std::string write_##name(const T& x) { return write_payload(x); } \
  T parse_##name(const std::string& text) {                         \
    T x;                                                            \
    read_payload(text, "ckpt:" #name, x);                           \
    return x;                                                       \
  }

SECFLOW_PAYLOAD(Extraction, extraction)
SECFLOW_PAYLOAD(CapTable, cap_table)
SECFLOW_PAYLOAD(TimingReport, timing_report)
SECFLOW_PAYLOAD(RouteStats, route_stats)
SECFLOW_PAYLOAD(SubstitutionStats, substitution_stats)
SECFLOW_PAYLOAD(LecResult, lec_result)
SECFLOW_PAYLOAD(CheckResult, check_result)
#undef SECFLOW_PAYLOAD

}  // namespace secflow
