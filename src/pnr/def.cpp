#include "pnr/def.h"

#include <fstream>
#include <limits>
#include <sstream>

#include "base/error.h"
#include "base/lexer.h"
#include "base/units.h"

namespace secflow {

const DefComponent* DefDesign::find_component(const std::string& n) const {
  for (const DefComponent& c : components) {
    if (c.name == n) return &c;
  }
  return nullptr;
}

const DefNet* DefDesign::find_net(const std::string& n) const {
  for (const DefNet& net : nets) {
    if (net.name == n) return &net;
  }
  return nullptr;
}

DefNet* DefDesign::find_net(const std::string& n) {
  for (DefNet& net : nets) {
    if (net.name == n) return &net;
  }
  return nullptr;
}

std::int64_t DefDesign::total_wirelength() const {
  std::int64_t wl = 0;
  for (const DefNet& n : nets) wl += n.total_wirelength();
  return wl;
}

int DefDesign::total_vias() const {
  int v = 0;
  for (const DefNet& n : nets) v += static_cast<int>(n.vias.size());
  return v;
}

double DefDesign::die_area_um2() const {
  return dbu_to_um(die.width()) * dbu_to_um(die.height());
}

Point DefDesign::pin_position(const LefLibrary& lef,
                              const std::string& component,
                              const std::string& pin) const {
  const DefComponent* c = find_component(component);
  SECFLOW_CHECK(c != nullptr, "no component " + component);
  const LefMacro& m = lef.macro(c->macro);
  const LefPin* p = m.find_pin(pin);
  SECFLOW_CHECK(p != nullptr, "no pin " + pin + " on macro " + c->macro);
  return c->origin + p->offset;
}

std::string write_def(const DefDesign& d) {
  std::ostringstream os;
  os << "DESIGN " << d.name << " ;\n";
  os << "DIEAREA ( " << d.die.lo.x << ' ' << d.die.lo.y << " ) ( "
     << d.die.hi.x << ' ' << d.die.hi.y << " ) ;\n";
  os << "ROWHEIGHT " << d.row_height_dbu << " ;\n";
  os << "TRACKPITCH " << d.track_pitch_dbu << " ;\n";
  os << "COMPONENTS " << d.components.size() << " ;\n";
  for (const DefComponent& c : d.components) {
    os << "- " << c.name << ' ' << c.macro << " PLACED ( " << c.origin.x
       << ' ' << c.origin.y << " ) ;\n";
  }
  os << "END COMPONENTS\n";
  os << "NETS " << d.nets.size() << " ;\n";
  for (const DefNet& n : d.nets) {
    os << "- " << n.name << "\n";
    for (const Segment& s : n.wires) {
      os << "  ROUTED M" << (s.layer + 1) << ' ' << s.width << " ( " << s.a.x
         << ' ' << s.a.y << " ) ( " << s.b.x << ' ' << s.b.y << " )\n";
    }
    for (const DefVia& v : n.vias) {
      os << "  VIA M" << (v.from_layer + 1) << " M" << (v.to_layer + 1)
         << " ( " << v.at.x << ' ' << v.at.y << " )\n";
    }
    os << "  ;\n";
  }
  os << "END NETS\n";
  os << "END DESIGN\n";
  return os.str();
}

void write_def_file(const DefDesign& d, const std::string& path) {
  std::ofstream f(path);
  SECFLOW_CHECK(f.good(), "cannot open for write: " + path);
  f << write_def(d);
  SECFLOW_CHECK(f.good(), "write failed: " + path);
}

namespace {

std::int64_t integer(Lexer& lex, const char* what) {
  return lex.number<std::int64_t>(lex.word(), what,
                                  std::numeric_limits<std::int64_t>::min(),
                                  std::numeric_limits<std::int64_t>::max());
}

Point point(Lexer& lex) {
  lex.expect("(");
  const std::int64_t x = integer(lex, "x coordinate");
  const std::int64_t y = integer(lex, "y coordinate");
  lex.expect(")");
  return Point{x, y};
}

/// A routing layer, written M1, M2, ...; returns its 0-based index.
int layer(Lexer& lex) {
  const Token t = lex.word();
  if (t.text[0] != 'M') {
    lex.fail(t.pos, "expected layer, got '" + std::string(t.text) + "'");
  }
  return lex.number<int>(t.tail(1), "layer number", 1,
                         std::numeric_limits<int>::max()) -
         1;
}

/// An item count, bounded by the size of the text that holds the items.
std::int64_t count(Lexer& lex, std::string_view text) {
  return lex.number<std::int64_t>(lex.word(), "count", 0,
                                  static_cast<std::int64_t>(text.size()));
}

}  // namespace

DefDesign parse_def(const std::string& text) {
  Lexer lex(text, "def");
  DefDesign d;
  lex.expect("DESIGN");
  d.name = lex.word().text;
  lex.expect(";");
  while (lex.peek().kind != Token::Kind::kEnd) {
    const Token kw = lex.next();
    if (kw.text == "DIEAREA") {
      d.die.lo = point(lex);
      d.die.hi = point(lex);
      lex.expect(";");
    } else if (kw.text == "ROWHEIGHT") {
      d.row_height_dbu = integer(lex, "row height");
      lex.expect(";");
    } else if (kw.text == "TRACKPITCH") {
      d.track_pitch_dbu = integer(lex, "track pitch");
      lex.expect(";");
    } else if (kw.text == "COMPONENTS") {
      const std::int64_t n = count(lex, text);
      lex.expect(";");
      for (std::int64_t i = 0; i < n; ++i) {
        lex.expect("-");
        DefComponent c;
        c.name = lex.word().text;
        c.macro = lex.word().text;
        lex.expect("PLACED");
        c.origin = point(lex);
        lex.expect(";");
        d.components.push_back(std::move(c));
      }
      lex.expect("END");
      lex.expect("COMPONENTS");
    } else if (kw.text == "NETS") {
      const std::int64_t n = count(lex, text);
      lex.expect(";");
      for (std::int64_t i = 0; i < n; ++i) {
        lex.expect("-");
        DefNet net;
        net.name = lex.word().text;
        while (!lex.at(";")) {
          const Token item = lex.next();
          if (item.text == "ROUTED") {
            Segment s;
            s.layer = layer(lex);
            s.width = integer(lex, "wire width");
            s.a = point(lex);
            s.b = point(lex);
            net.wires.push_back(s);
          } else if (item.text == "VIA") {
            DefVia v;
            v.from_layer = layer(lex);
            v.to_layer = layer(lex);
            v.at = point(lex);
            net.vias.push_back(v);
          } else {
            lex.fail(item.pos,
                     "unknown net item: " + std::string(item.text));
          }
        }
        lex.expect(";");
        d.nets.push_back(std::move(net));
      }
      lex.expect("END");
      lex.expect("NETS");
    } else if (kw.text == "END") {
      lex.expect("DESIGN");
      break;
    } else {
      lex.fail(kw.pos, "unknown keyword: " + std::string(kw.text));
    }
  }
  return d;
}

}  // namespace secflow
