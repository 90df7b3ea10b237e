#include "lef/lef_io.h"

#include <fstream>
#include <limits>
#include <sstream>

#include "base/error.h"
#include "base/lexer.h"

namespace secflow {
namespace {

// Bound on every LEF length, so that um_to_dbu cannot overflow.
constexpr double kMaxMicrons = 1e9;

double microns(Lexer& lex, const char* what) {
  return lex.number<double>(lex.word(), what, 0.0, kMaxMicrons);
}

/// The next word, which must close the block opened as `name`.
void expect_end_name(Lexer& lex, const std::string& name) {
  const Token t = lex.word();
  if (t.text != name) {
    lex.fail(t.pos, "expected 'END " + name + "', got '" +
                        std::string(t.text) + "'");
  }
}

}  // namespace

std::string write_lef(const LefLibrary& lib) {
  std::ostringstream os;
  os << "VERSION 5.6 ;\n";
  for (const LefLayer& l : lib.layers()) {
    os << "LAYER " << l.name << "\n";
    os << "  DIRECTION "
       << (l.dir == LayerDir::kHorizontal ? "HORIZONTAL" : "VERTICAL")
       << " ;\n";
    os << "  PITCH " << l.pitch_um << " ;\n";
    os << "  WIDTH " << l.width_um << " ;\n";
    os << "END " << l.name << "\n";
  }
  for (const LefMacro& m : lib.macros()) {
    os << "MACRO " << m.name << "\n";
    os << "  SIZE " << dbu_to_um(m.width_dbu) << " BY "
       << dbu_to_um(m.height_dbu) << " ;\n";
    for (const LefPin& p : m.pins) {
      os << "  PIN " << p.name << " DIRECTION "
         << (p.dir == PinDir::kInput ? "INPUT" : "OUTPUT") << " ORIGIN "
         << dbu_to_um(p.offset.x) << ' ' << dbu_to_um(p.offset.y) << " ;\n";
    }
    os << "END " << m.name << "\n";
  }
  os << "END LIBRARY\n";
  return os.str();
}

void write_lef_file(const LefLibrary& lib, const std::string& path) {
  std::ofstream f(path);
  SECFLOW_CHECK(f.good(), "cannot open for write: " + path);
  f << write_lef(lib);
  SECFLOW_CHECK(f.good(), "write failed: " + path);
}

LefLibrary parse_lef(const std::string& text, const std::string& name) {
  Lexer lex(text, "lef");
  LefLibrary lib(name);
  while (lex.peek().kind != Token::Kind::kEnd) {
    const Token kw = lex.next();
    if (kw.text == "VERSION") {
      lex.number<double>(lex.word(), "version", 0.0,
                         std::numeric_limits<double>::max());
      lex.expect(";");
    } else if (kw.text == "LAYER") {
      LefLayer layer;
      layer.name = lex.word().text;
      while (!lex.at("END")) {
        const Token attr = lex.next();
        if (attr.text == "DIRECTION") {
          const Token d = lex.word();
          if (d.text != "HORIZONTAL" && d.text != "VERTICAL") {
            lex.fail(d.pos, "expected HORIZONTAL or VERTICAL, got '" +
                                std::string(d.text) + "'");
          }
          layer.dir = d.text == "VERTICAL" ? LayerDir::kVertical
                                           : LayerDir::kHorizontal;
        } else if (attr.text == "PITCH") {
          layer.pitch_um = microns(lex, "pitch");
        } else if (attr.text == "WIDTH") {
          layer.width_um = microns(lex, "width");
        } else {
          lex.fail(attr.pos,
                   "unknown layer attribute: " + std::string(attr.text));
        }
        lex.expect(";");
      }
      lex.expect("END");
      expect_end_name(lex, layer.name);
      lib.add_layer(std::move(layer));
    } else if (kw.text == "MACRO") {
      LefMacro m;
      m.name = lex.word().text;
      while (!lex.at("END")) {
        const Token attr = lex.next();
        if (attr.text == "SIZE") {
          m.width_dbu = um_to_dbu(microns(lex, "width"));
          lex.expect("BY");
          m.height_dbu = um_to_dbu(microns(lex, "height"));
        } else if (attr.text == "PIN") {
          LefPin p;
          p.name = lex.word().text;
          lex.expect("DIRECTION");
          const Token d = lex.word();
          if (d.text != "INPUT" && d.text != "OUTPUT") {
            lex.fail(d.pos, "expected INPUT or OUTPUT, got '" +
                                std::string(d.text) + "'");
          }
          p.dir = d.text == "OUTPUT" ? PinDir::kOutput : PinDir::kInput;
          lex.expect("ORIGIN");
          p.offset.x = um_to_dbu(microns(lex, "pin x"));
          p.offset.y = um_to_dbu(microns(lex, "pin y"));
          m.pins.push_back(std::move(p));
        } else {
          lex.fail(attr.pos,
                   "unknown macro attribute: " + std::string(attr.text));
        }
        lex.expect(";");
      }
      lex.expect("END");
      expect_end_name(lex, m.name);
      lib.add_macro(std::move(m));
    } else if (kw.text == "END") {
      lex.expect("LIBRARY");
      break;
    } else {
      lex.fail(kw.pos, "unknown keyword: " + std::string(kw.text));
    }
  }
  return lib;
}

}  // namespace secflow
