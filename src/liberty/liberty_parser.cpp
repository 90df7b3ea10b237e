#include "liberty/liberty_parser.h"

#include <limits>
#include <sstream>

#include "base/error.h"
#include "base/lexer.h"
#include "liberty/bool_expr.h"

namespace secflow {
namespace {

struct PinSpec {
  PinDef def;
  std::string function;  // output pins only
};

class LibertyParser {
 public:
  explicit LibertyParser(const std::string& text) : lex_(text, "liberty") {}

  std::shared_ptr<CellLibrary> parse() {
    lex_.expect("library");
    lex_.expect("(");
    const std::string lib_name(name("library name").text);
    lex_.expect(")");
    lex_.expect("{");
    auto lib = std::make_shared<CellLibrary>(lib_name);
    while (!lex_.at("}")) {
      lex_.expect("cell");
      lib->add(parse_cell());
    }
    lex_.expect("}");
    lib->validate();
    return lib;
  }

 private:
  CellType parse_cell() {
    lex_.expect("(");
    CellType cell;
    const SourcePos cell_pos = lex_.peek().pos;
    cell.name = name("cell name").text;
    lex_.expect(")");
    lex_.expect("{");
    std::vector<PinSpec> pins;
    bool is_ff = false, is_tie = false;
    while (!lex_.at("}")) {
      const Token key = name("attribute or pin");
      if (key.text == "pin") {
        pins.push_back(parse_pin());
        continue;
      }
      lex_.expect(":");
      if (key.text == "area") {
        cell.area_um2 = number(key.text);
      } else if (key.text == "width") {
        cell.width_um = number(key.text);
      } else if (key.text == "height") {
        cell.height_um = number(key.text);
      } else if (key.text == "intrinsic_delay") {
        cell.intrinsic_delay_ps = number(key.text);
      } else if (key.text == "drive_resistance") {
        cell.drive_res_kohm = number(key.text);
      } else if (key.text == "internal_cap") {
        cell.internal_cap_ff = number(key.text);
      } else if (key.text == "ff") {
        is_ff = is_true(value());
      } else if (key.text == "ff_negedge") {
        if (is_true(value())) {
          is_ff = true;
          cell.negedge_clock = true;
        }
      } else if (key.text == "tie") {
        is_tie = is_true(value());
      } else {
        value();  // Unknown attributes are ignored (Liberty files carry many).
      }
      lex_.expect(";");
    }
    lex_.expect("}");

    SECFLOW_CHECK(!(is_ff && is_tie), "cell " + cell.name + " ff and tie");
    cell.kind = is_ff    ? CellKind::kFlop
                : is_tie ? CellKind::kTie
                         : CellKind::kCombinational;
    std::vector<std::string> input_names;
    std::string out_function;
    for (const PinSpec& p : pins) {
      cell.pins.push_back(p.def);
      if (p.def.dir == PinDir::kInput) {
        input_names.push_back(p.def.name);
      } else {
        out_function = p.function;
      }
    }
    switch (cell.kind) {
      case CellKind::kCombinational:
        if (out_function.empty()) {
          lex_.fail(cell_pos, "cell " + cell.name + " output has no function");
        }
        cell.function = parse_bool_expr(out_function, input_names);
        break;
      case CellKind::kFlop:
        cell.function = LogicFn::identity();
        break;
      case CellKind::kTie:
        if (out_function.empty()) {
          lex_.fail(cell_pos,
                    "tie cell " + cell.name + " needs function \"0\" or \"1\"");
        }
        cell.function = parse_bool_expr(out_function, {});
        break;
    }
    if (cell.width_um <= 0 && cell.height_um > 0 && cell.area_um2 > 0) {
      cell.width_um = cell.area_um2 / cell.height_um;
    }
    return cell;
  }

  PinSpec parse_pin() {
    lex_.expect("(");
    PinSpec pin;
    pin.def.name = name("pin name").text;
    lex_.expect(")");
    lex_.expect("{");
    while (!lex_.at("}")) {
      const Token key = name("pin attribute");
      lex_.expect(":");
      if (key.text == "direction") {
        const Token dir = value();
        if (dir.text == "input") {
          pin.def.dir = PinDir::kInput;
        } else if (dir.text == "output") {
          pin.def.dir = PinDir::kOutput;
        } else {
          lex_.fail(dir.pos, "bad pin direction: " + std::string(dir.text));
        }
      } else if (key.text == "capacitance") {
        pin.def.cap_ff = number(key.text);
      } else if (key.text == "function") {
        pin.function = value().text;
      } else {
        value();  // clock : true etc. (CK is found by name).
      }
      lex_.expect(";");
    }
    lex_.expect("}");
    return pin;
  }

  static bool is_true(const Token& t) {
    return t.text == "true" || t.text == "1";
  }

  /// A signed number; the lexer reads its minus sign as a token of its own.
  double number(std::string_view what) {
    const bool negative = lex_.at("-");
    if (negative) lex_.next();
    const double v = lex_.number<double>(what, 0.0, kMaxValue);
    return negative ? -v : v;
  }

  /// An attribute value read as text: identifier, string or (signed)
  /// number.
  Token value() {
    if (lex_.at("-")) lex_.next();
    const Token t = lex_.next();
    if (t.kind == Token::Kind::kPunct || t.kind == Token::Kind::kEnd) {
      lex_.fail(t.pos, "expected value, got '" + std::string(t.text) + "'");
    }
    return t;
  }

  /// Identifier or number token (cell names like AOI32 lex as ident).
  Token name(const char* what) {
    const Token t = lex_.next();
    if (t.kind != Token::Kind::kIdent && t.kind != Token::Kind::kNumber) {
      lex_.fail(t.pos, std::string("expected ") + what + ", got '" +
                           std::string(t.text) + "'");
    }
    return t;
  }

  static constexpr double kMaxValue = std::numeric_limits<double>::max();

  Lexer lex_;
};

}  // namespace

std::shared_ptr<CellLibrary> parse_liberty(const std::string& text) {
  return LibertyParser(text).parse();
}

std::string write_liberty(const CellLibrary& lib) {
  std::ostringstream os;
  os << "library(" << lib.name() << ") {\n";
  for (CellTypeId id : lib.all()) {
    const CellType& c = lib.cell(id);
    os << "  cell(" << c.name << ") {\n";
    os << "    area : " << c.area_um2 << ";\n";
    os << "    width : " << c.width_um << ";\n";
    os << "    height : " << c.height_um << ";\n";
    os << "    intrinsic_delay : " << c.intrinsic_delay_ps << ";\n";
    os << "    drive_resistance : " << c.drive_res_kohm << ";\n";
    os << "    internal_cap : " << c.internal_cap_ff << ";\n";
    if (c.kind == CellKind::kFlop) {
      os << (c.negedge_clock ? "    ff_negedge : true;\n" : "    ff : true;\n");
    }
    if (c.kind == CellKind::kTie) os << "    tie : true;\n";
    std::vector<std::string> input_names;
    for (const PinDef& p : c.pins) {
      if (p.dir == PinDir::kInput) input_names.push_back(p.name);
    }
    for (const PinDef& p : c.pins) {
      os << "    pin(" << p.name << ") {\n";
      os << "      direction : " << (p.dir == PinDir::kInput ? "input" : "output")
         << ";\n";
      if (p.dir == PinDir::kInput) {
        os << "      capacitance : " << p.cap_ff << ";\n";
      } else if (c.kind == CellKind::kCombinational ||
                 c.kind == CellKind::kTie) {
        os << "      function : \"" << c.function.to_sop_string(input_names)
           << "\";\n";
      }
      os << "    }\n";
    }
    os << "  }\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace secflow
