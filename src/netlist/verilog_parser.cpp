#include "netlist/verilog_parser.h"

#include "base/error.h"
#include "base/lexer.h"

namespace secflow {
namespace {

class Parser {
 public:
  Parser(const std::string& text, std::shared_ptr<const CellLibrary> library)
      : lex_(text, "verilog"), library_(std::move(library)) {}

  Netlist parse() {
    lex_.expect("module");
    const std::string mod_name = name("module name");
    Netlist nl(mod_name, library_);
    lex_.expect("(");
    std::vector<std::string> port_order;
    if (!lex_.at(")")) {
      for (;;) {
        port_order.push_back(name("port name"));
        if (lex_.at(")")) break;
        lex_.expect(",");
      }
    }
    lex_.expect(")");
    lex_.expect(";");

    while (!lex_.at("endmodule")) {
      if (lex_.peek().kind == Token::Kind::kEnd) {
        lex_.fail("unexpected end of file");
      }
      const SourcePos head_pos = lex_.peek().pos;
      const std::string head = name("statement");
      if (head == "input" || head == "output") {
        const PinDir dir =
            head == "input" ? PinDir::kInput : PinDir::kOutput;
        for (;;) {
          const std::string port = name("port name");
          const NetId net = nl.get_or_add_net(port);
          nl.add_port(port, dir, net);
          if (lex_.at(";")) break;
          lex_.expect(",");
        }
        lex_.expect(";");
      } else if (head == "wire") {
        for (;;) {
          nl.get_or_add_net(name("wire name"));
          if (lex_.at(";")) break;
          lex_.expect(",");
        }
        lex_.expect(";");
      } else {
        parse_instance(nl, head, head_pos);
      }
    }
    const SourcePos end_pos = lex_.peek().pos;
    lex_.expect("endmodule");
    // Every port named in the header must have been declared.
    for (const std::string& p : port_order) {
      if (!nl.find_port(p).valid()) {
        lex_.fail(end_pos, "port " + p + " named in header but never declared");
      }
    }
    return nl;
  }

 private:
  void parse_instance(Netlist& nl, const std::string& cell_name,
                      SourcePos at) {
    const CellTypeId cell = library_->find(cell_name);
    if (!cell.valid()) lex_.fail(at, "unknown cell type: " + cell_name);
    const CellType& type = library_->cell(cell);
    const InstId inst = nl.add_instance(name("instance name"), cell);
    lex_.expect("(");
    if (!lex_.at(")")) {
      for (;;) {
        lex_.expect(".");
        const SourcePos pin_pos = lex_.peek().pos;
        const std::string pin_name = name("pin name");
        const int pin = type.pin_index(pin_name);
        if (pin < 0) {
          lex_.fail(pin_pos, "cell " + cell_name + " has no pin " + pin_name);
        }
        lex_.expect("(");
        const NetId net = nl.get_or_add_net(name("net name"));
        lex_.expect(")");
        nl.connect(inst, pin, net);
        if (lex_.at(")")) break;
        lex_.expect(",");
      }
    }
    lex_.expect(")");
    lex_.expect(";");
  }

  /// The next token, which must be an identifier; an escaped one loses its
  /// backslash.
  std::string name(const char* what) {
    const Token t = lex_.next();
    if (t.kind != Token::Kind::kIdent) {
      lex_.fail(t.pos, std::string("expected ") + what + ", got '" +
                           std::string(t.text) + "'");
    }
    return std::string(t.text.substr(t.text[0] == '\\' ? 1 : 0));
  }

  Lexer lex_;
  std::shared_ptr<const CellLibrary> library_;
};

}  // namespace

Netlist parse_verilog(const std::string& text,
                      std::shared_ptr<const CellLibrary> library) {
  SECFLOW_CHECK(library != nullptr, "parse_verilog needs a library");
  return Parser(text, std::move(library)).parse();
}

}  // namespace secflow
