#include "synth/hdl.h"

#include <charconv>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <unordered_map>

#include "base/error.h"
#include "base/lexer.h"

namespace secflow {
namespace {

// --- AST ---------------------------------------------------------------------

struct Expr {
  enum Kind { kConst, kIdent, kBitSel, kNot, kBinary, kTernary } kind = kConst;
  std::vector<bool> const_bits;  // kConst, LSB first
  std::string ident;             // kIdent / kBitSel
  int bit = -1;                  // kBitSel
  char op = 0;                   // kBinary: & | ^
  std::unique_ptr<Expr> a, b, c;
  SourcePos pos;
};

struct Assign {
  std::string name;
  int bit = -1;  // -1 = whole signal
  std::unique_ptr<Expr> rhs;
  SourcePos pos;
};

enum class SigKind { kInput, kOutput, kWire, kReg };

struct Signal {
  SigKind kind = SigKind::kWire;
  int width = 1;
  SourcePos pos;  // of the declared name
};

struct Module {
  std::string name;
  std::vector<std::pair<std::string, Signal>> decl_order;  // ports first
  std::unordered_map<std::string, Signal> signals;
  std::vector<Assign> assigns;      // continuous
  std::vector<Assign> reg_assigns;  // nonblocking, single clock domain
  std::string clock;
  SourcePos clock_pos;  // of the first `posedge` clock name
};

// --- parser ------------------------------------------------------------------

// Highest vector bit and bit index, far enough from INT_MAX that msb + 1
// cannot overflow.
constexpr int kMaxBit = (1 << 20) - 1;

class HdlParser {
 public:
  explicit HdlParser(const std::string& text) : lex_(text, "hdl") {}

  Module parse() {
    Module m;
    lex_.expect("module");
    m.name = name("module name").text;
    lex_.expect("(");
    if (!lex_.at(")")) {
      for (;;) {
        parse_port_decl(m);
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
      parse_item(m);
    }
    lex_.expect("endmodule");
    return m;
  }

 private:
  void declare(Module& m, const Token& name, Signal sig) {
    std::string n(name.text);
    if (m.signals.contains(n)) lex_.fail(name.pos, "duplicate signal: " + n);
    sig.pos = name.pos;
    m.signals.emplace(n, sig);
    m.decl_order.emplace_back(std::move(n), sig);
  }

  int parse_optional_range() {
    if (!lex_.at("[")) return 1;
    lex_.next();
    const int msb = lex_.number<int>("range msb", 0, kMaxBit);
    lex_.expect(":");
    lex_.number<int>("range lsb", 0, 0);  // only [N:0] ranges
    lex_.expect("]");
    return msb + 1;
  }

  void parse_port_decl(Module& m) {
    const Token dir = name("port direction");
    if (dir.text != "input" && dir.text != "output") {
      lex_.fail(dir.pos,
                "expected input/output, got '" + std::string(dir.text) + "'");
    }
    Signal sig;
    sig.kind = dir.text == "input" ? SigKind::kInput : SigKind::kOutput;
    sig.width = parse_optional_range();
    declare(m, name("port name"), sig);
  }

  void parse_item(Module& m) {
    const Token head = name("item");
    if (head.text == "wire" || head.text == "reg") {
      Signal sig;
      sig.kind = head.text == "wire" ? SigKind::kWire : SigKind::kReg;
      sig.width = parse_optional_range();
      for (;;) {
        declare(m, name("signal name"), sig);
        if (lex_.at(";")) break;
        lex_.expect(",");
      }
      lex_.expect(";");
    } else if (head.text == "assign") {
      Assign a = parse_assign_target();
      lex_.expect("=");
      a.rhs = parse_expr();
      lex_.expect(";");
      m.assigns.push_back(std::move(a));
    } else if (head.text == "always") {
      parse_always(m);
    } else {
      lex_.fail(head.pos,
                "unsupported construct: '" + std::string(head.text) + "'");
    }
  }

  Assign parse_assign_target() {
    Assign a;
    const Token target = name("assignment target");
    a.name = target.text;
    a.pos = target.pos;
    if (lex_.at("[")) {
      lex_.next();
      a.bit = lex_.number<int>("bit index", 0, kMaxBit);
      lex_.expect("]");
    }
    return a;
  }

  void parse_always(Module& m) {
    lex_.expect("@");
    lex_.expect("(");
    lex_.expect("posedge");
    const Token clk = name("clock name");
    if (m.clock.empty()) {
      m.clock = clk.text;
      m.clock_pos = clk.pos;
    } else if (m.clock != clk.text) {
      lex_.fail(clk.pos, "multiple clock domains are not supported");
    }
    lex_.expect(")");
    const bool block = lex_.at("begin");
    if (block) lex_.next();
    do {
      Assign a = parse_assign_target();
      lex_.expect("<=");
      a.rhs = parse_expr();
      lex_.expect(";");
      m.reg_assigns.push_back(std::move(a));
    } while (block && !lex_.at("end"));
    if (block) lex_.expect("end");
  }

  /// A node of `kind` at the next token (its operator), which it consumes.
  std::unique_ptr<Expr> operator_node(Expr::Kind kind, char op = 0) {
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->op = op;
    e->pos = lex_.next().pos;
    return e;
  }

  // Precedence (lowest first): ?: , | , ^ , & , ~/primary.
  std::unique_ptr<Expr> parse_expr() {
    auto cond = parse_or();
    if (!lex_.at("?")) return cond;
    auto e = operator_node(Expr::kTernary);
    e->a = std::move(cond);
    e->b = parse_expr();
    lex_.expect(":");
    e->c = parse_expr();
    return e;
  }

  std::unique_ptr<Expr> parse_or() {
    auto lhs = parse_xor();
    while (lex_.at("|")) {
      auto e = operator_node(Expr::kBinary, '|');
      e->a = std::move(lhs);
      e->b = parse_xor();
      lhs = std::move(e);
    }
    return lhs;
  }

  std::unique_ptr<Expr> parse_xor() {
    auto lhs = parse_and();
    while (lex_.at("^")) {
      auto e = operator_node(Expr::kBinary, '^');
      e->a = std::move(lhs);
      e->b = parse_and();
      lhs = std::move(e);
    }
    return lhs;
  }

  std::unique_ptr<Expr> parse_and() {
    auto lhs = parse_unary();
    while (lex_.at("&")) {
      auto e = operator_node(Expr::kBinary, '&');
      e->a = std::move(lhs);
      e->b = parse_unary();
      lhs = std::move(e);
    }
    return lhs;
  }

  std::unique_ptr<Expr> parse_unary() {
    if (lex_.at("~")) {
      auto e = operator_node(Expr::kNot);
      e->a = parse_unary();
      return e;
    }
    if (lex_.at("(")) {
      lex_.next();
      auto e = parse_expr();
      lex_.expect(")");
      return e;
    }
    if (lex_.peek().kind == Token::Kind::kNumber) return parse_literal();
    const Token id = name("expression");
    auto e = std::make_unique<Expr>();
    e->kind = Expr::kIdent;
    e->ident = id.text;
    e->pos = id.pos;
    if (lex_.at("[")) {
      lex_.next();
      e->kind = Expr::kBitSel;
      e->bit = lex_.number<int>("bit index", 0, kMaxBit);
      lex_.expect("]");
    }
    return e;
  }

  // A sized literal, WIDTH'<base><digits> with base b, d or h (4'b0101,
  // 6'd46, 8'h2E); '_' may separate digits.  Digits beyond WIDTH bits are
  // dropped, as in Verilog, but the value must fit 64 bits.
  std::unique_ptr<Expr> parse_literal() {
    auto e = std::make_unique<Expr>();
    e->kind = Expr::kConst;
    e->pos = lex_.peek().pos;
    const int width = lex_.number<int>("literal width", 1, 64);
    lex_.expect("'");
    const Token body = lex_.next();
    const char b = body.kind == Token::Kind::kIdent ? body.text[0] : '\0';
    const int base = (b == 'b' || b == 'B')   ? 2
                     : (b == 'd' || b == 'D') ? 10
                     : (b == 'h' || b == 'H') ? 16
                                              : 0;
    if (base == 0) {
      lex_.fail(body.pos, "expected b, d or h and literal digits, got '" +
                              std::string(body.text) + "'");
    }
    std::string digits;
    for (const char c : body.text.substr(1)) {
      if (c != '_') digits += c;
    }
    std::uint64_t value = 0;
    const char* const end = digits.data() + digits.size();
    const auto [stop, ec] = std::from_chars(digits.data(), end, value, base);
    if (ec != std::errc{} || stop != end) {
      lex_.fail(body.pos, "expected base-" + std::to_string(base) +
                              " digits fitting 64 bits, got '" +
                              std::string(body.text) + "'");
    }
    e->const_bits.resize(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) {
      e->const_bits[static_cast<std::size_t>(i)] = (value >> i) & 1;
    }
    return e;
  }

  /// The next token, which must be a plain (unescaped) identifier.
  Token name(const char* what) {
    const Token t = lex_.next();
    if (t.kind != Token::Kind::kIdent || t.text[0] == '\\') {
      lex_.fail(t.pos, std::string("expected ") + what + ", got '" +
                           std::string(t.text) + "'");
    }
    return t;
  }

  Lexer lex_;
};

// --- elaboration -------------------------------------------------------------

class Elaborator {
 public:
  explicit Elaborator(Module m) : m_(std::move(m)) {}

  AigCircuit elaborate() {
    AigCircuit c;
    c.name = m_.name;
    c.clock = m_.clock.empty() ? "clk" : m_.clock;

    validate_clock();
    index_assigns();

    // Create AIG inputs for input ports (clock excluded) and register Qs.
    for (const auto& [name, sig] : m_.decl_order) {
      if (sig.kind == SigKind::kInput && name != m_.clock) {
        auto& bits = values_[name];
        bits.resize(static_cast<std::size_t>(sig.width));
        for (int i = 0; i < sig.width; ++i) {
          const std::string bn = circuit_bit_name(name, i, sig.width);
          bits[static_cast<std::size_t>(i)] = c.aig.new_input(bn);
          c.inputs.push_back(CircuitBit{bn, bits[static_cast<std::size_t>(i)]});
        }
        resolved_.insert(name);
      } else if (sig.kind == SigKind::kReg) {
        auto& bits = values_[name];
        bits.resize(static_cast<std::size_t>(sig.width));
        for (int i = 0; i < sig.width; ++i) {
          const std::string bn = circuit_bit_name(name, i, sig.width);
          bits[static_cast<std::size_t>(i)] = c.aig.new_input("reg:" + bn);
          c.regs.push_back(CircuitReg{bn, bits[static_cast<std::size_t>(i)], 0});
        }
        resolved_.insert(name);
      }
    }
    aig_ = &c.aig;

    // Register next-states.
    std::size_t reg_base = 0;
    for (const auto& [name, sig] : m_.decl_order) {
      if (sig.kind != SigKind::kReg) continue;
      for (int i = 0; i < sig.width; ++i) {
        const std::string bn = circuit_bit_name(name, i, sig.width);
        CircuitReg* reg = nullptr;
        for (std::size_t r = reg_base; r < c.regs.size(); ++r) {
          if (c.regs[r].name == bn) {
            reg = &c.regs[r];
            break;
          }
        }
        SECFLOW_CHECK(reg != nullptr, "internal: reg bit lost");
        reg->next = reg_next_bit(name, sig, i);
      }
    }

    // Output ports.
    for (const auto& [name, sig] : m_.decl_order) {
      if (sig.kind != SigKind::kOutput) continue;
      const std::vector<AigLit> bits = signal_value(name, sig.pos);
      for (int i = 0; i < sig.width; ++i) {
        c.outputs.push_back(
            CircuitBit{circuit_bit_name(name, i, sig.width),
                       bits[static_cast<std::size_t>(i)]});
      }
    }
    return c;
  }

 private:
  void validate_clock() {
    if (m_.clock.empty()) return;
    const auto it = m_.signals.find(m_.clock);
    if (it == m_.signals.end() || it->second.kind != SigKind::kInput ||
        it->second.width != 1) {
      fail(m_.clock_pos, "clock " + m_.clock + " must be a scalar input port");
    }
  }

  void index_assigns() {
    for (const Assign& a : m_.assigns) {
      const Signal& sig = signal(a.name, a.pos);
      if (sig.kind == SigKind::kInput) {
        fail(a.pos, "cannot assign input " + a.name);
      }
      if (sig.kind == SigKind::kReg) {
        fail(a.pos, "reg " + a.name + " must be assigned with <=");
      }
      register_target(comb_assign_, a, sig);
    }
    for (const Assign& a : m_.reg_assigns) {
      const Signal& sig = signal(a.name, a.pos);
      if (sig.kind != SigKind::kReg) {
        fail(a.pos, "<= target " + a.name + " must be a reg");
      }
      register_target(reg_assign_, a, sig);
    }
  }

  void register_target(std::map<std::pair<std::string, int>, const Assign*>& dst,
                       const Assign& a, const Signal& sig) {
    if (a.bit >= sig.width) {
      fail(a.pos, "bit index out of range: " + a.name);
    }
    const auto key = std::make_pair(a.name, a.bit);
    if (dst.contains(key) ||
        (a.bit == -1 && has_any_bit(dst, a.name)) ||
        (a.bit >= 0 && dst.contains(std::make_pair(a.name, -1)))) {
      fail(a.pos, "multiple drivers for " + a.name);
    }
    dst.emplace(key, &a);
  }

  static bool has_any_bit(
      const std::map<std::pair<std::string, int>, const Assign*>& dst,
      const std::string& name) {
    const auto it = dst.lower_bound(std::make_pair(name, -1));
    return it != dst.end() && it->first.first == name;
  }

  const Signal& signal(const std::string& name, SourcePos at) {
    const auto it = m_.signals.find(name);
    if (it == m_.signals.end()) fail(at, "undefined signal: " + name);
    return it->second;
  }

  AigLit reg_next_bit(const std::string& name, const Signal& sig, int bit) {
    const auto whole = reg_assign_.find(std::make_pair(name, -1));
    if (whole != reg_assign_.end()) {
      const std::vector<AigLit> rhs = eval(*whole->second->rhs);
      if (static_cast<int>(rhs.size()) != sig.width) {
        fail(whole->second->pos, "width mismatch assigning " + name);
      }
      return rhs[static_cast<std::size_t>(bit)];
    }
    const auto one = reg_assign_.find(std::make_pair(name, bit));
    if (one == reg_assign_.end()) {
      fail(sig.pos, "reg bit never assigned: " + name + "[" +
                        std::to_string(bit) + "]");
    }
    const std::vector<AigLit> rhs = eval(*one->second->rhs);
    if (rhs.size() != 1) {
      fail(one->second->pos, "bit assignment needs 1-bit rhs: " + name);
    }
    return rhs[0];
  }

  /// Value of a whole signal, computing wire assignments on demand; `at`
  /// is the reference or declaration that asks for it.
  std::vector<AigLit> signal_value(const std::string& name, SourcePos at) {
    const auto it = values_.find(name);
    if (it != values_.end() && resolved_.contains(name)) return it->second;
    if (in_flight_.contains(name)) {
      fail(at, "combinational loop through " + name);
    }
    const Signal& sig = signal(name, at);
    in_flight_.insert(name);
    std::vector<AigLit> bits(static_cast<std::size_t>(sig.width));
    const auto whole = comb_assign_.find(std::make_pair(name, -1));
    if (whole != comb_assign_.end()) {
      const std::vector<AigLit> rhs = eval(*whole->second->rhs);
      if (static_cast<int>(rhs.size()) != sig.width) {
        fail(whole->second->pos, "width mismatch assigning " + name);
      }
      bits = rhs;
    } else {
      for (int i = 0; i < sig.width; ++i) {
        const auto one = comb_assign_.find(std::make_pair(name, i));
        if (one == comb_assign_.end()) {
          fail(sig.pos, "signal never assigned: " + name +
                            (sig.width > 1 ? "[" + std::to_string(i) + "]" : ""));
        }
        const std::vector<AigLit> rhs = eval(*one->second->rhs);
        if (rhs.size() != 1) {
          fail(one->second->pos, "bit assignment needs 1-bit rhs: " + name);
        }
        bits[static_cast<std::size_t>(i)] = rhs[0];
      }
    }
    in_flight_.erase(name);
    values_[name] = bits;
    resolved_.insert(name);
    return bits;
  }

  std::vector<AigLit> eval(const Expr& e) {
    switch (e.kind) {
      case Expr::kConst: {
        std::vector<AigLit> bits;
        bits.reserve(e.const_bits.size());
        for (bool b : e.const_bits) bits.push_back(b ? kAigTrue : kAigFalse);
        return bits;
      }
      case Expr::kIdent: {
        if (e.ident == m_.clock) {
          fail(e.pos, "clock used in expression");
        }
        return signal_value(e.ident, e.pos);
      }
      case Expr::kBitSel: {
        const std::vector<AigLit> v = signal_value(e.ident, e.pos);
        if (e.bit < 0 || e.bit >= static_cast<int>(v.size())) {
          fail(e.pos, "bit index out of range: " + e.ident);
        }
        return {v[static_cast<std::size_t>(e.bit)]};
      }
      case Expr::kNot: {
        std::vector<AigLit> v = eval(*e.a);
        for (AigLit& l : v) l = aig_not(l);
        return v;
      }
      case Expr::kBinary: {
        const std::vector<AigLit> a = eval(*e.a);
        const std::vector<AigLit> b = eval(*e.b);
        if (a.size() != b.size()) {
          fail(e.pos, "operand width mismatch");
        }
        std::vector<AigLit> out(a.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          switch (e.op) {
            case '&': out[i] = aig_->land(a[i], b[i]); break;
            case '|': out[i] = aig_->lor(a[i], b[i]); break;
            case '^': out[i] = aig_->lxor(a[i], b[i]); break;
            default: fail(e.pos, "bad operator");
          }
        }
        return out;
      }
      case Expr::kTernary: {
        const std::vector<AigLit> cond = eval(*e.a);
        if (cond.size() != 1) {
          fail(e.pos, "ternary condition must be 1 bit");
        }
        const std::vector<AigLit> t = eval(*e.b);
        const std::vector<AigLit> f = eval(*e.c);
        if (t.size() != f.size()) {
          fail(e.pos, "ternary arm width mismatch");
        }
        std::vector<AigLit> out(t.size());
        for (std::size_t i = 0; i < t.size(); ++i) {
          out[i] = aig_->lmux(cond[0], t[i], f[i]);
        }
        return out;
      }
    }
    fail(e.pos, "bad expression");
  }

  [[noreturn]] static void fail(SourcePos at, const std::string& what) {
    throw_parse_error("hdl", at, what);
  }

  Module m_;
  Aig* aig_ = nullptr;
  std::unordered_map<std::string, std::vector<AigLit>> values_;
  std::set<std::string> resolved_;
  std::set<std::string> in_flight_;
  std::map<std::pair<std::string, int>, const Assign*> comb_assign_;
  std::map<std::pair<std::string, int>, const Assign*> reg_assign_;
};

}  // namespace

AigCircuit parse_hdl(const std::string& source) {
  Module m = HdlParser(source).parse();
  return Elaborator(std::move(m)).elaborate();
}

AigCircuit parse_hdl_file(const std::string& path) {
  std::ifstream f(path);
  SECFLOW_CHECK(f.good(), "cannot open: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return parse_hdl(ss.str());
}

}  // namespace secflow
