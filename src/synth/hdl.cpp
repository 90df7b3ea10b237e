#include "synth/hdl.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "base/error.h"

namespace secflow {

bool HdlExpr::operator==(const HdlExpr& o) const {
  return kind == o.kind && value == o.value && width == o.width &&
         ref == o.ref && bit == o.bit && kids == o.kids;
}

bool HdlStmt::operator==(const HdlStmt& o) const {
  return target == o.target && target_bit == o.target_bit && rhs == o.rhs;
}

bool HdlSignal::operator==(const HdlSignal& o) const {
  return name == o.name && width == o.width;
}

bool HdlModule::operator==(const HdlModule& o) const {
  return name == o.name && inputs == o.inputs && outputs == o.outputs &&
         wires == o.wires && regs == o.regs && clock == o.clock &&
         split_always == o.split_always && comb == o.comb && seq == o.seq;
}

namespace {

// --- parser ------------------------------------------------------------------

// Highest vector bit and bit index, far enough from INT_MAX that msb + 1
// cannot overflow.
constexpr int kMaxBit = (1 << 20) - 1;

class HdlParser {
 public:
  explicit HdlParser(const std::string& text) : lex_(text, "hdl") {}

  HdlModule parse() {
    lex_.expect("module");
    m_.name = name("module name").text;
    lex_.expect("(");
    if (!lex_.at(")")) {
      for (;;) {
        parse_port_decl();
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
      parse_item();
    }
    lex_.expect("endmodule");
    const Token& rest = lex_.peek();
    if (rest.kind != Token::Kind::kEnd) {
      lex_.fail(rest.pos, "unexpected text after endmodule: '" +
                              std::string(rest.text) + "'");
    }
    if (!m_.clock.empty()) take_clock();
    return std::move(m_);
  }

 private:
  void declare(std::vector<HdlSignal>& list, const Token& name, int width) {
    std::string n(name.text);
    if (!declared_.insert(n).second) {
      lex_.fail(name.pos, "duplicate signal: " + n);
    }
    list.push_back(HdlSignal{std::move(n), width, name.pos});
  }

  /// Moves the clock out of the data inputs.
  void take_clock() {
    const auto it = std::find_if(
        m_.inputs.begin(), m_.inputs.end(),
        [&](const HdlSignal& s) { return s.name == m_.clock; });
    if (it == m_.inputs.end() || it->width != 1) {
      lex_.fail(clock_use_,
                "clock " + m_.clock + " must be a scalar input port");
    }
    m_.clock_pos = it->pos;
    m_.inputs.erase(it);
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

  void parse_port_decl() {
    const Token dir = name("port direction");
    if (dir.text != "input" && dir.text != "output") {
      lex_.fail(dir.pos,
                "expected input/output, got '" + std::string(dir.text) + "'");
    }
    const int width = parse_optional_range();
    declare(dir.text == "input" ? m_.inputs : m_.outputs, name("port name"),
            width);
  }

  void parse_item() {
    const Token head = name("item");
    if (head.text == "wire" || head.text == "reg") {
      std::vector<HdlSignal>& list = head.text == "wire" ? m_.wires : m_.regs;
      const int width = parse_optional_range();
      for (;;) {
        declare(list, name("signal name"), width);
        if (lex_.at(";")) break;
        lex_.expect(",");
      }
      lex_.expect(";");
    } else if (head.text == "assign") {
      m_.comb.push_back(parse_stmt("="));
    } else if (head.text == "always") {
      parse_always();
    } else {
      lex_.fail(head.pos,
                "unsupported construct: '" + std::string(head.text) + "'");
    }
  }

  /// TARGET or TARGET[bit], then `op`, an expression and ';'.
  HdlStmt parse_stmt(const char* op) {
    HdlStmt st;
    const Token target = name("assignment target");
    st.target = target.text;
    st.pos = target.pos;
    if (lex_.at("[")) {
      lex_.next();
      st.target_bit = lex_.number<int>("bit index", 0, kMaxBit);
      lex_.expect("]");
    }
    lex_.expect(op);
    st.rhs = parse_expr();
    lex_.expect(";");
    return st;
  }

  void parse_always() {
    lex_.expect("@");
    lex_.expect("(");
    lex_.expect("posedge");
    const Token clk = name("clock name");
    if (m_.clock.empty()) {
      m_.clock = clk.text;
      clock_use_ = clk.pos;
    } else if (m_.clock != clk.text) {
      lex_.fail(clk.pos, "multiple clock domains are not supported");
    }
    lex_.expect(")");
    const bool block = lex_.at("begin");
    if (block) {
      lex_.next();
    } else {
      m_.split_always = true;
    }
    do {
      m_.seq.push_back(parse_stmt("<="));
    } while (block && !lex_.at("end"));
    if (block) lex_.expect("end");
  }

  /// A node of `kind` at the next token (its operator), which it consumes.
  HdlExpr operator_node(HdlExpr::Kind kind) {
    HdlExpr e;
    e.kind = kind;
    e.pos = lex_.next().pos;
    return e;
  }

  // Precedence (lowest first): ?: , | , ^ , & , ~/primary.
  HdlExpr parse_expr() {
    HdlExpr cond = parse_or();
    if (!lex_.at("?")) return cond;
    HdlExpr e = operator_node(HdlExpr::Kind::kMux);
    e.kids.push_back(std::move(cond));
    e.kids.push_back(parse_expr());
    lex_.expect(":");
    e.kids.push_back(parse_expr());
    return e;
  }

  /// A left-associative chain of `op` over operands of the next tier.
  HdlExpr parse_chain(const char* op, HdlExpr::Kind kind,
                      HdlExpr (HdlParser::*operand)()) {
    HdlExpr lhs = (this->*operand)();
    while (lex_.at(op)) {
      HdlExpr e = operator_node(kind);
      e.kids.push_back(std::move(lhs));
      e.kids.push_back((this->*operand)());
      lhs = std::move(e);
    }
    return lhs;
  }
  HdlExpr parse_or() {
    return parse_chain("|", HdlExpr::Kind::kOr, &HdlParser::parse_xor);
  }
  HdlExpr parse_xor() {
    return parse_chain("^", HdlExpr::Kind::kXor, &HdlParser::parse_and);
  }
  HdlExpr parse_and() {
    return parse_chain("&", HdlExpr::Kind::kAnd, &HdlParser::parse_unary);
  }

  HdlExpr parse_unary() {
    if (lex_.at("~")) {
      HdlExpr e = operator_node(HdlExpr::Kind::kNot);
      e.kids.push_back(parse_unary());
      return e;
    }
    if (lex_.at("(")) {
      lex_.next();
      HdlExpr e = parse_expr();
      lex_.expect(")");
      return e;
    }
    if (lex_.peek().kind == Token::Kind::kNumber) return parse_literal();
    const Token id = name("expression");
    HdlExpr e;
    e.kind = HdlExpr::Kind::kRef;
    e.ref = id.text;
    e.pos = id.pos;
    if (lex_.at("[")) {
      lex_.next();
      e.kind = HdlExpr::Kind::kBitSel;
      e.bit = lex_.number<int>("bit index", 0, kMaxBit);
      lex_.expect("]");
    }
    return e;
  }

  // A sized literal, WIDTH'<base><digits> with base b, d or h (4'b0101,
  // 6'd46, 8'h2E); '_' may separate digits.  Digits beyond WIDTH bits are
  // dropped, as in Verilog, but the value must fit 64 bits.
  HdlExpr parse_literal() {
    HdlExpr e;
    e.kind = HdlExpr::Kind::kConst;
    e.pos = lex_.peek().pos;
    e.width = lex_.number<int>("literal width", 1, 64);
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
    const char* const end = digits.data() + digits.size();
    const auto [stop, ec] = std::from_chars(digits.data(), end, e.value, base);
    if (ec != std::errc{} || stop != end) {
      lex_.fail(body.pos, "expected base-" + std::to_string(base) +
                              " digits fitting 64 bits, got '" +
                              std::string(body.text) + "'");
    }
    if (e.width < 64) e.value &= (std::uint64_t{1} << e.width) - 1;
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
  HdlModule m_;
  std::set<std::string> declared_;
  SourcePos clock_use_;  ///< the first `posedge` clock name
};

// --- elaboration -------------------------------------------------------------

class Elaborator {
 public:
  explicit Elaborator(const HdlModule& m) : m_(m) {
    if (!m.clock.empty()) {
      declare(HdlSignal{m.clock, 1, m.clock_pos}, SigKind::kInput);
    }
    for (const HdlSignal& s : m.inputs) declare(s, SigKind::kInput);
    for (const HdlSignal& s : m.outputs) declare(s, SigKind::kNet);
    for (const HdlSignal& s : m.wires) declare(s, SigKind::kNet);
    for (const HdlSignal& s : m.regs) declare(s, SigKind::kReg);
  }

  AigCircuit elaborate() {
    AigCircuit c;
    c.name = m_.name;
    c.clock = m_.clock.empty() ? "clk" : m_.clock;
    aig_ = &c.aig;
    index_assigns();

    // AIG inputs: the input ports (clock excluded), then the register Qs.
    for (const HdlSignal& s : m_.inputs) {
      std::vector<AigLit>& bits = values_[s.name];
      for (int i = 0; i < s.width; ++i) {
        const std::string bn = circuit_bit_name(s.name, i, s.width);
        bits.push_back(c.aig.new_input(bn));
        c.inputs.push_back(CircuitBit{bn, bits.back()});
      }
    }
    for (const HdlSignal& s : m_.regs) {
      std::vector<AigLit>& bits = values_[s.name];
      for (int i = 0; i < s.width; ++i) {
        const std::string bn = circuit_bit_name(s.name, i, s.width);
        bits.push_back(c.aig.new_input("reg:" + bn));
        c.regs.push_back(CircuitReg{bn, bits.back(), 0});
      }
    }

    // Register next-states, in the order the registers were created.
    auto reg = c.regs.begin();
    for (const HdlSignal& s : m_.regs) {
      for (const AigLit next : driven_bits(reg_assign_, s, true)) {
        (reg++)->next = next;
      }
    }

    for (const HdlSignal& s : m_.outputs) {
      const std::vector<AigLit> bits = signal_value(s.name, s.pos);
      for (int i = 0; i < s.width; ++i) {
        c.outputs.push_back(CircuitBit{circuit_bit_name(s.name, i, s.width),
                                       bits[static_cast<std::size_t>(i)]});
      }
    }
    return c;
  }

 private:
  /// kNet: an output port or a wire, driven by `assign`.
  enum class SigKind { kInput, kNet, kReg };

  struct Sig {
    SigKind kind;
    HdlSignal decl;
  };

  /// (target, bit) -> its statement; bit -1 is the whole signal.
  using Drivers = std::map<std::pair<std::string, int>, const HdlStmt*>;

  void declare(const HdlSignal& s, SigKind kind) {
    const auto [it, fresh] = signals_.emplace(s.name, Sig{kind, s});
    if (!fresh) fail(s.pos, "duplicate signal: " + s.name);
    check_bit_names(it->second.decl);
  }

  /// Bit i of a vector `a` is named a_i in the circuit, so `a[1]` and a
  /// scalar `a_1` would name one net twice; the later declaration fails.
  void check_bit_names(const HdlSignal& s) {
    const auto label = [](const HdlSignal& sig, int bit) {
      return sig.width == 1 ? sig.name
                            : sig.name + "[" + std::to_string(bit) + "]";
    };
    for (int i = 0; i < s.width; ++i) {
      const std::string name = circuit_bit_name(s.name, i, s.width);
      const auto [it, fresh] = bit_owner_.emplace(name, std::pair(&s, i));
      if (fresh) continue;
      const auto [other, other_bit] = it->second;
      const bool s_later = std::pair(other->pos.line, other->pos.column) <
                           std::pair(s.pos.line, s.pos.column);
      const HdlSignal& later = s_later ? s : *other;
      const HdlSignal& earlier = s_later ? *other : s;
      fail(later.pos, "signal " + label(later, s_later ? i : other_bit) +
                          " collides with " +
                          label(earlier, s_later ? other_bit : i) +
                          ": both bit-blast to " + name);
    }
  }

  void index_assigns() {
    for (const HdlStmt& st : m_.comb) {
      const Sig& sig = signal(st.target, st.pos);
      if (sig.kind == SigKind::kInput) {
        fail(st.pos, "cannot assign input " + st.target);
      }
      if (sig.kind == SigKind::kReg) {
        fail(st.pos, "reg " + st.target + " must be assigned with <=");
      }
      register_target(comb_assign_, st, sig.decl);
    }
    for (const HdlStmt& st : m_.seq) {
      const Sig& sig = signal(st.target, st.pos);
      if (sig.kind != SigKind::kReg) {
        fail(st.pos, "<= target " + st.target + " must be a reg");
      }
      register_target(reg_assign_, st, sig.decl);
    }
  }

  void register_target(Drivers& dst, const HdlStmt& st, const HdlSignal& s) {
    if (st.target_bit >= s.width) {
      fail(st.pos, "bit index out of range: " + st.target);
    }
    const auto key = std::make_pair(st.target, st.target_bit);
    const auto any_bit = dst.lower_bound(std::make_pair(st.target, -1));
    if (dst.contains(key) ||
        (st.target_bit == -1 && any_bit != dst.end() &&
         any_bit->first.first == st.target) ||
        (st.target_bit >= 0 && dst.contains(std::make_pair(st.target, -1)))) {
      fail(st.pos, "multiple drivers for " + st.target);
    }
    dst.emplace(key, &st);
  }

  const Sig& signal(const std::string& name, SourcePos at) {
    const auto it = signals_.find(name);
    if (it == signals_.end()) fail(at, "undefined signal: " + name);
    return it->second;
  }

  static const HdlStmt* driver(const Drivers& d, const std::string& name,
                               int bit) {
    const auto it = d.find(std::make_pair(name, bit));
    return it == d.end() ? nullptr : it->second;
  }

  /// The bits of `s` its statements in `drivers` compute: one whole-signal
  /// statement, or one per bit of a wire, port or (`reg`) register.
  std::vector<AigLit> driven_bits(const Drivers& drivers, const HdlSignal& s,
                                  bool reg) {
    if (const HdlStmt* whole = driver(drivers, s.name, -1)) {
      std::vector<AigLit> bits = eval(whole->rhs);
      if (static_cast<int>(bits.size()) != s.width) {
        fail(whole->pos, "width mismatch assigning " + s.name);
      }
      return bits;
    }
    std::vector<AigLit> bits;
    for (int i = 0; i < s.width; ++i) {
      const HdlStmt* one = driver(drivers, s.name, i);
      if (one == nullptr) {
        const std::string bit = "[" + std::to_string(i) + "]";
        fail(s.pos, reg ? "reg bit never assigned: " + s.name + bit
                        : "signal never assigned: " + s.name +
                              (s.width > 1 ? bit : ""));
      }
      const std::vector<AigLit> rhs = eval(one->rhs);
      if (rhs.size() != 1) {
        fail(one->pos, "bit assignment needs 1-bit rhs: " + s.name);
      }
      bits.push_back(rhs[0]);
    }
    return bits;
  }

  /// Value of a whole signal, computing wire assignments on demand; `at`
  /// is the reference or declaration that asks for it.
  std::vector<AigLit> signal_value(const std::string& name, SourcePos at) {
    const auto it = values_.find(name);
    if (it != values_.end()) return it->second;
    if (in_flight_.contains(name)) {
      fail(at, "combinational loop through " + name);
    }
    const Sig& sig = signal(name, at);
    in_flight_.insert(name);
    std::vector<AigLit> bits = driven_bits(comb_assign_, sig.decl, false);
    in_flight_.erase(name);
    values_[name] = bits;
    return bits;
  }

  std::vector<AigLit> eval(const HdlExpr& e) {
    using K = HdlExpr::Kind;
    switch (e.kind) {
      case K::kConst: {
        if (e.width < 1 || e.width > 64) fail(e.pos, "bad literal width");
        std::vector<AigLit> bits;
        for (int i = 0; i < e.width; ++i) {
          bits.push_back((e.value >> i) & 1 ? kAigTrue : kAigFalse);
        }
        return bits;
      }
      case K::kRef:
        if (e.ref == m_.clock) fail(e.pos, "clock used in expression");
        return signal_value(e.ref, e.pos);
      case K::kBitSel: {
        const std::vector<AigLit> v = signal_value(e.ref, e.pos);
        if (e.bit < 0 || e.bit >= static_cast<int>(v.size())) {
          fail(e.pos, "bit index out of range: " + e.ref);
        }
        return {v[static_cast<std::size_t>(e.bit)]};
      }
      case K::kNot: {
        std::vector<AigLit> v = eval(e.kids[0]);
        for (AigLit& l : v) l = aig_not(l);
        return v;
      }
      case K::kAnd:
      case K::kOr:
      case K::kXor: {
        const std::vector<AigLit> a = eval(e.kids[0]);
        const std::vector<AigLit> b = eval(e.kids[1]);
        if (a.size() != b.size()) fail(e.pos, "operand width mismatch");
        std::vector<AigLit> out(a.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
          out[i] = e.kind == K::kAnd  ? aig_->land(a[i], b[i])
                   : e.kind == K::kOr ? aig_->lor(a[i], b[i])
                                      : aig_->lxor(a[i], b[i]);
        }
        return out;
      }
      case K::kMux: {
        const std::vector<AigLit> cond = eval(e.kids[0]);
        if (cond.size() != 1) fail(e.pos, "ternary condition must be 1 bit");
        const std::vector<AigLit> t = eval(e.kids[1]);
        const std::vector<AigLit> f = eval(e.kids[2]);
        if (t.size() != f.size()) fail(e.pos, "ternary arm width mismatch");
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

  const HdlModule& m_;
  Aig* aig_ = nullptr;
  std::unordered_map<std::string, Sig> signals_;
  /// Bit-blasted name -> the signal and bit it names.
  std::unordered_map<std::string, std::pair<const HdlSignal*, int>>
      bit_owner_;
  std::unordered_map<std::string, std::vector<AigLit>> values_;  ///< resolved
  std::set<std::string> in_flight_;
  Drivers comb_assign_;
  Drivers reg_assign_;
};

// --- emitter -----------------------------------------------------------------

void emit_expr(std::ostream& os, const HdlExpr& e) {
  using K = HdlExpr::Kind;
  switch (e.kind) {
    case K::kConst:
      os << e.width << "'d" << e.value;
      break;
    case K::kRef:
      os << e.ref;
      break;
    case K::kBitSel:
      os << e.ref << "[" << e.bit << "]";
      break;
    case K::kNot:
      os << "~";
      emit_expr(os, e.kids[0]);
      break;
    case K::kAnd:
    case K::kOr:
    case K::kXor:
      os << "(";
      emit_expr(os, e.kids[0]);
      os << (e.kind == K::kAnd ? " & " : e.kind == K::kOr ? " | " : " ^ ");
      emit_expr(os, e.kids[1]);
      os << ")";
      break;
    case K::kMux:
      os << "(";
      emit_expr(os, e.kids[0]);
      os << " ? ";
      emit_expr(os, e.kids[1]);
      os << " : ";
      emit_expr(os, e.kids[2]);
      os << ")";
      break;
  }
}

void emit_range(std::ostream& os, const HdlSignal& s) {
  if (s.width > 1) os << "[" << s.width - 1 << ":0] ";
}

void emit_decl(std::ostream& os, const char* cls, const HdlSignal& s) {
  os << "  " << cls << " ";
  emit_range(os, s);
  os << s.name << ";\n";
}

void emit_stmt(std::ostream& os, const std::string& lead, const HdlStmt& st,
               const char* op) {
  os << lead << st.target;
  if (st.target_bit >= 0) os << "[" << st.target_bit << "]";
  os << " " << op << " ";
  emit_expr(os, st.rhs);
  os << ";\n";
}

}  // namespace

HdlModule parse_hdl_module(const std::string& source) {
  return HdlParser(source).parse();
}

AigCircuit elaborate_hdl(const HdlModule& m) {
  return Elaborator(m).elaborate();
}

AigCircuit parse_hdl(const std::string& source) {
  return elaborate_hdl(parse_hdl_module(source));
}

AigCircuit parse_hdl_file(const std::string& path) {
  std::ifstream f(path);
  SECFLOW_CHECK(f.good(), "cannot open: " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  return parse_hdl(ss.str());
}

std::string emit_hdl(const HdlModule& m) {
  std::ostringstream os;
  os << "module " << m.name << " (";
  const char* sep = "";
  auto port = [&](const char* dir, const HdlSignal& s) {
    os << sep << dir << " ";
    sep = ", ";
    emit_range(os, s);
    os << s.name;
  };
  if (!m.clock.empty()) port("input", HdlSignal{m.clock, 1, {}});
  for (const HdlSignal& s : m.inputs) port("input", s);
  for (const HdlSignal& s : m.outputs) port("output", s);
  os << ");\n";
  for (const HdlSignal& s : m.wires) emit_decl(os, "wire", s);
  for (const HdlSignal& s : m.regs) emit_decl(os, "reg", s);
  for (const HdlStmt& st : m.comb) emit_stmt(os, "  assign ", st, "=");
  const std::string always = "always @(posedge " + m.clock + ")";
  if (m.split_always) {
    for (const HdlStmt& st : m.seq) {
      emit_stmt(os, "  " + always + " ", st, "<=");
    }
  } else if (!m.seq.empty()) {
    os << "  " << always << " begin\n";
    for (const HdlStmt& st : m.seq) emit_stmt(os, "    ", st, "<=");
    os << "  end\n";
  }
  os << "endmodule\n";
  return os.str();
}

}  // namespace secflow
