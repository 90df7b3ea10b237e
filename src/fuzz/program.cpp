#include "fuzz/program.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>

#include "base/error.h"
#include "base/lexer.h"
#include "base/rng.h"

namespace secflow {
namespace {

void emit_expr(std::ostream& os, const FuzzExpr& e) {
  switch (e.kind) {
    case FuzzExpr::Kind::kConst:
      // Width is recovered at parse time from the target's declaration;
      // emit as decimal so any width 1..64 round-trips.  The emitter does
      // not know the context width, so the generator stores it in `bit`.
      os << e.bit << "'d" << e.value;
      break;
    case FuzzExpr::Kind::kRef:
      os << e.ref;
      break;
    case FuzzExpr::Kind::kBitSel:
      os << e.ref << "[" << e.bit << "]";
      break;
    case FuzzExpr::Kind::kNot:
      os << "~";
      emit_expr(os, e.kids[0]);
      break;
    case FuzzExpr::Kind::kAnd:
    case FuzzExpr::Kind::kOr:
    case FuzzExpr::Kind::kXor: {
      const char* op = e.kind == FuzzExpr::Kind::kAnd   ? " & "
                       : e.kind == FuzzExpr::Kind::kOr ? " | "
                                                       : " ^ ";
      os << "(";
      emit_expr(os, e.kids[0]);
      os << op;
      emit_expr(os, e.kids[1]);
      os << ")";
      break;
    }
    case FuzzExpr::Kind::kMux:
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

void emit_decl(std::ostream& os, const char* cls, const FuzzSignal& s) {
  os << "  " << cls << " ";
  if (s.width > 1) os << "[" << s.width - 1 << ":0] ";
  os << s.name << ";\n";
}

void emit_stmt_target(std::ostream& os, const FuzzStmt& st) {
  os << st.target;
  if (st.target_bit >= 0) os << "[" << st.target_bit << "]";
}

}  // namespace

std::string emit_hdl(const FuzzProgram& p) {
  std::ostringstream os;
  os << "module " << p.name << " (";
  bool first = true;
  auto port = [&](const char* dir, const FuzzSignal& s) {
    if (!first) os << ", ";
    first = false;
    os << dir << " ";
    if (s.width > 1) os << "[" << s.width - 1 << ":0] ";
    os << s.name;
  };
  if (p.has_clk) port("input", FuzzSignal{"clk", 1});
  for (const auto& s : p.ports_in) port("input", s);
  for (const auto& s : p.ports_out) port("output", s);
  os << ");\n";
  for (const auto& s : p.wires) emit_decl(os, "wire", s);
  for (const auto& s : p.regs) emit_decl(os, "reg", s);
  for (const auto& st : p.comb) {
    os << "  assign ";
    emit_stmt_target(os, st);
    os << " = ";
    emit_expr(os, st.rhs);
    os << ";\n";
  }
  if (!p.seq.empty()) {
    if (p.split_always) {
      for (const auto& st : p.seq) {
        os << "  always @(posedge clk) ";
        emit_stmt_target(os, st);
        os << " <= ";
        emit_expr(os, st.rhs);
        os << ";\n";
      }
    } else {
      os << "  always @(posedge clk) begin\n";
      for (const auto& st : p.seq) {
        os << "    ";
        emit_stmt_target(os, st);
        os << " <= ";
        emit_expr(os, st.rhs);
        os << ";\n";
      }
      os << "  end\n";
    }
  }
  os << "endmodule\n";
  return os.str();
}

int hdl_line_count(const FuzzProgram& p) {
  const std::string text = emit_hdl(p);
  return static_cast<int>(std::count(text.begin(), text.end(), '\n'));
}

int signal_width(const FuzzProgram& p, const std::string& name) {
  for (const auto* v : {&p.ports_in, &p.ports_out, &p.wires, &p.regs})
    for (const auto& s : *v)
      if (s.name == name) return s.width;
  return 0;
}

// --- parser -----------------------------------------------------------------
//
// A strict recursive-descent reader of exactly the emit_hdl() output
// language.  It exists for replay (corpus .v → FuzzProgram), so it rejects
// anything the emitter cannot produce rather than guessing.

namespace {

class ProgramParser {
 public:
  explicit ProgramParser(const std::string& src) : lex_(src, "fuzz-program") {}

  FuzzProgram parse() {
    FuzzProgram p;
    lex_.expect("module");
    p.name = ident().text;
    lex_.expect("(");
    bool first = true;
    while (!lex_.at(")")) {
      if (!first) lex_.expect(",");
      first = false;
      const Token dir = ident();
      FuzzSignal s;
      s.width = opt_range();
      s.name = ident().text;
      if (dir.text == "input") {
        if (s.name == "clk") {
          if (s.width != 1 || p.has_clk || !p.ports_in.empty())
            lex_.fail(dir.pos, "clk must be the first scalar input");
          p.has_clk = true;
        } else {
          p.ports_in.push_back(std::move(s));
        }
      } else if (dir.text == "output") {
        p.ports_out.push_back(std::move(s));
      } else {
        lex_.fail(dir.pos,
                  "expected input/output, got '" + std::string(dir.text) + "'");
      }
    }
    lex_.expect(")");
    lex_.expect(";");
    bool saw_always = false;
    while (!lex_.at("endmodule")) {
      const Token head = ident();
      if (head.text == "wire" || head.text == "reg") {
        FuzzSignal s;
        s.width = opt_range();
        s.name = ident().text;
        lex_.expect(";");
        (head.text == "wire" ? p.wires : p.regs).push_back(std::move(s));
      } else if (head.text == "assign") {
        p.comb.push_back(stmt("="));
        lex_.expect(";");
      } else if (head.text == "always") {
        lex_.expect("@");
        lex_.expect("(");
        lex_.expect("posedge");
        lex_.expect("clk");
        lex_.expect(")");
        if (lex_.at("begin")) {
          if (saw_always) lex_.fail("multiple begin/end always blocks");
          lex_.next();
          while (!lex_.at("end")) {
            p.seq.push_back(stmt("<="));
            lex_.expect(";");
          }
          lex_.expect("end");
        } else {
          p.split_always = true;
          p.seq.push_back(stmt("<="));
          lex_.expect(";");
        }
        saw_always = true;
      } else {
        lex_.fail(head.pos,
                  "unexpected item '" + std::string(head.text) + "'");
      }
    }
    lex_.expect("endmodule");
    if (lex_.peek().kind != Token::Kind::kEnd)
      lex_.fail("trailing input after endmodule");
    if (!p.seq.empty() && !p.has_clk)
      lex_.fail("sequential program without clk");
    return p;
  }

 private:
  FuzzStmt stmt(const char* op) {
    FuzzStmt st;
    st.target = ident().text;
    if (lex_.at("[")) {
      lex_.next();
      st.target_bit = number("bit index");
      lex_.expect("]");
    }
    lex_.expect(op);
    st.rhs = expr();
    return st;
  }

  // The emitter parenthesizes every binary/mux node, so an expression is:
  //   primary | ~expr | ( expr OP expr ) | ( expr ? expr : expr )
  FuzzExpr expr() {
    FuzzExpr e;
    if (lex_.at("~")) {
      lex_.next();
      e.kind = FuzzExpr::Kind::kNot;
      e.kids.push_back(expr());
      return e;
    }
    if (lex_.at("(")) {
      lex_.next();
      FuzzExpr lhs = expr();
      if (lex_.at("?")) {
        lex_.next();
        e.kind = FuzzExpr::Kind::kMux;
        e.kids.push_back(std::move(lhs));
        e.kids.push_back(expr());
        lex_.expect(":");
        e.kids.push_back(expr());
      } else {
        if (lex_.at("&")) {
          e.kind = FuzzExpr::Kind::kAnd;
        } else if (lex_.at("|")) {
          e.kind = FuzzExpr::Kind::kOr;
        } else if (lex_.at("^")) {
          e.kind = FuzzExpr::Kind::kXor;
        } else {
          lex_.fail("expected binary operator");
        }
        lex_.next();
        e.kids.push_back(std::move(lhs));
        e.kids.push_back(expr());
      }
      lex_.expect(")");
      return e;
    }
    if (lex_.peek().kind == Token::Kind::kNumber) {
      // WIDTH'dVALUE: the value's digits follow the `d` of one token.
      e.kind = FuzzExpr::Kind::kConst;
      e.bit = lex_.number<int>("literal width", 1, 64);
      lex_.expect("'");
      const Token value = lex_.next();
      if (value.kind != Token::Kind::kIdent || value.text[0] != 'd')
        lex_.fail(value.pos, "expected decimal literal");
      e.value = lex_.number<std::uint64_t>(value.tail(1), "literal value", 0,
                                           UINT64_MAX);
      return e;
    }
    e.ref = ident().text;
    if (lex_.at("[")) {
      lex_.next();
      e.kind = FuzzExpr::Kind::kBitSel;
      e.bit = number("bit index");
      lex_.expect("]");
    } else {
      e.kind = FuzzExpr::Kind::kRef;
    }
    return e;
  }

  // [W-1:0] or nothing.
  int opt_range() {
    if (!lex_.at("[")) return 1;
    lex_.next();
    const int msb = number("range msb");
    lex_.expect(":");
    lex_.number<int>("range lsb", 0, 0);
    lex_.expect("]");
    return msb + 1;
  }

  Token ident() {
    const Token t = lex_.next();
    if (t.kind != Token::Kind::kIdent || t.text[0] == '\\')
      lex_.fail(t.pos, "expected identifier, got '" + std::string(t.text) + "'");
    return t;
  }

  int number(const char* what) { return lex_.number<int>(what, 0, 1'000'000); }

  Lexer lex_;
};

/// Fisher–Yates with the repo's deterministic Rng.
template <typename T>
void shuffle_vec(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[rng.next_below(i)]);
}

void rename_in_expr(FuzzExpr& e,
                    const std::map<std::string, std::string>& table) {
  if (!e.ref.empty()) {
    auto it = table.find(e.ref);
    if (it != table.end()) e.ref = it->second;
  }
  for (auto& k : e.kids) rename_in_expr(k, table);
}

}  // namespace

FuzzProgram parse_fuzz_program(const std::string& hdl) {
  return ProgramParser(hdl).parse();
}

FuzzProgram rename_wires(const FuzzProgram& p, std::uint64_t seed) {
  FuzzProgram out = p;
  Rng rng(seed);
  std::map<std::string, std::string> table;
  std::set<std::string> taken;
  for (const auto* v : {&p.ports_in, &p.ports_out, &p.regs})
    for (const auto& s : *v) taken.insert(s.name);
  taken.insert("clk");
  for (auto& s : out.wires) {
    std::string fresh;
    do {
      fresh = "mw" + std::to_string(rng.next_below(100000));
    } while (!taken.insert(fresh).second);
    table[s.name] = fresh;
    s.name = fresh;
  }
  for (auto* stmts : {&out.comb, &out.seq})
    for (auto& st : *stmts) {
      auto it = table.find(st.target);
      if (it != table.end()) st.target = it->second;
      rename_in_expr(st.rhs, table);
    }
  return out;
}

FuzzProgram shuffle_statements(const FuzzProgram& p, std::uint64_t seed) {
  FuzzProgram out = p;
  Rng rng(seed);
  shuffle_vec(out.wires, rng);
  shuffle_vec(out.comb, rng);
  shuffle_vec(out.seq, rng);
  out.split_always = rng.next_bool();
  return out;
}

FuzzProgram permute_ports(const FuzzProgram& p, std::uint64_t seed) {
  FuzzProgram out = p;
  Rng rng(seed);
  shuffle_vec(out.ports_in, rng);
  shuffle_vec(out.ports_out, rng);
  return out;
}

}  // namespace secflow
