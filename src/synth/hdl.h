// Mini-HDL front-end: a small synthesizable Verilog subset.
//
// Supported constructs:
//
//   module NAME (input clk, input [3:0] a, output [3:0] y, ...);
//     wire [3:0] w;           // and scalar: wire s;
//     reg  [3:0] r;
//     assign w = a ^ 4'b0110;
//     assign y = r;
//     assign w[2] = a[0] & s; // bit-granular assignment
//     always @(posedge clk) begin
//       r <= w & a;
//     end
//   endmodule
//
// Expressions: & | ^ ~, parentheses, ternary c ? t : f, identifiers,
// bit-select x[i], sized binary/decimal/hex literals (4'b0101, 6'd46,
// 8'h2E).  Vector operators require equal operand widths; a ternary
// condition must be 1 bit wide.  Exactly one clock domain (posedge) is
// supported.
//
// The language has one AST, HdlModule, and the front end owns it in both
// directions: parse_hdl_module() reads text into it, elaborate_hdl()
// bit-blasts it into an AigCircuit ready for technology mapping, and
// emit_hdl() prints it back as text.  The differential fuzzer (fuzz/)
// builds, transforms and shrinks HdlModules and reads every stored
// reproducer back through parse_hdl_module().
//
// Width model: every signal is either scalar (width 1) or a [W-1:0]
// vector; an expression takes the width of its context (binary operands
// match, a mux condition and a bit-select are scalar).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/lexer.h"
#include "synth/circuit.h"

namespace secflow {

/// An expression.  Equality ignores source positions, so a parsed AST
/// equals one built in code.
struct HdlExpr {
  enum class Kind { kConst, kRef, kBitSel, kNot, kAnd, kOr, kXor, kMux };

  Kind kind = Kind::kConst;
  std::uint64_t value = 0;  ///< kConst: the low `width` bits
  int width = 1;            ///< kConst: bits in the literal, 1..64
  std::string ref;          ///< kRef / kBitSel: signal name
  int bit = 0;              ///< kBitSel: selected bit
  /// kNot: 1 child; kAnd/kOr/kXor: 2; kMux: 3 (cond, then, else).
  std::vector<HdlExpr> kids;
  SourcePos pos{};  ///< the operator, name or literal

  bool operator==(const HdlExpr& o) const;
};

/// One `assign` (comb) or one nonblocking `<=` (seq) statement.
struct HdlStmt {
  std::string target;
  int target_bit = -1;  ///< -1 = whole signal, else single-bit assignment
  HdlExpr rhs;
  SourcePos pos{};  ///< the target

  bool operator==(const HdlStmt& o) const;
};

struct HdlSignal {
  std::string name;
  int width = 1;
  SourcePos pos{};  ///< the declared name

  bool operator==(const HdlSignal& o) const;
};

struct HdlModule {
  std::string name;
  std::vector<HdlSignal> inputs;  ///< data inputs, header order (no clock)
  std::vector<HdlSignal> outputs;
  std::vector<HdlSignal> wires;
  std::vector<HdlSignal> regs;
  /// The posedge clock input; "" when the module has no always block.
  std::string clock;
  SourcePos clock_pos;        ///< the clock's declared name
  bool split_always = false;  ///< one always block per seq statement
  std::vector<HdlStmt> comb;  ///< assign statements, source order
  std::vector<HdlStmt> seq;   ///< nonblocking statements, source order

  bool operator==(const HdlModule& o) const;
};

/// Parse mini-HDL source into its AST.  Throws ParseError
/// ("hdl <line>:<column>") on a syntax error, a duplicate signal, more
/// than one clock, or a clock that is not a scalar input port.
HdlModule parse_hdl_module(const std::string& source);

/// Bit-blast a module into an AigCircuit: input ports in header order,
/// then registers in declaration order, become the AIG inputs.  Throws
/// ParseError on elaboration errors (width mismatch, undefined signal,
/// combinational loop, multiple drivers), at the statement, expression
/// or declaration at fault.
AigCircuit elaborate_hdl(const HdlModule& m);

/// elaborate_hdl(parse_hdl_module(source)).
AigCircuit parse_hdl(const std::string& source);

/// Parse a file.
AigCircuit parse_hdl_file(const std::string& path);

/// Print a module as mini-HDL, one declaration or statement per line: the
/// clock first among the ports, every binary and mux node parenthesized,
/// constants in decimal.  parse_hdl_module() reads the text back to an
/// equal module.
std::string emit_hdl(const HdlModule& m);

}  // namespace secflow
