#include "synth/hdl.h"

#include <gtest/gtest.h>

#include "base/error.h"
#include "ckpt/fingerprint.h"

namespace secflow {
namespace {

/// Evaluate a combinational AigCircuit output for given input bit values
/// keyed by scalar bit name.
bool eval_output(const AigCircuit& c, const std::string& out_name,
                 const std::vector<std::pair<std::string, bool>>& ins) {
  std::vector<bool> vals(c.aig.n_nodes(), false);
  for (const auto& [name, v] : ins) {
    bool found = false;
    for (const CircuitBit& b : c.inputs) {
      if (b.name == name) {
        vals[aig_node(b.lit)] = v;
        found = true;
      }
    }
    EXPECT_TRUE(found) << "no input " << name;
  }
  for (const CircuitBit& b : c.outputs) {
    if (b.name == out_name) return c.aig.eval(b.lit, vals);
  }
  ADD_FAILURE() << "no output " << out_name;
  return false;
}

TEST(Hdl, CombinationalExpressions) {
  const AigCircuit c = parse_hdl(R"(
    module m (input a, input b, input s, output y, output z);
      wire t;
      assign t = a ^ b;
      assign y = s ? t : ~a;
      assign z = (a | b) & ~s;
    endmodule
  )");
  EXPECT_EQ(c.name, "m");
  EXPECT_TRUE(c.regs.empty());
  for (unsigned i = 0; i < 8; ++i) {
    const bool a = i & 1, b = i & 2, s = i & 4;
    EXPECT_EQ(eval_output(c, "y", {{"a", a}, {"b", b}, {"s", s}}),
              s ? (a != b) : !a)
        << i;
    EXPECT_EQ(eval_output(c, "z", {{"a", a}, {"b", b}, {"s", s}}),
              (a || b) && !s)
        << i;
  }
}

TEST(Hdl, VectorOperationsAndLiterals) {
  const AigCircuit c = parse_hdl(R"(
    module m (input [3:0] a, output [3:0] y);
      assign y = a ^ 4'b0110;
    endmodule
  )");
  ASSERT_EQ(c.inputs.size(), 4u);
  ASSERT_EQ(c.outputs.size(), 4u);
  for (unsigned v = 0; v < 16; ++v) {
    for (int bit = 0; bit < 4; ++bit) {
      const bool expect = ((v ^ 0b0110u) >> bit) & 1;
      EXPECT_EQ(eval_output(c, "y_" + std::to_string(bit),
                            {{"a_0", (v >> 0) & 1},
                             {"a_1", (v >> 1) & 1},
                             {"a_2", (v >> 2) & 1},
                             {"a_3", (v >> 3) & 1}}),
                expect)
          << v << " bit " << bit;
    }
  }
}

TEST(Hdl, DecimalAndHexLiterals) {
  const AigCircuit c = parse_hdl(R"(
    module m (input [5:0] a, output [5:0] y, output [5:0] z);
      assign y = a ^ 6'd46;
      assign z = a & 6'h2E;
    endmodule
  )");
  // 46 = 0b101110 = 0x2E.
  for (int bit = 0; bit < 6; ++bit) {
    const bool kbit = (46 >> bit) & 1;
    std::vector<std::pair<std::string, bool>> ins;
    for (int i = 0; i < 6; ++i) ins.emplace_back("a_" + std::to_string(i), true);
    EXPECT_EQ(eval_output(c, "y_" + std::to_string(bit), ins), !kbit);
    EXPECT_EQ(eval_output(c, "z_" + std::to_string(bit), ins), kbit);
  }
}

TEST(Hdl, BitSelectAndBitAssign) {
  const AigCircuit c = parse_hdl(R"(
    module m (input [1:0] a, output [1:0] y);
      assign y[0] = a[1];
      assign y[1] = ~a[0];
    endmodule
  )");
  EXPECT_EQ(eval_output(c, "y_0", {{"a_0", false}, {"a_1", true}}), true);
  EXPECT_EQ(eval_output(c, "y_1", {{"a_0", false}, {"a_1", true}}), true);
  EXPECT_EQ(eval_output(c, "y_1", {{"a_0", true}, {"a_1", false}}), false);
}

TEST(Hdl, RegistersElaborate) {
  const AigCircuit c = parse_hdl(R"(
    module m (input clk, input [1:0] d, output [1:0] q);
      reg [1:0] r;
      always @(posedge clk) begin
        r <= d ^ r;
      end
      assign q = r;
    endmodule
  )");
  EXPECT_EQ(c.clock, "clk");
  ASSERT_EQ(c.regs.size(), 2u);
  EXPECT_EQ(c.regs[0].name, "r_0");
  EXPECT_NE(c.regs[0].next, 0u);
  // Clock is not a data input.
  for (const CircuitBit& b : c.inputs) EXPECT_NE(b.name, "clk");
}

TEST(Hdl, WiresResolveOutOfOrder) {
  const AigCircuit c = parse_hdl(R"(
    module m (input a, output y);
      wire w2, w1;
      assign y = w2;
      assign w2 = ~w1;
      assign w1 = ~a;
    endmodule
  )");
  EXPECT_EQ(eval_output(c, "y", {{"a", true}}), true);
  EXPECT_EQ(eval_output(c, "y", {{"a", false}}), false);
}

TEST(Hdl, AnyModuleRoundTripsThroughEmit) {
  // Hand-written text, unlike the fuzzer's: the clock declared mid-header,
  // a multi-name declaration, unparenthesized chains, binary and hex
  // literals and split always blocks.  The emitted text parses back to an
  // equal module (positions aside) and elaborates to the same AIG.
  const HdlModule m = parse_hdl_module(R"(
    module m (input [1:0] d, input clk, input s, output [1:0] q, output z);
      wire b, a;
      reg [1:0] r;
      assign a = s ^ d[0] & ~d[1] | 1'b1;
      assign b = s ? a : d[1];
      assign z = b;
      always @(posedge clk) r[0] <= a;
      always @(posedge clk) r[1] <= b ^ 1'h1;
      assign q = r;
    endmodule
  )");
  EXPECT_EQ(m.clock, "clk");
  EXPECT_TRUE(m.split_always);
  ASSERT_EQ(m.inputs.size(), 2u);
  EXPECT_EQ(m.inputs[0].name, "d");
  EXPECT_EQ(m.wires[0].name, "b");
  const std::string text = emit_hdl(m);
  EXPECT_TRUE(text.starts_with("module m (input clk, input [1:0] d, input s, "))
      << text;
  const HdlModule again = parse_hdl_module(text);
  EXPECT_EQ(again, m) << text;
  EXPECT_NE(again.comb[0].pos.column, m.comb[0].pos.column);
  EXPECT_EQ(fingerprint(parse_hdl(text)), fingerprint(elaborate_hdl(m)));
}

TEST(Hdl, ErrorUndefinedSignal) {
  EXPECT_THROW(parse_hdl(R"(
    module m (input a, output y);
      assign y = ghost;
    endmodule)"),
               ParseError);
}

TEST(Hdl, ErrorWidthMismatch) {
  EXPECT_THROW(parse_hdl(R"(
    module m (input [3:0] a, input [1:0] b, output [3:0] y);
      assign y = a & b;
    endmodule)"),
               ParseError);
}

TEST(Hdl, ErrorCombinationalLoop) {
  EXPECT_THROW(parse_hdl(R"(
    module m (input a, output y);
      wire w;
      assign w = ~w;
      assign y = w;
    endmodule)"),
               ParseError);
}

TEST(Hdl, ErrorMultipleDrivers) {
  EXPECT_THROW(parse_hdl(R"(
    module m (input a, output y);
      assign y = a;
      assign y = ~a;
    endmodule)"),
               ParseError);
}

TEST(Hdl, ErrorMultipleClocks) {
  EXPECT_THROW(parse_hdl(R"(
    module m (input c1, input c2, input d, output q);
      reg r1, r2;
      always @(posedge c1) r1 <= d;
      always @(posedge c2) r2 <= d;
      assign q = r1 & r2;
    endmodule)"),
               ParseError);
}

TEST(Hdl, ErrorAssignToInput) {
  EXPECT_THROW(parse_hdl(R"(
    module m (input a, output y);
      assign a = y;
    endmodule)"),
               ParseError);
}

TEST(Hdl, ErrorRegContinuousAssign) {
  EXPECT_THROW(parse_hdl(R"(
    module m (input clk, input a, output y);
      reg r;
      assign r = a;
      always @(posedge clk) r <= a;
      assign y = r;
    endmodule)"),
               ParseError);
}

TEST(Hdl, ErrorNeverAssigned) {
  EXPECT_THROW(parse_hdl(R"(
    module m (input a, output y);
      wire w;
      assign y = w;
    endmodule)"),
               ParseError);
}

TEST(Hdl, ErrorClockInExpression) {
  EXPECT_THROW(parse_hdl(R"(
    module m (input clk, input a, output y);
      reg r;
      always @(posedge clk) r <= a;
      assign y = r & clk;
    endmodule)"),
               ParseError);
}

TEST(Hdl, ErrorBitOutOfRange) {
  EXPECT_THROW(parse_hdl(R"(
    module m (input [1:0] a, output y);
      assign y = a[5];
    endmodule)"),
               ParseError);
}

/// The ParseError `source` throws, as where() and what().
std::pair<std::string, std::string> parse_error(const std::string& source) {
  try {
    parse_hdl(source);
  } catch (const ParseError& e) {
    return {e.where(), e.what()};
  }
  ADD_FAILURE() << "no ParseError for:\n" << source;
  return {};
}

TEST(Hdl, RejectsTextAfterEndmodule) {
  const std::string one =
      "module a (input x, output y);\n  assign y = x;\nendmodule\n";
  EXPECT_NO_THROW(parse_hdl(one));
  EXPECT_NO_THROW(parse_hdl(one + "// trailing comment\n\n"));
  const auto [where, what] = parse_error(one + "this is not hdl ;;; ((\n");
  EXPECT_EQ(where, "hdl 4:1");
  EXPECT_NE(what.find("after endmodule: 'this'"), std::string::npos) << what;
  // A second module is trailing text too, named at its first token.
  EXPECT_EQ(parse_error(one + "  module b (); endmodule\n").first,
            "hdl 4:3");
}

TEST(Hdl, RejectsCollidingBitNames) {
  // Bit 1 of `a` bit-blasts to a_1, the name of the second input; the
  // error names both signals at the second declaration.
  const auto [where, what] = parse_error(
      "module m (input [1:0] a, input a_1, output y);\n"
      "  assign y = a[1] ^ a_1;\nendmodule\n");
  EXPECT_EQ(where, "hdl 1:32");
  EXPECT_NE(what.find("signal a_1 collides with a[1]"), std::string::npos)
      << what;
  // The later declaration is the error whichever kind comes first.
  EXPECT_EQ(parse_error("module m (input clk, output [1:0] y);\n"
                        "  reg a_0;\n  reg [1:0] a;\n"
                        "  always @(posedge clk) begin a_0 <= 1'b0; "
                        "a <= 2'b0; end\n"
                        "  assign y = a;\nendmodule\n")
                .first,
            "hdl 3:13");
  const auto wire = parse_error(
      "module m (input w_1, output y);\n  wire [1:0] w;\n"
      "  assign w[0] = w_1;\n  assign w[1] = w_1;\n"
      "  assign y = w[0];\nendmodule\n");
  EXPECT_EQ(wire.first, "hdl 2:14");
  EXPECT_NE(wire.second.find("signal w[1] collides with w_1"),
            std::string::npos)
      << wire.second;
  const auto port = parse_error(
      "module m (input a, output [1:0] o, output o_0);\n"
      "  assign o[0] = a;\n  assign o[1] = a;\n  assign o_0 = a;\n"
      "endmodule\n");
  EXPECT_NE(port.second.find("signal o_0 collides with o[0]"),
            std::string::npos)
      << port.second;
}

}  // namespace
}  // namespace secflow
