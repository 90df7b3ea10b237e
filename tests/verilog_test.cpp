#include <gtest/gtest.h>

#include "base/error.h"
#include "liberty/builtin_lib.h"
#include "netlist/netlist_ops.h"
#include "netlist/verilog_parser.h"
#include "netlist/verilog_writer.h"

namespace secflow {
namespace {

class VerilogTest : public ::testing::Test {
 protected:
  std::shared_ptr<const CellLibrary> lib_ = builtin_stdcell018();
};

TEST_F(VerilogTest, ParseMinimalModule) {
  const std::string src = R"(
    // a 2-input NAND wrapper
    module top (a, b, y);
      input a, b;
      output y;
      NAND2 u1 (.A(a), .B(b), .Y(y));
    endmodule
  )";
  const Netlist nl = parse_verilog(src, lib_);
  EXPECT_EQ(nl.name(), "top");
  EXPECT_EQ(nl.n_ports(), 3u);
  EXPECT_EQ(nl.n_instances(), 1u);
  nl.validate();
}

TEST_F(VerilogTest, ParseWiresAndComments) {
  const std::string src = R"(
    module m (a, y);
      input a;
      output y;
      wire n1; /* internal
                  node */
      INV u1 (.A(a), .Y(n1));
      INV u2 (.A(n1), .Y(y));
    endmodule
  )";
  const Netlist nl = parse_verilog(src, lib_);
  EXPECT_EQ(nl.n_instances(), 2u);
  EXPECT_TRUE(nl.find_net("n1").valid());
  nl.validate();
}

TEST_F(VerilogTest, ImplicitNetsCreated) {
  const std::string src = R"(
    module m (a, y);
      input a;
      output y;
      INV u1 (.A(a), .Y(undeclared));
      INV u2 (.A(undeclared), .Y(y));
    endmodule
  )";
  const Netlist nl = parse_verilog(src, lib_);
  EXPECT_TRUE(nl.find_net("undeclared").valid());
  nl.validate();
}

TEST_F(VerilogTest, RejectsUnknownCell) {
  const std::string src =
      "module m (a); input a; BOGUS u1 (.A(a)); endmodule";
  EXPECT_THROW(parse_verilog(src, lib_), ParseError);
}

TEST_F(VerilogTest, RejectsUnknownPin) {
  const std::string src =
      "module m (a); input a; INV u1 (.Z(a)); endmodule";
  EXPECT_THROW(parse_verilog(src, lib_), ParseError);
}

TEST_F(VerilogTest, RejectsUndeclaredHeaderPort) {
  const std::string src = "module m (a, ghost); input a; endmodule";
  EXPECT_THROW(parse_verilog(src, lib_), ParseError);
}

TEST_F(VerilogTest, RejectsTruncatedFile) {
  EXPECT_THROW(parse_verilog("module m (a); input a;", lib_), ParseError);
}

TEST_F(VerilogTest, ErrorCarriesLineNumber) {
  const std::string src = "module m (a);\ninput a;\nBOGUS u (.A(a));\n";
  try {
    parse_verilog(src, lib_);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.where(), "verilog 3:1") << e.what();
  }
}

TEST_F(VerilogTest, RoundTripPreservesStructure) {
  Netlist nl("rt", lib_);
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId n1 = nl.add_net("n1");
  const NetId y = nl.add_net("y");
  const NetId ck = nl.add_net("ck");
  const NetId q = nl.add_net("q");
  nl.add_port("a", PinDir::kInput, a);
  nl.add_port("b", PinDir::kInput, b);
  nl.add_port("ck", PinDir::kInput, ck);
  nl.add_port("y", PinDir::kOutput, y);
  add_gate(nl, "AOI22", "g1", {a, b, a, b}, n1);
  add_flop(nl, "DFF", "r1", n1, ck, q);
  add_gate(nl, "INV", "g2", {q}, y);

  const std::string text = write_verilog(nl);
  const Netlist back = parse_verilog(text, lib_);
  EXPECT_EQ(back.name(), nl.name());
  EXPECT_EQ(back.n_instances(), nl.n_instances());
  EXPECT_EQ(back.n_ports(), nl.n_ports());
  EXPECT_EQ(back.n_nets(), nl.n_nets());
  EXPECT_EQ(cell_histogram(back), cell_histogram(nl));
  back.validate();

  // Same logic: exhaustive input sweep agrees between the two netlists.
  FunctionalSim s1(nl), s2(back);
  for (int av = 0; av < 2; ++av) {
    for (int bv = 0; bv < 2; ++bv) {
      s1.set_input("a", av);
      s1.set_input("b", bv);
      s2.set_input("a", av);
      s2.set_input("b", bv);
      s1.propagate();
      s2.propagate();
      s1.step_clock();
      s2.step_clock();
      EXPECT_EQ(s1.output("y"), s2.output("y"));
    }
  }
}

TEST_F(VerilogTest, EscapedIdentifier) {
  const std::string src =
      "module m (a, y); input a; output y; INV \\u1$x (.A(a), .Y(y)); "
      "endmodule";
  const Netlist nl = parse_verilog(src, lib_);
  EXPECT_TRUE(nl.find_instance("u1$x").valid());
}

}  // namespace
}  // namespace secflow
