#include "synth/techmap.h"

#include <gtest/gtest.h>

#include "base/error.h"
#include "base/rng.h"
#include "flow/flow.h"
#include "liberty/builtin_lib.h"
#include "netlist/netlist_ops.h"
#include "synth/hdl.h"

namespace secflow {
namespace {

class TechmapTest : public ::testing::Test {
 protected:
  std::shared_ptr<const CellLibrary> lib_ = builtin_stdcell018();

  /// Exhaustively (or randomly, for wide circuits) check that the mapped
  /// netlist computes the same function as the AIG, including registers.
  void check_equivalent(const AigCircuit& c, const Netlist& nl,
                        int cycles = 3, int vectors = 64) {
    nl.validate();
    FunctionalSim sim(nl);
    Rng rng(99);
    const std::size_t n_in = c.inputs.size();
    const bool exhaustive = n_in <= 10 && cycles == 1;
    const int n_vec = exhaustive ? (1 << n_in) : vectors;

    for (int v = 0; v < n_vec; ++v) {
      // AIG-side register state, reset to 0 at the start of each vector run.
      std::vector<bool> reg_state(c.regs.size(), false);
      // Netlist-side: fresh sim per vector for reset state.
      FunctionalSim s(nl);
      for (int cyc = 0; cyc < cycles; ++cyc) {
        std::vector<bool> vals(c.aig.n_nodes(), false);
        std::vector<std::pair<std::string, bool>> in_bits;
        for (std::size_t i = 0; i < c.inputs.size(); ++i) {
          const bool bit = exhaustive
                               ? ((static_cast<unsigned>(v) >> i) & 1) != 0
                               : rng.next_bool();
          vals[aig_node(c.inputs[i].lit)] = bit;
          in_bits.emplace_back(c.inputs[i].name, bit);
        }
        for (std::size_t i = 0; i < c.regs.size(); ++i) {
          vals[aig_node(c.regs[i].q)] = reg_state[i];
        }
        // Netlist side.
        for (const auto& [name, bit] : in_bits) s.set_input(name, bit);
        s.propagate();
        // Compare outputs.
        for (const CircuitBit& out : c.outputs) {
          EXPECT_EQ(s.output(out.name), c.aig.eval(out.lit, vals))
              << out.name << " vec " << v << " cycle " << cyc;
        }
        // Advance registers on both sides.
        if (!c.regs.empty()) {
          for (std::size_t i = 0; i < c.regs.size(); ++i) {
            reg_state[i] = c.aig.eval(c.regs[i].next, vals);
          }
          s.step_clock();
        }
      }
    }
  }
};

TEST_F(TechmapTest, MapsSimpleGates) {
  const AigCircuit c = parse_hdl(R"(
    module m (input a, input b, output y);
      assign y = ~(a & b);
    endmodule
  )");
  const Netlist nl = technology_map(c, lib_);
  check_equivalent(c, nl, 1);
  // A NAND should map to a single NAND2 (+ output BUF).
  const auto h = cell_histogram(nl);
  EXPECT_EQ(h.at("NAND2"), 1);
}

TEST_F(TechmapTest, MapsXor) {
  const AigCircuit c = parse_hdl(R"(
    module m (input a, input b, output y);
      assign y = a ^ b;
    endmodule
  )");
  const Netlist nl = technology_map(c, lib_);
  check_equivalent(c, nl, 1);
  EXPECT_EQ(cell_histogram(nl).at("XOR2"), 1);
}

TEST_F(TechmapTest, MapsAoi32AsSingleCell) {
  // Paper Fig 2 function: Y = !((A0&A1&A2)|(B0&B1)).
  const AigCircuit c = parse_hdl(R"(
    module m (input a0, input a1, input a2, input b0, input b1, output y);
      assign y = ~((a0 & a1 & a2) | (b0 & b1));
    endmodule
  )");
  const Netlist nl = technology_map(c, lib_);
  check_equivalent(c, nl, 1);
  EXPECT_EQ(cell_histogram(nl).at("AOI32"), 1);
}

TEST_F(TechmapTest, MapsMux) {
  const AigCircuit c = parse_hdl(R"(
    module m (input s, input d0, input d1, output y);
      assign y = s ? d1 : d0;
    endmodule
  )");
  const Netlist nl = technology_map(c, lib_);
  check_equivalent(c, nl, 1);
}

TEST_F(TechmapTest, HandlesComplementedLeaves) {
  // f = a & ~b has no direct cell: needs phase handling.
  const AigCircuit c = parse_hdl(R"(
    module m (input a, input b, output y);
      assign y = a & ~b;
    endmodule
  )");
  const Netlist nl = technology_map(c, lib_);
  check_equivalent(c, nl, 1);
}

TEST_F(TechmapTest, ConstantsUseTies) {
  const AigCircuit c = parse_hdl(R"(
    module m (input a, output y, output z);
      assign y = a & ~a;
      assign z = a | ~a;
    endmodule
  )");
  const Netlist nl = technology_map(c, lib_);
  check_equivalent(c, nl, 1);
  const auto h = cell_histogram(nl);
  EXPECT_EQ(h.at("TIE0"), 1);
  EXPECT_EQ(h.at("TIE1"), 1);
}

TEST_F(TechmapTest, PassThroughUsesBuf) {
  const AigCircuit c = parse_hdl(R"(
    module m (input a, output y);
      assign y = a;
    endmodule
  )");
  const Netlist nl = technology_map(c, lib_);
  check_equivalent(c, nl, 1);
  EXPECT_EQ(cell_histogram(nl).at("BUF"), 1);
}

TEST_F(TechmapTest, SequentialCircuitGetsDffs) {
  const AigCircuit c = parse_hdl(R"(
    module m (input clk, input [3:0] d, output [3:0] q);
      reg [3:0] r;
      always @(posedge clk) r <= d ^ r;
      assign q = r;
    endmodule
  )");
  const Netlist nl = technology_map(c, lib_);
  EXPECT_EQ(nl.count_kind(CellKind::kFlop), 4);
  EXPECT_TRUE(nl.find_port("clk").valid());
  check_equivalent(c, nl, 4, 16);
}

TEST_F(TechmapTest, ConstraintRestrictsCellSet) {
  const AigCircuit c = parse_hdl(R"(
    module m (input a, input b, output y);
      assign y = a ^ b;
    endmodule
  )");
  SynthConstraints cons;
  cons.allowed_cells = {"AND2", "OR2", "NAND2", "NOR2"};
  const Netlist nl = technology_map(c, lib_, cons);
  check_equivalent(c, nl, 1);
  const auto h = cell_histogram(nl);
  EXPECT_FALSE(h.contains("XOR2"));
  EXPECT_FALSE(h.contains("XNOR2"));
  EXPECT_FALSE(h.contains("AOI21"));
}

TEST_F(TechmapTest, RestrictedMappingStillCorrectOnRandomLogic) {
  // Random 4-input functions through a NAND/NOR-only library.
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    CircuitBuilder cb("rnd");
    const auto in = cb.input("x", 4);
    // Random expression tree of depth 4.
    std::vector<AigLit> pool = in;
    for (int i = 0; i < 12; ++i) {
      const AigLit a = pool[rng.next_below(pool.size())];
      const AigLit b = pool[rng.next_below(pool.size())];
      AigLit r = 0;
      switch (rng.next_below(4)) {
        case 0: r = cb.aig().land(a, b); break;
        case 1: r = cb.aig().lor(a, b); break;
        case 2: r = cb.aig().lxor(a, b); break;
        default: r = aig_not(a); break;
      }
      pool.push_back(r);
    }
    cb.output("y", {pool.back()});
    const AigCircuit c = cb.take();
    SynthConstraints cons;
    cons.allowed_cells = {"NAND2", "NOR2"};
    const Netlist nl = technology_map(c, lib_, cons);
    check_equivalent(c, nl, 1);
    for (const auto& [cell, cnt] : cell_histogram(nl)) {
      // TIE cells appear when random logic folds to a constant.
      EXPECT_TRUE(cell == "NAND2" || cell == "NOR2" || cell == "INV" ||
                  cell == "BUF" || cell == "TIE0" || cell == "TIE1")
          << cell;
    }
  }
}

TEST_F(TechmapTest, AreaImprovesWithRicherLibrary) {
  const AigCircuit c = parse_hdl(R"(
    module m (input a0, input a1, input a2, input b0, input b1, output y);
      assign y = ~((a0 & a1 & a2) | (b0 & b1));
    endmodule
  )");
  SynthConstraints nand_only;
  nand_only.allowed_cells = {"NAND2"};
  const Netlist rich = technology_map(c, lib_);
  const Netlist poor = technology_map(c, lib_, nand_only);
  EXPECT_LT(rich.total_area_um2(), poor.total_area_um2());
}

TEST_F(TechmapTest, SharedLogicIsReused) {
  const AigCircuit c = parse_hdl(R"(
    module m (input a, input b, output y, output z);
      wire t;
      assign t = a & b;
      assign y = t;
      assign z = ~t;
    endmodule
  )");
  const Netlist nl = technology_map(c, lib_);
  check_equivalent(c, nl, 1);
  // The AND cone is materialized once (one AND2 or NAND2, not two).
  const auto h = cell_histogram(nl);
  int and_like = 0;
  for (const auto& [name, cnt] : h) {
    if (name == "AND2" || name == "NAND2") and_like += cnt;
  }
  EXPECT_EQ(and_like, 1);
}

TEST_F(TechmapTest, InternalNamesSkipTheDesignsOwnNames) {
  // Each design gives a port the name the mapper would give an internal
  // net or instance: n<k>, <reg>_q, const1, <reg>_reg beside obuf_<port>.
  const char* const kDesigns[] = {
      "module m (input n0, input a, input b, output y);\n"
      "  assign y = (n0 & a) | b;\n"
      "endmodule\n",
      "module m (input a, input b, input c, output n0);\n"
      "  assign n0 = (a & b) | c;\n"
      "endmodule\n",
      "module m (input clk, input a, input r_q, output y);\n"
      "  reg r;\n"
      "  always @(posedge clk) begin\n"
      "    r <= a ^ r_q;\n"
      "  end\n"
      "  assign y = r;\n"
      "endmodule\n",
      "module m (input const1, input a, output y, output z);\n"
      "  assign y = a & const1;\n"
      "  assign z = 1'b1;\n"
      "endmodule\n",
      "module m (input clk, input a, output a_reg, output y);\n"
      "  reg obuf_a;\n"
      "  always @(posedge clk) begin\n"
      "    obuf_a <= a;\n"
      "  end\n"
      "  assign a_reg = ~a;\n"
      "  assign y = obuf_a;\n"
      "endmodule\n",
  };
  for (const char* hdl : kDesigns) {
    SCOPED_TRACE(hdl);
    const AigCircuit c = parse_hdl(hdl);
    check_equivalent(c, technology_map(c, lib_));
    EXPECT_NO_THROW(run_regular_flow(c, lib_));
    EXPECT_NO_THROW(run_secure_flow(c, lib_));
  }
}

}  // namespace
}  // namespace secflow
