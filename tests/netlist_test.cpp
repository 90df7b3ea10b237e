#include "netlist/netlist.h"

#include <gtest/gtest.h>

#include "base/error.h"
#include "liberty/builtin_lib.h"
#include "netlist/netlist_ops.h"

namespace secflow {
namespace {

class NetlistTest : public ::testing::Test {
 protected:
  std::shared_ptr<const CellLibrary> lib_ = builtin_stdcell018();
};

TEST_F(NetlistTest, BuildSmallNetlist) {
  Netlist nl("top", lib_);
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId y = nl.add_net("y");
  nl.add_port("a", PinDir::kInput, a);
  nl.add_port("b", PinDir::kInput, b);
  nl.add_port("y", PinDir::kOutput, y);
  add_gate(nl, "NAND2", "u1", {a, b}, y);

  EXPECT_EQ(nl.n_nets(), 3u);
  EXPECT_EQ(nl.n_instances(), 1u);
  EXPECT_EQ(nl.n_ports(), 3u);
  nl.validate();

  const auto drv = nl.driver(y);
  ASSERT_TRUE(drv.has_value());
  EXPECT_EQ(nl.instance(drv->inst).name, "u1");
  EXPECT_EQ(nl.sinks(a).size(), 1u);
  EXPECT_TRUE(nl.driving_port(a).has_value());
  EXPECT_FALSE(nl.driving_port(y).has_value());
}

TEST_F(NetlistTest, DuplicateNamesRejected) {
  Netlist nl("top", lib_);
  nl.add_net("n");
  EXPECT_THROW(nl.add_net("n"), Error);
  const NetId n = nl.find_net("n");
  nl.add_port("p", PinDir::kInput, n);
  EXPECT_THROW(nl.add_port("p", PinDir::kInput, n), Error);
  nl.add_instance("i", lib_->find("INV"));
  EXPECT_THROW(nl.add_instance("i", lib_->find("INV")), Error);
}

TEST_F(NetlistTest, GetOrAddNetIdempotent) {
  Netlist nl("top", lib_);
  const NetId a = nl.get_or_add_net("a");
  EXPECT_EQ(nl.get_or_add_net("a"), a);
  EXPECT_EQ(nl.n_nets(), 1u);
}

TEST_F(NetlistTest, ConnectDisconnect) {
  Netlist nl("top", lib_);
  const NetId a = nl.add_net("a");
  const InstId inv = nl.add_instance("u", lib_->find("INV"));
  nl.connect(inv, 0, a);
  EXPECT_EQ(nl.net(a).pins.size(), 1u);
  // Double connect on the same pin is an error.
  EXPECT_THROW(nl.connect(inv, 0, a), Error);
  nl.disconnect(inv, 0);
  EXPECT_TRUE(nl.net(a).pins.empty());
  // Disconnecting an open pin is a no-op.
  nl.disconnect(inv, 0);
}

TEST_F(NetlistTest, ValidateCatchesFloatingInput) {
  Netlist nl("top", lib_);
  const NetId y = nl.add_net("y");
  const InstId inv = nl.add_instance("u", lib_->find("INV"));
  nl.connect(inv, lib_->cell("INV").output_pin(), y);
  EXPECT_THROW(nl.validate(), Error);
}

TEST_F(NetlistTest, ValidateCatchesDoubleDriver) {
  Netlist nl("top", lib_);
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  nl.add_port("a", PinDir::kInput, a);
  add_gate(nl, "INV", "u1", {a}, y);
  add_gate(nl, "INV", "u2", {a}, y);
  EXPECT_THROW(nl.validate(), Error);
}

TEST_F(NetlistTest, TopologicalOrderRespectsDependencies) {
  Netlist nl("top", lib_);
  const NetId a = nl.add_net("a");
  const NetId n1 = nl.add_net("n1");
  const NetId n2 = nl.add_net("n2");
  nl.add_port("a", PinDir::kInput, a);
  const InstId g2 = add_gate(nl, "INV", "g2", {n1}, n2);
  const InstId g1 = add_gate(nl, "INV", "g1", {a}, n1);
  const auto order = nl.topological_order();
  ASSERT_EQ(order.size(), 2u);
  auto pos = [&](InstId id) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == id) return i;
    }
    return order.size();
  };
  EXPECT_LT(pos(g1), pos(g2));
}

TEST_F(NetlistTest, TopologicalOrderDetectsCycle) {
  Netlist nl("top", lib_);
  const NetId n1 = nl.add_net("n1");
  const NetId n2 = nl.add_net("n2");
  add_gate(nl, "INV", "g1", {n1}, n2);
  add_gate(nl, "INV", "g2", {n2}, n1);
  EXPECT_THROW(nl.topological_order(), Error);
}

TEST_F(NetlistTest, FlopBreaksCombinationalCycle) {
  // A flop in the loop makes it a legal sequential circuit.
  Netlist nl("top", lib_);
  const NetId ck = nl.add_net("ck");
  const NetId q = nl.add_net("q");
  const NetId d = nl.add_net("d");
  nl.add_port("ck", PinDir::kInput, ck);
  add_gate(nl, "INV", "g", {q}, d);
  add_flop(nl, "DFF", "r", d, ck, q);
  EXPECT_EQ(nl.topological_order().size(), 2u);
}

TEST_F(NetlistTest, LevelsComputed) {
  Netlist nl("top", lib_);
  const NetId a = nl.add_net("a");
  const NetId n1 = nl.add_net("n1");
  const NetId n2 = nl.add_net("n2");
  nl.add_port("a", PinDir::kInput, a);
  const InstId g1 = add_gate(nl, "INV", "g1", {a}, n1);
  const InstId g2 = add_gate(nl, "NAND2", "g2", {a, n1}, n2);
  const auto lv = nl.levels();
  EXPECT_EQ(lv[g1.index()], 0);
  EXPECT_EQ(lv[g2.index()], 1);
}

TEST_F(NetlistTest, AreaAndKindCounts) {
  Netlist nl("top", lib_);
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  const NetId ck = nl.add_net("ck");
  const NetId q = nl.add_net("q");
  nl.add_port("a", PinDir::kInput, a);
  nl.add_port("ck", PinDir::kInput, ck);
  add_gate(nl, "INV", "u1", {a}, y);
  add_flop(nl, "DFF", "r1", y, ck, q);
  EXPECT_NEAR(nl.total_area_um2(), 6.6528 + 46.5696, 1e-9);
  EXPECT_EQ(nl.count_kind(CellKind::kCombinational), 1);
  EXPECT_EQ(nl.count_kind(CellKind::kFlop), 1);
}

TEST_F(NetlistTest, FanoutCountsSinksAndOutputPorts) {
  Netlist nl("top", lib_);
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  nl.add_port("a", PinDir::kInput, a);
  nl.add_port("y", PinDir::kOutput, y);
  add_gate(nl, "INV", "u1", {a}, y);
  add_gate(nl, "INV", "u2", {y}, nl.add_net("z"));
  EXPECT_EQ(nl.fanout(y), 2);  // one sink pin + one output port
  EXPECT_EQ(nl.fanout(a), 1);
}

/// The what() of the Error clock_net() throws, or "no error".
std::string clock_net_error(const Netlist& nl) {
  try {
    nl.clock_net();
  } catch (const Error& e) {
    return e.what();
  }
  return "no error";
}

TEST_F(NetlistTest, ClockNetIsTheNetOnEveryFlopClockPin) {
  Netlist nl("top", lib_);
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  add_gate(nl, "INV", "u1", {a}, y);
  EXPECT_FALSE(nl.clock_net().valid());  // no flop, no clock

  const NetId clk = nl.add_net("clk");
  add_flop(nl, "DFF", "r1", y, clk, nl.add_net("q1"));
  add_flop(nl, "DFF", "r2", a, clk, nl.add_net("q2"));
  EXPECT_EQ(nl.clock_net(), clk);

  add_flop(nl, "DFF", "r3", a, nl.add_net("clk2"), nl.add_net("q3"));
  EXPECT_EQ(clock_net_error(nl),
            "netlist top: flops on two clock nets, clk and clk2");

  Netlist open("open_ck", lib_);
  const InstId r = open.add_instance("r", lib_->find("DFF"));
  open.connect(r, lib_->cell("DFF").d_pin(), open.add_net("d"));
  EXPECT_EQ(clock_net_error(open), "netlist open_ck: flop r has no clock");
}

TEST_F(NetlistTest, CellHistogram) {
  Netlist nl("top", lib_);
  const NetId a = nl.add_net("a");
  nl.add_port("a", PinDir::kInput, a);
  add_gate(nl, "INV", "u1", {a}, nl.add_net("n1"));
  add_gate(nl, "INV", "u2", {a}, nl.add_net("n2"));
  add_gate(nl, "NAND2", "u3", {a, a}, nl.add_net("n3"));
  const auto h = cell_histogram(nl);
  EXPECT_EQ(h.at("INV"), 2);
  EXPECT_EQ(h.at("NAND2"), 1);
}

// --- FunctionalSim -------------------------------------------------------

TEST_F(NetlistTest, FunctionalSimCombinational) {
  Netlist nl("top", lib_);
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId y = nl.add_net("y");
  nl.add_port("a", PinDir::kInput, a);
  nl.add_port("b", PinDir::kInput, b);
  nl.add_port("y", PinDir::kOutput, y);
  add_gate(nl, "XOR2", "u1", {a, b}, y);

  FunctionalSim sim(nl);
  for (int av = 0; av < 2; ++av) {
    for (int bv = 0; bv < 2; ++bv) {
      sim.set_input("a", av);
      sim.set_input("b", bv);
      sim.propagate();
      EXPECT_EQ(sim.output("y"), (av ^ bv) != 0);
    }
  }
}

TEST_F(NetlistTest, FunctionalSimSequentialToggler) {
  // q' = !q toggles on every clock edge.
  Netlist nl("top", lib_);
  const NetId ck = nl.add_net("ck");
  const NetId q = nl.add_net("q");
  const NetId d = nl.add_net("d");
  nl.add_port("ck", PinDir::kInput, ck);
  add_gate(nl, "INV", "g", {q}, d);
  const InstId r = add_flop(nl, "DFF", "r", d, ck, q);

  FunctionalSim sim(nl);
  sim.propagate();
  EXPECT_FALSE(sim.flop_state(r));
  sim.step_clock();
  EXPECT_TRUE(sim.flop_state(r));
  sim.step_clock();
  EXPECT_FALSE(sim.flop_state(r));
}

TEST_F(NetlistTest, FunctionalSimTieCells) {
  Netlist nl("top", lib_);
  const NetId one = nl.add_net("one");
  const NetId zero = nl.add_net("zero");
  const NetId y = nl.add_net("y");
  nl.add_port("y", PinDir::kOutput, y);
  add_gate(nl, "TIE1", "t1", {}, one);
  add_gate(nl, "TIE0", "t0", {}, zero);
  add_gate(nl, "AND2", "u", {one, zero}, y);
  FunctionalSim sim(nl);
  sim.propagate();
  EXPECT_FALSE(sim.output("y"));
  EXPECT_TRUE(sim.net_value("one"));
  EXPECT_FALSE(sim.net_value("zero"));
}

TEST_F(NetlistTest, FunctionalSimSimultaneousCapture) {
  // Two flops swap values each cycle: r2.D = r1.Q, r1.D = r2.Q.
  Netlist nl("top", lib_);
  const NetId ck = nl.add_net("ck");
  const NetId q1 = nl.add_net("q1");
  const NetId q2 = nl.add_net("q2");
  nl.add_port("ck", PinDir::kInput, ck);
  const InstId r1 = add_flop(nl, "DFF", "r1", q2, ck, q1);
  const InstId r2 = add_flop(nl, "DFF", "r2", q1, ck, q2);
  FunctionalSim sim(nl);
  sim.set_flop_state(r1, true);
  sim.set_flop_state(r2, false);
  sim.propagate();
  sim.step_clock();
  EXPECT_FALSE(sim.flop_state(r1));
  EXPECT_TRUE(sim.flop_state(r2));
  sim.step_clock();
  EXPECT_TRUE(sim.flop_state(r1));
  EXPECT_FALSE(sim.flop_state(r2));
}

}  // namespace
}  // namespace secflow
