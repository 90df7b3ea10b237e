#include "sim/power_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>

#include "base/error.h"
#include "base/rng.h"
#include "crypto/des.h"
#include "liberty/builtin_lib.h"
#include "netlist/netlist_ops.h"
#include "synth/hdl.h"
#include "synth/techmap.h"
#include "wddl/cell_substitution.h"
#include "wddl/wddl_library.h"

namespace secflow {
namespace {

double trace_charge_fc(const CycleTrace& t, double dt_ps) {
  double q = 0.0;
  for (double i : t.current_ma) q += i * dt_ps;
  return q;
}

class SimTest : public ::testing::Test {
 protected:
  std::shared_ptr<const CellLibrary> lib_ = builtin_stdcell018();

  Netlist map_hdl(const std::string& src) {
    return technology_map(parse_hdl(src), lib_);
  }
};

TEST_F(SimTest, QuietCircuitDrawsNothing) {
  const Netlist nl = map_hdl(R"(
    module m (input a, output y);
      assign y = ~a;
    endmodule)");
  PowerSimulator sim(nl, {});
  sim.set_input("a", false);
  sim.settle();
  const CycleTrace t = sim.run_cycle();
  // Inputs unchanged: zero transitions, zero energy.
  EXPECT_EQ(t.transitions, 0);
  EXPECT_DOUBLE_EQ(t.energy_pj, 0.0);
  EXPECT_DOUBLE_EQ(t.peak_ma(), 0.0);
}

TEST_F(SimTest, RisingTransitionBooksCharge) {
  const Netlist nl = map_hdl(R"(
    module m (input a, output y);
      assign y = a;
    endmodule)");
  CapTable caps;
  caps["a"] = 10.0;
  PowerSimulator sim(nl, caps);
  sim.set_input("a", false);
  sim.settle();
  sim.set_input("a", true);
  const CycleTrace t = sim.run_cycle();
  EXPECT_GT(t.transitions, 0);
  EXPECT_GT(t.energy_pj, 0.0);
  // Sampled charge equals booked energy / VDD (pulse fully inside cycle).
  const PowerSimOptions opts;
  const double q_fc = trace_charge_fc(t, opts.sampling.sample_dt_s() * 1e12);
  EXPECT_NEAR(q_fc * kVddV * 1e-3, t.energy_pj,
              t.energy_pj * 0.02);
}

TEST_F(SimTest, FallingTransitionDrawsNoSupplyCharge) {
  const Netlist nl = map_hdl(R"(
    module m (input a, output y);
      assign y = a;
    endmodule)");
  PowerSimulator sim(nl, {});
  sim.set_input("a", true);
  sim.settle();
  sim.set_input("a", false);
  const CycleTrace t = sim.run_cycle();
  EXPECT_GT(t.transitions, 0);       // nets did switch...
  EXPECT_DOUBLE_EQ(t.energy_pj, 0.0);  // ...but discharge is not supply current
}

TEST_F(SimTest, EnergyScalesWithCapacitance) {
  const Netlist nl = map_hdl(R"(
    module m (input a, output y);
      assign y = a;
    endmodule)");
  auto energy_with = [&](double cap) {
    CapTable caps;
    caps["a"] = cap;
    caps["y"] = cap;
    // Port nets and internal nets all present; BUF output net named y.
    PowerSimulator sim(nl, caps);
    sim.set_input("a", false);
    sim.settle();
    sim.set_input("a", true);
    return sim.run_cycle().energy_pj;
  };
  const double e1 = energy_with(5.0);
  const double e2 = energy_with(50.0);
  EXPECT_GT(e2, e1 * 3);
}

TEST_F(SimTest, HammingDistanceDependence) {
  // 4-bit register: energy grows with the number of bits flipping.
  const Netlist nl = map_hdl(R"(
    module m (input clk, input [3:0] d, output [3:0] q);
      reg [3:0] r;
      always @(posedge clk) r <= d;
      assign q = r;
    endmodule)");
  PowerSimulator sim(nl, {});
  // Inputs arrive mid-cycle, so the register captures the value driven in
  // the *previous* run_cycle call.
  auto load = [&](unsigned v) {
    for (int i = 0; i < 4; ++i) {
      sim.set_input("d_" + std::to_string(i), (v >> i) & 1);
    }
    return sim.run_cycle();
  };
  load(0);
  load(0);
  const double e0 = load(0).energy_pj;      // register stays at 0000
  load(0b0001);
  const double e1 = load(0b1111).energy_pj;  // loads 0001: one bit rises
  const double e4 = load(0).energy_pj;       // loads 1111: three more rise
  EXPECT_GT(e1, e0);
  EXPECT_GT(e4, e1);
}

TEST_F(SimTest, TimedOutputsMatchFunctionalSim) {
  const std::string src = R"(
    module m (input clk, input [2:0] d, output [2:0] q);
      reg [2:0] r;
      always @(posedge clk) r <= d ^ r;
      assign q = r;
    endmodule)";
  const Netlist nl = map_hdl(src);
  PowerSimulator psim(nl, {});
  FunctionalSim fsim(nl);
  fsim.propagate();
  unsigned vals[] = {3, 5, 7, 1, 0, 6, 2, 4};
  for (unsigned v : vals) {
    for (int i = 0; i < 3; ++i) {
      psim.set_input("d_" + std::to_string(i), (v >> i) & 1);
      fsim.set_input("d_" + std::to_string(i), (v >> i) & 1);
    }
    psim.run_cycle();
    // Functional sim: capture happens at the *next* edge, so propagate
    // first, then step; power sim inputs arrive after its capture.  Align
    // by stepping the functional sim one cycle behind.
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(psim.output("q_" + std::to_string(i)),
                fsim.output("q_" + std::to_string(i)))
          << "value " << v;
    }
    fsim.propagate();
    fsim.step_clock();
  }
}

TEST_F(SimTest, WddlCycleHasConstantSwitchingCount) {
  // The 100% switching factor: the number of transitions per WDDL cycle is
  // data-independent (every rail pair switches exactly twice).
  const Netlist rtl = map_hdl(R"(
    module m (input a, input b, input c, output y);
      assign y = (a ^ b) | (b & c);
    endmodule)");
  WddlLibrary wlib(lib_);
  const SubstitutionResult sub = substitute_cells(rtl, wlib);
  const Netlist diff = expand_differential(sub.fat, wlib);

  PowerSimOptions opts;
  opts.precharge_inputs = true;
  PowerSimulator sim(diff, {}, opts);
  // Drive a first cycle to leave the all-zero power-up state.
  auto drive = [&](unsigned v) {
    const char* names[] = {"a", "b", "c"};
    for (int i = 0; i < 3; ++i) {
      sim.set_input(std::string(names[i]) + "_t", (v >> i) & 1);
      sim.set_input(std::string(names[i]) + "_f", !((v >> i) & 1));
    }
    return sim.run_cycle();
  };
  drive(0b000);
  std::vector<int> counts;
  std::vector<double> energies;
  for (unsigned v = 0; v < 8; ++v) {
    const CycleTrace t = drive(v);
    counts.push_back(t.transitions);
    energies.push_back(t.energy_pj);
  }
  // Every output rail pair switches exactly once per phase (tested
  // exhaustively in wddl_test); the *total* count varies only by the
  // internal product nets of multi-cube compounds, so it stays in a
  // narrow band — unlike a CMOS design, where it can drop to zero.
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_GT(*lo, 0);
  EXPECT_LT(*hi - *lo, *hi / 2);
  // With the pin-cap fallback (no routed wires) the internal product-net
  // asymmetry is relatively large; the extracted-cap case is checked at
  // the flow level (flow_test), where NSD drops below 1%.
  const auto stats = compute_energy_stats(energies);
  EXPECT_LT(stats.nsd, 0.15);
}

TEST_F(SimTest, GlitchPeriodTruncatesEvaluation) {
  // With a very short cycle, a deep cone cannot settle before the capture
  // edge: the register captures a stale value.
  const Netlist nl = map_hdl(R"(
    module m (input clk, input [3:0] a, output y);
      reg r;
      always @(posedge clk) r <= (a[0] ^ a[1]) ^ (a[2] ^ a[3]);
      assign y = r;
    endmodule)");
  PowerSimulator slow(nl, {});
  PowerSimulator fast(nl, {});
  for (int i = 0; i < 4; ++i) {
    slow.set_input("a_" + std::to_string(i), true);
    fast.set_input("a_" + std::to_string(i), true);
  }
  // a = 1111 -> parity 0; then a = 0111 -> parity 1.
  slow.run_cycle();
  fast.run_cycle();
  slow.set_input("a_3", false);
  fast.set_input("a_3", false);
  slow.run_cycle();
  fast.run_cycle(200.0);  // 200 ps: shorter than the XOR tree delay
  // One more edge captures the (settled vs truncated) values.
  slow.run_cycle();
  fast.run_cycle(200.0);
  EXPECT_TRUE(slow.output("y"));
  EXPECT_FALSE(fast.output("y"));
}

/// Drive two simulators of `nl` with the same random inputs, one booking
/// every cycle (run_cycle) and one stepping it (step_cycle), and compare
/// their logic state after each cycle; then record one cycle on both.
/// `period_ps` (0 = nominal) applies to every cycle.  With `settle` both
/// settle() first, so the stepped one may skip its events; `step_events`
/// receives the events it applied while stepping.
void expect_stepping_matches_booking(const Netlist& nl,
                                     const PowerSimOptions& opts,
                                     double period_ps, bool settle = false,
                                     std::uint64_t* step_events = nullptr) {
  PowerSimulator booked(nl, {}, opts);
  PowerSimulator stepped(nl, {}, opts);
  if (settle) {
    booked.settle();
    stepped.settle();
  }
  const std::uint64_t settle_events = stepped.events_applied();
  std::vector<PortId> inputs;
  for (PortId p : nl.port_ids()) {
    if (nl.port(p).dir == PinDir::kInput && booked.model().is_data_input(p)) {
      inputs.push_back(p);
    }
  }
  Rng rng(5);
  const auto drive = [&] {
    for (PortId p : inputs) {
      const bool v = rng.next_bool();
      booked.set_input(p, v);
      stepped.set_input(p, v);
    }
  };
  for (int cycle = 0; cycle < 12; ++cycle) {
    drive();
    booked.run_cycle(period_ps);
    stepped.step_cycle(period_ps);
    for (NetId n : nl.net_ids()) {
      ASSERT_EQ(stepped.net_value(n), booked.net_value(n))
          << nl.net(n).name << " after cycle " << cycle;
    }
    for (PortId p : nl.port_ids()) {
      if (nl.port(p).dir != PinDir::kOutput) continue;
      ASSERT_EQ(stepped.output_at_eval(p), booked.output_at_eval(p))
          << nl.port(p).name << " after cycle " << cycle;
    }
    for (InstId i : nl.instance_ids()) {
      if (nl.cell_of(i).kind != CellKind::kFlop) continue;
      ASSERT_EQ(stepped.flop_state(i), booked.flop_state(i))
          << nl.instance(i).name << " after cycle " << cycle;
    }
  }
  if (step_events != nullptr) {
    *step_events = stepped.events_applied() - settle_events;
  }
  drive();
  const CycleTrace a = booked.run_cycle(period_ps);
  const CycleTrace b = stepped.run_cycle(period_ps);
  EXPECT_EQ(b.current_ma, a.current_ma);
  EXPECT_EQ(b.energy_pj, a.energy_pj);
  EXPECT_EQ(b.transitions, a.transitions);
  EXPECT_GT(a.transitions, 0);
}

/// The DES module and a small WDDL netlist (precharge wave, negedge
/// masters, eval snapshot), with the options each simulates under.
struct StepDesigns {
  Netlist des;
  Netlist wddl;
  PowerSimOptions wddl_opts;
};

StepDesigns step_designs() {
  const auto lib = builtin_stdcell018();
  WddlLibrary wlib(lib);
  const Netlist rtl = technology_map(parse_hdl(R"(
    module m (input clk, input [2:0] d, output [2:0] q, output y);
      reg [2:0] r;
      always @(posedge clk) r <= d ^ r;
      assign q = r;
      assign y = (d[0] & r[1]) | d[2];
    endmodule)"), lib);
  StepDesigns d{technology_map(make_des_dpa_circuit(), lib),
                expand_differential(substitute_cells(rtl, wlib).fat, wlib),
                {}};
  d.wddl_opts.precharge_inputs = true;
  return d;
}

TEST(Sim, StepCycleMatchesRunCycleState) {
  // Never settled: every stepped cycle runs the event loop.
  const StepDesigns d = step_designs();
  expect_stepping_matches_booking(d.des, {}, 0.0);
  // A period override (the DFA glitch path) truncates both alike.
  expect_stepping_matches_booking(d.des, {}, 1500.0);
  expect_stepping_matches_booking(d.wddl, d.wddl_opts, 0.0);
  expect_stepping_matches_booking(d.wddl, d.wddl_opts, 2500.0);
}

TEST(Sim, SettledStepCycleMatchesRunCycleState) {
  // Settled: at the nominal period every stepped cycle is zero-delay and
  // applies no event; at a period whose half is under the wave bound the
  // events would spill, so it falls back to the event loop.
  const StepDesigns d = step_designs();
  for (const auto& [nl, opts] : {std::pair(&d.des, PowerSimOptions{}),
                                 std::pair(&d.wddl, d.wddl_opts)}) {
    const CompiledSimModel model(*nl, {}, opts);
    ASSERT_TRUE(model.has_gate_order());
    ASSERT_LT(model.wave_bound_ps() + 1.0, model.nominal_period_ps() / 2);
    std::uint64_t events = 0;
    expect_stepping_matches_booking(*nl, opts, 0.0, /*settle=*/true, &events);
    EXPECT_EQ(events, 0u) << nl->name();
    const double short_period = model.wave_bound_ps();
    expect_stepping_matches_booking(*nl, opts, short_period, /*settle=*/true,
                                    &events);
    EXPECT_GT(events, 0u) << nl->name();
  }
}

TEST(Sim, CombinationalCycleKeepsTheEventLoop) {
  // Cross-coupled NANDs (an SR latch) have no topological order, so even a
  // settled simulator steps them through the event loop.
  Netlist nl("latch", builtin_stdcell018());
  const NetId s = nl.add_net("s");
  const NetId r = nl.add_net("r");
  const NetId q = nl.add_net("q");
  const NetId qn = nl.add_net("qn");
  nl.add_port("s", PinDir::kInput, s);
  nl.add_port("r", PinDir::kInput, r);
  nl.add_port("q", PinDir::kOutput, q);
  add_gate(nl, "NAND2", "u1", {s, qn}, q);
  add_gate(nl, "NAND2", "u2", {r, q}, qn);
  const CompiledSimModel model(nl, {});
  EXPECT_FALSE(model.has_gate_order());
  EXPECT_TRUE(model.gate_order().empty());
  EXPECT_EQ(model.wave_bound_ps(), std::numeric_limits<double>::infinity());
  std::uint64_t events = 0;
  expect_stepping_matches_booking(nl, {}, 0.0, /*settle=*/true, &events);
  EXPECT_GT(events, 0u);
}

TEST(Sim, OscillatingLoopFailsToSettle) {
  // A NAND2 whose output feeds its own input rings once the other input is
  // 1: the event queue never drains, so settle() must give up, not hang.
  Netlist nl("ring", builtin_stdcell018());
  const NetId en = nl.add_net("en");
  const NetId y = nl.add_net("y");
  nl.add_port("en", PinDir::kInput, en);
  nl.add_port("y", PinDir::kOutput, y);
  add_gate(nl, "NAND2", "u1", {en, y}, y);
  PowerSimulator sim(nl, {});
  EXPECT_FALSE(sim.model().has_gate_order());
  sim.set_input("en", true);
  try {
    sim.settle();
    ADD_FAILURE() << "an oscillating loop settled";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("netlist 'ring'"), std::string::npos) << what;
    EXPECT_NE(what.find("net 'y' is still switching"), std::string::npos)
        << what;
  }
  // Held at 0, the same loop is stable and settles.
  sim.reset();
  sim.set_input("en", false);
  sim.settle();
  EXPECT_TRUE(sim.net_value(y));
}

TEST(Sim, StepCycleCountsEventsButNoChargeBins) {
  const Netlist des =
      technology_map(make_des_dpa_circuit(), builtin_stdcell018());
  PowerSimulator sim(des, {});
  const auto drive_pl = [&](bool v) {
    for (int i = 0; i < 4; ++i) sim.set_input("pl_" + std::to_string(i), v);
  };
  drive_pl(true);
  EXPECT_GT(sim.run_cycle().energy_pj, 0.0);
  std::uint64_t events = sim.events_applied();
  const std::uint64_t bins = sim.charge_bins();
  EXPECT_GT(events, 0u);
  EXPECT_GT(bins, 0u);
  // Unsettled: the step runs the event loop.
  drive_pl(false);
  sim.step_cycle();
  EXPECT_GT(sim.events_applied(), events);
  EXPECT_EQ(sim.charge_bins(), bins);

  // Settled, in bound: zero-delay, no event.
  sim.settle();
  drive_pl(true);
  events = sim.events_applied();
  sim.step_cycle();
  EXPECT_EQ(sim.events_applied(), events);

  // Out of bound: the half is under the wave bound.
  drive_pl(false);
  sim.step_cycle(sim.model().wave_bound_ps());
  EXPECT_GT(sim.events_applied(), events);

  // An event in flight: set_flop_state drives a flop's Q now.
  sim.settle();
  InstId flop;
  for (InstId i : des.instance_ids()) {
    if (des.cell_of(i).kind == CellKind::kFlop) flop = i;
  }
  ASSERT_TRUE(flop.valid());
  sim.set_flop_state(flop, !sim.flop_state(flop));
  events = sim.events_applied();
  sim.step_cycle();
  EXPECT_GT(sim.events_applied(), events);
  EXPECT_EQ(sim.charge_bins(), bins);

  // The counters count work, not state: reset() keeps them.
  sim.reset();
  EXPECT_EQ(sim.charge_bins(), bins);
}

TEST(EnergyStatsTest, Formulas) {
  const EnergyStats s = compute_energy_stats({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(s.mean_pj, 2.0);
  EXPECT_DOUBLE_EQ(s.min_pj, 1.0);
  EXPECT_DOUBLE_EQ(s.max_pj, 3.0);
  EXPECT_DOUBLE_EQ(s.ned, 1.0);
  EXPECT_NEAR(s.nsd, 0.40824829, 1e-6);
  const EnergyStats z = compute_energy_stats({});
  EXPECT_DOUBLE_EQ(z.mean_pj, 0.0);
}

}  // namespace
}  // namespace secflow
