#include "sta/sta.h"

#include <gtest/gtest.h>

#include "flow/flow.h"
#include "crypto/des.h"
#include "liberty/builtin_lib.h"
#include "synth/hdl.h"
#include "synth/techmap.h"

namespace secflow {
namespace {

class StaTest : public ::testing::Test {
 protected:
  std::shared_ptr<const CellLibrary> lib_ = builtin_stdcell018();

  Netlist map_hdl(const std::string& src) {
    return technology_map(parse_hdl(src), lib_);
  }
};

TEST_F(StaTest, SingleGateDelay) {
  const Netlist nl = map_hdl(R"(
    module m (input a, input b, output y);
      assign y = ~(a & b);
    endmodule)");
  CapTable caps;
  // Fix the loads so the expected delay is computable by hand.
  for (NetId id : nl.net_ids()) caps[nl.net(id).name] = 10.0;
  // Inputs arrive at the power simulator's input delay.
  ASSERT_EQ(kInputDelayPs, 100.0);
  const TimingReport r = analyze_timing(nl, caps);
  // Path: input (100) -> NAND2 (32 + 4.6*10 = 78) -> BUF (45 + 3.2*10 = 77).
  EXPECT_NEAR(r.critical_delay_ps, 100.0 + 78.0 + 77.0, 1e-6);
  EXPECT_EQ(r.endpoint, "port y");
  ASSERT_GE(r.critical_path.size(), 2u);
  EXPECT_NEAR(r.critical_path.back().arrival_ps, r.critical_delay_ps, 1e-9);
}

TEST_F(StaTest, DeeperConeIsSlower) {
  const Netlist shallow = map_hdl(R"(
    module m (input a, input b, output y);
      assign y = a & b;
    endmodule)");
  const Netlist deep = map_hdl(R"(
    module m (input a, input b, output y);
      assign y = ((a & b) | (a ^ b)) ^ (a | ~b);
    endmodule)");
  EXPECT_GT(analyze_timing(deep, {}).critical_delay_ps,
            analyze_timing(shallow, {}).critical_delay_ps);
}

TEST_F(StaTest, LoadIncreasesDelay) {
  const Netlist nl = map_hdl(R"(
    module m (input a, output y);
      assign y = ~a;
    endmodule)");
  CapTable light, heavy;
  for (NetId id : nl.net_ids()) {
    light[nl.net(id).name] = 2.0;
    heavy[nl.net(id).name] = 80.0;
  }
  EXPECT_GT(analyze_timing(nl, heavy).critical_delay_ps,
            analyze_timing(nl, light).critical_delay_ps);
}

TEST_F(StaTest, SequentialEndpointsAreFlopDPins) {
  const Netlist nl = map_hdl(R"(
    module m (input clk, input a, output q);
      reg r;
      always @(posedge clk) r <= a ^ r;
      assign q = r;
    endmodule)");
  const TimingReport r = analyze_timing(nl, {});
  // The XOR feedback path into the register dominates the BUF to q.
  EXPECT_GT(r.critical_delay_ps, 0.0);
  EXPECT_GT(r.min_period_ps, 0.0);
}

TEST_F(StaTest, PredictsDfaGlitchBoundary) {
  // The DFA experiment: a glitch is caught when the period is too short
  // for the evaluation wave; STA's critical delay on the differential
  // netlist predicts the boundary seen by simulation (bench_sec43).
  const auto lib = builtin_stdcell018();
  const SecureFlowResult sec = run_secure_flow(make_des_dpa_circuit(), lib);
  const TimingReport r = analyze_timing(sec.diff, sec.caps);
  // Clock gating + master capture at T/2: a glitched period below
  // 2 * (critical delay - margins) must alarm; the simulated boundary in
  // bench_sec43 sits between 3.2 and 4.8 ns, so the STA critical delay
  // must fall in roughly [1.6, 2.6] ns.
  EXPECT_GT(r.critical_delay_ps, 1200.0);
  EXPECT_LT(r.critical_delay_ps, 3000.0);
  // And the nominal evaluate half-cycle (4 ns) has positive slack.
  EXPECT_LT(r.critical_delay_ps, 4000.0);
}

TEST_F(StaTest, ReportTextContainsPath) {
  const Netlist nl = map_hdl(R"(
    module m (input a, input b, output y);
      assign y = a ^ b;
    endmodule)");
  const TimingReport r = analyze_timing(nl, {});
  const std::string text = timing_report_text(r);
  EXPECT_NE(text.find("critical delay"), std::string::npos);
  EXPECT_NE(text.find("port y"), std::string::npos);
}

}  // namespace
}  // namespace secflow
