#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "base/error.h"
#include "base/rng.h"
#include "crypto/des.h"
#include "leakage/cpa.h"
#include "liberty/builtin_lib.h"
#include "sca/dfa.h"
#include "sca/dpa.h"
#include "sca/dpa_experiment.h"
#include "sca/ema.h"
#include "sca/selection.h"
#include "sca/trace_io.h"
#include "synth/hdl.h"
#include "synth/techmap.h"
#include "wddl/cell_substitution.h"
#include "wddl/wddl_library.h"

namespace secflow {
namespace {

// --- DPA engine on synthetic traces -------------------------------------------

/// Synthetic selection: bit `bit` of S(ct ^ guess).
SelectionFn synthetic_selection(int bit) {
  return [bit](std::uint32_t ct, std::uint32_t guess) {
    return ((des_sbox(1, (ct ^ guess) & 0x3F) >> bit) & 1) != 0;
  };
}

/// Synthetic leaky device: the "power" at sample 5 is bias + leak when the
/// selected bit of S(ct ^ key) is 1, plus noise.
std::vector<SimTrace> synthetic_traces(std::uint32_t key, double leak,
                                       double noise, int n, int bit = 0) {
  const SelectionFn selection = synthetic_selection(bit);
  Rng rng(4242);
  std::vector<SimTrace> traces(static_cast<std::size_t>(n));
  for (SimTrace& t : traces) {
    t.observable = static_cast<std::uint32_t>(rng.next_below(64));
    t.cycle.current_ma.assign(16, 0.0);
    for (double& s : t.cycle.current_ma) s = noise * rng.next_gaussian();
    if (selection(t.observable, key)) t.cycle.current_ma[5] += leak;
  }
  return traces;
}

DpaAccumulator make_synthetic_campaign(std::uint32_t key, double leak,
                                       double noise, int n, int bit = 0) {
  DpaAccumulator dpa(synthetic_selection(bit), key);
  dpa.fold(synthetic_traces(key, leak, noise, n, bit));
  return dpa;
}

/// The reference implementation: difference of means over the first `m`
/// traces, summed from scratch in trace order.
std::vector<double> reference_differential(const std::vector<SimTrace>& traces,
                                           int m, const SelectionFn& sel,
                                           std::uint32_t guess) {
  const std::size_t len = traces.front().cycle.current_ma.size();
  std::vector<double> sum1(len, 0.0), sum0(len, 0.0);
  std::size_t n1 = 0, n0 = 0;
  for (int i = 0; i < m; ++i) {
    const SimTrace& t = traces[static_cast<std::size_t>(i)];
    const bool bit = sel(t.observable, guess);
    std::vector<double>& sum = bit ? sum1 : sum0;
    ++(bit ? n1 : n0);
    for (std::size_t s = 0; s < len; ++s) sum[s] += t.cycle.current_ma[s];
  }
  std::vector<double> diff(len, 0.0);
  if (n1 == 0 || n0 == 0) return diff;
  for (std::size_t s = 0; s < len; ++s) {
    diff[s] = sum1[s] / static_cast<double>(n1) -
              sum0[s] / static_cast<double>(n0);
  }
  return diff;
}

TEST(Dpa, FoldMatchesFromScratchDifferenceOfMeansAtEveryCheckpoint) {
  const int n = 5 * kDpaCheckpointTraces;
  const std::vector<SimTrace> traces = synthetic_traces(46, 0.5, 0.3, n);
  const SelectionFn sel = synthetic_selection(0);
  // One accumulator folds checkpoint-sized blocks; the other folds ragged
  // blocks that straddle every checkpoint.
  DpaAccumulator aligned(sel, 46);
  DpaAccumulator ragged(sel, 46);
  for (int begin = 0; begin < n; begin += 37) {
    ragged.fold({traces.begin() + begin,
                 traces.begin() + std::min(begin + 37, n)});
  }
  for (int m = kDpaCheckpointTraces; m <= n; m += kDpaCheckpointTraces) {
    aligned.fold({traces.begin() + (m - kDpaCheckpointTraces),
                  traces.begin() + m});
    const std::size_t c =
        static_cast<std::size_t>(m / kDpaCheckpointTraces - 1);
    ASSERT_EQ(aligned.checkpoints().size(), c + 1);
    ASSERT_EQ(ragged.checkpoints().at(c).n_measurements, m);
    for (std::uint32_t g = 0; g < kDesKeyGuesses; ++g) {
      const std::vector<double> ref = reference_differential(traces, m, sel, g);
      EXPECT_EQ(aligned.differential(g), ref) << "guess " << g << " @ " << m;
      EXPECT_EQ(aligned.checkpoints()[c].peak_to_peak[g], peak_to_peak(ref))
          << "guess " << g << " @ " << m;
      EXPECT_EQ(ragged.checkpoints()[c].peak_to_peak[g], peak_to_peak(ref))
          << "guess " << g << " @ " << m;
    }
  }
  EXPECT_EQ(ragged.differential(46), aligned.differential(46));
}

TEST(Dpa, RecoversKeyFromLeakyTraces) {
  const DpaAccumulator dpa = make_synthetic_campaign(46, 1.0, 0.2, 400);
  const DpaResult r = dpa.analyze(46);
  EXPECT_EQ(r.n_measurements, 400);
  EXPECT_EQ(r.best_guess, 46);
  EXPECT_TRUE(r.disclosed);
}

TEST(Dpa, NoLeakNoDisclosure) {
  const DpaAccumulator dpa = make_synthetic_campaign(46, 0.0, 0.2, 400);
  const DpaResult r = dpa.analyze(46);
  EXPECT_FALSE(r.disclosed);
}

TEST(Dpa, MtdShrinksWithStrongerLeak) {
  const DpaAccumulator strong = make_synthetic_campaign(46, 2.0, 0.2, 800);
  const DpaAccumulator weak = make_synthetic_campaign(46, 0.1, 0.2, 800);
  ASSERT_EQ(strong.checkpoints().size(), 8u);
  ASSERT_GT(strong.mtd(), 0);
  ASSERT_GT(weak.mtd(), 0);
  EXPECT_LT(strong.mtd(), weak.mtd());
  // Disclosure persists from the MTD checkpoint to the last one.
  for (const DpaResult& r : weak.checkpoints()) {
    EXPECT_EQ(r.disclosed, r.n_measurements >= weak.mtd()) << r.n_measurements;
  }
}

TEST(Dpa, MtdMinusOneWhenHidden) {
  const DpaAccumulator dpa = make_synthetic_campaign(46, 0.0, 0.3, 300);
  ASSERT_EQ(dpa.checkpoints().size(), 3u);
  EXPECT_EQ(dpa.mtd(), -1);
}

TEST(Dpa, DifferentialTraceLocatesLeakSample) {
  const DpaAccumulator dpa = make_synthetic_campaign(46, 1.0, 0.1, 500);
  const std::vector<double> diff = dpa.differential(46);
  std::size_t argmax = 0;
  for (std::size_t i = 1; i < diff.size(); ++i) {
    if (std::abs(diff[i]) > std::abs(diff[argmax])) argmax = i;
  }
  EXPECT_EQ(argmax, 5u);
}

TEST(Dpa, PeakToPeakHelper) {
  EXPECT_DOUBLE_EQ(peak_to_peak({}), 0.0);
  EXPECT_DOUBLE_EQ(peak_to_peak({1.0}), 0.0);
  EXPECT_DOUBLE_EQ(peak_to_peak({-1.0, 2.0, 0.5}), 3.0);
}

TEST(Dpa, RejectsMismatchedTraceLengths) {
  DpaAccumulator dpa(des_selection(0), 46);
  std::vector<SimTrace> traces(1);
  traces[0].cycle.current_ma.assign(8, 0.0);
  dpa.fold(traces);
  traces[0].cycle.current_ma.assign(9, 0.0);
  EXPECT_THROW(dpa.fold(traces), Error);
}

// --- EMA ------------------------------------------------------------------------

TEST(Ema, SuppressionMatchesGeometry) {
  EmaGeometry g;
  g.separation_um = 1.0;
  g.probe_distance_mm = 1.0;
  const EmaFigures f = ema_far_field(g);
  // s/d = 1e-6/1e-3 -> suppression ~ 2e-3.
  EXPECT_NEAR(f.suppression_ratio, 2e-3, 1e-4);
  EXPECT_LT(f.differential_pair_field, f.single_wire_field);
}

TEST(Ema, SuppressionImprovesWithDistance) {
  EmaGeometry near;
  near.probe_distance_mm = 1.0;
  EmaGeometry far = near;
  far.probe_distance_mm = 10.0;
  EXPECT_GT(ema_far_field(near).suppression_ratio,
            ema_far_field(far).suppression_ratio);
  EXPECT_GT(ema_extra_precision_bits(far), ema_extra_precision_bits(near));
}

TEST(Ema, PaperGeometryNeedsUnrealisticPrecision) {
  // At the paper's geometry the probe needs ~9+ extra bits at 1 mm.
  EmaGeometry g;
  EXPECT_GT(ema_extra_precision_bits(g), 8.0);
}

TEST(Ema, RejectsBadGeometry) {
  EmaGeometry g;
  g.separation_um = 0.0;
  EXPECT_THROW(ema_far_field(g), Error);
}

// --- trace export -----------------------------------------------------------------

TEST(TraceIo, SeriesCsvRoundTrip) {
  const std::string path = ::testing::TempDir() + "/series.csv";
  write_series_csv(path, {"a", "b"}, {{1.0, 2.0, 3.0}, {4.5}});
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a,b");
  std::getline(f, line);
  EXPECT_EQ(line, "1,4.5");
  std::getline(f, line);
  EXPECT_EQ(line, "2,");
}

TEST(TraceIo, MismatchThrows) {
  EXPECT_THROW(write_series_csv("/tmp/x.csv", {"a"}, {}), Error);
  EXPECT_THROW(write_series_csv("/no/such/dir/x.csv", {"a"}, {{1.0}}), Error);
}

// --- DFA glitch detection --------------------------------------------------------

class DfaTest : public ::testing::Test {
 protected:
  std::shared_ptr<const CellLibrary> lib_ = builtin_stdcell018();

  Netlist make_diff() {
    const Netlist rtl = technology_map(parse_hdl(R"(
      module m (input clk, input [3:0] a, output q);
        reg r;
        always @(posedge clk) r <= (a[0] ^ a[1]) ^ (a[2] ^ a[3]);
        assign q = r;
      endmodule)"),
                                       lib_);
    wlib_ = std::make_shared<WddlLibrary>(lib_);
    SubstitutionResult sub = substitute_cells(rtl, *wlib_);
    return expand_differential(sub.fat, *wlib_);
  }

  std::shared_ptr<WddlLibrary> wlib_;
};

TEST_F(DfaTest, NormalOperationRaisesNoAlarm) {
  const Netlist diff = make_diff();
  const DfaMonitor monitor(diff);
  EXPECT_GT(monitor.n_monitored_registers(), 0);

  PowerSimOptions opts;
  opts.precharge_inputs = true;
  PowerSimulator sim(diff, {}, opts);
  auto drive = [&](unsigned v) {
    for (int i = 0; i < 4; ++i) {
      sim.set_input("a_" + std::to_string(i) + "_t", (v >> i) & 1);
      sim.set_input("a_" + std::to_string(i) + "_f", !((v >> i) & 1));
    }
  };
  drive(0b0101);
  sim.run_cycle();
  drive(0b1110);
  sim.run_cycle();
  sim.run_cycle();
  EXPECT_TRUE(monitor.check(sim).empty());
}

TEST_F(DfaTest, ClockGlitchTriggersAlarm) {
  const Netlist diff = make_diff();
  const DfaMonitor monitor(diff);
  PowerSimOptions opts;
  opts.precharge_inputs = true;
  PowerSimulator sim(diff, {}, opts);
  auto drive = [&](unsigned v) {
    for (int i = 0; i < 4; ++i) {
      sim.set_input("a_" + std::to_string(i) + "_t", (v >> i) & 1);
      sim.set_input("a_" + std::to_string(i) + "_f", !((v >> i) & 1));
    }
  };
  drive(0b0101);
  sim.run_cycle();
  drive(0b1010);
  // Glitch: the period is far too short for the evaluation wave to reach
  // the register; masters capture (0,0).
  sim.run_cycle(300.0);
  const auto alarms = monitor.check(sim);
  ASSERT_FALSE(alarms.empty());
  EXPECT_TRUE(alarms[0].both_zero);
}

TEST_F(DfaTest, MonitorRequiresWddlRegisters) {
  const Netlist rtl = technology_map(parse_hdl(R"(
    module m (input clk, input d, output q);
      reg r;
      always @(posedge clk) r <= d;
      assign q = r;
    endmodule)"),
                                     lib_);
  EXPECT_THROW(DfaMonitor{rtl}, Error);
}

// --- the paper's DPA experiment, reduced scale -----------------------------------

TEST(DesDpaExperiment, SelectionFunctionPacksCiphertext) {
  const SelectionFn sel = des_selection(2);
  // ct = cl | cr<<4; prediction = bit2 of cl ^ S1(cr ^ guess).
  const std::uint32_t cl = 0b1010, cr = 0b010110;
  const bool expect = ((cl ^ des_sbox(1, cr ^ 46u)) >> 2) & 1;
  EXPECT_EQ(sel(cl | (cr << 4), 46u), expect);
}

// --- the shared selection / hypothesis core (sca/selection.h) -------------------

TEST(Selection, PredictPlReconstructsTheRegisterNibble) {
  // PL = CL ^ Sbox(CR ^ K) for every packing, exact at the correct key.
  for (std::uint32_t cl = 0; cl < 16; ++cl) {
    for (std::uint32_t cr : {0u, 21u, 46u, 63u}) {
      const std::uint32_t ct = cl | (cr << 4);
      EXPECT_EQ(des_predict_pl(ct, 46, 1), cl ^ des_sbox(1, cr ^ 46u));
      EXPECT_EQ(des_predict_pl(ct, 0, 2), cl ^ des_sbox(2, cr));
    }
  }
}

TEST(Selection, DpaSelectionIsABitOfTheSharedPrediction) {
  // The DPA partition predicate and the CPA hypotheses must derive from
  // the same intermediate — that is the whole point of selection.h.
  for (int bit = 0; bit < 4; ++bit) {
    const SelectionFn sel = des_selection(bit);
    for (std::uint32_t ct : {0x0u, 0x1A5u, 0x2FFu, 0x173u}) {
      for (std::uint32_t g : {0u, 17u, 46u, 63u}) {
        EXPECT_EQ(sel(ct, g),
                  ((des_predict_pl(ct, g) >> bit) & 1u) != 0);
      }
    }
  }
}

TEST(Selection, DpaSelectionRejectsBitsOutsideTheNibble) {
  EXPECT_THROW(des_selection(40), Error);
  EXPECT_THROW(des_selection(4), Error);
  EXPECT_THROW(des_selection(-1), Error);
  EXPECT_NO_THROW(des_selection(3));
}

TEST(Selection, HypothesesAreHwAndHdOfTheSharedPrediction) {
  const HypothesisFn hw = des_hypothesis(PowerModel::kHammingWeight);
  const HypothesisFn hd = des_hypothesis(PowerModel::kHammingDistance);
  for (std::uint32_t ct : {0x12Bu, 0x3C4u}) {
    for (std::uint32_t prev : {0x0u, 0x2D9u}) {
      for (std::uint32_t g : {7u, 46u}) {
        EXPECT_EQ(hw(ct, prev, g),
                  hamming_weight(des_predict_pl(ct, g)));
        EXPECT_EQ(hd(ct, prev, g),
                  hamming_weight(des_predict_pl(ct, g) ^
                                 des_predict_pl(prev, g)));
      }
    }
  }
}

TEST(Selection, PowerModelNamesRoundTrip) {
  EXPECT_STREQ(power_model_name(PowerModel::kHammingWeight), "hw");
  EXPECT_STREQ(power_model_name(PowerModel::kHammingDistance), "hd");
  EXPECT_EQ(parse_power_model("hw"), PowerModel::kHammingWeight);
  EXPECT_EQ(parse_power_model("hd"), PowerModel::kHammingDistance);
  EXPECT_FALSE(parse_power_model("hamming").has_value());
  EXPECT_FALSE(parse_power_model("").has_value());
}

TEST(Selection, DpaAndCpaRecoverTheSameKeyThroughTheSharedCore) {
  // One synthetic device leaking HW(PL): the difference-of-means DPA
  // (partition via des_selection) and the correlation CPA (hypotheses via
  // des_hypothesis) must both converge on the planted key.
  const std::uint32_t key = 46;
  Rng rng(991);
  std::vector<SimTrace> dpa_traces;
  std::vector<CpaMeasurement> cpa_traces;
  for (int i = 0; i < 600; ++i) {
    const std::uint32_t ct = static_cast<std::uint32_t>(rng.next_below(1024));
    const double leak =
        static_cast<double>(hamming_weight(des_predict_pl(ct, key)));
    std::vector<double> samples(8);
    for (double& s : samples) s = 0.3 * rng.next_gaussian();
    samples[3] += leak;
    SimTrace dt;
    dt.observable = ct;
    dt.cycle.current_ma = samples;
    dpa_traces.push_back(std::move(dt));
    CpaMeasurement cm;
    cm.ct = ct;
    cm.prev_ct = 0;
    cm.samples = std::move(samples);
    cpa_traces.push_back(std::move(cm));
  }
  DpaAccumulator dpa(des_selection(0), key);
  dpa.fold(dpa_traces);
  const DpaResult dr = dpa.analyze(key);
  EXPECT_EQ(dr.best_guess, static_cast<int>(key));
  EXPECT_TRUE(dr.disclosed);
  CpaAccumulator acc(kDesKeyGuesses, 8);
  fold_cpa(acc, cpa_traces, des_hypothesis(PowerModel::kHammingWeight));
  const GuessRanking cr = rank_guesses(acc.scores());
  EXPECT_EQ(cr.best_guess, static_cast<int>(key));
  EXPECT_EQ(cr.rank_of(static_cast<int>(key)), 1);
  EXPECT_TRUE(cr.disclosed(key));
}

}  // namespace
}  // namespace secflow
