// The statistical leakage-assessment subsystem: streaming accumulators
// against naive two-pass references, fold determinism across thread
// counts and block splits, CPA / TVLA / MTD semantics on synthetic leakage,
// and the end-to-end DES assertion of the paper's headline claim — the
// secure flow's MTD exceeds the regular flow's under the same attack.
//
// The binary is registered once with ctest (not per-case) because the
// end-to-end cases share an expensive fixture: both flows on the DES
// module plus trace synthesis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <span>

#include "base/error.h"
#include "base/rng.h"
#include "crypto/des.h"
#include "flow/flow.h"
#include "leakage/accumulators.h"
#include "leakage/assess.h"
#include "leakage/cpa.h"
#include "leakage/report.h"
#include "liberty/builtin_lib.h"
#include "obs/report.h"
#include "report_samples.h"
#include "sca/dpa_experiment.h"
#include "sca/selection.h"
#include "synth/hdl.h"

namespace secflow {
namespace {

// ---------------------------------------------------------------------
// Accumulators vs naive two-pass references.

TEST(Moment, MatchesNaiveTwoPass) {
  Rng rng(7);
  std::vector<double> xs;
  Moment m;
  for (int i = 0; i < 1000; ++i) {
    const double x = 3.0 + 2.5 * rng.next_gaussian();
    xs.push_back(x);
    m.add(x);
  }
  double sum = 0.0;
  for (double x : xs) sum += x;
  const double mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  const double var = ss / static_cast<double>(xs.size() - 1);
  EXPECT_NEAR(m.mean, mean, 1e-12);
  EXPECT_NEAR(m.variance(), var, 1e-9);
}

TEST(Moment, DegenerateCases) {
  Moment m;
  EXPECT_EQ(m.variance(), 0.0);
  m.add(5.0);
  EXPECT_EQ(m.mean, 5.0);
  EXPECT_EQ(m.variance(), 0.0);  // n < 2
}

TEST(WelchAccumulator, MatchesClosedForm) {
  // Two known groups; t = (mf - mr) / sqrt(vf/nf + vr/nr) per sample.
  const std::vector<std::vector<double>> fixed = {
      {1.0, 10.0}, {2.0, 10.0}, {3.0, 10.0}};
  const std::vector<std::vector<double>> random = {
      {2.0, 10.0}, {4.0, 10.0}, {6.0, 10.0}, {8.0, 10.0}};
  WelchAccumulator acc(2);
  for (const auto& t : fixed) acc.add(true, t.data());
  for (const auto& t : random) acc.add(false, t.data());
  // Sample 0: fixed mean 2 var 1 (n 3); random mean 5 var 20/3 (n 4).
  const double expect = (2.0 - 5.0) / std::sqrt(1.0 / 3 + (20.0 / 3) / 4);
  const std::vector<double> t = acc.t_statistic();
  ASSERT_EQ(t.size(), 2u);
  EXPECT_NEAR(t[0], expect, 1e-12);
  // Sample 1: both classes constant — zero variance means no evidence,
  // not infinite evidence.
  EXPECT_EQ(t[1], 0.0);
}

TEST(CpaAccumulator, CorrelationMatchesNaivePearson) {
  Rng rng(17);
  const int kGuesses = 3, kSamples = 2, kTraces = 500;
  CpaAccumulator acc(kGuesses, kSamples);
  std::vector<std::vector<double>> traces, hyps;
  for (int i = 0; i < kTraces; ++i) {
    std::vector<double> t(kSamples), h(kGuesses);
    const double secret = rng.next_gaussian();
    t[0] = secret + 0.3 * rng.next_gaussian();
    t[1] = rng.next_gaussian();
    h[0] = secret;                         // perfectly informed guess
    h[1] = 0.5 * secret + rng.next_gaussian();
    h[2] = rng.next_gaussian();            // uninformed guess
    acc.add(t.data(), h.data());
    traces.push_back(t);
    hyps.push_back(h);
  }
  auto naive = [&](int g, int s) {
    double mh = 0, mt = 0;
    for (int i = 0; i < kTraces; ++i) {
      mh += hyps[static_cast<std::size_t>(i)][static_cast<std::size_t>(g)];
      mt += traces[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)];
    }
    mh /= kTraces;
    mt /= kTraces;
    double c = 0, vh = 0, vt = 0;
    for (int i = 0; i < kTraces; ++i) {
      const double dh =
          hyps[static_cast<std::size_t>(i)][static_cast<std::size_t>(g)] - mh;
      const double dt =
          traces[static_cast<std::size_t>(i)][static_cast<std::size_t>(s)] -
          mt;
      c += dh * dt;
      vh += dh * dh;
      vt += dt * dt;
    }
    return c / std::sqrt(vh * vt);
  };
  for (int g = 0; g < kGuesses; ++g) {
    for (int s = 0; s < kSamples; ++s) {
      EXPECT_NEAR(acc.correlation(g, s), naive(g, s), 1e-10)
          << "guess " << g << " sample " << s;
    }
  }
  // The informed guess dominates the distinguisher score.
  const std::vector<double> scores = acc.scores();
  EXPECT_GT(scores[0], scores[1]);
  EXPECT_GT(scores[1], scores[2]);
}

TEST(CpaAccumulator, NumericallyStableUnderLargeOffset) {
  // A huge common-mode offset would destroy a naive sum-of-products
  // implementation; the shifted co-moment recurrences keep full precision.
  Rng rng(19);
  CpaAccumulator acc(2, 1);
  std::vector<std::pair<double, double>> data;
  for (int i = 0; i < 400; ++i) {
    const double x = rng.next_gaussian();
    const double t = 1e12 + x + 0.1 * rng.next_gaussian();
    const double h[2] = {x, 0.5};  // informed guess + constant dummy
    acc.add(&t, h);
    data.emplace_back(t, x);
  }
  // Reference correlation on the offset-free data (identical up to the
  // constant shift, which Pearson ignores).
  CpaAccumulator ref(2, 1);
  for (auto& [t, x] : data) {
    const double t0 = t - 1e12;
    const double h[2] = {x, 0.5};
    ref.add(&t0, h);
  }
  // The offset eats ~4 decimal digits of per-sample resolution; the
  // shifted recurrences keep the correlation within ~1e-5 of the
  // offset-free reference (a naive sum-of-products loses everything).
  EXPECT_NEAR(acc.correlation(0, 0), ref.correlation(0, 0), 1e-4);
  EXPECT_GT(acc.correlation(0, 0), 0.99);
}

TEST(CpaAccumulator, FoldMatchesSerialAddBitForBit) {
  // The fold splits the guesses, never the traces, across threads: every
  // correlation equals the serial add() result bit for bit, for ragged
  // (37) and round (200) blocks at any thread count.
  const int kGuesses = kDesKeyGuesses, kSamples = 16, kTraces = 400;
  Rng rng(21);
  std::vector<std::vector<double>> samples(kTraces);
  std::vector<double> hyps;
  CpaAccumulator serial(kGuesses, kSamples);
  for (std::vector<double>& t : samples) {
    t.resize(kSamples);
    for (double& x : t) x = 3.0 + rng.next_gaussian();
    const std::size_t first = hyps.size();
    for (int g = 0; g < kGuesses; ++g) hyps.push_back(rng.next_gaussian());
    serial.add(t.data(), hyps.data() + first);
  }
  std::vector<const double*> rows;
  for (const std::vector<double>& t : samples) rows.push_back(t.data());
  for (int threads : {1, 2, 8}) {
    for (std::size_t block : {std::size_t{37}, std::size_t{200}}) {
      Parallelism par;
      par.n_threads = threads;
      CpaAccumulator folded(kGuesses, kSamples);
      for (std::size_t b = 0; b < rows.size(); b += block) {
        const std::size_t n = std::min(block, rows.size() - b);
        folded.fold(n, rows.data() + b, hyps.data() + b * kGuesses, par);
      }
      ASSERT_EQ(folded.n(), serial.n());
      for (int g = 0; g < kGuesses; ++g) {
        for (int s = 0; s < kSamples; ++s) {
          ASSERT_EQ(folded.correlation(g, s), serial.correlation(g, s))
              << "guess " << g << " sample " << s << ", " << block
              << "-trace blocks @ " << threads << " threads";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Fold determinism: bit-identical at any thread count.

std::vector<CpaMeasurement> synthetic_traces(int n, std::uint64_t seed) {
  std::vector<CpaMeasurement> traces;
  for (int i = 0; i < n; ++i) {
    Rng rng = Rng::stream(seed, static_cast<std::uint64_t>(i));
    CpaMeasurement m;
    m.ct = static_cast<std::uint32_t>(rng.next_below(1024));
    m.prev_ct = static_cast<std::uint32_t>(rng.next_below(1024));
    m.samples.resize(6);
    const double leak =
        hamming_weight(des_predict_pl(m.ct, 46)) - 2.0;
    for (std::size_t s = 0; s < m.samples.size(); ++s) {
      m.samples[s] = (s == 2 ? leak : 0.0) + rng.next_gaussian();
    }
    traces.push_back(std::move(m));
  }
  return traces;
}

TEST(Determinism, CpaBitIdenticalAcrossThreadCounts) {
  // 1100 traces folded in 256-trace blocks with a ragged tail.
  const std::vector<CpaMeasurement> traces = synthetic_traces(1100, 23);
  const HypothesisFn hyp = des_hypothesis(PowerModel::kHammingWeight);
  std::vector<std::vector<double>> per_thread_scores;
  for (int threads : {1, 2, 4, 8}) {
    Parallelism par;
    par.n_threads = threads;
    CpaAccumulator acc(kDesKeyGuesses, 6);
    for (std::size_t b = 0; b < traces.size(); b += 256) {
      const std::size_t n = std::min<std::size_t>(256, traces.size() - b);
      fold_cpa(acc, std::span(traces).subspan(b, n), hyp, par);
    }
    per_thread_scores.push_back(acc.scores());
  }
  for (std::size_t i = 1; i < per_thread_scores.size(); ++i) {
    // Bitwise equality of every double, not approximate equality: threads
    // split the guesses, never the trace order.
    EXPECT_EQ(per_thread_scores[i], per_thread_scores[0])
        << "thread count #" << i << " diverged";
  }
}

/// A 4-bit registered design clocked by `clock`.
AigCircuit small_design(const std::string& clock) {
  return parse_hdl("module small (input " + clock + R"(, input [3:0] a,
                   input [3:0] b, output [3:0] y);
      reg [3:0] r;
      wire [3:0] m;
      assign m = (a & b) ^ r;
      always @(posedge )" + clock + R"() r <= m | a;
      assign y = r ^ b;
    endmodule)");
}

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "accepted";
}

TEST(Determinism, TvlaBitIdenticalAcrossThreadCounts) {
  // Model-free TVLA on a 4-bit design: 700 traces in 200-trace blocks
  // with a ragged 100-trace tail, simulated cold at every thread count.
  const RegularFlowResult flow =
      run_regular_flow(small_design("clk"), builtin_stdcell018());
  LeakageSetup s;
  s.tvla_traces = 700;
  s.mtd.step = 200;
  std::vector<TvlaSummary> per_thread;
  for (int threads : {1, 2, 4, 8}) {
    s.parallelism.n_threads = threads;
    per_thread.push_back(
        assess_tvla_leakage(flow.rtl, flow.caps, /*differential=*/false, s)
            .tvla);
  }
  EXPECT_EQ(per_thread[0].n_fixed + per_thread[0].n_random, 700);
  for (std::size_t i = 1; i < per_thread.size(); ++i) {
    EXPECT_EQ(per_thread[i], per_thread[0]) << "thread count #" << i;
  }
}

// ---------------------------------------------------------------------
// Generic TVLA's input lanes and the trace cache's keys.

TEST(GenericTvla, DrivesTheDataInputsWhateverTheClockIsCalled) {
  // The lanes are the model's data inputs, so a design whose clock is
  // called ck gets the statistics of the same design clocked by clk.
  const auto lib = builtin_stdcell018();
  LeakageSetup s;
  s.tvla_traces = 200;
  const auto tvla = [&](const std::string& clock, FlowKind kind) {
    const AigCircuit c = small_design(clock);
    if (kind == FlowKind::kRegular) {
      const RegularFlowResult r = run_regular_flow(c, lib);
      return assess_tvla_leakage(compile_power_model(r), false, s).tvla;
    }
    const SecureFlowResult r = run_secure_flow(c, lib);
    return assess_tvla_leakage(compile_power_model(r), true, s).tvla;
  };
  for (const FlowKind kind : {FlowKind::kRegular, FlowKind::kSecure}) {
    SCOPED_TRACE(flow_kind_name(kind));
    const TvlaSummary clk = tvla("clk", kind);
    EXPECT_EQ(clk.n_fixed + clk.n_random, 200);
    EXPECT_EQ(tvla("ck", kind), clk);
  }
}

TEST(TraceCache, BlocksAreKeyedByTheDesignAndTheModelOptions) {
  // A store without a design key would hand one design's blocks to
  // another, so it is an error.  With the key, one layout at two sample
  // rates simulates twice instead of replaying the first rate's traces.
  const RegularFlowResult flow =
      run_regular_flow(small_design("clk"), builtin_stdcell018());
  LeakageSetup s;
  s.tvla_traces = 200;
  s.mtd.step = 200;  // one block
  s.cache_dir =
      (std::filesystem::path(::testing::TempDir()) / "secflow_trace_cache")
          .string();
  std::filesystem::remove_all(s.cache_dir);
  const std::string msg = error_of([&] {
    assess_tvla_leakage(flow.rtl, flow.caps, /*differential=*/false, s);
  });
  EXPECT_NE(msg.find("base_key"), std::string::npos) << msg;

  s.base_key = flow.timings.key(FlowStage::kExtraction);
  PowerSimOptions coarse;
  coarse.sampling.samples_per_cycle = 400;
  const CompiledSimModel nominal(flow.rtl, flow.caps);
  const CompiledSimModel at_coarse(flow.rtl, flow.caps, coarse);
  const LeakageReport cold = assess_tvla_leakage(nominal, false, s);
  const LeakageReport other = assess_tvla_leakage(at_coarse, false, s);
  const LeakageReport warm = assess_tvla_leakage(nominal, false, s);
  std::filesystem::remove_all(s.cache_dir);
  EXPECT_EQ(cold.trace_cache_misses, 1);
  EXPECT_EQ(other.trace_cache_hits, 0);
  EXPECT_EQ(other.trace_cache_misses, 1);
  EXPECT_NE(other.tvla.max_abs_t, cold.tvla.max_abs_t);
  EXPECT_EQ(warm.trace_cache_hits, 1);
  EXPECT_EQ(warm.trace_cache_misses, 0);
  EXPECT_EQ(warm.tvla, cold.tvla);
}

// ---------------------------------------------------------------------
// CPA ranking and MTD semantics on synthetic leakage.

TEST(CpaRanking, RankAndDisclosureSemantics) {
  GuessRanking r;
  r.scores = {0.1, 0.5, 0.3, 0.5};
  r.best_guess = 1;
  r.best_score = 0.5;
  r.runner_up_score = 0.5;
  EXPECT_EQ(r.rank_of(1), 1);  // ties broken toward the smaller index
  EXPECT_EQ(r.rank_of(3), 2);
  EXPECT_EQ(r.rank_of(2), 3);
  EXPECT_EQ(r.rank_of(0), 4);
  // A tie never discloses: the margin requires clear separation.
  EXPECT_FALSE(r.disclosed(1));
  r.scores = {0.1, 0.5, 0.3, 0.2};
  r.runner_up_score = 0.3;
  EXPECT_TRUE(r.disclosed(1));
  EXPECT_FALSE(r.disclosed(2));  // wrong best guess
}

/// Run the MTD rule the way the assessment's pass does: fetch the traces
/// up to the next checkpoint as one block, fold it into the one
/// accumulator, check, until the rule is done.  Counts the blocks.
MtdResult run_mtd(
    const std::function<std::vector<CpaMeasurement>(int, int)>& block_at,
    std::size_t n_samples, const MtdOptions& opts, int* blocks) {
  const HypothesisFn hyp = des_hypothesis(PowerModel::kHammingWeight);
  CpaAccumulator acc(kDesKeyGuesses, static_cast<int>(n_samples));
  MtdTracker mtd(opts, 46);
  while (!mtd.done()) {
    fold_cpa(acc, block_at(static_cast<int>(acc.n()), mtd.next_checkpoint()),
             hyp);
    ++*blocks;
    mtd.check(acc);
  }
  return mtd.result();
}

TEST(Mtd, SyntheticLeakDisclosesAndEarlyStops) {
  const std::vector<CpaMeasurement> pool = synthetic_traces(2000, 31);
  int fed_calls = 0;
  const auto block_at = [&](int begin, int end) {
    return std::vector<CpaMeasurement>(pool.begin() + begin,
                                       pool.begin() + end);
  };
  MtdOptions mtd;
  mtd.max_traces = 2000;
  mtd.step = 100;
  const MtdResult r = run_mtd(block_at, 6, mtd, &fed_calls);
  EXPECT_TRUE(r.disclosed);
  EXPECT_GT(r.mtd, 0);
  EXPECT_LE(r.mtd, r.traces_fed);
  // Early stop: the run ends persist-1 checkpoints after disclosure
  // began, not at the full budget.
  EXPECT_LT(r.traces_fed, mtd.max_traces);
  EXPECT_EQ(fed_calls, r.traces_fed / mtd.step);
  EXPECT_EQ(r.checkpoints.size(), r.ranks.size());
  EXPECT_EQ(r.ranks.back(), 1);
}

TEST(Mtd, PureNoiseStaysHidden) {
  const auto block_at = [](int begin, int end) {
    std::vector<CpaMeasurement> batch;
    for (int i = begin; i < end; ++i) {
      Rng rng = Rng::stream(37, static_cast<std::uint64_t>(i));
      CpaMeasurement m;
      m.ct = static_cast<std::uint32_t>(rng.next_below(1024));
      m.prev_ct = static_cast<std::uint32_t>(rng.next_below(1024));
      m.samples = {rng.next_gaussian(), rng.next_gaussian()};
      batch.push_back(std::move(m));
    }
    return batch;
  };
  MtdOptions mtd;
  mtd.max_traces = 600;
  mtd.step = 200;
  int fed_calls = 0;
  const MtdResult r = run_mtd(block_at, 2, mtd, &fed_calls);
  EXPECT_FALSE(r.disclosed);
  EXPECT_EQ(r.mtd, -1);
  EXPECT_EQ(r.traces_fed, 600);
  EXPECT_EQ(fed_calls, r.traces_fed / mtd.step);
}

TEST(Mtd, ExceedsComparison) {
  // mtd_exceeds(later, later_budget, earlier): does the secure flow
  // ("later") need more measurements than the regular one ("earlier")?
  EXPECT_TRUE(mtd_exceeds(500, 1000, 200));
  EXPECT_FALSE(mtd_exceeds(200, 1000, 500));
  EXPECT_FALSE(mtd_exceeds(200, 1000, 200));
  // Hidden at a budget covering the earlier MTD counts as exceeding.
  EXPECT_TRUE(mtd_exceeds(-1, 1000, 200));
  // Hidden at a smaller budget proves nothing.
  EXPECT_FALSE(mtd_exceeds(-1, 100, 200));
  // The earlier flow never disclosed: nothing can exceed it.
  EXPECT_FALSE(mtd_exceeds(-1, 1000, -1));
  EXPECT_FALSE(mtd_exceeds(500, 1000, -1));
}

TEST(Tvla, DetectsInjectedMeanShift) {
  WelchAccumulator acc(3);
  std::vector<double> t(3);
  for (int i = 0; i < 1000; ++i) {
    Rng rng = Rng::stream(41, static_cast<std::uint64_t>(i));
    const bool fixed = (i % 2) == 0;
    t[0] = rng.next_gaussian();
    t[1] = rng.next_gaussian() + (fixed ? 0.5 : 0.0);  // leak
    t[2] = rng.next_gaussian();
    acc.add(fixed, t.data());
  }
  const std::vector<double> stat = acc.t_statistic();
  EXPECT_GT(acc.max_abs_t(), 4.5);
  const std::vector<std::size_t> leaky = acc.leaky_samples(4.5);
  ASSERT_EQ(leaky.size(), 1u);
  EXPECT_EQ(leaky[0], 1u);
  EXPECT_GT(std::abs(stat[1]), 4.5);
  EXPECT_LT(std::abs(stat[0]), 4.5);
}

// ---------------------------------------------------------------------
// End to end on the paper's DES module: the headline claim.

class DesLeakage : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = builtin_stdcell018();
    const AigCircuit circuit = make_des_dpa_circuit();
    FlowOptions opts;
    regular_ = new RegularFlowResult(run_regular_flow(circuit, lib_, opts));
    secure_ = new SecureFlowResult(run_secure_flow(circuit, lib_, opts));
    cache_dir_ = (std::filesystem::temp_directory_path() /
                  "secflow_leakage_test_ck")
                     .string();
    std::filesystem::remove_all(cache_dir_);
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(cache_dir_);
    delete regular_;
    delete secure_;
    regular_ = nullptr;
    secure_ = nullptr;
    lib_.reset();
  }

  /// The calibrated attack point (DESIGN.md §14): the Hamming-weight
  /// model targets value leakage — exactly what balanced differential
  /// routing suppresses — and 0.6 mA of measurement noise buries the
  /// secure flow's residual while the regular flow's signal survives.
  static LeakageSetup setup(int threads) {
    LeakageSetup s;
    s.design = "des_dpa";
    s.model = PowerModel::kHammingWeight;
    s.noise_ma = 0.6;
    s.tvla_traces = 200;
    s.cpa_traces = 400;
    s.mtd.max_traces = 600;
    s.mtd.step = 200;
    s.cache_dir = cache_dir_;
    s.parallelism.n_threads = threads;
    return s;
  }

  static LeakageReport assess_regular(int threads) {
    LeakageSetup s = setup(threads);
    s.base_key = regular_->timings.key(FlowStage::kExtraction);
    return assess_des_leakage(regular_->rtl, regular_->caps,
                              /*differential=*/false, s);
  }
  static LeakageReport assess_secure(int threads) {
    LeakageSetup s = setup(threads);
    s.base_key = secure_->timings.key(FlowStage::kExtraction);
    return assess_des_leakage(secure_->diff, secure_->caps,
                              /*differential=*/true, s);
  }

  static std::shared_ptr<const CellLibrary> lib_;
  static RegularFlowResult* regular_;
  static SecureFlowResult* secure_;
  static std::string cache_dir_;
};

std::shared_ptr<const CellLibrary> DesLeakage::lib_;
RegularFlowResult* DesLeakage::regular_ = nullptr;
SecureFlowResult* DesLeakage::secure_ = nullptr;
std::string DesLeakage::cache_dir_;

TEST_F(DesLeakage, CpaRecoversRegularButNotSecureKey) {
  const LeakageReport reg = assess_regular(0);
  const LeakageReport sec = assess_secure(0);

  // Regular flow: the subkey is recovered outright.
  ASSERT_TRUE(reg.cpa.present);
  EXPECT_EQ(reg.cpa.best_guess, 46);
  EXPECT_EQ(reg.cpa.correct_rank, 1);
  EXPECT_TRUE(reg.cpa.disclosed);

  // Secure flow, same attack, same trace count: the key stays hidden.
  ASSERT_TRUE(sec.cpa.present);
  EXPECT_EQ(sec.cpa.n_traces, reg.cpa.n_traces);
  EXPECT_GT(sec.cpa.correct_rank, 1);
  EXPECT_FALSE(sec.cpa.disclosed);

  // The paper's headline: MTD(secure) exceeds MTD(regular).
  ASSERT_TRUE(reg.mtd.present);
  ASSERT_TRUE(sec.mtd.present);
  EXPECT_GT(reg.mtd.mtd, 0);
  EXPECT_TRUE(mtd_exceeds(static_cast<int>(sec.mtd.mtd),
                          static_cast<int>(sec.mtd.max_traces),
                          static_cast<int>(reg.mtd.mtd)));

  // TVLA ran on both and produced finite statistics.
  ASSERT_TRUE(reg.tvla.present);
  ASSERT_TRUE(sec.tvla.present);
  EXPECT_EQ(reg.tvla.n_fixed + reg.tvla.n_random, 200);
  EXPECT_GT(reg.tvla.max_abs_t, 0.0);
  EXPECT_GT(sec.tvla.max_abs_t, 0.0);
}

TEST_F(DesLeakage, WarmCacheReplaysAndStatisticsAreThreadInvariant) {
  // The first test populated the trace cache; these re-assessments replay
  // every block from disk (zero misses) and re-run only the statistics.
  std::vector<LeakageReport> reports;
  for (int threads : {1, 2, 4, 8}) {
    reports.push_back(assess_secure(threads));
    EXPECT_EQ(reports.back().trace_cache_misses, 0)
        << "cold simulation at " << threads << " threads";
    EXPECT_GT(reports.back().trace_cache_hits, 0);
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    // Every statistic bit-identical at 1/2/4/8 threads (operator== on
    // the summaries compares raw doubles).
    EXPECT_EQ(reports[i].tvla, reports[0].tvla);
    EXPECT_EQ(reports[i].cpa, reports[0].cpa);
    EXPECT_EQ(reports[i].mtd, reports[0].mtd);
  }
}

TEST_F(DesLeakage, TvlaIsBlockSplitInvariant) {
  // TVLA adds every trace to one accumulator in trace order, so the
  // block width moves no bit.  A 600-wide step makes the 600 traces one
  // block, a single serial add() pass: the reference.
  LeakageSetup s = setup(0);
  s.cache_dir.clear();
  s.cpa_traces = 0;
  s.tvla_traces = 600;
  const auto tvla_at = [&](int step, bool generic) {
    s.mtd.step = step;
    return generic ? assess_tvla_leakage(regular_->rtl, regular_->caps,
                                         /*differential=*/false, s)
                         .tvla
                   : assess_des_leakage(secure_->diff, secure_->caps,
                                        /*differential=*/true, s)
                         .tvla;
  };
  for (bool generic : {false, true}) {
    const TvlaSummary one_block = tvla_at(600, generic);
    EXPECT_EQ(one_block.n_fixed, 300);
    EXPECT_EQ(one_block.n_random, 300);
    for (int step : {37, 200}) {
      EXPECT_EQ(tvla_at(step, generic), one_block)
          << (generic ? "generic" : "DES") << " TVLA at step " << step;
    }
  }
}

TEST_F(DesLeakage, CpaAndMtdShareOneFetchOfEveryBlock) {
  // CPA 400 and MTD 600 in one pass over the trace stream: MTD's first
  // two checkpoints read the blocks CPA folded, so a cold cache simulates
  // each of the three blocks once and replays none.
  LeakageSetup s = setup(0);
  s.cache_dir = cache_dir_ + "_one_pass";
  std::filesystem::remove_all(s.cache_dir);
  s.base_key = regular_->timings.key(FlowStage::kExtraction);
  s.tvla_traces = 0;
  const LeakageReport r = assess_des_leakage(
      regular_->rtl, regular_->caps, /*differential=*/false, s);
  std::filesystem::remove_all(s.cache_dir);
  EXPECT_EQ(r.cpa.n_traces, 400);
  EXPECT_EQ(r.mtd.checkpoints, (std::vector<std::int64_t>{200, 400, 600}));
  EXPECT_EQ(r.mtd.traces_fed, 600);
  EXPECT_EQ(r.trace_cache_hits, 0);
  EXPECT_EQ(r.trace_cache_misses, 3);
}

TEST_F(DesLeakage, DesAndGenericTvlaKeepTheirOwnBlocks) {
  // The DES task and the generic lanes draw different traces from one
  // stream range, so against one store the generic assessment must
  // simulate its own block instead of replaying the DES one.
  LeakageSetup s = setup(0);
  s.cache_dir = cache_dir_ + "_tvla_purpose";
  std::filesystem::remove_all(s.cache_dir);
  s.base_key = regular_->timings.key(FlowStage::kExtraction);
  s.cpa_traces = 0;
  const LeakageReport des = assess_des_leakage(
      regular_->rtl, regular_->caps, /*differential=*/false, s);
  const LeakageReport lanes = assess_tvla_leakage(
      regular_->rtl, regular_->caps, /*differential=*/false, s);
  std::filesystem::remove_all(s.cache_dir);
  s.cache_dir.clear();
  const LeakageReport lanes_without_store = assess_tvla_leakage(
      regular_->rtl, regular_->caps, /*differential=*/false, s);
  EXPECT_EQ(des.trace_cache_misses, 1);
  EXPECT_EQ(lanes.trace_cache_hits, 0);
  EXPECT_EQ(lanes.trace_cache_misses, 1);
  EXPECT_EQ(lanes.tvla, lanes_without_store.tvla);
  EXPECT_NE(lanes.tvla.max_abs_t, des.tvla.max_abs_t);
}

TEST_F(DesLeakage, GuessingEntropyCurvesConvergeOnRegularFlow) {
  LeakageSetup s = setup(0);
  s.base_key = regular_->timings.key(FlowStage::kExtraction);
  s.tvla_traces = 0;
  s.mtd.max_traces = 0;
  s.ge_campaigns = 2;
  const LeakageReport r = assess_des_leakage(
      regular_->rtl, regular_->caps, /*differential=*/false, s);
  ASSERT_TRUE(r.ge.present);
  EXPECT_EQ(r.ge.n_campaigns, 2);
  ASSERT_FALSE(r.ge.trace_grid.empty());
  ASSERT_EQ(r.ge.guessing_entropy.size(), r.ge.trace_grid.size());
  ASSERT_EQ(r.ge.success_rate.size(), r.ge.trace_grid.size());
  // At the full budget the regular flow is broken in every sub-campaign:
  // guessing entropy collapses to rank 1 with certainty.
  EXPECT_EQ(r.ge.guessing_entropy.back(), 1.0);
  EXPECT_EQ(r.ge.success_rate.back(), 1.0);
  for (double sr : r.ge.success_rate) {
    EXPECT_GE(sr, 0.0);
    EXPECT_LE(sr, 1.0);
  }
}

TEST_F(DesLeakage, AttackEntryPointsCheckThePrechargeMode) {
  // A WDDL netlist simulated without its precharge wave gives wrong
  // traces, so each entry point rejects a model whose precharge mode
  // disagrees with `differential`, naming both values.
  LeakageSetup s = setup(0);
  s.cache_dir.clear();
  const CompiledSimModel unprecharged(secure_->diff, secure_->caps);
  const CompiledSimModel precharged = compile_power_model(*secure_);
  for (const bool differential : {true, false}) {
    SCOPED_TRACE(differential);
    const CompiledSimModel& model = differential ? unprecharged : precharged;
    const std::string want =
        differential ? "differential = true, but the model was compiled "
                       "with precharge_inputs = false"
                     : "differential = false, but the model was compiled "
                       "with precharge_inputs = true";
    for (const std::string& msg :
         {error_of([&] { assess_des_leakage(model, differential, s); }),
          error_of([&] { assess_tvla_leakage(model, differential, s); }),
          error_of([&] {
            run_des_dpa_campaign(model, DesDpaSetup{}, differential);
          })}) {
      EXPECT_NE(msg.find(want), std::string::npos) << msg;
    }
  }
}

TEST(LeakageReport, RejectsNonIntegerCounts) {
  // A fractional MTD or rank would otherwise be truncated on read.
  const JsonValue good = leakage_report_to_json(report_samples::full_leakage());
  const auto rejection = [](const JsonValue& doc) -> std::string {
    try {
      validate_leakage_report(doc);
    } catch (const Error& e) {
      return e.what();
    }
    return "accepted";
  };
  JsonValue bad_mtd = good;
  bad_mtd.find("mtd")->set("mtd", JsonValue(200.5));
  const std::string mtd_msg = rejection(bad_mtd);
  EXPECT_NE(mtd_msg.find("member 'mtd' must be an integer"),
            std::string::npos) << mtd_msg;
  JsonValue bad_ranks = good;
  bad_ranks.find("mtd")->find("ranks")->items()[0] = JsonValue(0.25);
  const std::string ranks_msg = rejection(bad_ranks);
  EXPECT_NE(ranks_msg.find("member 'ranks'"), std::string::npos) << ranks_msg;
}

TEST_F(DesLeakage, ReportRoundTripsAndAttachesToFlowReport) {
  const LeakageReport sec = assess_secure(0);

  // JSON round trip through validate + parse.
  const std::string json = leakage_report_json(sec);
  EXPECT_NO_THROW(validate_leakage_report(json_parse(json)));
  const LeakageReport parsed = parse_leakage_report(json);
  EXPECT_EQ(parsed, sec);

  // The digest folds into the flow report and the result still validates.
  FlowReport flow;
  flow.flow = "secure";
  flow.design = "des_dpa";
  StageEntry stage;  // the schema requires at least one stage
  stage.name = "synthesis";
  stage.ms = 1.0;
  stage.cache = "miss";
  stage.cache_key = "00000000deadbeef";
  flow.stages.push_back(stage);
  attach_leakage(flow, sec);
  EXPECT_TRUE(flow.leakage.present);
  EXPECT_EQ(flow.leakage.model, "hw");
  EXPECT_EQ(flow.leakage.cpa_correct_rank, sec.cpa.correct_rank);
  EXPECT_EQ(flow.leakage.mtd, sec.mtd.mtd);
  const FlowReport flow_parsed = parse_flow_report(flow_report_json(flow));
  EXPECT_EQ(flow_parsed.leakage.cpa_correct_rank, sec.cpa.correct_rank);
}

}  // namespace
}  // namespace secflow
