// End-to-end determinism of the parallel execution layer: trace
// synthesis and the DPA campaign must be bit-identical for any thread
// count (1 == serial, 2, 8 — more threads than this box has cores).
// This is the contract that makes SECFLOW_THREADS a pure performance
// knob: no experiment result may depend on it.
//
// Also the target of the TSan certification build:
//   cmake -B build-tsan -DSECFLOW_SANITIZE=thread && ctest -R Parallel
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "crypto/des.h"
#include "liberty/builtin_lib.h"
#include "obs/metrics.h"
#include "sca/dpa_experiment.h"
#include "sim/trace_sim.h"
#include "synth/techmap.h"

namespace secflow {
namespace {

class ParallelDeterminism : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = builtin_stdcell018();
    rtl_ = new Netlist(technology_map(make_des_dpa_circuit(), lib_));
  }
  static void TearDownTestSuite() {
    delete rtl_;
    rtl_ = nullptr;
    lib_.reset();
  }

  static std::shared_ptr<const CellLibrary> lib_;
  static Netlist* rtl_;
};

std::shared_ptr<const CellLibrary> ParallelDeterminism::lib_;
Netlist* ParallelDeterminism::rtl_ = nullptr;

/// Simulate n random encryptions of the reduced-DES module with the given
/// thread count; every stochastic choice comes from the per-trace stream.
std::vector<SimTrace> encrypt_traces(const Netlist& nl, int n, int threads) {
  const TraceTask task = [](PowerSimulator& sim, Rng& rng, std::uint64_t) {
    auto drive = [&sim](const std::string& base, int width, std::uint32_t v) {
      for (int i = 0; i < width; ++i) {
        sim.set_input(base + "_" + std::to_string(i), (v >> i) & 1);
      }
    };
    drive("k", 6, 46);
    drive("pl", 4, static_cast<std::uint32_t>(rng.next_below(16)));
    drive("pr", 6, static_cast<std::uint32_t>(rng.next_below(64)));
    sim.settle();
    sim.run_cycle();
    drive("pl", 4, static_cast<std::uint32_t>(rng.next_below(16)));
    drive("pr", 6, static_cast<std::uint32_t>(rng.next_below(64)));
    sim.run_cycle();
    SimTrace out;
    out.cycle = sim.run_cycle();
    sim.run_cycle();
    for (int i = 0; i < 4; ++i) {
      if (sim.output("cl_" + std::to_string(i))) out.observable |= 1u << i;
    }
    return out;
  };
  Parallelism par;
  par.n_threads = threads;
  return simulate_traces(nl, {}, PowerSimOptions{}, n, 77, task, par);
}

TEST_F(ParallelDeterminism, SimulateTracesBitIdenticalAcrossThreadCounts) {
  const std::vector<SimTrace> serial = encrypt_traces(*rtl_, 24, 1);
  ASSERT_EQ(serial.size(), 24u);
  for (int threads : {2, 8}) {
    const std::vector<SimTrace> par = encrypt_traces(*rtl_, 24, threads);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(par[i].observable, serial[i].observable) << "trace " << i;
      EXPECT_EQ(par[i].cycle.energy_pj, serial[i].cycle.energy_pj);
      ASSERT_EQ(par[i].cycle.current_ma, serial[i].cycle.current_ma)
          << "trace " << i << " @ " << threads << " threads";
    }
  }
}

TEST_F(ParallelDeterminism, SimWorkCountersMatchAcrossThreadCounts) {
  // sim.events and sim.charge_bins are summed per chunk; the totals
  // count work, so they may not depend on how traces split into chunks.
  Metrics& m = Metrics::global();
  const bool was_enabled = m.enabled();
  m.set_enabled(true);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> per_thread;
  for (int threads : {1, 2, 8}) {
    m.reset();
    encrypt_traces(*rtl_, 24, threads);
    const MetricsSnapshot snap = m.snapshot();
    per_thread.emplace_back(snap.counters.at("sim.events"),
                            snap.counters.at("sim.charge_bins"));
  }
  m.reset();
  m.set_enabled(was_enabled);
  EXPECT_GT(per_thread[0].first, 0u);
  EXPECT_GT(per_thread[0].second, 0u);
  for (std::size_t i = 1; i < per_thread.size(); ++i) {
    EXPECT_EQ(per_thread[i], per_thread[0]) << "thread count #" << i;
  }
}

TEST_F(ParallelDeterminism, DpaCampaignBitIdenticalAcrossThreadCounts) {
  DesDpaSetup setup;
  setup.n_measurements = 230;  // two checkpoints and a ragged tail block
  setup.noise_ma = 0.05;  // exercises the per-trace noise stream too
  auto campaign = [&](int threads) {
    DesDpaSetup s = setup;
    s.parallelism.n_threads = threads;
    return run_des_dpa_campaign(*rtl_, {}, s, /*differential=*/false);
  };
  const DesDpaCampaign serial = campaign(1);
  const DpaResult serial_r = serial.dpa.analyze(setup.key);
  ASSERT_EQ(serial.dpa.checkpoints().size(), 2u);
  for (int threads : {2, 8}) {
    const DesDpaCampaign par = campaign(threads);
    ASSERT_EQ(par.cycle_energies_pj, serial.cycle_energies_pj)
        << "@ " << threads << " threads";
    const DpaResult r = par.dpa.analyze(setup.key);
    EXPECT_EQ(r.best_guess, serial_r.best_guess);
    EXPECT_EQ(r.disclosed, serial_r.disclosed);
    ASSERT_EQ(r.peak_to_peak, serial_r.peak_to_peak)
        << "@ " << threads << " threads";
    ASSERT_EQ(par.dpa.checkpoints().size(), serial.dpa.checkpoints().size());
    for (std::size_t c = 0; c < serial.dpa.checkpoints().size(); ++c) {
      EXPECT_EQ(par.dpa.checkpoints()[c].peak_to_peak,
                serial.dpa.checkpoints()[c].peak_to_peak)
          << "checkpoint " << c << " @ " << threads << " threads";
    }
    EXPECT_EQ(par.dpa.mtd(), serial.dpa.mtd());
  }
}

TEST_F(ParallelDeterminism, GuessSweepBitIdenticalAcrossThreadCounts) {
  // Synthetic traces; only the fold's guess sweep is parallel.
  std::vector<SimTrace> traces(250);
  Rng rng(11);
  for (SimTrace& t : traces) {
    t.observable = static_cast<std::uint32_t>(rng.next_below(1024));
    t.cycle.current_ma.assign(16, 0.0);
    for (double& s : t.cycle.current_ma) s = rng.next_gaussian();
  }
  auto fold = [&](int threads) {
    Parallelism par;
    par.n_threads = threads;
    DpaAccumulator dpa(des_selection(2), 46, par);
    dpa.fold(traces);
    return dpa;
  };
  const DpaAccumulator serial = fold(1);
  for (int threads : {2, 8}) {
    const DpaAccumulator par = fold(threads);
    for (std::uint32_t g = 0; g < kDesKeyGuesses; ++g) {
      ASSERT_EQ(par.differential(g), serial.differential(g))
          << "guess " << g << " @ " << threads << " threads";
    }
    const DpaResult r = par.analyze(46);
    EXPECT_EQ(r.best_guess, serial.analyze(46).best_guess);
    ASSERT_EQ(par.checkpoints().size(), serial.checkpoints().size());
    for (std::size_t c = 0; c < serial.checkpoints().size(); ++c) {
      EXPECT_EQ(par.checkpoints()[c].peak_to_peak,
                serial.checkpoints()[c].peak_to_peak);
    }
  }
}

}  // namespace
}  // namespace secflow
