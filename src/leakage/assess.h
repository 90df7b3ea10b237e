// Leakage-assessment campaigns: the bridge between the simulation engine
// and the statistical machinery.
//
// assess_des_leakage mounts the full battery on a reduced-DES
// implementation (regular or WDDL): fixed-vs-random TVLA, CPA key
// recovery under a Hamming-weight or Hamming-distance model, success-rate
// / guessing-entropy curves over repeated independent sub-campaigns
// (disjoint Rng::stream bases), and MTD estimation with early stop.
// assess_tvla_leakage runs the model-free TVLA alone on any design by
// driving every non-clock input lane, so the detection test needs no
// knowledge of the circuit.
//
// Traces are synthesized through the compile-once / simulate-many path
// (sim/trace_sim.h) in fixed blocks; when LeakageSetup::cache_dir is set,
// each block is checkpointed in the ArtifactStore under a content-address
// chained from the flow's extraction-stage key (LeakageSetup::base_key),
// so a re-assessment of an unchanged design replays traces from disk
// instead of re-simulating.  Per-phase obs spans and metrics are emitted
// throughout.
#pragma once

#include <cstdint>
#include <string>

#include "base/parallel.h"
#include "leakage/cpa.h"
#include "leakage/report.h"
#include "netlist/netlist.h"
#include "sca/selection.h"
#include "sim/power_sim.h"

namespace secflow {

struct LeakageSetup {
  std::uint64_t seed = 2025;
  std::string design;  ///< report label

  // Each phase runs when its budget is positive; 0 turns it off.

  // TVLA (fixed-vs-random Welch-t): at least 4 traces when on.
  int tvla_traces = 600;  ///< total, interleaved fixed/random by parity

  // CPA key recovery (DES interface only).
  int cpa_traces = 800;
  std::uint32_t key = 46;  ///< the paper's secret key
  int sbox = 1;
  PowerModel model = PowerModel::kHammingDistance;

  // Success-rate / guessing-entropy curves over quarters of the CPA
  // budget, so they run only with CPA; 0 campaigns disables.
  int ge_campaigns = 0;

  // MTD estimation on the CPA stream; mtd.max_traces is its budget.
  MtdOptions mtd;

  /// Gaussian measurement noise per sample [mA].  TVLA needs a nonzero
  /// value: a noiseless fixed-plaintext class has zero variance and the
  /// Welch denominator collapses.
  double noise_ma = 0.05;

  /// Trace checkpoint cache; "" disables caching.
  std::string cache_dir;
  /// Content-address of the upstream flow state (normally the
  /// extraction-stage key from compute_stage_keys); chains the trace
  /// cache to the design so a changed netlist misses cleanly.  Required
  /// (nonzero) with a cache_dir.  The model's PowerSimOptions join it.
  std::uint64_t base_key = 0;

  Parallelism parallelism;
};

/// Full assessment of a reduced-DES implementation.  The model must be
/// compiled with precharge_inputs == differential (else Error).
LeakageReport assess_des_leakage(const CompiledSimModel& model,
                                 bool differential,
                                 const LeakageSetup& setup);

/// Convenience: compile the model, then assess.
LeakageReport assess_des_leakage(const Netlist& nl, const CapTable& caps,
                                 bool differential,
                                 const LeakageSetup& setup);

/// Model-free TVLA on an arbitrary design: drives every non-clock input
/// lane (rail pairs fold into one lane on differential netlists) with
/// fixed or fresh random values and runs the Welch-t detection test.
/// The returned report carries only the tvla section.  The model's
/// precharge must match `differential`, as for assess_des_leakage.
LeakageReport assess_tvla_leakage(const CompiledSimModel& model,
                                  bool differential,
                                  const LeakageSetup& setup);

LeakageReport assess_tvla_leakage(const Netlist& nl, const CapTable& caps,
                                  bool differential,
                                  const LeakageSetup& setup);

}  // namespace secflow
