// Correlation power analysis (Brier et al.) as a streaming engine.
//
// Each measurement carries the recorded supply-current samples plus the
// two ciphertext observables (target and previous encryption) a
// Hamming-weight or Hamming-distance hypothesis needs.  accumulate_cpa
// shards the measurements into fixed-width index ranges, folds each shard
// serially into its own CpaAccumulator on the shared thread pool, and
// merges the shards in ascending order — bit-identical statistics at any
// SECFLOW_THREADS (see leakage/accumulators.h for the contract).
//
// rank_guesses (sca/selection.h) ranks the accumulated per-guess
// distinguisher scores; estimate_mtd feeds traces incrementally through a
// private accumulator and stops early once disclosure has persisted,
// giving the measurements-to-disclosure figure without simulating the
// full budget.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "base/parallel.h"
#include "leakage/accumulators.h"
#include "sca/selection.h"

namespace secflow {

/// One CPA measurement: trace samples plus the attacker's observables.
struct CpaMeasurement {
  std::vector<double> samples;
  std::uint32_t ct = 0;       ///< packed ciphertext of this encryption
  std::uint32_t prev_ct = 0;  ///< packed ciphertext of the previous one
};

struct CpaOptions {
  int n_guesses = kDesKeyGuesses;
  /// Shard accumulation parallelism; results are bit-identical for any
  /// thread count.
  Parallelism parallelism;
};

/// Accumulate every measurement under `hypothesis` (sharded, merged in
/// deterministic order).  Throws Error on empty input or ragged traces.
CpaAccumulator accumulate_cpa(const std::vector<CpaMeasurement>& traces,
                              const HypothesisFn& hypothesis,
                              const CpaOptions& opts);

/// Produces the measurements for trace indices [begin, end) — from the
/// simulator, a checkpoint cache, or disk.  Indices are absolute, so a
/// feeder backed by Rng::stream(seed, i) yields the same trace for index
/// i regardless of the batch boundaries it is called with.
using TraceFeeder =
    std::function<std::vector<CpaMeasurement>(int begin, int end)>;

struct MtdOptions {
  int max_traces = 2000;  ///< give up (key hidden) beyond this budget
  int step = 100;         ///< feed/check granularity
  /// Early stop once disclosure has held for this many consecutive
  /// checkpoints.  Disclosure still reaching the last checkpoint counts
  /// (the DPA checkpoints' rule); a run broken before either bound
  /// resets.
  int persist = 3;
};

struct MtdResult {
  /// Smallest checked trace count from which disclosure persisted;
  /// -1 when the key is still hidden at max_traces (MTD > max_traces).
  int mtd = -1;
  int traces_fed = 0;  ///< traces consumed before the early stop / budget
  bool disclosed = false;
  std::vector<int> checkpoints;  ///< every checked trace count
  std::vector<int> ranks;        ///< correct-key rank at each checkpoint
};

/// Incremental MTD estimation: feed `step` traces at a time into a
/// streaming accumulator, rank after each batch, stop early once
/// disclosure persisted `persist` checkpoints.
MtdResult estimate_mtd(const TraceFeeder& feeder,
                       const HypothesisFn& hypothesis,
                       std::uint32_t correct_key, const MtdOptions& mtd,
                       const CpaOptions& opts = {});

/// True when `later` dominates `earlier` as an MTD figure: -1 (hidden at
/// budget `later_budget`) dominates any disclosed count within the
/// budget; otherwise plain >.
bool mtd_exceeds(int later, int later_budget, int earlier);

}  // namespace secflow
