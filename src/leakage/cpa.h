// Correlation power analysis (Brier et al.) as a streaming engine.
//
// Each measurement carries the recorded supply-current samples plus the
// two ciphertext observables (target and previous encryption) a
// Hamming-weight or Hamming-distance hypothesis needs.  fold_cpa folds a
// block of measurements into one CpaAccumulator in trace order, with the
// key-guess sweep on the shared thread pool — bit-identical statistics
// at any SECFLOW_THREADS and for any block split (see
// leakage/accumulators.h).
//
// rank_guesses (sca/selection.h) ranks the accumulated per-guess
// distinguisher scores; MtdTracker applies the measurements-to-disclosure
// rule to the same growing accumulator, checkpoint by checkpoint, and
// says when disclosure has persisted, so an MTD estimate need not
// simulate the full budget.
#pragma once

#include <cstdint>
#include <span>
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

/// Fold `traces` into `acc` in order under `hypothesis`; the guess sweep
/// runs on `par`.  Throws Error on a trace whose sample count is not
/// acc.n_samples().
void fold_cpa(CpaAccumulator& acc, std::span<const CpaMeasurement> traces,
              const HypothesisFn& hypothesis, const Parallelism& par = {});

/// An MTD run stops early once disclosure has held for this many
/// consecutive checkpoints.  Disclosure still reaching the last checkpoint
/// counts (the DPA checkpoints' rule); a run broken before either bound
/// resets.
inline constexpr int kMtdPersist = 3;

struct MtdOptions {
  int max_traces = 2000;  ///< give up (key hidden) beyond this budget
  int step = 100;         ///< check granularity
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

/// The MTD rule over one growing CPA accumulator: the correct key is
/// ranked every `step` traces and at the budget, and the run is done once
/// disclosure has persisted kMtdPersist checkpoints or the budget is spent.
class MtdTracker {
 public:
  /// Throws Error on a non-positive step or a budget smaller than one
  /// step.
  MtdTracker(const MtdOptions& opts, std::uint32_t correct_key);

  /// Trace count the next checkpoint is read at.
  int next_checkpoint() const;
  bool done() const { return done_; }

  /// Rank `acc`, which must hold exactly next_checkpoint() traces.
  void check(const CpaAccumulator& acc);

  const MtdResult& result() const { return result_; }

 private:
  MtdOptions opts_;
  std::uint32_t correct_key_;
  DisclosureRun run_;
  MtdResult result_;
  bool done_ = false;
};

/// True when `later` dominates `earlier` as an MTD figure: -1 (hidden at
/// budget `later_budget`) dominates any disclosed count within the
/// budget; otherwise plain >.
bool mtd_exceeds(int later, int later_budget, int earlier);

}  // namespace secflow
