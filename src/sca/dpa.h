// Differential Power Analysis (Kocher et al.) as used in the paper's
// evaluation (section 3, Fig 6).
//
// Supply-current traces, one per encryption, are partitioned into two sets
// by a single-bit selection function under each key guess; the
// differential trace is the difference of the two set means.  A wrong
// guess splits traces randomly and the differential tends to zero; the
// correct guess produces peaks.  Disclosure is declared when the correct
// key's peak-to-peak dominates every other guess by kDisclosureMargin, and
// the MTD (measurements to disclosure) is the smallest checkpoint from
// which disclosure persists to the last one.
//
// The engine streams: DpaAccumulator keeps, per key guess, the per-sample
// sums and the trace count of both sets, so a campaign folds each trace
// once and drops it.  Summing in trace order makes every differential
// bit-identical to a from-scratch difference of means over the same
// traces, at every checkpoint and for any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "base/parallel.h"
#include "sca/selection.h"
#include "sim/trace_sim.h"

namespace secflow {

/// Fig 6's measurement grid: the correct key is checked after every
/// kDpaCheckpointTraces folded traces.
inline constexpr int kDpaCheckpointTraces = 100;

struct DpaResult {
  int n_measurements = 0;
  std::vector<double> peak_to_peak;  ///< per key guess
  int best_guess = -1;
  bool disclosed = false;  ///< best guess equals the correct key, with margin
};

/// Streaming difference-of-means state for kDesKeyGuesses key guesses.
class DpaAccumulator {
 public:
  /// `correct_key` is the key the checkpoints are judged against;
  /// `par` spreads each fold's guess sweep over the thread pool.
  DpaAccumulator(SelectionFn selection, std::uint32_t correct_key,
                 const Parallelism& par = {});

  int n_measurements() const { return n_; }

  /// Fold traces in order: samples from cycle.current_ma, the selection
  /// function's ciphertext from observable.  Every trace needs the sample
  /// count of the first one folded.  Each time the trace count reaches a
  /// multiple of kDpaCheckpointTraces, the correct key's result is
  /// recorded.
  void fold(const std::vector<SimTrace>& traces);

  /// Difference of the two set means for one key guess over every trace
  /// folded so far; flat when one set is empty.
  std::vector<double> differential(std::uint32_t guess) const;

  /// Rank every guess by peak-to-peak against `correct_key`.
  DpaResult analyze(std::uint32_t correct_key) const;

  /// The correct key's result at every checkpoint reached, in order.
  const std::vector<DpaResult>& checkpoints() const { return checkpoints_; }
  /// The first checkpoint from which disclosure persisted to the last;
  /// -1 when the key is still hidden there.
  int mtd() const { return run_.mtd(); }

 private:
  void fold_range(const std::vector<SimTrace>& traces, std::size_t begin,
                  std::size_t end);
  DpaResult result(std::uint32_t correct_key) const;

  SelectionFn selection_;
  std::uint32_t correct_key_;
  Parallelism par_;
  int n_ = 0;
  std::size_t n_samples_ = 0;
  /// Per guess g: rows 2g (selection 0) and 2g + 1 (selection 1) of
  /// n_samples_ sums each, and the matching trace counts.
  std::vector<double> sums_;
  std::vector<std::size_t> counts_;
  std::vector<DpaResult> checkpoints_;
  DisclosureRun run_;
};

/// max(trace) - min(trace); 0 for empty traces.
double peak_to_peak(const std::vector<double>& trace);

}  // namespace secflow
