// Numerically stable one-pass statistical accumulators for streaming
// leakage assessment.
//
// Heavy-traffic evaluation streams millions of traces through the
// statistics — nothing here ever holds a trace matrix.  Each accumulator
// keeps O(state) running moments, updated per trace with the Welford
// recurrences (catastrophic-cancellation-free, unlike naive sum /
// sum-of-squares).
//
// Determinism contract (DESIGN.md §14), bit-identical statistics at any
// SECFLOW_THREADS:
//  * Welch (TVLA): callers shard the trace stream into fixed-width index
//    ranges (kLeakageShardTraces, independent of the thread count),
//    accumulate each shard serially in index order, and merge the shard
//    accumulators (Chan et al.) in ascending shard order.
//  * CPA: one accumulator folds the stream in trace order; a fold splits
//    the key guesses, never the traces, across threads, so every moment
//    sees the same updates in the same order as serial add() calls.
#pragma once

#include <cstdint>
#include <vector>

#include "base/parallel.h"

namespace secflow {

/// Fixed shard width (traces per shard) of TVLA's deterministic
/// shard-and-merge scheme.  A constant, never derived from the thread
/// count: thread counts change which worker computes a shard, never the
/// shard boundaries or the merge order.
inline constexpr std::size_t kLeakageShardTraces = 256;

/// Welford running mean / sum of squared deviations of one scalar stream.
struct Moment {
  std::uint64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;  ///< sum of squared deviations from the mean

  void add(double x);
  /// Fold another accumulator in (Chan et al. pairwise combination).
  void merge(const Moment& o);
  /// Unbiased sample variance m2/(n-1); 0 when n < 2.
  double variance() const;

  bool operator==(const Moment&) const = default;
};

/// Per-sample Welch-t state: fixed-class and random-class moments for
/// every sample point of the trace.
class WelchAccumulator {
 public:
  /// Empty shell (0 samples) so accumulators can live in containers;
  /// usable only as an assignment target.
  WelchAccumulator() = default;
  explicit WelchAccumulator(std::size_t n_samples);

  std::size_t n_samples() const { return fixed_.size(); }
  std::uint64_t n(bool fixed_group) const;

  /// Fold in one trace of the given class (`samples` has n_samples()).
  void add(bool fixed_group, const double* samples);
  void merge(const WelchAccumulator& o);

  /// Welch's t statistic per sample:
  ///   t = (mean_f - mean_r) / sqrt(var_f/n_f + var_r/n_r).
  /// 0 where either class has fewer than 2 traces or both variances
  /// vanish (no evidence either way, not infinite evidence).
  std::vector<double> t_statistic() const;

 private:
  std::vector<Moment> fixed_;
  std::vector<Moment> random_;
};

/// Streaming Pearson-correlation state for CPA: per-sample trace moments,
/// per-guess hypothesis moments, and the (guess x sample) co-moment
/// matrix, all maintained with one-pass recurrences.  State is
/// O(guesses * samples) regardless of the trace count.
class CpaAccumulator {
 public:
  CpaAccumulator(int n_guesses, int n_samples);

  int n_guesses() const { return static_cast<int>(mean_h_.size()); }
  int n_samples() const { return static_cast<int>(mean_t_.size()); }
  std::uint64_t n() const { return n_; }

  /// Fold in one trace: `samples` has n_samples() entries, `hypotheses`
  /// the predicted leakage per key guess (n_guesses() entries).
  void add(const double* samples, const double* hypotheses);

  /// Fold in `n` traces in order: trace i's samples at samples[i], its
  /// hypotheses at hypotheses[i * n_guesses() + g].  The guess sweep runs
  /// on `par`; the result is bit-identical to n add() calls.
  void fold(std::size_t n, const double* const* samples,
            const double* hypotheses, const Parallelism& par = {});

  /// Pearson correlation between guess g's hypothesis and sample s
  /// across every trace folded in so far; 0 when either variance
  /// vanishes or fewer than 2 traces were seen.
  double correlation(int guess, int sample) const;

  /// Per-guess distinguisher score: max over samples of |correlation|.
  std::vector<double> scores() const;

 private:
  std::uint64_t n_ = 0;
  std::vector<double> mean_t_, m2_t_;  ///< per sample
  std::vector<double> mean_h_, m2_h_;  ///< per guess
  std::vector<double> c_;              ///< co-moments, guess-major [g*S + s]
  /// Fold workspace: each trace's pre-update sample deviations, [i*S + s].
  std::vector<double> dt_old_;
};

}  // namespace secflow
