// Numerically stable one-pass statistical accumulators for streaming
// leakage assessment.
//
// Heavy-traffic evaluation streams millions of traces through the
// statistics — nothing here ever holds a trace matrix.  Each accumulator
// keeps O(state) running moments, updated per trace with the Welford
// recurrences (catastrophic-cancellation-free, unlike naive sum /
// sum-of-squares).
//
// Determinism (DESIGN.md §14): every accumulator folds its stream in
// trace order, so its statistics are bit-identical for any block split
// and at any SECFLOW_THREADS.  A CPA fold splits the key guesses, never
// the traces, across threads, so every moment sees the same updates in
// the same order as serial add() calls.
#pragma once

#include <cstdint>
#include <vector>

#include "base/parallel.h"

namespace secflow {

/// Welford running mean / sum of squared deviations of one scalar stream.
struct Moment {
  std::uint64_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;  ///< sum of squared deviations from the mean

  void add(double x);
  /// Unbiased sample variance m2/(n-1); 0 when n < 2.
  double variance() const;

  bool operator==(const Moment&) const = default;
};

/// The |t| above which TVLA calls a sample leaky: 4.5 by convention,
/// ~1e-5 false-positive odds per sample under the null.
inline constexpr double kTvlaThreshold = 4.5;

/// Fixed-vs-random Welch-t leakage detection (TVLA, Goodwill et al.):
/// fixed-class and random-class moments for every sample point of the
/// trace.  One class encrypts a fixed plaintext, the other random ones;
/// a sample whose |t| exceeds kTvlaThreshold betrays data-dependent power
/// draw — first-order leakage, found without an attack model.
class WelchAccumulator {
 public:
  explicit WelchAccumulator(std::size_t n_samples);

  std::size_t n_samples() const { return fixed_.size(); }
  std::uint64_t n(bool fixed_group) const;

  /// Fold in one trace of the given class (`samples` has n_samples()).
  void add(bool fixed_group, const double* samples);

  /// Welch's t statistic per sample:
  ///   t = (mean_f - mean_r) / sqrt(var_f/n_f + var_r/n_r).
  /// 0 where either class has fewer than 2 traces or both variances
  /// vanish (no evidence either way, not infinite evidence).
  std::vector<double> t_statistic() const;

  /// max_s |t(s)| (0 when degenerate).
  double max_abs_t() const;

  /// Sample indices whose |t| exceeds `threshold`.
  std::vector<std::size_t> leaky_samples(double threshold) const;

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
