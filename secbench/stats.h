// Summary statistics and process readers for secflow's benchmark.
//
// Everything a run reports is derived here: medians and quartiles of op
// latencies (quartiles follow Python's statistics.quantiles(n=4), the
// convention the benchmark's steadiness check uses), the tail-latency
// rule, failure accounting, and the process CPU and peak-RSS readers.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace secbench {

/// Median of `v` (mean of the two middle values for even sizes); 0 for an
/// empty input.
double median(std::vector<double> v);

/// Arithmetic mean of `v`; 0 for an empty input.
double mean(const std::vector<double>& v);

/// First, second and third quartile by the "exclusive" method of Python's
/// statistics.quantiles(v, n=4).  Needs at least two values; a single value
/// is returned as all three quartiles, an empty input as zeros.
struct Quartiles {
  double q1 = 0.0, q2 = 0.0, q3 = 0.0;
};
Quartiles quartiles(std::vector<double> v);

/// The highest percentile of `v` that still has at least `min_beyond`
/// samples strictly above its rank: with n sorted samples that is the
/// (n - min_beyond)-th smallest, i.e. percentile 100 * (n - min_beyond) / n.
/// Below 2 * min_beyond + 1 samples that rank would not lie above the
/// median, so the rule reports the median (percentile 50, n / 2 beyond).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  int beyond = 0;   ///< samples above the reported rank
  int samples = 0;  ///< total samples the tail was taken from
};
Tail tail_percentile(std::vector<double> v, int min_beyond = 10);

/// Throw std::runtime_error(what) unless `ok`: how an op reports a failed
/// correctness check.
void check(bool ok, const std::string& what);

/// Closed-loop op accounting: every attempt is timed, and an attempt that
/// throws (a failed check included) counts as failed without stopping the
/// run.
class OpLog {
 public:
  /// Run one op.  Returns whether it completed; the error text of a
  /// throwing op is kept in last_error().
  bool run(const std::function<void()>& op);

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  double fail_ratio() const {
    return attempted_ == 0 ? 0.0 : double(failed_) / double(attempted_);
  }
  /// Wall time of every attempt, failed ones included [ms].
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  const std::string& last_error() const { return last_error_; }

 private:
  int attempted_ = 0;
  int failed_ = 0;
  std::vector<double> latencies_ms_;
  std::string last_error_;
};

/// User + system CPU time of the whole process (all threads) [s].
double process_cpu_s();

/// Peak resident set size of the process [MiB].
double peak_rss_mib();

/// Seconds on the steady clock since an arbitrary epoch.
double now_s();

/// Stable 64-bit derivation of a sub-seed from the workload seed and a
/// label (splitmix64 over the seed and an FNV-1a hash of the label).
std::uint64_t derive_seed(std::uint64_t seed, const std::string& label,
                          std::uint64_t index = 0);

}  // namespace secbench
