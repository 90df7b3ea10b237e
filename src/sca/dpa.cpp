#include "sca/dpa.h"

#include <algorithm>
#include <utility>

#include "base/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace secflow {

double peak_to_peak(const std::vector<double>& trace) {
  if (trace.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(trace.begin(), trace.end());
  return *hi - *lo;
}

DpaAccumulator::DpaAccumulator(SelectionFn selection,
                               std::uint32_t correct_key,
                               const Parallelism& par)
    : selection_(std::move(selection)), correct_key_(correct_key), par_(par) {
  SECFLOW_CHECK(selection_ != nullptr, "DPA needs a selection function");
}

void DpaAccumulator::fold(const std::vector<SimTrace>& traces) {
  if (traces.empty()) return;
  if (n_ == 0) {
    n_samples_ = traces.front().cycle.current_ma.size();
    sums_.assign(2 * kDesKeyGuesses * n_samples_, 0.0);
    counts_.assign(2 * kDesKeyGuesses, 0);
  }
  for (const SimTrace& t : traces) {
    SECFLOW_CHECK(t.cycle.current_ma.size() == n_samples_,
                  "trace length mismatch");
  }
  // Fold up to each checkpoint, record it, and go on.
  for (std::size_t begin = 0; begin < traces.size();) {
    const std::size_t end = std::min(
        traces.size(), begin + static_cast<std::size_t>(
                                   kDpaCheckpointTraces -
                                   n_ % kDpaCheckpointTraces));
    fold_range(traces, begin, end);
    if (n_ % kDpaCheckpointTraces == 0) {
      checkpoints_.push_back(result(correct_key_));
      run_.check(n_, checkpoints_.back().disclosed);
    }
    begin = end;
  }
}

void DpaAccumulator::fold_range(const std::vector<SimTrace>& traces,
                                std::size_t begin, std::size_t end) {
  // Each key guess owns its two sum rows, and every guess adds the traces
  // in trace order, so the sums are identical for any thread count.
  parallel_for(
      static_cast<std::size_t>(kDesKeyGuesses), par_,
      [&](std::size_t g_begin, std::size_t g_end) {
        Span span("dpa.guess_chunk", "sca");
        span.arg("begin", static_cast<std::uint64_t>(g_begin));
        span.arg("end", static_cast<std::uint64_t>(g_end));
        for (std::size_t g = g_begin; g < g_end; ++g) {
          for (std::size_t i = begin; i < end; ++i) {
            const SimTrace& t = traces[i];
            const bool bit =
                selection_(t.observable, static_cast<std::uint32_t>(g));
            const std::size_t row = 2 * g + (bit ? 1 : 0);
            ++counts_[row];
            double* sum = sums_.data() + row * n_samples_;
            const double* x = t.cycle.current_ma.data();
            for (std::size_t s = 0; s < n_samples_; ++s) sum[s] += x[s];
          }
        }
      });
  n_ += static_cast<int>(end - begin);
}

std::vector<double> DpaAccumulator::differential(std::uint32_t guess) const {
  SECFLOW_CHECK(n_ > 0, "no measurements");
  SECFLOW_CHECK(guess < static_cast<std::uint32_t>(kDesKeyGuesses),
                "DPA guess out of range");
  const std::size_t n0 = counts_[2 * guess];
  const std::size_t n1 = counts_[2 * guess + 1];
  std::vector<double> diff(n_samples_, 0.0);
  if (n1 == 0 || n0 == 0) return diff;  // degenerate split: flat trace
  const double* sum0 = sums_.data() + 2 * guess * n_samples_;
  const double* sum1 = sum0 + n_samples_;
  for (std::size_t s = 0; s < n_samples_; ++s) {
    diff[s] = sum1[s] / static_cast<double>(n1) -
              sum0[s] / static_cast<double>(n0);
  }
  return diff;
}

DpaResult DpaAccumulator::result(std::uint32_t correct_key) const {
  std::vector<double> pp(static_cast<std::size_t>(kDesKeyGuesses));
  for (std::size_t g = 0; g < pp.size(); ++g) {
    pp[g] = peak_to_peak(differential(static_cast<std::uint32_t>(g)));
  }
  GuessRanking ranking = rank_guesses(std::move(pp));
  DpaResult r;
  r.n_measurements = n_;
  r.best_guess = ranking.best_guess;
  r.disclosed = ranking.disclosed(correct_key);
  r.peak_to_peak = std::move(ranking.scores);
  return r;
}

DpaResult DpaAccumulator::analyze(std::uint32_t correct_key) const {
  Metrics::global().add("sca.dpa.guesses",
                        static_cast<std::uint64_t>(kDesKeyGuesses));
  return result(correct_key);
}

}  // namespace secflow
