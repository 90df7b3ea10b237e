#include "leakage/accumulators.h"

#include <algorithm>
#include <cmath>

#include "base/error.h"

namespace secflow {

void Moment::add(double x) {
  ++n;
  const double d = x - mean;
  mean += d / static_cast<double>(n);
  m2 += d * (x - mean);
}

double Moment::variance() const {
  return n < 2 ? 0.0 : m2 / static_cast<double>(n - 1);
}

WelchAccumulator::WelchAccumulator(std::size_t n_samples)
    : fixed_(n_samples), random_(n_samples) {
  SECFLOW_CHECK(n_samples > 0, "Welch accumulator needs at least 1 sample");
}

std::uint64_t WelchAccumulator::n(bool fixed_group) const {
  return (fixed_group ? fixed_ : random_).front().n;
}

void WelchAccumulator::add(bool fixed_group, const double* samples) {
  std::vector<Moment>& group = fixed_group ? fixed_ : random_;
  for (std::size_t s = 0; s < group.size(); ++s) group[s].add(samples[s]);
}

std::vector<double> WelchAccumulator::t_statistic() const {
  std::vector<double> t(n_samples(), 0.0);
  for (std::size_t s = 0; s < t.size(); ++s) {
    const Moment& f = fixed_[s];
    const Moment& r = random_[s];
    if (f.n < 2 || r.n < 2) continue;
    const double denom2 = f.variance() / static_cast<double>(f.n) +
                          r.variance() / static_cast<double>(r.n);
    if (denom2 <= 0.0) continue;
    t[s] = (f.mean - r.mean) / std::sqrt(denom2);
  }
  return t;
}

double WelchAccumulator::max_abs_t() const {
  double best = 0.0;
  for (double t : t_statistic()) best = std::max(best, std::fabs(t));
  return best;
}

std::vector<std::size_t> WelchAccumulator::leaky_samples(
    double threshold) const {
  std::vector<std::size_t> out;
  const std::vector<double> t = t_statistic();
  for (std::size_t s = 0; s < t.size(); ++s) {
    if (std::fabs(t[s]) > threshold) out.push_back(s);
  }
  return out;
}

CpaAccumulator::CpaAccumulator(int n_guesses, int n_samples)
    : mean_t_(static_cast<std::size_t>(n_samples), 0.0),
      m2_t_(static_cast<std::size_t>(n_samples), 0.0),
      mean_h_(static_cast<std::size_t>(n_guesses), 0.0),
      m2_h_(static_cast<std::size_t>(n_guesses), 0.0),
      c_(static_cast<std::size_t>(n_guesses) *
             static_cast<std::size_t>(n_samples),
         0.0) {
  SECFLOW_CHECK(n_guesses > 1, "CPA needs at least 2 key guesses");
  SECFLOW_CHECK(n_samples > 0, "CPA needs at least 1 sample");
}

void CpaAccumulator::add(const double* samples, const double* hypotheses) {
  fold(1, &samples, hypotheses, Parallelism{1});
}

void CpaAccumulator::fold(std::size_t n, const double* const* samples,
                          const double* hypotheses, const Parallelism& par) {
  const std::size_t S = mean_t_.size();
  const std::size_t G = mean_h_.size();
  // Trace moments in trace order; keep every trace's pre-update deviations
  // for the co-moment rows.
  dt_old_.resize(n * S);
  for (std::size_t i = 0; i < n; ++i) {
    const double inv_n = 1.0 / static_cast<double>(n_ + i + 1);
    double* dt = dt_old_.data() + i * S;
    for (std::size_t s = 0; s < S; ++s) {
      const double x = samples[i][s];
      const double d = x - mean_t_[s];
      dt[s] = d;
      mean_t_[s] += d * inv_n;
      m2_t_[s] += d * (x - mean_t_[s]);
    }
  }
  // Hypothesis moments and the co-moment matrix: each guess owns its
  // moments and row and adds the traces in order, so any split of the
  // guesses across threads gives the serial result.  The pairwise-exact
  // cross update is C += (h - mean_h_new) * (t - mean_t_old).
  parallel_for(G, par, [&](std::size_t g_begin, std::size_t g_end) {
    for (std::size_t i = 0; i < n; ++i) {
      const double inv_n = 1.0 / static_cast<double>(n_ + i + 1);
      const double* dt = dt_old_.data() + i * S;
      for (std::size_t g = g_begin; g < g_end; ++g) {
        const double h = hypotheses[i * G + g];
        const double dh = h - mean_h_[g];
        mean_h_[g] += dh * inv_n;
        m2_h_[g] += dh * (h - mean_h_[g]);
        const double dh_new = h - mean_h_[g];
        double* row = c_.data() + g * S;
        for (std::size_t s = 0; s < S; ++s) row[s] += dh_new * dt[s];
      }
    }
  });
  n_ += n;
}

double CpaAccumulator::correlation(int guess, int sample) const {
  SECFLOW_CHECK(guess >= 0 && guess < n_guesses(), "CPA guess out of range");
  SECFLOW_CHECK(sample >= 0 && sample < n_samples(),
                "CPA sample out of range");
  if (n_ < 2) return 0.0;
  const double mh = m2_h_[static_cast<std::size_t>(guess)];
  const double mt = m2_t_[static_cast<std::size_t>(sample)];
  if (mh <= 0.0 || mt <= 0.0) return 0.0;
  const double c = c_[static_cast<std::size_t>(guess) * mean_t_.size() +
                      static_cast<std::size_t>(sample)];
  return c / std::sqrt(mh * mt);
}

std::vector<double> CpaAccumulator::scores() const {
  std::vector<double> out(mean_h_.size(), 0.0);
  for (int g = 0; g < n_guesses(); ++g) {
    double best = 0.0;
    for (int s = 0; s < n_samples(); ++s) {
      const double r = std::fabs(correlation(g, s));
      if (r > best) best = r;
    }
    out[static_cast<std::size_t>(g)] = best;
  }
  return out;
}

}  // namespace secflow
