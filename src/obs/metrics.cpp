#include "obs/metrics.h"

#include <algorithm>

namespace secflow {

void HistogramStat::observe(double v) {
  if (count == 0) {
    min = max = v;
  } else {
    min = std::min(min, v);
    max = std::max(max, v);
  }
  ++count;
  sum += v;
}

Metrics& Metrics::global() {
  static Metrics* m = new Metrics();
  return *m;
}

void Metrics::add(std::string_view counter, std::uint64_t delta) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(counter);
  if (it != counters_.end()) {
    it->second += delta;
  } else {
    counters_.emplace(std::string(counter), delta);
  }
}

void Metrics::gauge_max(std::string_view gauge, double v) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(gauge);
  if (it != gauges_.end()) {
    it->second = std::max(it->second, v);
  } else {
    gauges_.emplace(std::string(gauge), v);
  }
}

void Metrics::observe(std::string_view histogram, double v) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(histogram);
  if (it != histograms_.end()) {
    it->second.observe(v);
  } else {
    HistogramStat h;
    h.observe(v);
    histograms_.emplace(std::string(histogram), h);
  }
}

MetricsSnapshot Metrics::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(mu_);
  out.counters.insert(counters_.begin(), counters_.end());
  out.gauges.insert(gauges_.begin(), gauges_.end());
  out.histograms.insert(histograms_.begin(), histograms_.end());
  return out;
}

void Metrics::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace secflow
