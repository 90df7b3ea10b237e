// Metrics registry: counters, gauges and histograms under one lock.
//
// Every record call takes the registry's one mutex, as a Span takes the
// tracer's: the instrumented call sites record a few thousand values per
// flow or attack run, about as many as the spans of that run.
// snapshot() copies the three name-sorted maps:
//
//  * counters sum 64-bit integers (exact and commutative, so totals are
//    identical at any SECFLOW_THREADS),
//  * histogram count/min/max are exact; the running `sum` of doubles
//    follows the order writers take the lock, so it can differ in final
//    ulps across thread counts (floating-point addition is not
//    associative),
//  * gauges aggregate by maximum (the only order-free choice for
//    last-value semantics across racing writers).
//
// Everything is off by default: a disabled registry's record methods are
// one relaxed atomic load and a return — cheap enough to leave in the
// innermost flow loops.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace secflow {

struct HistogramStat {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< meaningful only when count > 0
  double max = 0.0;

  void observe(double v);
  double mean() const { return count == 0 ? 0.0 : sum / double(count); }
  bool operator==(const HistogramStat&) const = default;
};

/// One deterministic, name-sorted aggregation of a registry.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStat> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  bool operator==(const MetricsSnapshot&) const = default;
};

class Metrics {
 public:
  /// The process-wide registry the flow instrumentation records into.
  /// Disabled until someone (CLI --report, a bench, a test) enables it.
  static Metrics& global();

  Metrics() = default;
  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// counter += delta.
  void add(std::string_view counter, std::uint64_t delta = 1);
  /// gauge = max(gauge, v) under aggregation.
  void gauge_max(std::string_view gauge, double v);
  /// Record one histogram observation.
  void observe(std::string_view histogram, double v);

  /// A copy of every recorded value (see file comment).  Safe to call
  /// concurrently with writers.
  MetricsSnapshot snapshot() const;

  /// Drop all recorded values.
  void reset();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  ///< guards the three maps
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, HistogramStat, std::less<>> histograms_;
};

}  // namespace secflow
