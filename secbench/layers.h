// The traced run: spans around the benchmark's calls into each layer's
// public functions, and the per-layer metrics derived from them.
//
// Layers are named after src/ modules ("synth", "pnr.place", ...).  A
// LayerCall brackets one call with a secflow::Span (so the Chrome trace
// shows it beside the library's own spans) and records its wall and
// process-CPU time.  Trace simulation runs inside leakage and sca calls on
// pool threads; its "sim.trace_chunk" spans are carved out of those calls
// and booked to the "sim" layer, so every layer's time is self time.
// Work counters come from what the calls return and from the library's
// existing metrics registry, which is enabled only while an op is traced.
//
// Untraced runs pass a null LayerTrace: a LayerCall then does nothing.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"

namespace secbench {

/// Total length of the union of the [start, end) intervals `iv` [us].
std::int64_t union_us(std::vector<std::pair<std::int64_t, std::int64_t>> iv);

/// One row of the per-layer table.
struct LayerRow {
  double self_ms = 0.0;
  double cpu_ms = 0.0;
  int count = 0;
};

class LayerTrace {
 public:
  /// Start a traced op: clear and enable the global tracer and metrics.
  void begin_op();
  /// Finish the op: carve sim time out of the calls, book every layer's
  /// self/CPU ms, copy the registry's counters and derive the ratios.
  /// Disables tracer and metrics again.
  void end_op();

  /// Add `v` to metric `name` of the current op.
  void add(const std::string& name, double v);
  /// Book `self_ms` of layer work measured outside a LayerCall (e.g. from
  /// the library's own spans) to `layer`'s row and to `ms_metric`.
  void book(const std::string& layer, const std::string& ms_metric,
            double self_ms, double cpu_ms, int count);

  /// Median over traced ops of each metric (ops that never set a metric
  /// count it as 0).
  std::map<std::string, double> medians() const;
  /// Wall time of each traced op [ms].
  const std::vector<double>& op_ms() const { return op_ms_; }

  /// Per-layer table of the median traced op: self ms, CPU ms, calls and
  /// share of the op, one tab-separated row per layer.
  std::string table() const;
  /// Chrome trace of the last traced op.
  const std::string& last_chrome_trace() const { return chrome_trace_; }

  // Used by LayerCall.
  void record_call(const char* layer, const char* ms_metric,
                   std::int64_t t0_us, std::int64_t t1_us, double cpu_ms);

 private:
  struct Call {
    const char* layer;
    const char* ms_metric;
    std::int64_t t0_us, t1_us;
    double cpu_ms;
  };
  std::int64_t op_t0_us_ = 0;
  std::vector<Call> calls_;
  std::map<std::string, double> cur_;
  std::map<std::string, LayerRow> cur_table_;
  std::vector<std::map<std::string, double>> per_op_;
  std::vector<std::map<std::string, LayerRow>> tables_;
  std::vector<double> op_ms_;
  std::string chrome_trace_;
};

/// RAII span around one call into a layer.  `layer` and `ms_metric` must be
/// string literals (the span keeps the pointers).
class LayerCall {
 public:
  LayerCall(LayerTrace* trace, const char* layer, const char* ms_metric);
  ~LayerCall();
  LayerCall(const LayerCall&) = delete;
  LayerCall& operator=(const LayerCall&) = delete;

 private:
  LayerTrace* trace_;
  const char* layer_;
  const char* ms_metric_;
  std::int64_t t0_us_ = 0;
  double cpu0_s_ = 0.0;
  secflow::Span span_;
};

}  // namespace secbench
