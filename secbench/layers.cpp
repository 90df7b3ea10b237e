#include "layers.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <utility>

#include "obs/metrics.h"
#include "stats.h"

namespace secbench {

using secflow::Metrics;
using secflow::TraceEvent;
using secflow::Tracer;

namespace {

/// Registry counters the library already records, and the benchmark
/// metric each one is reported as.
constexpr std::pair<const char*, const char*> kCounters[] = {
    {"pnr.place.sa_batches", "pnr.place.sa_batches"},
    {"pnr.place.sa_accepted", "pnr.place.accepted"},
    {"pnr.place.sa_stale_reevals", "pnr.place.stale"},
    {"sim.traces", "sim.traces"},
    {"sca.dpa.guesses", "sca.dpa.guesses"},
    {"leakage.traces_simulated", "leakage.traces_simulated"},
    {"ckpt.store.hits", "ckpt.hits"},
    {"ckpt.store.misses", "ckpt.misses"},
    {"ckpt.store.saves", "ckpt.saves"},
};

/// Ratio metrics: name = numerator / (denominator * scale), 0 when the
/// denominator is.
struct Ratio {
  const char* name;
  const char* num;
  const char* den;
  double scale;
};
constexpr Ratio kRatios[] = {
    {"pnr.place.accept_ratio", "pnr.place.accepted", "pnr.place.moves", 1.0},
    {"pnr.place.stale_ratio", "pnr.place.stale", "pnr.place.moves", 1.0},
    {"pnr.route.rip_ratio", "pnr.route.nets_ripped", "pnr.route.nets_routed",
     1.0},
    {"sim.traces_per_cpu_s", "sim.traces", "sim.cpu_ms", 1e-3},
};

}  // namespace

std::int64_t union_us(std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, end = INT64_MIN;
  for (const auto& [a, b] : iv) {
    const std::int64_t start = std::max(a, end);
    if (b > start) total += b - start;
    end = std::max(end, b);
  }
  return total;
}

void LayerTrace::begin_op() {
  calls_.clear();
  cur_.clear();
  cur_table_.clear();
  Tracer::global().clear();
  Tracer::global().set_enabled(true);
  Metrics::global().reset();
  Metrics::global().set_enabled(true);
  op_t0_us_ = Tracer::global().now_us();
}

void LayerTrace::end_op() {
  const std::int64_t op_t1_us = Tracer::global().now_us();
  Tracer::global().set_enabled(false);
  Metrics::global().set_enabled(false);
  const secflow::MetricsSnapshot snap = Metrics::global().snapshot();
  const std::vector<TraceEvent> events = Tracer::global().events();
  chrome_trace_ = Tracer::global().chrome_trace_json();

  for (const Call& c : calls_) {
    // Simulation chunks inside this call belong to the sim layer.
    std::vector<std::pair<std::int64_t, std::int64_t>> sim;
    double sim_cpu_ms = 0.0;
    for (const TraceEvent& e : events) {
      if (e.name != "sim.trace_chunk") continue;
      const std::int64_t a = std::max(e.ts_us, c.t0_us);
      const std::int64_t b = std::min(e.ts_us + e.dur_us, c.t1_us);
      if (b <= a) continue;
      sim.emplace_back(a, b);
      sim_cpu_ms += double(b - a) / 1e3;
    }
    const int chunks = static_cast<int>(sim.size());
    const double sim_ms = double(union_us(std::move(sim))) / 1e3;
    book(c.layer, c.ms_metric, double(c.t1_us - c.t0_us) / 1e3 - sim_ms,
         std::max(0.0, c.cpu_ms - sim_cpu_ms), 1);
    if (chunks > 0) book("sim", "sim.ms", sim_ms, sim_cpu_ms, chunks);
  }
  cur_["sim.cpu_ms"] += cur_table_["sim"].cpu_ms;
  cur_["pnr.place.cpu_ms"] += cur_table_["pnr.place"].cpu_ms;
  cur_["extract.cpu_ms"] += cur_table_["extract"].cpu_ms;
  std::erase_if(cur_table_, [](const auto& kv) { return kv.second.count == 0; });

  for (const auto& [counter, metric] : kCounters) {
    const auto it = snap.counters.find(counter);
    if (it != snap.counters.end()) cur_[metric] += double(it->second);
  }
  for (const Ratio& r : kRatios) {
    const double den = cur_[r.den] * r.scale;
    cur_[r.name] = den > 0 ? cur_[r.num] / den : 0.0;
  }

  op_ms_.push_back(double(op_t1_us - op_t0_us_) / 1e3);
  per_op_.push_back(std::move(cur_));
  tables_.push_back(std::move(cur_table_));
  cur_.clear();
  cur_table_.clear();
}

void LayerTrace::add(const std::string& name, double v) { cur_[name] += v; }

void LayerTrace::book(const std::string& layer, const std::string& ms_metric,
                      double self_ms, double cpu_ms, int count) {
  cur_[ms_metric] += self_ms;
  LayerRow& row = cur_table_[layer];
  row.self_ms += self_ms;
  row.cpu_ms += cpu_ms;
  row.count += count;
}

std::map<std::string, double> LayerTrace::medians() const {
  std::map<std::string, std::vector<double>> samples;
  for (const auto& op : per_op_) {
    for (const auto& kv : op) samples[kv.first];
  }
  std::map<std::string, double> out;
  for (auto& [name, v] : samples) {
    for (const auto& op : per_op_) {
      const auto it = op.find(name);
      v.push_back(it == op.end() ? 0.0 : it->second);
    }
    out[name] = median(std::move(v));
  }
  return out;
}

std::string LayerTrace::table() const {
  if (tables_.empty()) return {};
  // The op whose wall time is the median one.
  std::vector<std::size_t> order(op_ms_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return op_ms_[a] < op_ms_[b]; });
  const std::size_t k = order[order.size() / 2];
  std::vector<std::pair<std::string, LayerRow>> rows(tables_[k].begin(),
                                                     tables_[k].end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ms > b.second.self_ms;
  });
  std::string out = "layer\tself_ms\tcpu_ms\tcount\tshare\n";
  char line[160];
  for (const auto& [layer, r] : rows) {
    std::snprintf(line, sizeof line, "%s\t%.3f\t%.3f\t%d\t%.4f\n",
                  layer.c_str(), r.self_ms, r.cpu_ms, r.count,
                  r.self_ms / op_ms_[k]);
    out += line;
  }
  std::snprintf(line, sizeof line, "(op)\t%.3f\t\t1\t1.0000\n", op_ms_[k]);
  out += line;
  return out;
}

void LayerTrace::record_call(const char* layer, const char* ms_metric,
                             std::int64_t t0_us, std::int64_t t1_us,
                             double cpu_ms) {
  calls_.push_back(Call{layer, ms_metric, t0_us, t1_us, cpu_ms});
}

LayerCall::LayerCall(LayerTrace* trace, const char* layer,
                     const char* ms_metric)
    : trace_(trace), layer_(layer), ms_metric_(ms_metric), span_(layer, "bench") {
  if (!trace_) return;
  t0_us_ = Tracer::global().now_us();
  cpu0_s_ = process_cpu_s();
}

LayerCall::~LayerCall() {
  if (!trace_) return;
  trace_->record_call(layer_, ms_metric_, t0_us_, Tracer::global().now_us(),
                      (process_cpu_s() - cpu0_s_) * 1e3);
}

}  // namespace secbench
