#include "obs/report.h"

#include "obs/json_fields.h"

namespace secflow {
namespace {

/// The secflow.flow-report/1 field list (obs/json_fields.h).
template <class Io, class R>
void fields(Io& io, R& r) {
  io.field("schema", r.schema);
  io.check(r.schema == kFlowReportSchema, [&] {
    return "unknown schema '" + r.schema + "' (want " + kFlowReportSchema +
           ")";
  });
  io.field("flow", r.flow);
  io.check(r.flow == "regular" || r.flow == "secure", [&] {
    return "flow must be 'regular' or 'secure', got '" + r.flow + "'";
  });
  io.field("design", r.design);
  io.field("completed_through", r.completed_through);
  io.field("n_threads", r.n_threads);
  io.object("design_stats", [&] {
    io.field("cells", r.cells);
    io.field("cell_area_um2", r.cell_area_um2);
    io.field("die_area_um2", r.die_area_um2);
    io.field("wirelength_um", r.wirelength_um);
    io.field("vias", r.vias);
  });
  io.object("route", [&] {
    io.field("nets", r.route_nets);
    io.field("iterations", r.route_iterations);
  });
  io.object("timing",
            [&] { io.field("critical_delay_ps", r.critical_delay_ps); });
  io.array("stages", r.stages, [&](auto& s) {
    io.field("name", s.name);
    io.field("ms", s.ms);
    io.field("cache", s.cache);
    io.check(is_cache_verdict(s.cache), [&] {
      return "unknown stage cache verdict '" + s.cache + "'";
    });
    io.field("cache_key", s.cache_key);
    io.check(s.cache_key.empty() || s.cache_key.size() == 16,
             "cache_key must be empty or 16 hex digits");
  });
  io.check(!r.stages.empty(), "stages is empty");
  io.field("total_ms", r.total_ms);
  io.section("secure", r.secure.present, [&] {
    io.field("fat_cells", r.secure.fat_cells);
    io.field("diff_cells", r.secure.diff_cells);
    io.field("inverters_removed", r.secure.inverters_removed);
    io.field("lec_equivalent", r.secure.lec_equivalent);
    io.field("lec_points", r.secure.lec_points);
    io.field("stream_check_ok", r.secure.stream_check_ok);
  });
  io.section("dpa", r.dpa.present, [&] {
    io.field("n_measurements", r.dpa.n_measurements);
    io.field("best_guess", r.dpa.best_guess);
    io.field("disclosed", r.dpa.disclosed);
    io.field("best_peak", r.dpa.best_peak);
    io.field("runner_up_peak", r.dpa.runner_up_peak);
    io.field("mean_cycle_energy_pj", r.dpa.mean_cycle_energy_pj);
  });
  io.section("leakage", r.leakage.present, [&] {
    io.field("model", r.leakage.model);
    io.check(r.leakage.model.empty() || r.leakage.model == "hw" ||
                 r.leakage.model == "hd",
             "leakage model must be '', 'hw' or 'hd'");
    io.field("cpa_traces", r.leakage.cpa_traces);
    io.field("cpa_best_guess", r.leakage.cpa_best_guess);
    io.field("cpa_correct_rank", r.leakage.cpa_correct_rank);
    io.field("cpa_disclosed", r.leakage.cpa_disclosed);
    io.field("tvla_max_abs_t", r.leakage.tvla_max_abs_t);
    io.field("tvla_leaks", r.leakage.tvla_leaks);
    io.field("mtd", r.leakage.mtd);
    io.field("mtd_max_traces", r.leakage.mtd_max_traces);
  });
  io.object("metrics", [&] {
    io.map("counters", r.metrics.counters);
    io.map("gauges", r.metrics.gauges);
    io.map("histograms", r.metrics.histograms, [&](auto& h) {
      io.field("count", h.count);
      io.field("sum", h.sum);
      io.field("min", h.min);
      io.field("max", h.max);
    });
  });
}

}  // namespace

bool is_cache_verdict(std::string_view v) {
  return v == "not-run" || v == "off" || v == "miss" || v == "hit";
}

void attach_metrics(FlowReport& r, const MetricsSnapshot& snapshot) {
  r.metrics = snapshot;
}

std::string flow_report_json(const FlowReport& r) {
  return json_dump(flow_report_to_json(r), 2) + "\n";
}

JsonValue flow_report_to_json(const FlowReport& r) {
  JsonWriter io;
  fields(io, r);
  return io.take();
}

void validate_flow_report(const JsonValue& doc) { flow_report_from_json(doc); }

FlowReport parse_flow_report(const std::string& json) {
  return flow_report_from_json(json_parse(json));
}

FlowReport flow_report_from_json(const JsonValue& doc) {
  JsonReader io(doc, "flow report");
  FlowReport r;
  fields(io, r);
  io.finish();
  return r;
}

}  // namespace secflow
