#include "leakage/report.h"

#include "obs/json_fields.h"

namespace secflow {
namespace {

/// The secflow.leakage-report/1 field list (obs/json_fields.h).
template <class Io, class R>
void fields(Io& io, R& r) {
  io.field("schema", r.schema);
  io.check(r.schema == kLeakageReportSchema, [&] {
    return "unknown schema '" + r.schema + "' (want " +
           kLeakageReportSchema + ")";
  });
  io.field("flow", r.flow);
  io.check(r.flow == "regular" || r.flow == "secure", [&] {
    return "flow must be 'regular' or 'secure', got '" + r.flow + "'";
  });
  io.field("design", r.design);
  io.field("seed", r.seed);
  io.field("n_threads", r.n_threads);
  io.field("noise_ma", r.noise_ma);
  io.section("tvla", r.tvla.present, [&] {
    io.field("n_fixed", r.tvla.n_fixed);
    io.field("n_random", r.tvla.n_random);
    io.field("n_samples", r.tvla.n_samples);
    io.field("threshold", r.tvla.threshold);
    io.field("max_abs_t", r.tvla.max_abs_t);
    io.field("leaky_samples", r.tvla.leaky_samples);
    io.field("leaks", r.tvla.leaks);
  });
  io.section("cpa", r.cpa.present, [&] {
    io.field("model", r.cpa.model);
    io.check(r.cpa.model == "hw" || r.cpa.model == "hd", [&] {
      return "cpa model must be 'hw' or 'hd', got '" + r.cpa.model + "'";
    });
    io.field("n_traces", r.cpa.n_traces);
    io.field("best_guess", r.cpa.best_guess);
    io.field("best_score", r.cpa.best_score);
    io.field("runner_up_score", r.cpa.runner_up_score);
    io.field("correct_key", r.cpa.correct_key);
    io.field("correct_rank", r.cpa.correct_rank);
    io.check(r.cpa.correct_rank >= 1, "cpa correct_rank must be >= 1");
    io.field("disclosed", r.cpa.disclosed);
  });
  io.section("guessing_entropy", r.ge.present, [&] {
    io.field("n_campaigns", r.ge.n_campaigns);
    io.check(r.ge.n_campaigns >= 1, "guessing_entropy needs >= 1 campaign");
    io.field("trace_grid", r.ge.trace_grid);
    io.field("guessing_entropy", r.ge.guessing_entropy);
    io.field("success_rate", r.ge.success_rate);
    const std::size_t n = r.ge.trace_grid.size();
    io.check(r.ge.guessing_entropy.size() == n && r.ge.success_rate.size() == n,
             "guessing_entropy curve length mismatch");
    for (const double sr : r.ge.success_rate) {
      io.check(sr >= 0.0 && sr <= 1.0, "success_rate outside [0, 1]");
    }
  });
  io.section("mtd", r.mtd.present, [&] {
    io.field("mtd", r.mtd.mtd);
    io.field("max_traces", r.mtd.max_traces);
    io.check(r.mtd.mtd == -1 ||
                 (r.mtd.mtd >= 1 && r.mtd.mtd <= r.mtd.max_traces),
             "mtd must be -1 or within [1, max_traces]");
    io.field("step", r.mtd.step);
    io.field("persist", r.mtd.persist);
    io.field("traces_fed", r.mtd.traces_fed);
    io.field("disclosed", r.mtd.disclosed);
    io.field("checkpoints", r.mtd.checkpoints);
    io.field("ranks", r.mtd.ranks);
    io.check(r.mtd.checkpoints.size() == r.mtd.ranks.size(),
             "mtd checkpoints/ranks length mismatch");
  });
  io.object("trace_cache", [&] {
    io.field("hits", r.trace_cache_hits);
    io.field("misses", r.trace_cache_misses);
  });
}

}  // namespace

std::string leakage_report_json(const LeakageReport& r) {
  return json_dump(leakage_report_to_json(r), 2) + "\n";
}

JsonValue leakage_report_to_json(const LeakageReport& r) {
  JsonWriter io;
  fields(io, r);
  return io.take();
}

void validate_leakage_report(const JsonValue& doc) {
  leakage_report_from_json(doc);
}

LeakageReport parse_leakage_report(const std::string& json) {
  return leakage_report_from_json(json_parse(json));
}

LeakageReport leakage_report_from_json(const JsonValue& doc) {
  JsonReader io(doc, "leakage report");
  LeakageReport r;
  fields(io, r);
  io.finish();
  return r;
}

void attach_leakage(FlowReport& flow, const LeakageReport& r) {
  LeakageSection& s = flow.leakage;
  s.present = true;
  s.model = r.cpa.present ? r.cpa.model : "";
  s.cpa_traces = r.cpa.n_traces;
  s.cpa_best_guess = r.cpa.best_guess;
  s.cpa_correct_rank = r.cpa.correct_rank;
  s.cpa_disclosed = r.cpa.disclosed;
  s.tvla_max_abs_t = r.tvla.max_abs_t;
  s.tvla_leaks = r.tvla.leaky_samples;
  s.mtd = r.mtd.present ? r.mtd.mtd : -1;
  s.mtd_max_traces = r.mtd.max_traces;
}

}  // namespace secflow
