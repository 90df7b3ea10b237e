// Observability subsystem tests: JSON round-trips, leveled logging,
// deterministic metric aggregation across thread counts, Chrome
// trace-event export, FlowReport schema validation, and the core
// guarantee that observability never changes flow artifacts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/error.h"
#include "base/parallel.h"
#include "flow/flow.h"
#include "liberty/builtin_lib.h"
#include "netlist/verilog_writer.h"
#include "obs/json.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "pnr/def.h"
#include "synth/hdl.h"

namespace secflow {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(Json, DumpParseRoundTrip) {
  JsonValue doc = JsonValue::object();
  doc.set("name", JsonValue("flow \"x\"\n\t"));
  doc.set("count", JsonValue(std::int64_t{42}));
  doc.set("ratio", JsonValue(0.25));
  doc.set("on", JsonValue(true));
  doc.set("nothing", JsonValue());
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue(1.0));
  arr.push_back(JsonValue(std::string("two")));
  doc.set("list", std::move(arr));

  const std::string text = json_dump(doc, 2);
  const JsonValue back = json_parse(text);
  EXPECT_EQ(doc, back);
  // And the round trip is a fixed point.
  EXPECT_EQ(json_dump(back, 2), text);
}

TEST(Json, IntegralDoublesHaveNoDecimalPoint) {
  EXPECT_EQ(json_dump(JsonValue(std::int64_t{1234567})), "1234567");
  EXPECT_EQ(json_dump(JsonValue(3.0)), "3");
  EXPECT_EQ(json_dump(JsonValue(0.5)), "0.5");
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(json_parse(""), ParseError);
  EXPECT_THROW(json_parse("{"), ParseError);
  EXPECT_THROW(json_parse("[1,]"), ParseError);
  EXPECT_THROW(json_parse("{\"a\":1} trailing"), ParseError);
  EXPECT_THROW(json_parse("{\"a\":1,\"a\":2}"), ParseError);  // dup key
  EXPECT_THROW(json_parse("'single'"), ParseError);
  EXPECT_THROW(json_parse("{\"a\" 1}"), ParseError);
}

TEST(Json, DeepNestingFailsCleanlyInsteadOfOverflowingTheStack) {
  // Just inside the limit parses; past it throws a ParseError rather than
  // recursing until the stack dies.
  std::string deep_ok(255, '[');
  deep_ok += "1";
  deep_ok += std::string(255, ']');
  EXPECT_NO_THROW(json_parse(deep_ok));

  std::string too_deep(100000, '[');
  try {
    json_parse(too_deep);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting depth"), std::string::npos);
  }

  std::string deep_obj;
  for (int i = 0; i < 400; ++i) deep_obj += "{\"k\":";
  EXPECT_THROW(json_parse(deep_obj), ParseError);
}

TEST(Json, ParsesEscapesAndNesting) {
  const JsonValue v = json_parse(
      R"({"s": "a\n\t\"\\A", "nested": {"arr": [true, false, null]}})");
  EXPECT_EQ(v.find("s")->as_string(), "a\n\t\"\\A");
  const JsonValue* arr = v.find("nested")->find("arr");
  ASSERT_NE(arr, nullptr);
  EXPECT_EQ(arr->items().size(), 3u);
}

// ------------------------------------------------------------- Logging --

TEST(Log, LevelNamesRoundTrip) {
  for (const LogLevel l : {LogLevel::kOff, LogLevel::kError, LogLevel::kWarn,
                           LogLevel::kInfo, LogLevel::kDebug,
                           LogLevel::kTrace}) {
    EXPECT_EQ(parse_log_level(log_level_name(l)), l);
  }
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::kInfo);  // case-insensitive
  EXPECT_EQ(parse_log_level("bogus"), std::nullopt);
}

TEST(Log, SuppressedLevelsEmitNothing) {
  Logger log(LogLevel::kWarn);
  std::vector<std::string> lines;
  log.set_sink([&](LogLevel, std::string_view line) {
    lines.emplace_back(line);
  });
  log.log(LogLevel::kInfo, "test", "hidden");
  EXPECT_FALSE(log.enabled(LogLevel::kInfo));
  // The Logger itself does not filter inside log() — the macros do — but
  // enabled() is the contract the macros rely on.
  EXPECT_TRUE(log.enabled(LogLevel::kWarn));
  EXPECT_TRUE(log.enabled(LogLevel::kError));
  log.set_level(LogLevel::kOff);
  EXPECT_FALSE(log.enabled(LogLevel::kError));
}

TEST(Log, FormatsStructuredFields) {
  Logger log(LogLevel::kDebug);
  std::vector<std::string> lines;
  log.set_sink([&](LogLevel, std::string_view line) {
    lines.emplace_back(line);
  });
  log.log(LogLevel::kInfo, "pnr", "route iteration",
          {LogField("iter", 3), LogField("path", "a b"),
           LogField("ok", true)});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "info [pnr] route iteration iter=3 path=\"a b\" ok=true");
}

TEST(Log, ConcurrentEmissionNeverShears) {
  Logger log(LogLevel::kInfo);
  std::mutex mu;
  std::vector<std::string> lines;
  log.set_sink([&](LogLevel, std::string_view line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.emplace_back(line);
  });
  Parallelism par;
  par.n_threads = 4;
  parallel_for(64, par, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      log.log(LogLevel::kInfo, "t", "msg", {LogField("i", std::to_string(i))});
    }
  });
  EXPECT_EQ(lines.size(), 64u);
  for (const std::string& l : lines) {
    EXPECT_TRUE(l.rfind("info [t] msg i=", 0) == 0) << l;
  }
}

// ------------------------------------------------------------- Metrics --

/// Record a fixed workload into `m` from `n_threads` workers.
void record_workload(Metrics& m, int n_threads) {
  Parallelism par;
  par.n_threads = n_threads;
  parallel_for(1000, par, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      m.add("work.items");
      m.add("work.bytes", i);
      m.gauge_max("work.peak", static_cast<double>(i));
      m.observe("work.size", static_cast<double>(i % 17));
    }
  });
}

TEST(Metrics, AggregationIsDeterministicAcrossThreadCounts) {
  MetricsSnapshot reference;
  for (const int threads : {1, 2, 4, 8}) {
    Metrics m;
    m.set_enabled(true);
    record_workload(m, threads);
    const MetricsSnapshot s = m.snapshot();
    EXPECT_EQ(s.counters.at("work.items"), 1000u);
    EXPECT_EQ(s.counters.at("work.bytes"), 1000u * 999u / 2u);
    EXPECT_EQ(s.gauges.at("work.peak"), 999.0);
    const HistogramStat& h = s.histograms.at("work.size");
    EXPECT_EQ(h.count, 1000u);
    EXPECT_EQ(h.min, 0.0);
    EXPECT_EQ(h.max, 16.0);
    if (threads == 1) {
      reference = s;
    } else {
      // count/min/max and all integer aggregates are exact at any thread
      // count; only the histogram double `sum` may differ in final ulps.
      EXPECT_EQ(s.counters, reference.counters);
      EXPECT_EQ(s.gauges, reference.gauges);
      EXPECT_NEAR(h.sum, reference.histograms.at("work.size").sum, 1e-6);
    }
  }
}

TEST(Metrics, DisabledRegistryRecordsNothing) {
  Metrics m;  // disabled by default
  m.add("never");
  m.gauge_max("never", 1.0);
  m.observe("never", 1.0);
  EXPECT_TRUE(m.snapshot().empty());
}

TEST(Metrics, ResetClearsValuesButKeepsWorking) {
  Metrics m;
  m.set_enabled(true);
  m.add("c", 5);
  m.reset();
  EXPECT_TRUE(m.snapshot().empty());
  m.add("c", 7);
  EXPECT_EQ(m.snapshot().counters.at("c"), 7u);
}

TEST(Metrics, SnapshotWhileWritersRun) {
  Metrics m;
  m.set_enabled(true);
  std::thread writer([&] {
    for (int i = 0; i < 10000; ++i) m.add("spin");
  });
  // Concurrent snapshots must never crash or deadlock against the writer.
  for (int i = 0; i < 100; ++i) (void)m.snapshot();
  writer.join();
  EXPECT_EQ(m.snapshot().counters.at("spin"), 10000u);
}

// ------------------------------------------------------------- Tracing --

TEST(Trace, DisabledTracerRecordsNoEvents) {
  Tracer t;
  {
    Span s("never", "test", &t);
    s.arg("k", std::int64_t{1});
  }
  EXPECT_EQ(t.n_events(), 0u);
}

TEST(Trace, SpansRecordCompleteEvents) {
  Tracer t;
  t.set_enabled(true);
  {
    Span outer("outer", "test", &t);
    outer.arg("design", std::string("small"));
    Span inner("inner", "test", &t);
    inner.arg("iter", std::int64_t{3});
  }
  const std::vector<TraceEvent> evs = t.events();
  ASSERT_EQ(evs.size(), 2u);
  // Destruction order: inner closes first.
  EXPECT_EQ(evs[0].name, "inner");
  EXPECT_EQ(evs[1].name, "outer");
  EXPECT_GE(evs[1].dur_us, evs[0].dur_us);
  EXPECT_EQ(evs[0].args.at(0).first, "iter");
}

TEST(Trace, ChromeJsonIsWellFormedAndComplete) {
  Tracer t;
  t.set_enabled(true);
  { Span s("alpha", "test", &t); }
  { Span s("beta", "test", &t); }
  const JsonValue doc = json_parse(t.chrome_trace_json());
  EXPECT_EQ(doc.find("displayTimeUnit")->as_string(), "ms");
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<std::string> span_names;
  int meta = 0;
  for (const JsonValue& e : events->items()) {
    const std::string ph = e.find("ph")->as_string();
    if (ph == "M") {
      ++meta;
      continue;
    }
    EXPECT_EQ(ph, "X");
    span_names.insert(e.find("name")->as_string());
    EXPECT_NE(e.find("ts"), nullptr);
    EXPECT_NE(e.find("dur"), nullptr);
    EXPECT_NE(e.find("tid"), nullptr);
  }
  EXPECT_GE(meta, 2);  // process_name + at least one thread_name
  EXPECT_EQ(span_names, (std::set<std::string>{"alpha", "beta"}));
}

TEST(Trace, WorkersGetDistinctTracks) {
  Tracer t;
  t.set_enabled(true);
  Parallelism par;
  par.n_threads = 4;
  parallel_for(4, par, [&](std::size_t begin, std::size_t end) {
    Span s("chunk", "test", &t);
    s.arg("begin", static_cast<std::int64_t>(begin));
    s.arg("end", static_cast<std::int64_t>(end));
  });
  std::set<int> tids;
  for (const TraceEvent& e : t.events()) tids.insert(e.tid);
  EXPECT_GE(tids.size(), 1u);
  EXPECT_EQ(t.n_events(), 4u);
}

// ---------------------------------------------------------- FlowReport --

FlowReport sample_report() {
  FlowReport r;
  r.flow = "secure";
  r.design = "small";
  r.completed_through = "extraction";
  r.n_threads = 4;
  r.cells = 96;
  r.cell_area_um2 = 1782.95;
  r.die_area_um2 = 4361.55;
  r.wirelength_um = 965.44;
  r.vias = 150;
  r.route_nets = 29;
  r.route_iterations = 2;
  r.critical_delay_ps = 539.685;
  r.total_ms = 25.8;
  for (const char* name : {"synthesis", "substitution", "placement",
                           "routing", "decomposition", "extraction"}) {
    StageEntry e;
    e.name = name;
    e.ms = 1.25;
    e.cache = "miss";
    e.cache_key = "00000000deadbeef";
    r.stages.push_back(e);
  }
  r.secure.present = true;
  r.secure.fat_cells = 24;
  r.secure.diff_cells = 96;
  r.secure.inverters_removed = 4;
  r.secure.lec_equivalent = true;
  r.secure.lec_points = 8;
  r.secure.stream_check_ok = true;
  r.dpa.present = true;
  r.dpa.n_measurements = 2000;
  r.dpa.best_guess = 46;
  r.dpa.disclosed = false;
  r.dpa.best_peak = 0.5;
  r.dpa.runner_up_peak = 0.45;
  r.dpa.mean_cycle_energy_pj = 12.5;
  r.metrics.counters["pnr.route.iterations"] = 2;
  r.metrics.gauges["work.peak"] = 3.5;
  HistogramStat h;
  h.observe(1.0);
  h.observe(2.0);
  r.metrics.histograms["work.size"] = h;
  return r;
}

TEST(FlowReport, JsonRoundTrip) {
  const FlowReport r = sample_report();
  const std::string json = flow_report_json(r);
  const FlowReport back = parse_flow_report(json);
  EXPECT_EQ(r, back);
}

TEST(FlowReport, ValidatorAcceptsBothFlowKinds) {
  FlowReport r = sample_report();
  validate_flow_report(json_parse(flow_report_json(r)));
  r.flow = "regular";
  r.secure = SecureSection{};
  r.dpa = DpaSection{};
  r.metrics = MetricsSnapshot{};
  validate_flow_report(json_parse(flow_report_json(r)));
}

TEST(FlowReport, ValidatorRejectsSchemaViolations) {
  const std::string good = flow_report_json(sample_report());

  JsonValue bad_schema = json_parse(good);
  bad_schema.set("schema", JsonValue("secflow.flow-report/999"));
  EXPECT_THROW(validate_flow_report(bad_schema), Error);

  JsonValue bad_flow = json_parse(good);
  bad_flow.set("flow", JsonValue("hybrid"));
  EXPECT_THROW(validate_flow_report(bad_flow), Error);

  JsonValue no_stages = json_parse(good);
  no_stages.set("stages", JsonValue::array());
  EXPECT_THROW(validate_flow_report(no_stages), Error);

  JsonValue bad_verdict = json_parse(good);
  bad_verdict.find("stages")->items()[0].set("cache", JsonValue("maybe"));
  EXPECT_THROW(validate_flow_report(bad_verdict), Error);

  JsonValue bad_key = json_parse(good);
  bad_key.find("stages")->items()[0].set("cache_key", JsonValue("zz"));
  EXPECT_THROW(validate_flow_report(bad_key), Error);

  // Integers are range-checked, never cast: a fraction, a negative count
  // and a value beyond int64 each fail naming the member.
  const auto rejection = [](const JsonValue& doc) -> std::string {
    try {
      validate_flow_report(doc);
    } catch (const Error& e) {
      return e.what();
    }
    return "accepted";
  };
  for (const double cells : {2.5, -1.0}) {
    JsonValue bad_cells = json_parse(good);
    bad_cells.find("design_stats")->set("cells", JsonValue(cells));
    const std::string msg = rejection(bad_cells);
    EXPECT_NE(msg.find("member 'cells' must be an integer"),
              std::string::npos) << cells << ": " << msg;
  }
  JsonValue huge_threads = json_parse(good);
  huge_threads.set("n_threads", JsonValue(1e30));
  EXPECT_NE(rejection(huge_threads).find("member 'n_threads'"),
            std::string::npos);
}

TEST(FlowReport, ValidatorRejectsUnknownMembers) {
  // A member the schema does not name is a typo or a foreign document,
  // not something to drop silently; the error names it and its path.
  const std::string good = flow_report_json(sample_report());
  const auto rejection = [](const JsonValue& doc) -> std::string {
    try {
      validate_flow_report(doc);
    } catch (const Error& e) {
      return e.what();
    }
    return "accepted";
  };
  JsonValue extra = json_parse(good);
  extra.set("wirelength", JsonValue(1.0));
  EXPECT_NE(rejection(extra).find("unknown member 'wirelength'"),
            std::string::npos) << rejection(extra);
  JsonValue nested = json_parse(good);
  nested.find("stages")->items()[2].set("hits", JsonValue(1));
  EXPECT_NE(rejection(nested).find("stages[2]: unknown member 'hits'"),
            std::string::npos) << rejection(nested);
}

TEST(FlowReport, ValidatorListsEveryViolation) {
  JsonValue doc = json_parse(flow_report_json(sample_report()));
  doc.find("design_stats")->set("cells", JsonValue(2.5));
  doc.find("stages")->items()[0].set("cache", JsonValue("maybe"));
  try {
    validate_flow_report(doc);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("flow report: 2 violations:"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("design_stats: member 'cells' must be an integer"),
              std::string::npos) << msg;
    EXPECT_NE(msg.find("stages[0]: unknown stage cache verdict 'maybe'"),
              std::string::npos) << msg;
  }
}

TEST(FlowReport, AttachMetricsFoldsSnapshot) {
  Metrics m;
  m.set_enabled(true);
  m.add("x", 3);
  FlowReport r = sample_report();
  attach_metrics(r, m.snapshot());
  EXPECT_EQ(r.metrics.counters.at("x"), 3u);
}

// ----------------------------------------------- Flow integration ------

constexpr const char* kSmallDesign = R"(
  module small (input clk, input [3:0] a, input [3:0] b, output [3:0] y);
    reg [3:0] r;
    wire [3:0] m;
    assign m = (a & b) ^ r;
    always @(posedge clk) r <= m | a;
    assign y = r ^ b;
  endmodule)";

TEST(ObsFlow, ArtifactsBitIdenticalWithObservabilityOnOrOff) {
  const auto lib = builtin_stdcell018();
  const AigCircuit circuit = parse_hdl(kSmallDesign);

  // Baseline: observability fully off.
  Tracer::global().set_enabled(false);
  Metrics::global().set_enabled(false);
  FlowOptions opts;
  const SecureFlowResult off = run_secure_flow(circuit, lib, opts);

  // Everything on: tracing, metrics, trace-level logging to a null sink.
  Tracer::global().set_enabled(true);
  Tracer::global().clear();
  Metrics::global().set_enabled(true);
  const LogLevel saved = Logger::global().level();
  Logger::global().set_sink([](LogLevel, std::string_view) {});
  Logger::global().set_level(LogLevel::kTrace);
  const SecureFlowResult on = run_secure_flow(circuit, lib, opts);
  Tracer::global().set_enabled(false);
  Metrics::global().set_enabled(false);
  Logger::global().set_sink(nullptr);
  Logger::global().set_level(saved);

  // Byte-for-byte identical serialized artifacts.
  EXPECT_EQ(write_verilog(off.rtl), write_verilog(on.rtl));
  EXPECT_EQ(write_verilog(off.fat), write_verilog(on.fat));
  EXPECT_EQ(write_verilog(off.diff), write_verilog(on.diff));
  EXPECT_EQ(write_def(off.fat_def), write_def(on.fat_def));
  EXPECT_EQ(write_def(off.def), write_def(on.def));
  EXPECT_EQ(off.timing.critical_delay_ps, on.timing.critical_delay_ps);

  // The traced run produced one span per pipeline stage plus the router /
  // placer sub-spans, and the metrics counted the router's work.
  std::set<std::string> names;
  for (const TraceEvent& e : Tracer::global().events()) names.insert(e.name);
  for (const char* stage :
       {"flow.secure", "flow.synthesis", "flow.substitution",
        "flow.placement", "flow.routing", "flow.decomposition",
        "flow.extraction", "place.sa", "route.iteration"}) {
    EXPECT_TRUE(names.contains(stage)) << "missing span " << stage;
  }
  const MetricsSnapshot s = Metrics::global().snapshot();
  EXPECT_GT(s.counters.at("pnr.route.iterations"), 0u);
  EXPECT_GT(s.counters.at("pnr.route.nets_routed"), 0u);
  EXPECT_GT(s.counters.at("pnr.place.sa_batches"), 0u);

  // And the trace exports as valid Chrome trace-event JSON.
  const JsonValue doc = json_parse(Tracer::global().chrome_trace_json());
  EXPECT_GT(doc.find("traceEvents")->items().size(), 6u);
  Tracer::global().clear();
  Metrics::global().reset();
}

TEST(ObsFlow, BuildFlowReportValidatesAgainstSchema) {
  const auto lib = builtin_stdcell018();
  const AigCircuit circuit = parse_hdl(kSmallDesign);
  FlowOptions opts;
  const SecureFlowResult r = run_secure_flow(circuit, lib, opts);
  FlowReport rep = build_flow_report(r);
  EXPECT_EQ(rep.flow, "secure");
  EXPECT_EQ(rep.design, "small");
  EXPECT_EQ(rep.completed_through, "extraction");
  EXPECT_EQ(rep.stages.size(), static_cast<std::size_t>(kNumFlowStages));
  EXPECT_TRUE(rep.secure.present);
  EXPECT_TRUE(rep.secure.lec_equivalent);
  EXPECT_GT(rep.cells, 0u);
  EXPECT_GT(rep.route_iterations, 0);
  validate_flow_report(json_parse(flow_report_json(rep)));
  EXPECT_EQ(parse_flow_report(flow_report_json(rep)), rep);
}

}  // namespace
}  // namespace secflow
