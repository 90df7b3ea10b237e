// Campaign engine tests: spec parsing (strict, aggregated violations),
// DAG-scheduled batch execution with checkpoint sharing, bit-equality of
// campaign jobs and standalone flows, per-job failure isolation, report
// schema round-trips, and warm-rerun speedup.
#include "campaign/campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/error.h"
#include "base/parallel.h"
#include "campaign/report.h"
#include "campaign/spec.h"
#include "liberty/builtin_lib.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "synth/hdl.h"

namespace secflow {
namespace {

namespace fs = std::filesystem;

/// Same mid-size registered design flow_ckpt_test uses: big enough that
/// a cold secure flow spends real time routing (warm-speedup margin),
/// small enough to keep the suite fast.
constexpr const char* kMidDesign = R"(
  module mid (input clk, input [7:0] a, input [7:0] b, output [7:0] y);
    reg [7:0] r1;
    reg [7:0] r2;
    wire [7:0] m;
    wire [7:0] s;
    assign m = (a & r2) ^ (b | r1);
    assign s = r1[0] ? (m ^ b) : (m & a);
    always @(posedge clk) begin
      r1 <= m ^ a;
      r2 <= s | b;
    end
    assign y = r2 ^ r1;
  endmodule)";

constexpr const char* kTinyDesign = R"(
  module tiny (input a, input b, input c, output x);
    assign x = (a & b) | c;
  endmodule)";

std::string error_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an Error";
  return "";
}

// ---------------------------------------------------------------------------
// Spec parsing.

TEST(CampaignSpec, ParsesFullDocument) {
  const CampaignSpec spec = parse_campaign_spec(R"({
    "schema": "secflow.campaign/1",
    "name": "sweep",
    "cache_dir": "ckpt",
    "threads": 3,
    "jobs": [
      {"name": "a", "circuit": {"builtin": "des-dpa"}, "flow": "secure",
       "seed": 7,
       "dpa": {"n_measurements": 400, "noise_ma": 0.5, "select_bit": 3,
               "sbox": 2, "key": 11},
       "options": {"route_mode": "quick", "shielded_pairs": false,
                   "place": {"seed": 5, "sa_batch": 8},
                   "route": {"via_cost": 4, "incremental": false,
                             "window_margin": 16, "window_escalation": 8},
                   "extract": {"variation_sigma": 0.01}}},
      {"circuit": {"hdl": "module m(input a, output y); assign y = a; endmodule"},
       "flow": "regular",
       "options": {"stop_after": "placement"}}
    ]
  })");
  EXPECT_EQ(spec.name, "sweep");
  EXPECT_EQ(spec.cache_dir, "ckpt");
  EXPECT_EQ(spec.threads, 3);
  ASSERT_EQ(spec.jobs.size(), 2u);

  const CampaignJob& a = spec.jobs[0];
  EXPECT_EQ(a.name, "a");
  EXPECT_EQ(a.circuit.kind, CircuitSourceKind::kBuiltinDesDpa);
  EXPECT_EQ(a.flow, FlowKind::kSecure);
  EXPECT_EQ(a.dpa.seed, 7u);
  ASSERT_TRUE(a.has_dpa);
  EXPECT_EQ(a.dpa.n_measurements, 400);
  EXPECT_DOUBLE_EQ(a.dpa.noise_ma, 0.5);
  EXPECT_EQ(a.dpa.select_bit, 3);
  EXPECT_EQ(a.dpa.sbox, 2);
  EXPECT_EQ(a.dpa.key, 11u);
  EXPECT_EQ(a.options.route_mode, RouteMode::kQuickLShaped);
  EXPECT_FALSE(a.options.shielded_pairs);
  EXPECT_EQ(a.options.place.seed, 5u);
  EXPECT_EQ(a.options.place.sa_batch, 8);
  EXPECT_EQ(a.options.route.via_cost, 4);
  EXPECT_FALSE(a.options.route.incremental);
  EXPECT_EQ(a.options.route.window_margin, 16);
  EXPECT_EQ(a.options.route.window_escalation, 8);
  EXPECT_DOUBLE_EQ(a.options.extract.variation_sigma, 0.01);

  const CampaignJob& b = spec.jobs[1];
  EXPECT_EQ(b.name, "job1");  // default name
  EXPECT_EQ(b.circuit.kind, CircuitSourceKind::kHdlText);
  EXPECT_EQ(b.flow, FlowKind::kRegular);
  EXPECT_FALSE(b.has_dpa);
  ASSERT_TRUE(b.options.stop_after.has_value());
  EXPECT_EQ(*b.options.stop_after, FlowStage::kPlacement);
}

TEST(CampaignSpec, MalformedJsonIsParseError) {
  EXPECT_THROW(parse_campaign_spec("{\"schema\": "), ParseError);
  EXPECT_THROW(parse_campaign_spec("not json at all"), ParseError);
  EXPECT_THROW(parse_campaign_spec(""), ParseError);
}

TEST(CampaignSpec, AggregatesAllViolationsIntoOneError) {
  // Five independent problems; the error must name every one of them.
  const std::string msg = error_message([] {
    parse_campaign_spec(R"({
      "schema": "secflow.campaign/2",
      "name": "bad",
      "threads": -2,
      "jobs": [
        {"name": "x", "flow": "sideways"},
        {"name": "x", "circuit": {"builtin": "des-dpa"}, "flow": "secure",
         "optionz": {}}
      ]
    })");
  });
  EXPECT_NE(msg.find("violations"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown schema"), std::string::npos) << msg;
  EXPECT_NE(msg.find("threads must be >= 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("missing required member 'circuit'"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("flow must be \"regular\" or \"secure\""),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("duplicate job name"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown member 'optionz'"), std::string::npos) << msg;
}

TEST(CampaignSpec, RejectsUnknownAndConflictingMembers) {
  // Unknown top-level member.
  EXPECT_NE(error_message([] {
              parse_campaign_spec(R"({
                "schema": "secflow.campaign/1", "name": "x", "jobz": []
              })");
            }).find("unknown member 'jobz'"),
            std::string::npos);
  // Circuit with two sources.
  EXPECT_NE(error_message([] {
              parse_campaign_spec(R"({
                "schema": "secflow.campaign/1", "name": "x",
                "jobs": [{"circuit": {"builtin": "des-dpa", "file": "a.v"},
                          "flow": "secure"}]
              })");
            }).find("exactly one of builtin/hdl/file"),
            std::string::npos);
  // DPA without extraction.
  EXPECT_NE(error_message([] {
              parse_campaign_spec(R"({
                "schema": "secflow.campaign/1", "name": "x",
                "jobs": [{"circuit": {"builtin": "des-dpa"}, "flow": "secure",
                          "dpa": {"n_measurements": 10},
                          "options": {"stop_after": "routing"}}]
              })");
            }).find("dpa needs the extracted capacitance table"),
            std::string::npos);
  // Secure-only stage on a regular flow.
  EXPECT_NE(error_message([] {
              parse_campaign_spec(R"({
                "schema": "secflow.campaign/1", "name": "x",
                "jobs": [{"circuit": {"builtin": "des-dpa"}, "flow": "regular",
                          "options": {"stop_after": "substitution"}}]
              })");
            }).find("secure-only stage"),
            std::string::npos);
  // Invalid FlowOptions value surfaces with the job's name.
  EXPECT_NE(error_message([] {
              parse_campaign_spec(R"({
                "schema": "secflow.campaign/1", "name": "x",
                "jobs": [{"name": "badfill",
                          "circuit": {"builtin": "des-dpa"}, "flow": "secure",
                          "options": {"place": {"fill_factor": 2.0}}}]
              })");
            }).find("job 'badfill'"),
            std::string::npos);
  // A negative placement margin would put the core outside the die.
  EXPECT_NE(error_message([] {
              parse_campaign_spec(R"({
                "schema": "secflow.campaign/1", "name": "x",
                "jobs": [{"circuit": {"builtin": "des-dpa"}, "flow": "regular",
                          "options": {"place": {"margin_tracks": -1}}}]
              })");
            }).find("place.margin_tracks must be >= 0"),
            std::string::npos);
  // So is an aspect ratio whose row count would overflow.
  EXPECT_NE(error_message([] {
              parse_campaign_spec(R"({
                "schema": "secflow.campaign/1", "name": "x",
                "jobs": [{"circuit": {"builtin": "des-dpa"}, "flow": "regular",
                          "options": {"place": {"aspect_ratio": 1e-30}}}]
              })");
            }).find("place.aspect_ratio must be in [1e-3, 1e3]"),
            std::string::npos);
  // So is a coupling window whose DBU conversion would overflow.
  EXPECT_NE(error_message([] {
              parse_campaign_spec(R"({
                "schema": "secflow.campaign/1", "name": "x",
                "jobs": [{"circuit": {"builtin": "des-dpa"}, "flow": "secure",
                          "options": {"extract":
                                      {"coupling_max_sep_um": 1e300}}}]
              })");
            }).find("extract.coupling_max_sep_um must be in [0, 1e6] um"),
            std::string::npos);
  // A window that cannot grow is rejected by FlowOptions::validate, and
  // the message names the member; so is a non-boolean incremental.
  EXPECT_NE(error_message([] {
              parse_campaign_spec(R"({
                "schema": "secflow.campaign/1", "name": "x",
                "jobs": [{"circuit": {"builtin": "des-dpa"}, "flow": "secure",
                          "options": {"route": {"window_escalation": 1}}}]
              })");
            }).find("route.window_escalation must be >= 2"),
            std::string::npos);
  EXPECT_NE(error_message([] {
              parse_campaign_spec(R"({
                "schema": "secflow.campaign/1", "name": "x",
                "jobs": [{"circuit": {"builtin": "des-dpa"}, "flow": "secure",
                          "options": {"route": {"incremental": 1}}}]
              })");
            }).find("member 'incremental' has the wrong type"),
            std::string::npos);
  // A number that does not fit its integer member is rejected by name,
  // not truncated, wrapped or cast out of range.
  const std::pair<const char*, const char*> bad_integers[] = {
      {R"("options": {"route": {"max_iterations": 2.5}})", "max_iterations"},
      {R"("options": {"route": {"via_cost": 1e10}})", "via_cost"},
      {R"("options": {"route": {"window_margin": 2.5}})", "window_margin"},
      {R"("options": {"route": {"window_escalation": 1e10}})",
       "window_escalation"},
      {R"("seed": -1)", "seed"},
      {R"("options": {"place": {"seed": 1e30}})", "seed"},
      {R"("dpa": {"key": 4294967342})", "key"},
  };
  for (const auto& [member, name] : bad_integers) {
    const std::string spec =
        std::string(R"({"schema": "secflow.campaign/1", "name": "x",
                        "jobs": [{"circuit": {"builtin": "des-dpa"},
                                  "flow": "secure", )") +
        member + "}]}";
    EXPECT_NE(error_message([&] { parse_campaign_spec(spec); })
                  .find(std::string("member '") + name +
                        "' must be an integer"),
              std::string::npos)
        << member;
  }
  // Empty campaign.
  EXPECT_NE(error_message([] {
              parse_campaign_spec(R"({
                "schema": "secflow.campaign/1", "name": "x", "jobs": []
              })");
            }).find("no jobs"),
            std::string::npos);
}

TEST(CampaignSpec, RejectsDpaParametersOutsideTheFig4Attack) {
  // The Fig 4 attack selects one bit of the PL nibble through a DES S-box
  // under a 6-bit subkey.  Out of range, a job ran silently wrong: key 110
  // drove hardware key 110 & 63 = 46 yet judged disclosure against 110,
  // and select bit 40 shifted a 32-bit word out of range.
  const std::pair<const char*, const char*> bad[] = {
      {R"({"key": 110})", "dpa.key must be in [0, 63]"},
      {R"({"key": 64})", "dpa.key must be in [0, 63]"},
      {R"({"select_bit": 40})", "dpa.select_bit must be in [0, 3]"},
      {R"({"select_bit": -1})", "dpa.select_bit must be in [0, 3]"},
      {R"({"sbox": 0})", "dpa.sbox must be in [1, 8]"},
      {R"({"sbox": 9})", "dpa.sbox must be in [1, 8]"},
  };
  auto spec = [](const std::string& dpa) {
    return std::string(R"({"schema": "secflow.campaign/1", "name": "x",
                           "jobs": [{"circuit": {"builtin": "des-dpa"},
                                     "flow": "secure", "dpa": )") +
           dpa + "}]}";
  };
  for (const auto& [dpa, what] : bad) {
    EXPECT_NE(error_message([&] { parse_campaign_spec(spec(dpa)); })
                  .find(what),
              std::string::npos)
        << dpa;
  }
  // Both ends of every range are legal.
  EXPECT_NO_THROW(
      parse_campaign_spec(spec(R"({"key": 0, "select_bit": 0, "sbox": 1})")));
  EXPECT_NO_THROW(
      parse_campaign_spec(spec(R"({"key": 63, "select_bit": 3, "sbox": 8})")));
}

// ---------------------------------------------------------------------------
// Failure isolation (cheap: tiny design, no cache).

TEST(CampaignRun, PoisonedJobFailsWithoutAbortingSiblings) {
  CampaignSpec spec;
  spec.name = "poison";
  spec.threads = 2;

  CampaignJob good;
  good.name = "good";
  good.circuit = {CircuitSourceKind::kHdlText, kTinyDesign};
  good.flow = FlowKind::kRegular;
  good.options.stop_after = FlowStage::kPlacement;

  CampaignJob bad = good;
  bad.name = "bad";
  bad.circuit = {CircuitSourceKind::kHdlText, "module broken("};

  CampaignJob missing = good;
  missing.name = "missing";
  missing.circuit = {CircuitSourceKind::kHdlFile, "/nonexistent/x.v"};

  // A source is elaborated once for every job naming it.
  CampaignJob bad_again = bad;
  bad_again.name = "bad-again";

  spec.jobs = {good, bad, missing, bad_again};
  const CampaignResult r = run_campaign(spec);
  ASSERT_EQ(r.jobs.size(), 4u);
  EXPECT_EQ(r.n_ok, 1);
  EXPECT_EQ(r.n_failed, 3);

  EXPECT_TRUE(r.jobs[0].ok);
  EXPECT_FALSE(r.jobs[0].artifacts.empty());
  EXPECT_FALSE(r.jobs[1].ok);
  EXPECT_FALSE(r.jobs[1].error.empty());
  EXPECT_TRUE(r.jobs[1].artifacts.empty());
  EXPECT_FALSE(r.jobs[2].ok);
  EXPECT_FALSE(r.jobs[2].error.empty());
  EXPECT_FALSE(r.jobs[3].ok);
  EXPECT_EQ(r.jobs[3].error, r.jobs[1].error);

  // A failed-campaign report still validates and round-trips.
  const std::string json = campaign_report_json(r);
  validate_campaign_report(json_parse(json));
  EXPECT_EQ(parse_campaign_report(json), r);
}

// ---------------------------------------------------------------------------
// Scheduling.  The tracer's campaign.job spans show when each job ran.

using JobSpans = std::map<std::string, std::pair<std::int64_t, std::int64_t>>;

/// Run `spec` with the global tracer on; each job's span as [start, end)
/// in microseconds.
JobSpans run_traced(const CampaignSpec& spec, CampaignResult& result) {
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  result = run_campaign(spec);
  tracer.set_enabled(false);
  JobSpans spans;
  for (const TraceEvent& e : tracer.events()) {
    if (e.name != "campaign.job") continue;
    for (const auto& [key, value] : e.args) {
      if (key == "job") spans[value] = {e.ts_us, e.ts_us + e.dur_us};
    }
  }
  tracer.clear();
  return spans;
}

TEST(CampaignRun, RunsAtMostThreadsJobsAtOnce) {
  // Without a store no job waits on another, so all six are ready at once,
  // and the pool has a worker for each: only the scheduler holds them to
  // the cap.
  ThreadPool::global().ensure_workers(6);
  CampaignSpec spec;
  spec.name = "cap";
  spec.threads = 2;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    CampaignJob j;
    j.name = "seed" + std::to_string(seed);
    j.circuit = {CircuitSourceKind::kHdlText, kMidDesign};
    j.flow = FlowKind::kRegular;
    j.options.stop_after = FlowStage::kPlacement;
    j.options.place.seed = seed;
    spec.jobs.push_back(j);
  }
  CampaignResult r;
  const JobSpans spans = run_traced(spec, r);
  EXPECT_EQ(r.n_ok, 6);
  ASSERT_EQ(spans.size(), 6u);

  // Sweep the span edges in time order, an end before a start on a tie.
  std::vector<std::pair<std::int64_t, int>> edges;
  for (const auto& [name, span] : spans) {
    edges.emplace_back(span.first, +1);
    edges.emplace_back(span.second, -1);
  }
  std::sort(edges.begin(), edges.end());
  int running = 0;
  int most = 0;
  for (const auto& [t, step] : edges) {
    running += step;
    most = std::max(most, running);
  }
  EXPECT_LE(most, spec.threads);
}

TEST(CampaignRun, DependentsStartAfterTheirProducersEnd) {
  const fs::path dir = fs::path(::testing::TempDir()) / "campaign_order";
  fs::remove_all(dir);
  CampaignSpec spec;
  spec.name = "order";
  spec.cache_dir = dir.string();
  spec.threads = 2;
  const auto job = [](const char* name, const char* hdl,
                      std::uint64_t place_seed) {
    CampaignJob j;
    j.name = name;
    j.circuit = {CircuitSourceKind::kHdlText, hdl};
    j.flow = FlowKind::kRegular;
    j.options.stop_after = FlowStage::kPlacement;
    j.options.place.seed = place_seed;
    return j;
  };
  constexpr const char* kOther = R"(
    module other (input a, input b, input c, output x);
      assign x = (a | b) & c;
    endmodule)";
  // Another placement seed shares only synthesis, so each job after the
  // first of its design waits on that one.
  spec.jobs = {job("x", kTinyDesign, 1), job("y", kOther, 1),
               job("x-2", kTinyDesign, 2), job("x-3", kTinyDesign, 3),
               job("y-2", kOther, 2)};
  CampaignResult r;
  const JobSpans spans = run_traced(spec, r);
  fs::remove_all(dir);
  ASSERT_EQ(r.n_ok, 5);
  ASSERT_EQ(spans.size(), 5u);
  using Names = std::vector<std::string>;
  EXPECT_EQ(r.jobs[2].waited_on, Names{"x"});
  EXPECT_EQ(r.jobs[3].waited_on, Names{"x"});
  EXPECT_EQ(r.jobs[4].waited_on, Names{"y"});
  for (const JobOutcome& j : r.jobs) {
    for (const std::string& producer : j.waited_on) {
      EXPECT_GE(spans.at(j.name).first, spans.at(producer).second)
          << j.name << " started before " << producer << " ended";
    }
  }
}

TEST(CampaignRun, RejectsInvalidSpec) {
  CampaignSpec spec;
  spec.name = "empty";
  EXPECT_THROW(run_campaign(spec), Error);
}

// ---------------------------------------------------------------------------
// End-to-end batch execution on the mid design.  One cold campaign per
// test binary; the individual tests inspect its outcome and run the warm
// rerun / standalone comparisons against it.

class CampaignE2E : public ::testing::Test {
 protected:
  static CampaignSpec make_spec() {
    CampaignSpec spec;
    spec.name = "mid-sweep";
    spec.cache_dir = cache_dir_.string();

    CampaignJob sec;
    sec.name = "sec-base";
    sec.circuit = {CircuitSourceKind::kHdlText, kMidDesign};
    sec.flow = FlowKind::kSecure;

    // Same layout, different extraction -> shares 5 of 6 stage keys.
    CampaignJob sec_var = sec;
    sec_var.name = "sec-var";
    sec_var.options.extract.variation_sigma = 0.02;
    sec_var.options.extract.seed = 11;

    // Different placement seed -> shares only synthesis + substitution.
    CampaignJob sec_seed = sec;
    sec_seed.name = "sec-seed";
    sec_seed.options.place.seed = 2;

    // A pure prefix of sec-base: every stage it runs is shared.
    CampaignJob sec_stop = sec;
    sec_stop.name = "sec-stop";
    sec_stop.options.stop_after = FlowStage::kPlacement;

    CampaignJob reg;
    reg.name = "reg-base";
    reg.circuit = {CircuitSourceKind::kHdlText, kMidDesign};
    reg.flow = FlowKind::kRegular;

    // Same synthesis/placement, different routing.
    CampaignJob reg_quick = reg;
    reg_quick.name = "reg-quick";
    reg_quick.options.route_mode = RouteMode::kQuickLShaped;

    spec.jobs = {sec, sec_var, sec_seed, sec_stop, reg, reg_quick};
    return spec;
  }

  static void SetUpTestSuite() {
    cache_dir_ = fs::path(::testing::TempDir()) / "campaign_cache";
    fs::remove_all(cache_dir_);
    const auto t0 = std::chrono::steady_clock::now();
    cold_ = new CampaignResult(run_campaign(make_spec()));
    cold_ms_ = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  }

  static void TearDownTestSuite() {
    delete cold_;
    cold_ = nullptr;
    fs::remove_all(cache_dir_);
  }

  static const JobOutcome& job(const CampaignResult& r,
                               const std::string& name) {
    for (const JobOutcome& j : r.jobs) {
      if (j.name == name) return j;
    }
    throw Error("no job named " + name);
  }

  static std::vector<std::string> cache_row(const JobOutcome& j) {
    std::vector<std::string> row;
    for (const StageEntry& s : j.report.stages) row.push_back(s.cache);
    return row;
  }

  static fs::path cache_dir_;
  static CampaignResult* cold_;
  static double cold_ms_;
};

fs::path CampaignE2E::cache_dir_;
CampaignResult* CampaignE2E::cold_ = nullptr;
double CampaignE2E::cold_ms_ = 0.0;

using Row = std::vector<std::string>;

TEST_F(CampaignE2E, AllJobsSucceed) {
  EXPECT_EQ(cold_->campaign, "mid-sweep");
  EXPECT_EQ(cold_->n_ok, 6);
  EXPECT_EQ(cold_->n_failed, 0);
  for (const JobOutcome& j : cold_->jobs) {
    EXPECT_TRUE(j.ok) << j.name << ": " << j.error;
    EXPECT_FALSE(j.artifacts.empty()) << j.name;
  }
}

TEST_F(CampaignE2E, SharedPrefixJobsHitTheCache) {
  // Producers compute, dependents reuse: the scheduler ran sec-base
  // first, so every stage another job shares with it is a hit.
  EXPECT_EQ(cache_row(job(*cold_, "sec-base")),
            Row({"miss", "miss", "miss", "miss", "miss", "miss"}));
  EXPECT_EQ(cache_row(job(*cold_, "sec-var")),
            Row({"hit", "hit", "hit", "hit", "hit", "miss"}));
  EXPECT_EQ(cache_row(job(*cold_, "sec-seed")),
            Row({"hit", "hit", "miss", "miss", "miss", "miss"}));
  EXPECT_EQ(cache_row(job(*cold_, "sec-stop")),
            Row({"hit", "hit", "hit", "not-run", "not-run", "not-run"}));
  EXPECT_EQ(cache_row(job(*cold_, "reg-base")),
            Row({"miss", "not-run", "miss", "miss", "not-run", "miss"}));
  EXPECT_EQ(cache_row(job(*cold_, "reg-quick")),
            Row({"hit", "not-run", "hit", "miss", "not-run", "miss"}));
}

TEST_F(CampaignE2E, DependentsRecordTheirProducers) {
  EXPECT_TRUE(job(*cold_, "sec-base").waited_on.empty());
  EXPECT_EQ(job(*cold_, "sec-var").waited_on,
            std::vector<std::string>{"sec-base"});
  EXPECT_EQ(job(*cold_, "sec-seed").waited_on,
            std::vector<std::string>{"sec-base"});
  EXPECT_EQ(job(*cold_, "sec-stop").waited_on,
            std::vector<std::string>{"sec-base"});
  EXPECT_TRUE(job(*cold_, "reg-base").waited_on.empty());
  EXPECT_EQ(job(*cold_, "reg-quick").waited_on,
            std::vector<std::string>{"reg-base"});
}

TEST_F(CampaignE2E, JobsAreBitIdenticalToStandaloneFlows) {
  // Every campaign job must produce exactly the artifacts a standalone
  // run_*_flow call produces with the same options — spec order, one
  // shared cache, no scheduler and no concurrency involved.  This pins
  // down that the DAG scheduler and the thread pool add nothing: a
  // campaign is observationally a sequence of plain flow calls.
  const fs::path dir = fs::path(::testing::TempDir()) / "campaign_standalone";
  fs::remove_all(dir);
  const CampaignSpec spec = make_spec();
  const AigCircuit circuit = parse_hdl(kMidDesign);
  const auto lib = builtin_stdcell018();
  for (const CampaignJob& j : spec.jobs) {
    FlowOptions standalone = j.options;
    standalone.cache_dir = dir.string();
    std::vector<std::pair<std::string, std::string>> expected;
    if (j.flow == FlowKind::kRegular) {
      expected = artifact_digests(run_regular_flow(circuit, lib, standalone));
    } else {
      expected = artifact_digests(run_secure_flow(circuit, lib, standalone));
    }
    EXPECT_EQ(job(*cold_, j.name).artifacts, expected) << j.name;
  }
  fs::remove_all(dir);
}

TEST_F(CampaignE2E, ProducerJobsMatchCachelessStandaloneFlows) {
  // Jobs that computed every stage themselves (no cache hits) must be
  // byte-identical to a flow run with caching disabled entirely.  (Jobs
  // downstream of a cache hit legitimately differ in enumeration-order
  // cosmetics — a netlist reparsed from the store may number nets
  // differently than one built in memory; see flow_ckpt_test.)
  const CampaignSpec spec = make_spec();
  const AigCircuit circuit = parse_hdl(kMidDesign);
  const auto lib = builtin_stdcell018();
  FlowOptions no_cache;
  EXPECT_EQ(job(*cold_, "sec-base").artifacts,
            artifact_digests(run_secure_flow(circuit, lib, no_cache)));
  EXPECT_EQ(job(*cold_, "reg-base").artifacts,
            artifact_digests(run_regular_flow(circuit, lib, no_cache)));
}

TEST_F(CampaignE2E, WarmRerunHitsEverything) {
  const CampaignResult warm = run_campaign(make_spec());
  EXPECT_EQ(warm.n_ok, 6);
  for (const JobOutcome& j : warm.jobs) {
    for (const StageEntry& s : j.report.stages) {
      EXPECT_NE(s.cache, "miss") << j.name << " stage " << s.name;
    }
    // Same artifacts as the cold campaign, fetched instead of computed.
    EXPECT_EQ(j.artifacts, job(*cold_, j.name).artifacts) << j.name;
  }
  // No wall-clock bar: the windowed incremental router finishes these
  // small flows in milliseconds, so fetching artifacts from the store is
  // not reliably 5x faster than recomputing them.  The cache contract is
  // the no-miss stages and identical artifact digests asserted above.
}

TEST_F(CampaignE2E, SingleThreadedRerunMatches) {
  // Concurrency must not leak into results: a threads=1 rerun (warm,
  // same cache) reproduces every artifact digest.
  CampaignSpec spec = make_spec();
  spec.threads = 1;
  const CampaignResult serial = run_campaign(spec);
  ASSERT_EQ(serial.jobs.size(), cold_->jobs.size());
  for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
    EXPECT_EQ(serial.jobs[i].artifacts, cold_->jobs[i].artifacts)
        << serial.jobs[i].name;
    EXPECT_EQ(serial.jobs[i].report.cells, cold_->jobs[i].report.cells);
  }
}

TEST_F(CampaignE2E, ReportRoundTripsThroughSchemaValidator) {
  const std::string json = campaign_report_json(*cold_);
  const JsonValue doc = json_parse(json);
  validate_campaign_report(doc);

  // Totals in the document match the result.
  EXPECT_EQ(doc.find("n_ok")->as_number(), 6.0);
  EXPECT_EQ(doc.find("n_failed")->as_number(), 0.0);
  const JsonValue& cache = *doc.find("cache");
  // miss count: 6 (sec-base) + 1 + 4 + 0 + 4 (reg-base) + 2 = 17;
  // hit count:  0            + 5 + 2 + 3 + 0            + 2 = 12.
  EXPECT_EQ(cache.find("misses")->as_number(), 17.0);
  EXPECT_EQ(cache.find("hits")->as_number(), 12.0);

  // Full structural round-trip.
  EXPECT_EQ(parse_campaign_report(json), *cold_);

  // Tampered documents are rejected.
  JsonValue bad = json_parse(json);
  bad.set("schema", "secflow.campaign-report/9");
  EXPECT_THROW(validate_campaign_report(bad), Error);

  // Integers are range-checked, never cast (3e9 does not fit an int).
  JsonValue huge = json_parse(json);
  huge.set("n_failed", JsonValue(3e9));
  EXPECT_NE(error_message([&] { validate_campaign_report(huge); })
                .find("member 'n_failed' must be an integer"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// DPA integration: a campaign job with a "dpa" section runs the attack
// on its extracted netlist and folds the verdict into the flow report.

TEST(CampaignDpa, RegularFlowJobCarriesDpaVerdict) {
  CampaignSpec spec;
  spec.name = "dpa";
  CampaignJob j;
  j.name = "des-reg";
  j.circuit = {CircuitSourceKind::kBuiltinDesDpa, ""};
  j.flow = FlowKind::kRegular;
  j.dpa.seed = 99;
  j.has_dpa = true;
  j.dpa.n_measurements = 120;
  j.options.route_mode = RouteMode::kQuickLShaped;
  spec.jobs = {j};

  const CampaignResult r = run_campaign(spec);
  ASSERT_EQ(r.n_ok, 1);
  const DpaSection& dpa = r.jobs[0].report.dpa;
  ASSERT_TRUE(dpa.present);
  EXPECT_EQ(dpa.n_measurements, 120);
  EXPECT_GE(dpa.best_guess, 0);
  EXPECT_GT(dpa.best_peak, 0.0);
  EXPECT_GT(dpa.mean_cycle_energy_pj, 0.0);

  const std::string json = campaign_report_json(r);
  validate_campaign_report(json_parse(json));
  const CampaignResult parsed = parse_campaign_report(json);
  EXPECT_TRUE(parsed.jobs[0].report.dpa.present);
  EXPECT_EQ(parsed, r);
}

}  // namespace
}  // namespace secflow
