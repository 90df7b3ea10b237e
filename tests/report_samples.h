// Fixed sample reports for the report-schema tests.
//
// Each schema comes in a full form, where every optional section is
// present and every member holds a distinct non-default value, and a
// bare form, where every optional section is null.  The numbers include
// fractions, negatives and values that need all 17 significant digits.
// The campaign sample carries both kinds of flow report plus a failed
// job whose error text needs escaping.  flow_golden_test pins the
// writer's bytes for these documents; the parser tests round-trip and
// mutate them.
#pragma once

#include <cstdint>
#include <string>

#include "campaign/report.h"
#include "leakage/report.h"
#include "obs/report.h"

namespace secflow::report_samples {

inline FlowReport full_flow() {
  FlowReport r;
  r.flow = "secure";
  r.design = "des_dpa";
  r.completed_through = "extraction";
  r.n_threads = 3;
  r.cells = 1234;
  r.cell_area_um2 = 1782.95;
  r.die_area_um2 = 0.1 + 0.2;
  r.wirelength_um = 965.44;
  r.vias = 150;
  r.route_nets = 29;
  r.route_iterations = 7;
  r.critical_delay_ps = 539.685;
  r.total_ms = 25.8125;
  const char* const verdicts[] = {"miss", "hit", "hit", "miss", "off",
                                  "hit"};
  const char* const keys[] = {"00000000deadbeef", "0123456789abcdef",
                              "fedcba9876543210", "00000000000000a1",
                              "", "1111222233334444"};
  const char* const names[] = {"synthesis", "substitution", "placement",
                               "routing", "decomposition", "extraction"};
  for (int i = 0; i < 6; ++i) {
    r.stages.push_back({names[i], 1.5 + 2.25 * i, verdicts[i], keys[i]});
  }
  r.secure = {true, 617, 1230, 41, true, 88, true};
  r.dpa = {true, 2000, 46, true, 0.5, 0.4375, 12.625};
  r.leakage = {true, "hd", 400, 45, 3, true, 6.25, 17, 200, 600};
  r.metrics.counters["pnr.route.iterations"] = 7;
  r.metrics.counters["sim.traces"] = 4000000000ull;
  r.metrics.gauges["work.peak"] = -3.5;
  r.metrics.gauges["work.huge"] = 1e300;
  r.metrics.histograms["work.size"] = {5, 11.5, 0.25, 7.0};
  return r;
}

/// A regular-flow report: no secure, dpa or leakage section, no metrics.
inline FlowReport bare_flow() {
  FlowReport r;
  r.flow = "regular";
  r.design = "tiny";
  r.completed_through = "placement";
  r.n_threads = 1;
  r.cells = 9;
  r.cell_area_um2 = 120.25;
  r.die_area_um2 = 400.0;
  r.wirelength_um = 0.0;
  r.vias = 0;
  r.critical_delay_ps = 88.5;
  r.total_ms = 2.5;
  const char* const names[] = {"synthesis", "substitution", "placement",
                               "routing", "decomposition", "extraction"};
  const char* const verdicts[] = {"miss", "not-run", "miss", "not-run",
                                  "not-run", "not-run"};
  const char* const keys[] = {"00000000000000b2", "", "00000000000000c3",
                              "", "", ""};
  for (int i = 0; i < 6; ++i) {
    r.stages.push_back({names[i], 0.75 * i, verdicts[i], keys[i]});
  }
  return r;
}

inline LeakageReport full_leakage() {
  LeakageReport r;
  r.flow = "secure";
  r.design = "des_dpa";
  r.seed = 2025;
  r.n_threads = 4;
  r.noise_ma = 0.6;
  r.tvla = {true, 100, 101, 800, 4.75, 18.3, 12, true};
  r.cpa = {true, "hw", 400, 2, 0.13, 0.11, 46, 36, true};
  r.ge = {true, 2, {100, 200, 400}, {12.0, 3.5, 1.0}, {0.0, 0.5, 1.0}};
  r.mtd = {true, 400, 600, 200, 3, 599, true, {200, 400, 600}, {40, 1, 1}};
  r.trace_cache_hits = 3;
  r.trace_cache_misses = 7;
  return r;
}

/// A leakage report with every optional section null.
inline LeakageReport bare_leakage() {
  LeakageReport r;
  r.flow = "regular";
  r.design = "tiny";
  r.seed = -9;
  r.n_threads = 2;
  r.noise_ma = 1.0 / 3.0;
  r.trace_cache_hits = 0;
  r.trace_cache_misses = 1;
  return r;
}

/// Two ok jobs (full and bare flow reports) and one failed job.
inline CampaignResult campaign() {
  CampaignResult r;
  r.campaign = "nightly \"sweep\"";
  r.wall_ms = 1234.5;
  r.n_ok = 2;
  r.n_failed = 1;

  JobOutcome sec;
  sec.name = "sec-base";
  sec.ok = true;
  sec.wall_ms = 800.25;
  sec.report = full_flow();
  sec.artifacts = {{"rtl.v", "0123456789abcdef"},
                   {"design.def", "fedcba9876543210"}};

  JobOutcome reg;
  reg.name = "reg-base";
  reg.ok = true;
  reg.wall_ms = 95.125;
  reg.waited_on = {"sec-base"};
  reg.report = bare_flow();
  reg.artifacts = {{"rtl.v", "0000000000000001"}};

  JobOutcome bad;
  bad.name = "broken";
  bad.error = "hdl:3: unexpected \"(\"\n\tnear '\\' and \x01";
  bad.wall_ms = 0.5;
  bad.waited_on = {"sec-base", "reg-base"};

  r.jobs = {sec, reg, bad};
  return r;
}

}  // namespace secflow::report_samples
