// Unified machine-readable flow report.
//
// One JSON document per run merging everything the flow knows about
// itself: per-stage wall times with cache outcomes and content-address
// keys (StageTimings), routing statistics and rip-up iteration counts
// (RouteStats), STA timing, the secure flow's verification verdicts,
// optional DPA/energy results, and a metrics snapshot.  This is the
// structured counterpart of flow_report()'s human text — `secflow_cli
// flow ... --report out.json` dumps it, CI archives it, and scripts diff
// it across runs.
//
// The document is plain data (strings and numbers only), so this header
// depends on nothing above base; the builders that know about flow/sca
// types live in those layers (build_flow_report in flow/, attach_dpa in
// sca/).  Schema identifier: "secflow.flow-report/1".  One field list in
// report.cpp drives the writer, the reader and the validator
// (obs/json_fields.h); parse_flow_report round-trips the JSON back into
// the struct.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace secflow {

inline constexpr const char* kFlowReportSchema = "secflow.flow-report/1";

/// One pipeline stage: name, wall time, cache verdict ("not-run", "off",
/// "miss", "hit") and the 16-hex-digit content-address key ("" when the
/// stage was never keyed).
struct StageEntry {
  std::string name;
  double ms = 0.0;
  std::string cache;
  std::string cache_key;

  bool operator==(const StageEntry&) const = default;
};

/// Whether `v` is a stage cache verdict: "not-run", "off", "miss", "hit".
bool is_cache_verdict(std::string_view v);

/// Secure-flow-only section (present == false for the regular flow).
struct SecureSection {
  bool present = false;
  std::uint64_t fat_cells = 0;
  std::uint64_t diff_cells = 0;
  std::int64_t inverters_removed = 0;
  bool lec_equivalent = false;
  std::int64_t lec_points = 0;
  bool stream_check_ok = false;

  bool operator==(const SecureSection&) const = default;
};

/// DPA campaign section (attached by sca/ when a campaign ran).
struct DpaSection {
  bool present = false;
  std::int64_t n_measurements = 0;
  std::int64_t best_guess = -1;
  bool disclosed = false;
  double best_peak = 0.0;        ///< peak-to-peak of the best key guess
  double runner_up_peak = 0.0;   ///< peak-to-peak of the second best
  double mean_cycle_energy_pj = 0.0;

  bool operator==(const DpaSection&) const = default;
};

/// Statistical leakage-assessment summary (attached by leakage/ via
/// attach_leakage when an assessment ran).  A digest of the full
/// secflow.leakage-report/1 document, kept flat so flow/campaign reports
/// stay scannable.
struct LeakageSection {
  bool present = false;
  std::string model;  ///< CPA power model: "hw" | "hd" | "" (TVLA only)
  std::int64_t cpa_traces = 0;
  std::int64_t cpa_best_guess = -1;
  std::int64_t cpa_correct_rank = 0;  ///< 0 when CPA did not run
  bool cpa_disclosed = false;
  double tvla_max_abs_t = 0.0;
  std::int64_t tvla_leaks = 0;  ///< samples with |t| above threshold
  std::int64_t mtd = -1;        ///< -1 = hidden at the trace budget
  std::int64_t mtd_max_traces = 0;

  bool operator==(const LeakageSection&) const = default;
};

struct FlowReport {
  std::string schema = kFlowReportSchema;
  std::string flow;   ///< "regular" | "secure"
  std::string design;
  std::string completed_through;  ///< last stage that produced artifacts
  std::int64_t n_threads = 1;

  std::uint64_t cells = 0;       ///< instances in the final netlist
  double cell_area_um2 = 0.0;
  double die_area_um2 = 0.0;
  double wirelength_um = 0.0;
  std::int64_t vias = 0;
  std::int64_t route_nets = 0;
  std::int64_t route_iterations = 0;  ///< rip-up iterations to converge
  double critical_delay_ps = 0.0;

  double total_ms = 0.0;
  std::vector<StageEntry> stages;  ///< all pipeline stages, in order

  SecureSection secure;
  DpaSection dpa;
  LeakageSection leakage;
  MetricsSnapshot metrics;

  bool operator==(const FlowReport&) const = default;
};

/// The report as pretty-printed JSON (ends with a newline).
std::string flow_report_json(const FlowReport& r);

/// Inverse of flow_report_json.  Throws ParseError on malformed JSON and
/// Error on schema-violating input.
FlowReport parse_flow_report(const std::string& json);

/// The report as a JSON document — what flow_report_json serializes.
/// Exposed so aggregating documents (the campaign report) can embed
/// per-job flow reports as objects instead of re-parsing strings.
JsonValue flow_report_to_json(const FlowReport& r);

/// Inverse of flow_report_to_json.  Throws one Error naming every
/// violation of the schema.
FlowReport flow_report_from_json(const JsonValue& doc);

/// Check a parsed document against the secflow.flow-report/1 schema:
/// required members present with the right types, no unknown ones,
/// integers in range, stage cache verdicts from the known vocabulary,
/// metrics section well-formed.  This is flow_report_from_json with the result dropped.
void validate_flow_report(const JsonValue& doc);

/// Fold a metrics snapshot into the report (normally Metrics::global()'s,
/// taken after the run).
void attach_metrics(FlowReport& r, const MetricsSnapshot& snapshot);

}  // namespace secflow
