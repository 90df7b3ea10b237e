// The machine-readable leakage-assessment report.
//
// One JSON document per assessment carrying every statistic the engine
// produced: the fixed-vs-random TVLA verdict, the CPA key ranking,
// success-rate / guessing-entropy curves over repeated sub-campaigns, and
// the measurements-to-disclosure estimate.  `secflow_cli leakage --out`
// dumps it, CI archives it, and attach_leakage folds a digest into the
// flow report so campaign aggregation sees the verdicts without parsing a
// second document.  Schema identifier: "secflow.leakage-report/1";
// one field list in report.cpp drives the writer, the reader and the
// validator, as for the flow report (obs/json_fields.h): optional
// sections are null-or-object, types and integer ranges are strict, and
// Error names the first violation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/report.h"

namespace secflow {

inline constexpr const char* kLeakageReportSchema =
    "secflow.leakage-report/1";

/// Fixed-vs-random Welch-t verdict.
struct TvlaSummary {
  bool present = false;
  std::int64_t n_fixed = 0;
  std::int64_t n_random = 0;
  std::int64_t n_samples = 0;
  double threshold = 4.5;
  double max_abs_t = 0.0;
  std::int64_t leaky_samples = 0;  ///< samples with |t| > threshold
  bool leaks = false;

  bool operator==(const TvlaSummary&) const = default;
};

/// CPA key-recovery verdict at the full trace budget.
struct CpaSummary {
  bool present = false;
  std::string model;  ///< "hw" | "hd"
  std::int64_t n_traces = 0;
  std::int64_t best_guess = -1;
  double best_score = 0.0;
  double runner_up_score = 0.0;
  std::int64_t correct_key = -1;
  std::int64_t correct_rank = 0;  ///< 1 = recovered
  bool disclosed = false;

  bool operator==(const CpaSummary&) const = default;
};

/// Success-rate and guessing-entropy curves over repeated independent
/// sub-campaigns (disjoint Rng streams).
struct GeSummary {
  bool present = false;
  std::int64_t n_campaigns = 0;
  std::vector<std::int64_t> trace_grid;   ///< trace counts sampled
  std::vector<double> guessing_entropy;   ///< mean correct-key rank
  std::vector<double> success_rate;       ///< fraction with rank 1

  bool operator==(const GeSummary&) const = default;
};

/// Measurements-to-disclosure estimate with the checkpoint trajectory.
struct MtdSummary {
  bool present = false;
  std::int64_t mtd = -1;  ///< -1 = hidden at max_traces
  std::int64_t max_traces = 0;
  std::int64_t step = 0;
  std::int64_t persist = 0;
  std::int64_t traces_fed = 0;
  bool disclosed = false;
  std::vector<std::int64_t> checkpoints;
  std::vector<std::int64_t> ranks;

  bool operator==(const MtdSummary&) const = default;
};

struct LeakageReport {
  std::string schema = kLeakageReportSchema;
  std::string flow;    ///< "regular" | "secure"
  std::string design;
  std::int64_t seed = 0;
  std::int64_t n_threads = 1;
  double noise_ma = 0.0;

  TvlaSummary tvla;
  CpaSummary cpa;
  GeSummary ge;
  MtdSummary mtd;

  std::int64_t trace_cache_hits = 0;
  std::int64_t trace_cache_misses = 0;

  bool operator==(const LeakageReport&) const = default;
};

/// The report as pretty-printed JSON (ends with a newline).
std::string leakage_report_json(const LeakageReport& r);

/// Inverse of leakage_report_json.  Throws ParseError on malformed JSON
/// and Error on schema-violating input.
LeakageReport parse_leakage_report(const std::string& json);

/// The report as a JSON document — what leakage_report_json serializes.
JsonValue leakage_report_to_json(const LeakageReport& r);

/// Inverse of leakage_report_to_json.  Throws one Error naming every
/// violation of the schema.
LeakageReport leakage_report_from_json(const JsonValue& doc);

/// Check a parsed document against the secflow.leakage-report/1 schema.
/// Throws one Error naming every violation.
void validate_leakage_report(const JsonValue& doc);

/// Fold the assessment digest into a flow report's leakage section.
void attach_leakage(FlowReport& flow, const LeakageReport& r);

}  // namespace secflow
