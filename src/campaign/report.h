// Machine-readable campaign report.
//
// One JSON document per campaign run: per-job status, scheduling edges
// (waited_on), artifact content digests, the full per-job FlowReport
// (with DPA verdicts when an attack ran), and the cache-hit matrix
// (jobs × pipeline stages) that shows exactly which shared stages the
// scheduler deduplicated.  `secflow_cli campaign ... --out report.json`
// dumps it, CI archives it, and scripts diff digests across runs.
//
// Schema identifier: "secflow.campaign-report/1".  One field list in
// report.cpp drives the writer, the reader and the validator
// (obs/json_fields.h).  Per-job flow reports embed as
// secflow.flow-report/1 objects and are read by the same reader the
// single-flow path uses.
#pragma once

#include <string>

#include "campaign/campaign.h"
#include "obs/json.h"

namespace secflow {

inline constexpr const char* kCampaignReportSchema =
    "secflow.campaign-report/1";

/// The report as pretty-printed JSON (ends with a newline).
std::string campaign_report_json(const CampaignResult& r);

/// Check a parsed document against the secflow.campaign-report/1 schema:
/// required members with the right types, job statuses from the known
/// vocabulary, cache-matrix rows matching the job list, digests 16 hex
/// digits, embedded flow reports valid.  This is parse_campaign_report
/// on a parsed document, with the result dropped.  Throws one Error
/// naming every violation.
void validate_campaign_report(const JsonValue& doc);

/// Inverse of campaign_report_json.  Throws ParseError on malformed JSON
/// and Error on schema-violating input.
CampaignResult parse_campaign_report(const std::string& json);

}  // namespace secflow
