#include "campaign/report.h"

#include "obs/json_fields.h"

namespace secflow {
namespace {

/// One job's row of the cache matrix: its six stage verdicts.
struct CacheRow {
  std::string job;
  std::vector<std::string> stages;
};

/// The cache section, derived from the per-job stage entries so it can
/// never disagree with the reports.
struct CacheMatrix {
  int hits = 0;
  int misses = 0;
  std::vector<CacheRow> rows;
};

CacheMatrix cache_matrix(const std::vector<JobOutcome>& jobs) {
  CacheMatrix m;
  for (const JobOutcome& job : jobs) {
    CacheRow& row = m.rows.emplace_back();
    row.job = job.name;
    if (!job.ok) {
      // The flow never produced a report: every stage is "not-run".
      row.stages.assign(kNumFlowStages, "not-run");
      continue;
    }
    for (const StageEntry& s : job.report.stages) {
      row.stages.push_back(s.cache);
      m.hits += s.cache == "hit" ? 1 : 0;
      m.misses += s.cache == "miss" ? 1 : 0;
    }
  }
  return m;
}

/// The secflow.campaign-report/1 field list (obs/json_fields.h).  The
/// derived members (schema, n_jobs, cache, status) are computed from the
/// result on write and checked against it on read.
template <class Io, class R>
void fields(Io& io, R& r) {
  std::string schema = kCampaignReportSchema;
  io.field("schema", schema);
  io.check(schema == kCampaignReportSchema, [&] {
    return "unknown schema '" + schema + "' (want " + kCampaignReportSchema +
           ")";
  });
  io.field("campaign", r.campaign);
  std::size_t n_jobs = r.jobs.size();
  io.field("n_jobs", n_jobs);
  io.field("n_ok", r.n_ok);
  io.field("n_failed", r.n_failed);
  io.field("wall_ms", r.wall_ms);
  CacheMatrix cache = cache_matrix(r.jobs);
  io.object("cache", [&] {
    io.field("hits", cache.hits);
    io.field("misses", cache.misses);
    io.array("matrix", cache.rows, [&](auto& row) {
      io.field("job", row.job);
      io.field("stages", row.stages);
      io.check(row.stages.size() == kNumFlowStages,
               "cache matrix row must have one entry per pipeline stage");
      for (const std::string& s : row.stages) {
        io.check(is_cache_verdict(s),
                 [&] { return "unknown cache verdict '" + s + "'"; });
      }
    });
  });
  io.array("jobs", r.jobs, [&](auto& job) {
    io.field("name", job.name);
    std::string status = job.ok ? "ok" : "error";
    io.field("status", status);
    io.check(status == "ok" || status == "error", [&] {
      return "job status must be 'ok' or 'error', got '" + status + "'";
    });
    io.field("error", job.error);
    io.field("wall_ms", job.wall_ms);
    io.field("waited_on", job.waited_on);
    io.map("artifacts", job.artifacts);
    for (const auto& [name, digest] : job.artifacts) {
      io.check(digest.size() == 16, [&] {
        return "artifact '" + name + "' digest must be 16 hex digits";
      });
    }
    io.embed("report", job.ok, job.report, flow_report_to_json,
             flow_report_from_json);
    io.check(job.ok == (status == "ok"),
             "ok jobs carry a report, failed jobs carry null");
  });
  io.check(r.jobs.size() == n_jobs, "n_jobs disagrees with the jobs array");
  io.check(cache.rows.size() == n_jobs,
           "cache matrix must have one row per job");
}

CampaignResult read_report(const JsonValue& doc) {
  JsonReader io(doc, "campaign report");
  CampaignResult r;
  fields(io, r);
  io.finish();
  return r;
}

}  // namespace

std::string campaign_report_json(const CampaignResult& r) {
  JsonWriter io;
  fields(io, r);
  return json_dump(io.take(), 2) + "\n";
}

void validate_campaign_report(const JsonValue& doc) { read_report(doc); }

CampaignResult parse_campaign_report(const std::string& json) {
  return read_report(json_parse(json));
}

}  // namespace secflow
