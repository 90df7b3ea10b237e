// Campaign engine: DAG-scheduled multi-flow batch runs.
//
// Executes a CampaignSpec's job set on the shared ThreadPool.  Before
// anything runs, every job's per-stage content-address chain is computed
// (flow/compute_stage_keys — the exact keys the flows themselves cache
// under), and jobs sharing a key are topologically ordered: the first
// job holding a key is its producer, every later holder waits for it and
// then loads the shared stages from the checkpoint store instead of
// recomputing them.  Jobs with disjoint chains run concurrently.  One
// failed job records an error outcome; its siblings (and even its
// dependents, which simply recompute what the producer never saved)
// complete normally.
//
// Every job's flow executes on one pool worker, where nested
// parallel_for calls run inline — so a campaign run is bit-identical to
// running each job standalone, at any SECFLOW_THREADS.  JobOutcome
// carries content digests of every produced artifact to make that
// property checkable (and cheap to diff across runs).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign/spec.h"
#include "flow/flow.h"
#include "obs/report.h"

namespace secflow {

/// What one campaign job produced.
struct JobOutcome {
  std::string name;
  bool ok = false;
  std::string error;    ///< diagnostic when !ok ("" otherwise)
  double wall_ms = 0.0;
  /// Producer jobs this one was scheduled after (checkpoint-key sharing).
  std::vector<std::string> waited_on;
  /// The job's flow report (with DPA section when the spec asked for an
  /// attack).  Meaningful only when ok.
  FlowReport report;
  /// artifact_digests() of the job's flow result: name -> 16-hex FNV
  /// digest of each artifact the flow produced (rtl.v, design.def, caps,
  /// ...), for byte-identity checks.
  std::vector<std::pair<std::string, std::string>> artifacts;

  bool operator==(const JobOutcome&) const = default;
};

struct CampaignResult {
  std::string campaign;
  double wall_ms = 0.0;
  int n_ok = 0;
  int n_failed = 0;
  std::vector<JobOutcome> jobs;  ///< spec order, one entry per spec job

  bool operator==(const CampaignResult&) const = default;
};

/// Run the whole campaign.  `library` defaults to builtin_stdcell018().
/// Throws only on spec-level errors (validate()); per-job failures are
/// isolated into their JobOutcome.
CampaignResult run_campaign(const CampaignSpec& spec,
                            std::shared_ptr<const CellLibrary> library =
                                nullptr);

}  // namespace secflow
