// Campaign specification: N flow jobs declared in one JSON document.
//
// A campaign is the paper's experimental unit scaled up — Fig 6 is a
// regular-vs-secure comparison, a security-closure sweep is the same
// design across option variants and seeds.  The spec declares the job
// set (circuit × flow kind × seed × option overrides); the engine
// (campaign.h) schedules it so jobs sharing a checkpoint-key prefix
// compute shared stages once.
//
// Schema "secflow.campaign/1":
//
//   {
//     "schema": "secflow.campaign/1",
//     "name": "regular-vs-secure",
//     "cache_dir": "ckpt",               // optional; enables stage sharing
//     "threads": 0,                      // optional; concurrent jobs, 0 = auto
//     "jobs": [
//       {
//         "name": "des-secure",          // optional; default "job<N>"
//         "circuit": {"builtin": "des-dpa"},   // or {"hdl": "module ..."}
//                                              // or {"file": "path.v"}
//         "flow": "secure",              // "regular" | "secure"
//         "seed": 1,                     // optional; DPA measurement seed
//         "dpa": {"n_measurements": 400, "noise_ma": 0.0,
//                 "select_bit": 2, "sbox": 1, "key": 46},   // optional
//         "options": {                   // optional; stop_after and any
//           "stop_after": "routing",     //   knob of flow/knobs.h, nested
//           "route_mode": "quick",       //   as its dotted path
//           "synth":   {"max_cut_size": 4},
//           "place":   {"seed": 3, "fill_factor": 0.7},
//           "route":   {"via_cost": 4, "skip_nets": ["clk"]},
//           "extract": {"variation_sigma": 0.05,
//                       "process": {"wire_c_couple_ff_per_um": 0.09}}
//         }
//       }
//     ]
//   }
//
// The spec is read through obs/json_fields.h's JsonReader: unknown
// members, wrong types and inconsistent combinations are rejected, and
// ALL problems are collected into one Error (one line per violation,
// naming its member path or job) so a bad spec is fixed in one pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "flow/flow.h"
#include "sca/dpa_experiment.h"

namespace secflow {

inline constexpr const char* kCampaignSpecSchema = "secflow.campaign/1";

/// Where a job's circuit comes from.  The campaign elaborates each distinct
/// source once, before any job runs; a bad HDL file fails the jobs that
/// name it, not the campaign.
enum class CircuitSourceKind {
  kBuiltinDesDpa,  ///< make_des_dpa_circuit() — the paper's Fig 4 module
  kHdlText,        ///< inline mini-HDL in the spec
  kHdlFile,        ///< path to a mini-HDL file
};

struct CircuitSource {
  CircuitSourceKind kind = CircuitSourceKind::kBuiltinDesDpa;
  std::string text;  ///< HDL source or file path ("" for builtins)
};

struct CampaignJob {
  std::string name;
  CircuitSource circuit;
  FlowKind flow = FlowKind::kSecure;
  bool has_dpa = false;
  /// The DPA attack (paper section 3 defaults).  Its seed, the spec's
  /// job-level "seed", feeds the measurement RNG streams only; layout
  /// seeds are option overrides (place.seed / extract.seed) because they
  /// change artifacts and therefore cache keys, and this one never does.
  DesDpaSetup dpa;
  /// Flow options after applying the spec's overrides.  cache_dir is
  /// engine-owned (the spec's shared store) and not override-able.
  FlowOptions options;
};

struct CampaignSpec {
  std::string name;
  /// Checkpoint directory shared by every job ("" disables sharing).
  std::string cache_dir;
  /// Jobs running concurrently (0 = auto: SECFLOW_THREADS / hardware).
  int threads = 0;
  std::vector<CampaignJob> jobs;

  /// Re-check invariants (job names unique, DPA needs extraction, every
  /// job's FlowOptions valid).  Collects all violations into one Error.
  /// parse_campaign_spec has already called this.
  void validate() const;
};

/// Parse and validate a spec document.  Throws ParseError on malformed
/// JSON; throws Error listing every schema/consistency violation at once.
CampaignSpec parse_campaign_spec(const std::string& json_text);

}  // namespace secflow
