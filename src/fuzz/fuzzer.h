// The fuzzing campaign driver: generate -> oracle battery -> on failure,
// minimize and write a replayable reproducer into the corpus directory.
//
// Determinism contract: case i of a run is fully determined by
// (options.seed, i) — Rng::stream(seed, i) seeds the generator and the
// oracle vectors — so `fuzz --seed N --count M` is bit-reproducible, and a
// stored reproducer (`secflow.fuzz-repro/1` JSON + .v sidecar) replays to
// the identical oracle-battery digest on any machine at any thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/oracles.h"

namespace secflow {

struct FuzzOptions {
  std::uint64_t seed = 1;
  int count = 100;
  /// Every deep_every-th case also runs the flow-level deep oracles
  /// (two full secure-flow runs); 0 disables the deep tier.
  int deep_every = 10;
  std::string corpus_dir = "fuzz-corpus";
  FaultKind inject = FaultKind::kNone;
  bool stop_on_failure = true;
  /// Shrink each failure before writing it: at most 400 predicate
  /// evaluations (each re-runs the battery), 40 for a deep-tier failure.
  bool minimize = true;
  /// Oracle workload knobs (vectors/cycles/§5 bounds).
  OracleOptions oracles;
};

struct FuzzCaseResult {
  int index = 0;
  std::uint64_t design_seed = 0;
  bool ok = true;
  bool skipped = false;      ///< inject requested but not applicable
  std::string oracle;        ///< failing oracle name ("" when ok)
  std::string detail;
  std::string repro_path;    ///< corpus JSON written on failure ("" when ok)
  int minimized_lines = 0;   ///< reproducer size after shrinking
};

struct FuzzRunResult {
  std::vector<FuzzCaseResult> cases;
  int n_ok = 0;
  int n_failed = 0;
  int n_skipped = 0;
  bool all_ok() const { return n_failed == 0; }
};

/// Run a fuzzing campaign.  Failures are minimized and written to
/// opts.corpus_dir as `repro-<seed>-<index>.json` (+ `.v` sidecar).
FuzzRunResult run_fuzz(const FuzzOptions& opts);

/// Re-run a stored reproducer: parse the minimized HDL back into a
/// program with the flow's parser (parse_hdl_module), run the identical
/// battery and compare the battery digest bit-exactly against the stored
/// one.  Returns the verdict of the comparison; throws Error on a
/// malformed file.
struct ReplayResult {
  bool digest_match = false;
  bool still_fails = false;
  std::string oracle;         ///< failing oracle on replay ("" if none)
  std::uint64_t stored_digest = 0;
  std::uint64_t replayed_digest = 0;
};
ReplayResult replay_repro(const std::string& path);

/// Serialize one failing case (used by run_fuzz; exposed for tests).
std::string write_repro_json(const HdlModule& original,
                             const HdlModule& minimized,
                             const FuzzCaseResult& c, const FuzzOptions& opts,
                             std::uint64_t battery_digest);

}  // namespace secflow
