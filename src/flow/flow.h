// The two design flows of the paper (Fig 1).
//
// RegularFlow: logic synthesis -> place & route -> extraction, with
// ordinary single-ended standard cells.
//
// SecureFlow: the same flow with the two extra backend steps —
//   cell substitution      rtl.v -> fat.v (+ differential netlist), and
//   interconnect decomposition  fat.def -> diff.def —
// plus the verification hooks the paper lists: a logic equivalence check
// between the fat and original netlists, and a connectivity check between
// the differential netlist and the decomposed design during stream-out.
//
// Both flows run through one stage table (flow.cpp): six rows, one per
// FlowStage, each holding the stage's cache-key link, its work and its
// checkpoint format, run by one loop that owns spans, checkpointing,
// stop_after, timing and logging for every row.  The regular flow skips
// the rows flow_runs_stage() rules out.
//
// Both flows return every artifact (netlists, LEFs, DEFs, extraction,
// switched-capacitance table) so experiments can replay any stage.  The
// common artifacts live in the FlowArtifacts base — for the secure flow,
// `lef`/`def` are the stream-out (differential) library and layout — and
// SecureFlowResult adds the intermediate fat/differential artifacts.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "extract/extract.h"
#include "obs/report.h"
#include "lec/lec.h"
#include "lef/lef.h"
#include "netlist/netlist.h"
#include "pnr/check.h"
#include "pnr/decompose.h"
#include "pnr/def.h"
#include "pnr/place.h"
#include "pnr/route.h"
#include "sim/power_sim.h"
#include "sta/sta.h"
#include "synth/circuit.h"
#include "synth/techmap.h"
#include "wddl/cell_substitution.h"
#include "wddl/wddl_library.h"

namespace secflow {

/// How the flow routes the placed design.
enum class RouteMode {
  kDetailed,     ///< conflict-checked grid routing (the paper's flow)
  kQuickLShaped  ///< L-shaped, no conflict checks (scale benchmarks only)
};

/// Which of the paper's two flows (Fig 1) to run.
enum class FlowKind {
  kRegular,  ///< ordinary single-ended standard cells
  kSecure    ///< WDDL substitution + differential routing
};

/// "regular" | "secure" — the FlowReport vocabulary.
const char* flow_kind_name(FlowKind k);

/// The pipeline stages of Fig 1, in execution order.  kSubstitution and
/// kDecomposition exist only in the secure flow (flow_runs_stage); the
/// regular flow rejects them as stop points.
enum class FlowStage {
  kSynthesis = 0,
  kSubstitution,
  kPlacement,
  kRouting,
  kDecomposition,
  kExtraction,
};
inline constexpr int kNumFlowStages = 6;

/// Stage name ("synthesis", ...) — also the checkpoint file prefix.
const char* flow_stage_name(FlowStage s);

/// Whether a flow of `kind` runs stage `s`: the secure flow runs all six,
/// the regular flow all but kSubstitution and kDecomposition.
bool flow_runs_stage(FlowKind kind, FlowStage s);

/// What the stage-artifact cache did for one stage of one run.
enum class CacheOutcome {
  kNotRun,    ///< stage never executed (stopped earlier, or N/A to the flow)
  kDisabled,  ///< executed with no cache_dir configured
  kMiss,      ///< executed and its artifact saved to the cache
  kHit,       ///< artifact deserialized from the cache; stage skipped
};

/// "not-run", "off", "miss", "hit" — the FlowReport vocabulary.
const char* cache_outcome_name(CacheOutcome c);

struct FlowOptions {
  SynthConstraints synth;
  PlaceOptions place;        ///< paper defaults: aspect 1, fill 80 %
  RouteOptions route;
  ExtractOptions extract;
  RouteMode route_mode = RouteMode::kDetailed;
  /// The paper's "shielded lines" strengthening option: route fat wires at
  /// triple width/pitch and emit a grounded shield wire beside every
  /// differential pair during decomposition (costs silicon area).
  bool shielded_pairs = false;

  /// Stage-artifact checkpoint directory.  Non-empty enables per-stage
  /// caching: each stage's cache key hashes the upstream chain plus its own
  /// options, a hit deserializes the stage's artifacts and skips the work,
  /// a miss computes and saves them.  Empty disables checkpointing.
  std::string cache_dir;
  /// Last stage to execute; the flow returns after checkpointing it.
  /// Artifacts of later stages stay default-initialized — check
  /// FlowArtifacts::completed_through before using them.
  std::optional<FlowStage> stop_after;

  /// Reject inconsistent combinations with a descriptive Error before the
  /// flow spends minutes producing a silently wrong artifact.  Called by
  /// run_regular_flow / run_secure_flow.  Throws every violation of
  /// flow_options_violations() in one Error.
  void validate() const;
};

/// Every rule `o` breaks, one line each, naming the knob by its dotted
/// path (flow/knobs.h): a knob outside its range ("place.sa_batch must be
/// >= 1") or an inconsistent combination.  Empty when `o` is valid.
std::vector<std::string> flow_options_violations(const FlowOptions& o);

/// The per-stage content-address chain a run of `kind` on this
/// circuit/library/options would use, without running anything: keys[s] is
/// the cache key stage `s` files its checkpoint under (0 for stages the
/// kind never runs, see flow_runs_stage).
/// stop_after is ignored: the chain addresses content, not control flow.
/// run_regular_flow / run_secure_flow use this exact function for their
/// cache lookups, so two option sets agreeing on a key prefix are
/// guaranteed to share those stages' checkpoints — the campaign
/// scheduler's dependency analysis is built on that guarantee.
std::array<std::uint64_t, kNumFlowStages> compute_stage_keys(
    FlowKind kind, const AigCircuit& circuit, const CellLibrary& library,
    const FlowOptions& opts);

/// Per-stage wall time, cache verdict, cache key and checkpoint digests of
/// one run; every array is indexed by FlowStage, and a stage that never ran
/// keeps 0 ms, CacheOutcome::kNotRun, key 0 and no digests.
struct StageTimings {
  /// Wall time per stage in ms.  On a kHit it measures deserialization,
  /// not computation.
  std::array<double, kNumFlowStages> ms{};
  /// Per-stage cache verdict.
  std::array<CacheOutcome, kNumFlowStages> cache{};
  /// Per-stage cache keys — the content addresses the checkpoint files
  /// live under.
  std::array<std::uint64_t, kNumFlowStages> cache_key{};
  /// FNV-1a digest of every section of the checkpoint a stage loaded (kHit)
  /// or saved (kMiss), by section name in checkpoint order, taken while
  /// the run held the bytes.  Empty for a stage that ran without a store.
  std::array<std::vector<std::pair<std::string, std::uint64_t>>,
             kNumFlowStages>
      section_digests{};

  double total_ms() const;
  double stage_ms(FlowStage s) const {
    return ms[static_cast<std::size_t>(s)];
  }
  CacheOutcome outcome(FlowStage s) const {
    return cache[static_cast<std::size_t>(s)];
  }
  std::uint64_t key(FlowStage s) const {
    return cache_key[static_cast<std::size_t>(s)];
  }
  int cache_hits() const;
  int cache_misses() const;
};

/// Artifacts common to both flows.  For the regular flow these are the
/// only artifacts; for the secure flow `lef`/`def`/`extraction`/`caps`
/// describe the final (differential) layout.
struct FlowArtifacts {
  Netlist rtl;          ///< single-ended mapped netlist
  LefLibrary lef;       ///< physical library of the final layout
  DefDesign def;        ///< the final placed-and-routed layout
  RouteStats route_stats;
  Extraction extraction;
  CapTable caps;        ///< switched-capacitance table for the simulator
  StageTimings timings;
  TimingReport timing;  ///< STA on the extracted design
  /// Last stage that actually produced artifacts (kExtraction for a full
  /// run; earlier under FlowOptions::stop_after — later members are then
  /// default-initialized placeholders).
  FlowStage completed_through = FlowStage::kExtraction;

  double die_area_um2() const { return def.die_area_um2(); }
};

struct RegularFlowResult : FlowArtifacts {};

struct SecureFlowResult : FlowArtifacts {
  // Base members for the secure flow: `lef` is diff_lib.lef, `def` is
  // diff.def (the layout), `extraction`/`caps` are on the differential
  // netlist, and `timing` is STA on it.  WDDL evaluates in the first half
  // cycle (masters capture at the falling edge), so the critical delay
  // must fit period/2; run_secure_flow throws when it does not.
  //
  // `wlib` is null when the substitution stage was loaded from cache: the
  // fat netlist then carries a deserialized fat library
  // (fat.library_ptr()) instead of a live compound inventory.
  std::shared_ptr<WddlLibrary> wlib;
  Netlist fat;                       ///< fat.v
  Netlist diff;                      ///< differential netlist
  LefLibrary fat_lef;                ///< fat_lib.lef
  DefDesign fat_def;                 ///< fat.def
  SubstitutionStats sub_stats;
  LecResult lec;                     ///< fat.v == rtl.v
  CheckResult stream_out_check;      ///< diff netlist == diff.def wiring
};

/// Compile the simulate-many power model for a finished flow: the attacked
/// netlist (rtl for the regular flow, the differential netlist for the
/// secure flow — with WDDL input precharge forced on) plus its extracted
/// cap table.  The model borrows the result's netlist, so the flow result
/// must outlive it.  Build once, then share across simulate_traces /
/// run_des_dpa_campaign / DFA sweeps.
CompiledSimModel compile_power_model(const RegularFlowResult& result,
                                     PowerSimOptions opts = {});
CompiledSimModel compile_power_model(const SecureFlowResult& result,
                                     PowerSimOptions opts = {});

/// Run the regular (reference) flow on an elaborated circuit.
RegularFlowResult run_regular_flow(const AigCircuit& circuit,
                                   std::shared_ptr<const CellLibrary> library,
                                   const FlowOptions& opts = {});

/// Run the secure flow.  Throws Error if a verification step fails.
SecureFlowResult run_secure_flow(const AigCircuit& circuit,
                                 std::shared_ptr<const CellLibrary> library,
                                 const FlowOptions& opts = {});

/// The synthesis gate whitelist for WDDL designs (cells with compound
/// counterparts; XOR/XNOR allowed — their compounds exist — but INV-heavy
/// mapping is discouraged since inverters dissolve into rail swaps).
SynthConstraints wddl_synth_constraints();

/// name -> 16-hex FNV-1a digest of the serialized bytes of every artifact a
/// flow produced (rtl.v, design.def, caps, ...), bounded by
/// FlowArtifacts::completed_through, for byte-identity checks.  A stage
/// that ran against a store kept the digests of its checkpoint sections
/// (StageTimings::section_digests), and its artifacts read them; the LEF
/// libraries, which are never checkpointed, and every artifact of a run
/// without a store are serialized here.  Both give the same value, since
/// a checkpoint section is the artifact's serialization.
std::vector<std::pair<std::string, std::string>> artifact_digests(
    const RegularFlowResult& r);
std::vector<std::pair<std::string, std::string>> artifact_digests(
    const SecureFlowResult& r);

/// Human-readable one-design flow report (areas, cells, wirelength).  The
/// SecureFlowResult overload appends the secure-only artifacts and
/// verification verdicts.
std::string flow_report(const FlowArtifacts& r);
std::string flow_report(const SecureFlowResult& r);

/// Machine-readable counterpart of flow_report(): per-stage timings with
/// cache outcomes/keys, route/timing statistics and (secure overload) the
/// verification verdicts, as an obs/report.h FlowReport.  Callers attach
/// DPA results (sca/dpa_experiment.h) and a metrics snapshot before
/// serializing with flow_report_json().
FlowReport build_flow_report(const RegularFlowResult& r);
FlowReport build_flow_report(const SecureFlowResult& r);

}  // namespace secflow
