#include "flow/flow.h"

#include <charconv>
#include <chrono>
#include <sstream>
#include <utility>
#include <vector>

#include "base/error.h"
#include "ckpt/fingerprint.h"
#include "ckpt/hash.h"
#include "ckpt/serialize.h"
#include "ckpt/store.h"
#include "flow/knobs.h"
#include "lef/lef_io.h"
#include "netlist/netlist_ops.h"
#include "netlist/verilog_parser.h"
#include "netlist/verilog_writer.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace secflow {
namespace {

/// The options a run of `kind` actually uses: the secure flow synthesizes
/// to the WDDL gate whitelist unless the caller restricted the cells
/// itself, under the caller's cut limits either way.
FlowOptions resolve_options(FlowKind kind, const FlowOptions& opts) {
  FlowOptions o = opts;
  if (kind == FlowKind::kSecure && o.synth.allowed_cells.empty())
    o.synth.allowed_cells = wddl_synth_constraints().allowed_cells;
  return o;
}

std::size_t stage_idx(FlowStage s) { return static_cast<std::size_t>(s); }

/// Folds a knob list (flow/knobs.h) into a hash in list order: numbers,
/// bools and names as they are, a choice as its enum value, a nested
/// struct as its own digest.
struct KnobHasher {
  Hasher h;

  template <class T, class... Range>
  void knob(const char*, const T& v, const Range&...) {
    h.add(v);
  }
  void knob(const char*, const std::vector<std::string>& names) {
    h.add(static_cast<std::uint64_t>(names.size()));
    for (const std::string& n : names) h.add(n);
  }
  template <class E, std::size_t N>
  void choice(const char*, const E& v, const KnobChoice<E> (&)[N]) {
    h.add(static_cast<int>(v));
  }
  template <class S>
  void group(const char*, const S& s) {
    KnobHasher sub;
    knobs(sub, s);
    h.add(sub.h.digest());
  }
};

template <class S>
std::uint64_t knob_digest(const S& s) {
  KnobHasher v;
  knobs(v, s);
  return v.h.digest();
}

/// `v` in the shorter of its fixed and exponent spellings: 0.5, 16, 1e-3,
/// 1e6.
std::string bound_text(double v) {
  char buf[64];
  const auto spell = [&](std::chars_format fmt) {
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v, fmt).ptr);
  };
  const std::string fixed = spell(std::chars_format::fixed);
  std::string e = spell(std::chars_format::scientific);  // "1e+06", "1e-03"
  const std::size_t x = e.find('e') + 1;
  e = e.substr(0, x) + std::to_string(std::stoi(e.substr(x)));
  return e.size() < fixed.size() ? e : fixed;
}

/// Records every knob outside its range as `<dotted path> must be
/// <range>`; builds no string for a knob inside it.
struct KnobRangeCheck {
  std::vector<std::string>& violations;
  const KnobRangeCheck* parent = nullptr;
  const char* name = nullptr;  ///< of this group in `parent`

  std::string path(const char* key) const {
    return parent == nullptr ? key : parent->path(name) + "." + key;
  }

  template <class T>
  void knob(const char*, const T&) {}
  template <class T>
  void knob(const char* key, const T& v, KnobRange r) {
    if (!r.contains(static_cast<double>(v))) reject(key, r);
  }
  void reject(const char* key, KnobRange r) {
    std::string range =
        r.hi == std::numeric_limits<double>::infinity()
            ? (r.lo_open ? "> " : ">= ") + bound_text(r.lo)
            : std::string("in ") + (r.lo_open ? "(" : "[") +
                  bound_text(r.lo) + ", " + bound_text(r.hi) + "]";
    violations.push_back(path(key) + " must be " + range + r.unit);
  }
  template <class E, std::size_t N>
  void choice(const char*, const E&, const KnobChoice<E> (&)[N]) {}
  template <class S>
  void group(const char* key, const S& s) {
    KnobRangeCheck sub{violations, this, key};
    knobs(sub, s);
  }
};

/// One run's artifacts.  Each stage reads what the stages before it left
/// here and fills in its own members; members of stages that never ran
/// stay empty.
struct FlowRun {
  FlowRun(FlowKind kind, const AigCircuit& circuit,
          std::shared_ptr<const CellLibrary> library, FlowOptions o)
      : kind(kind), circuit(circuit), library(std::move(library)),
        o(std::move(o)) {}

  FlowKind kind;
  const AigCircuit& circuit;
  std::shared_ptr<const CellLibrary> library;
  FlowOptions o;  ///< resolve_options() of the caller's options

  StageTimings t;
  std::optional<Netlist> rtl;
  std::shared_ptr<WddlLibrary> wlib;
  std::optional<Netlist> fat;
  std::optional<Netlist> diff;
  SubstitutionStats sub_stats;
  LecResult lec;
  LefLibrary lef;                ///< library of placed(): rtl's, or fat_lib.lef
  DefDesign def;                 ///< placed, then routed (fat.def if secure)
  RouteStats rs;
  LefLibrary diff_lef;
  DefDesign diff_def;
  CheckResult stream_check;
  Extraction ex;
  CapTable caps;
  TimingReport timing;

  bool secure() const { return kind == FlowKind::kSecure; }
  /// The netlist placement and routing work on: rtl.v, or fat.v.
  const Netlist& placed() const { return secure() ? *fat : *rtl; }
};

/// One pipeline stage: the single place its cache-key link, its work and
/// its checkpoint format are written down.  run_stages owns everything
/// else a stage does — span, checkpoint lookup and save, stop_after, wall
/// time and log line.
struct StageRow {
  FlowStage stage;
  /// Folds the options this stage's artifact depends on into its key;
  /// compute_stage_keys has already added the upstream key and the name.
  void (*key)(Hasher& h, const FlowOptions& o, FlowKind kind);
  /// Builds inputs that are never checkpointed (the LEF libraries), on a
  /// hit as on a miss; null when there are none.
  void (*prepare)(FlowRun& r) = nullptr;
  void (*compute)(FlowRun& r);
  /// Checkpoint serializer and parser (a hit calls load instead of compute).
  void (*save)(const FlowRun& r, Artifact& a);
  void (*load)(FlowRun& r, const Artifact& a);
};

/// Fig 1 in execution order.  The regular flow runs the rows for which
/// flow_runs_stage() holds: all but substitution and decomposition.
const StageRow kStages[] = {
    // Logic synthesis -> rtl.v (restricted to WDDL-supported gates in the
    // secure flow, see resolve_options).
    {.stage = FlowStage::kSynthesis,
     .key = [](Hasher& h, const FlowOptions& o, FlowKind) {
       h.add(knob_digest(o.synth));
     },
     .compute = [](FlowRun& r) {
       r.rtl = technology_map(r.circuit, r.library, r.o.synth);
       r.rtl->validate();
     },
     .save = [](const FlowRun& r, Artifact& a) {
       a.add("rtl.v", write_verilog(*r.rtl));
     },
     .load = [](FlowRun& r, const Artifact& a) {
       r.rtl = parse_verilog(a.section("rtl.v"), r.library);
     }},

    // Cell substitution: rtl.v -> fat.v + differential netlist, verified
    // equivalent (LEC) before anything downstream consumes it.  The artifact
    // carries the fat cell library too, so a hit can reparse fat.v without
    // regenerating the compound inventory.
    {.stage = FlowStage::kSubstitution,
     .key = [](Hasher&, const FlowOptions&, FlowKind) {},
     .compute = [](FlowRun& r) {
       r.wlib = std::make_shared<WddlLibrary>(r.library);
       SubstitutionResult sub = substitute_cells(*r.rtl, *r.wlib);
       r.fat = std::move(sub.fat);
       r.sub_stats = sub.stats;
       r.diff = expand_differential(*r.fat, *r.wlib);
       r.lec = check_equivalence(*r.rtl, *r.fat);
       SECFLOW_CHECK(r.lec.equivalent,
                     "secure flow LEC failed: " +
                         (r.lec.mismatches.empty()
                              ? std::string("?")
                              : r.lec.mismatches[0].what));
     },
     .save = [](const FlowRun& r, Artifact& a) {
       a.add("fat_lib", write_cell_library(r.fat->library()));
       a.add("fat.v", write_verilog(*r.fat));
       a.add("diff.v", write_verilog(*r.diff));
       a.add("stats", write_substitution_stats(r.sub_stats));
       a.add("lec", write_lec_result(r.lec));
     },
     .load = [](FlowRun& r, const Artifact& a) {
       std::shared_ptr<const CellLibrary> fat_lib =
           std::make_shared<CellLibrary>(
               parse_cell_library(a.section("fat_lib")));
       r.fat = parse_verilog(a.section("fat.v"), fat_lib);
       r.diff = parse_verilog(a.section("diff.v"), r.library);
       r.sub_stats = parse_substitution_stats(a.section("stats"));
       r.lec = parse_lec_result(a.section("lec"));
     }},

    // Placement.  The secure flow places fat cells: doubled pitch and
    // width — tripled with shielded pairs, reserving a third track for the
    // shield wire.
    {.stage = FlowStage::kPlacement,
     .key = [](Hasher& h, const FlowOptions& o, FlowKind kind) {
       // The LEF generator reads only the wire pitch and width.
       const Process018& pr = o.extract.process;
       h.add(knob_digest(o.place)).add(pr.wire_pitch_um).add(pr.wire_width_um);
       if (kind == FlowKind::kSecure) h.add(o.shielded_pairs);
     },
     .prepare = [](FlowRun& r) {
       LefGenOptions gen{r.o.extract.process};
       if (r.secure()) gen.wire_scale = r.o.shielded_pairs ? 3.0 : 2.0;
       r.lef = generate_lef(r.placed().library(), gen);
     },
     .compute = [](FlowRun& r) {
       r.def = place_design(r.placed(), r.lef, r.o.place);
     },
     .save = [](const FlowRun& r, Artifact& a) {
       a.add("placed.def", write_def(r.def));
     },
     .load = [](FlowRun& r, const Artifact& a) {
       r.def = parse_def(a.section("placed.def"));
     }},

    // Routing (fat routing in the secure flow).
    {.stage = FlowStage::kRouting,
     .key = [](Hasher& h, const FlowOptions& o, FlowKind) {
       h.add(knob_digest(o.route)).add(static_cast<int>(o.route_mode));
     },
     .compute = [](FlowRun& r) {
       r.rs = r.o.route_mode == RouteMode::kQuickLShaped
                  ? route_design_quick(r.placed(), r.lef, r.def)
                  : route_design(r.placed(), r.lef, r.def, r.o.route);
     },
     .save = [](const FlowRun& r, Artifact& a) {
       a.add("routed.def", write_def(r.def));
       a.add("route_stats", write_route_stats(r.rs));
     },
     .load = [](FlowRun& r, const Artifact& a) {
       r.def = parse_def(a.section("routed.def"));
       r.rs = parse_route_stats(a.section("route_stats"));
     }},

    // Interconnect decomposition fat.def -> diff.def, plus stream-out
    // verification against the differential library (the re-verified
    // results ride in the checkpoint).
    {.stage = FlowStage::kDecomposition,
     .key = [](Hasher& h, const FlowOptions& o, FlowKind) {
       const Process018& pr = o.extract.process;
       h.add(pr.wire_pitch_um).add(pr.wire_width_um).add(o.shielded_pairs);
     },
     .prepare = [](FlowRun& r) {
       const Process018& pr = r.o.extract.process;
       r.diff_lef = make_diff_lef(r.lef, pr.wire_pitch_um, pr.wire_width_um);
     },
     .compute = [](FlowRun& r) {
       const Process018& pr = r.o.extract.process;
       DecomposeOptions dopts;
       dopts.add_shields = r.o.shielded_pairs;
       if (const NetId clk = r.fat->clock_net(); clk.valid()) {
         dopts.single_ended_nets.push_back(r.fat->net(clk).name);
       }
       r.diff_def = decompose_interconnect(r.def, um_to_dbu(pr.wire_pitch_um),
                                          um_to_dbu(pr.wire_width_um), dopts);

       // Stream-out verification (the paper's "importing the differential
       // gate level netlist" check): rail symmetry plus per-rail pin
       // connectivity against the differential LEF.
       r.stream_check = check_differential_symmetry(
           r.diff_def, um_to_dbu(pr.wire_pitch_um));
       SECFLOW_CHECK(r.stream_check.ok, "decomposition symmetry check failed");
       const CheckResult rail_check = check_stream_out(
           *r.fat, r.diff_lef, r.diff_def, 5 * r.lef.track_pitch_dbu());
       SECFLOW_CHECK(rail_check.ok,
                     "stream-out rail connectivity check failed: " +
                         (rail_check.issues.empty()
                              ? std::string("?")
                              : rail_check.issues[0].net + " " +
                                    rail_check.issues[0].what));
       r.stream_check.nets_checked += rail_check.nets_checked;
       r.stream_check.pins_checked += rail_check.pins_checked;
     },
     .save = [](const FlowRun& r, Artifact& a) {
       a.add("diff.def", write_def(r.diff_def));
       a.add("stream_check", write_check_result(r.stream_check));
     },
     .load = [](FlowRun& r, const Artifact& a) {
       r.diff_def = parse_def(a.section("diff.def"));
       r.stream_check = parse_check_result(a.section("stream_check"));
     }},

    // Extraction + switched-cap table + STA on the final layout (the
    // differential one in the secure flow).
    {.stage = FlowStage::kExtraction,
     .key = [](Hasher& h, const FlowOptions& o, FlowKind) {
       h.add(knob_digest(o.extract));
     },
     .compute = [](FlowRun& r) {
       const Netlist& nl = r.secure() ? *r.diff : *r.rtl;
       r.ex = extract_parasitics(r.secure() ? r.diff_def : r.def, nl,
                                 r.o.extract);
       r.caps = build_cap_table(nl, r.ex);
       r.timing = analyze_timing(nl, r.caps);
     },
     .save = [](const FlowRun& r, Artifact& a) {
       a.add("extraction", write_extraction(r.ex));
       a.add("caps", write_cap_table(r.caps));
       a.add("timing", write_timing_report(r.timing));
     },
     .load = [](FlowRun& r, const Artifact& a) {
       r.ex = parse_extraction(a.section("extraction"));
       r.caps = parse_cap_table(a.section("caps"));
       r.timing = parse_timing_report(a.section("timing"));
     }},
};

/// One artifact that artifact_digests() reports for a result of type R.
/// The row applies to a run that completed `stage` and stopped no later
/// than `last`.
template <class R>
struct ArtifactRow {
  const char* name;
  FlowStage stage;
  /// The section of `stage`'s checkpoint that holds the artifact's bytes;
  /// null for a LEF library, which is never checkpointed.
  const char* section;
  /// The artifact's bytes, for a run that kept no digest of them.
  std::string (*write)(const R& r);
  FlowStage last = FlowStage::kExtraction;
};

// The artifacts of each flow kind in report order.  Routing rewrites the
// placed layout in place, so placed.def is the layout only of a run that
// stopped after placement.

const ArtifactRow<RegularFlowResult> kRegularArtifacts[] = {
    {"rtl.v", FlowStage::kSynthesis, "rtl.v",
     [](const auto& r) { return write_verilog(r.rtl); }},
    {"lib.lef", FlowStage::kPlacement, nullptr,
     [](const auto& r) { return write_lef(r.lef); }},
    {"design.def", FlowStage::kPlacement, "placed.def",
     [](const auto& r) { return write_def(r.def); }, FlowStage::kPlacement},
    {"design.def", FlowStage::kRouting, "routed.def",
     [](const auto& r) { return write_def(r.def); }},
    {"route_stats", FlowStage::kRouting, "route_stats",
     [](const auto& r) { return write_route_stats(r.route_stats); }},
    {"extraction", FlowStage::kExtraction, "extraction",
     [](const auto& r) { return write_extraction(r.extraction); }},
    {"caps", FlowStage::kExtraction, "caps",
     [](const auto& r) { return write_cap_table(r.caps); }},
    {"timing", FlowStage::kExtraction, "timing",
     [](const auto& r) { return write_timing_report(r.timing); }},
};

const ArtifactRow<SecureFlowResult> kSecureArtifacts[] = {
    {"rtl.v", FlowStage::kSynthesis, "rtl.v",
     [](const auto& r) { return write_verilog(r.rtl); }},
    {"fat.v", FlowStage::kSubstitution, "fat.v",
     [](const auto& r) { return write_verilog(r.fat); }},
    {"diff.v", FlowStage::kSubstitution, "diff.v",
     [](const auto& r) { return write_verilog(r.diff); }},
    {"fat_lib.lef", FlowStage::kPlacement, nullptr,
     [](const auto& r) { return write_lef(r.fat_lef); }},
    {"fat.def", FlowStage::kPlacement, "placed.def",
     [](const auto& r) { return write_def(r.fat_def); },
     FlowStage::kPlacement},
    {"fat.def", FlowStage::kRouting, "routed.def",
     [](const auto& r) { return write_def(r.fat_def); }},
    {"route_stats", FlowStage::kRouting, "route_stats",
     [](const auto& r) { return write_route_stats(r.route_stats); }},
    {"diff_lib.lef", FlowStage::kDecomposition, nullptr,
     [](const auto& r) { return write_lef(r.lef); }},
    {"diff.def", FlowStage::kDecomposition, "diff.def",
     [](const auto& r) { return write_def(r.def); }},
    {"extraction", FlowStage::kExtraction, "extraction",
     [](const auto& r) { return write_extraction(r.extraction); }},
    {"caps", FlowStage::kExtraction, "caps",
     [](const auto& r) { return write_cap_table(r.caps); }},
    {"timing", FlowStage::kExtraction, "timing",
     [](const auto& r) { return write_timing_report(r.timing); }},
};

/// The FNV-1a digest of every section of a checkpoint.
std::vector<std::pair<std::string, std::uint64_t>> digest_sections(
    const Artifact& a) {
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  digests.reserve(a.sections.size());
  for (const auto& [name, bytes] : a.sections) {
    digests.emplace_back(name, fnv1a(bytes));
  }
  return digests;
}

/// The digest of one artifact of `r`: the one its stage kept of the
/// checkpoint section, or, when the stage kept none, that of the
/// artifact serialized now.
template <class R>
std::uint64_t artifact_digest(const R& r, const ArtifactRow<R>& row) {
  const auto& kept = r.timings.section_digests[stage_idx(row.stage)];
  if (row.section == nullptr || kept.empty()) return fnv1a(row.write(r));
  for (const auto& [section, digest] : kept) {
    if (section == row.section) return digest;
  }
  throw Error(std::string("artifact_digests: the ") +
              flow_stage_name(row.stage) + " checkpoint has no section " +
              row.section);
}

template <class R, std::size_t N>
std::vector<std::pair<std::string, std::string>> digest_artifacts(
    const R& r, const ArtifactRow<R> (&rows)[N]) {
  const int through = static_cast<int>(r.completed_through);
  std::vector<std::pair<std::string, std::string>> digests;
  for (const ArtifactRow<R>& row : rows) {
    if (through < static_cast<int>(row.stage) ||
        through > static_cast<int>(row.last)) {
      continue;
    }
    digests.emplace_back(row.name, hash_hex(artifact_digest(r, row)));
  }
  return digests;
}

/// Runs the kStages rows `kind` runs, in order, and owns what every stage
/// shares: the flow and stage spans, the checkpoint lookup (a hit loads, a
/// miss computes and saves), stop_after, the per-stage wall time and the
/// log lines.
FlowRun run_stages(FlowKind kind, const AigCircuit& circuit,
                   std::shared_ptr<const CellLibrary> library,
                   const FlowOptions& opts) {
  opts.validate();
  const std::optional<FlowStage>& stop = opts.stop_after;
  SECFLOW_CHECK(
      !stop || flow_runs_stage(kind, *stop),
      std::string("FlowOptions: stop_after = ") + flow_stage_name(*stop) +
          " names a secure-only stage; the regular flow does not run it");

  FlowRun r(kind, circuit, std::move(library), resolve_options(kind, opts));
  const FlowOptions& o = r.o;
  StageTimings& t = r.t;
  std::optional<ArtifactStore> store;
  if (!o.cache_dir.empty()) store.emplace(o.cache_dir);

  const std::string flow_name = std::string("flow.") + flow_kind_name(kind);
  Span flow_span(flow_name.c_str(), "flow");
  flow_span.arg("design", circuit.name);
  SECFLOW_LOG_INFO("flow", std::string(flow_kind_name(kind)) + " flow start",
                   LogField("design", circuit.name));

  // Cache-key chain: every stage key hashes the full upstream chain, so a
  // changed early input re-keys (and re-runs) everything downstream while
  // an unchanged prefix keeps hitting.  compute_stage_keys is the single
  // source of truth for the chain (the campaign scheduler keys off it too).
  const auto keys = compute_stage_keys(kind, circuit, *r.library, o);

  for (const StageRow& row : kStages) {
    if (!flow_runs_stage(kind, row.stage)) continue;
    const auto start = std::chrono::steady_clock::now();
    const std::size_t i = stage_idx(row.stage);
    const char* name = flow_stage_name(row.stage);
    const std::string span_name = std::string("flow.") + name;
    Span span(span_name.c_str(), "flow");
    if (row.prepare != nullptr) row.prepare(r);

    // A checkpoint's bytes are digested while they are at hand, so
    // artifact_digests() need not serialize the artifacts again.
    t.cache_key[i] = keys[i];
    std::optional<Artifact> hit;
    if (store) hit = store->load(name, keys[i]);
    if (hit) {
      t.cache[i] = CacheOutcome::kHit;
      row.load(r, *hit);
      t.section_digests[i] = digest_sections(*hit);
    } else {
      t.cache[i] = store ? CacheOutcome::kMiss : CacheOutcome::kDisabled;
      row.compute(r);
      // Serialize only when the store keeps the result.
      if (store) {
        Artifact a(name, keys[i]);
        row.save(r, a);
        store->save(a);
        t.section_digests[i] = digest_sections(a);
      }
    }

    t.ms[i] = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    const char* outcome = cache_outcome_name(t.cache[i]);
    span.arg("cache", outcome);
    if (keys[i] != 0) span.arg("key", hash_hex(keys[i]));
    SECFLOW_LOG_INFO("flow", "stage done", LogField("stage", name),
                     LogField("ms", t.ms[i]), LogField("cache", outcome));
    if (o.stop_after == row.stage) break;
  }
  return r;
}

Netlist take_netlist(std::optional<Netlist>&& n,
                     const std::shared_ptr<const CellLibrary>& lib) {
  return n ? std::move(*n) : Netlist("(not run)", lib);
}

/// The FlowArtifacts base of a finished run, with `lef`/`def` as its final
/// layout.
FlowArtifacts take_artifacts(FlowRun& r, LefLibrary& lef, DefDesign& def) {
  return {std::move(*r.rtl),
          std::move(lef),
          std::move(def),
          r.rs,
          std::move(r.ex),
          std::move(r.caps),
          std::move(r.t),
          std::move(r.timing),
          r.o.stop_after.value_or(FlowStage::kExtraction)};
}

void append_common(std::ostringstream& os, const FlowArtifacts& r) {
  os << "  die:         " << r.die_area_um2() << " um^2\n";
  os << "  wirelength:  " << dbu_to_um(r.def.total_wirelength()) << " um, "
     << r.def.total_vias() << " vias\n";
  os << "  runtime:     " << r.timings.total_ms() << " ms\n";
  if (r.timings.cache_hits() > 0) {
    os << "  checkpoints: " << r.timings.cache_hits() << " stage(s) loaded, "
       << r.timings.cache_misses() << " computed\n";
  }
}

}  // namespace

const char* flow_kind_name(FlowKind k) {
  switch (k) {
    case FlowKind::kRegular: return "regular";
    case FlowKind::kSecure: return "secure";
  }
  return "?";
}

const char* flow_stage_name(FlowStage s) {
  switch (s) {
    case FlowStage::kSynthesis: return "synthesis";
    case FlowStage::kSubstitution: return "substitution";
    case FlowStage::kPlacement: return "placement";
    case FlowStage::kRouting: return "routing";
    case FlowStage::kDecomposition: return "decomposition";
    case FlowStage::kExtraction: return "extraction";
  }
  return "?";
}

bool flow_runs_stage(FlowKind kind, FlowStage s) {
  return kind == FlowKind::kSecure ||
         (s != FlowStage::kSubstitution && s != FlowStage::kDecomposition);
}

const char* cache_outcome_name(CacheOutcome c) {
  switch (c) {
    case CacheOutcome::kNotRun: return "not-run";
    case CacheOutcome::kDisabled: return "off";
    case CacheOutcome::kMiss: return "miss";
    case CacheOutcome::kHit: return "hit";
  }
  return "?";
}

double StageTimings::total_ms() const {
  double sum = 0.0;
  for (const double m : ms) sum += m;
  return sum;
}

int StageTimings::cache_hits() const {
  int n = 0;
  for (const CacheOutcome c : cache) n += (c == CacheOutcome::kHit) ? 1 : 0;
  return n;
}

int StageTimings::cache_misses() const {
  int n = 0;
  for (const CacheOutcome c : cache) n += (c == CacheOutcome::kMiss) ? 1 : 0;
  return n;
}

std::vector<std::string> flow_options_violations(const FlowOptions& o) {
  // The single-knob ranges live in the knob lists (flow/knobs.h).
  std::vector<std::string> violations;
  KnobRangeCheck ranges{violations};
  knobs(ranges, o);
  const auto require = [&violations](bool ok, const char* msg) {
    if (!ok) violations.emplace_back(msg);
  };
  require(!(o.shielded_pairs && o.route_mode == RouteMode::kQuickLShaped),
          "shielded_pairs requires RouteMode::kDetailed — quick L-shaped "
          "routing produces no conflict-checked geometry to shield");
  // A wire dimension must convert to at least 1 DBU (the LEF generator
  // divides by the pitch in DBU) and stay bounded, so its conversion
  // cannot overflow; a wire as wide as the pitch overlaps its neighbour.
  const Process018& pr = o.extract.process;
  const auto dbu_or_zero = [](double um) -> std::int64_t {
    return um > 0.0 && um <= kMaxWirePitchUm ? um_to_dbu(um) : 0;
  };
  const std::int64_t pitch_dbu = dbu_or_zero(pr.wire_pitch_um);
  const std::int64_t width_dbu = dbu_or_zero(pr.wire_width_um);
  require(pitch_dbu >= 1,
          "extract.process.wire_pitch_um must be in [0.0005, 1e3] um — a "
          "finer pitch rounds to 0 DBU");
  require(width_dbu >= 1 && (pitch_dbu < 1 || width_dbu < pitch_dbu),
          "extract.process.wire_width_um must be at least 0.0005 um and "
          "below wire_pitch_um — a wider wire overlaps the one on the next "
          "track");
  return violations;
}

void FlowOptions::validate() const {
  throw_violations("FlowOptions", flow_options_violations(*this));
}

std::array<std::uint64_t, kNumFlowStages> compute_stage_keys(
    FlowKind kind, const AigCircuit& circuit, const CellLibrary& library,
    const FlowOptions& opts) {
  const FlowOptions o = resolve_options(kind, opts);
  std::array<std::uint64_t, kNumFlowStages> keys{};
  std::uint64_t chain = Hasher()
                            .add(kCkptFormatVersion)
                            .add(flow_kind_name(kind))
                            .add(fingerprint(circuit))
                            .add(fingerprint(library))
                            .digest();
  for (const StageRow& row : kStages) {
    if (!flow_runs_stage(kind, row.stage)) continue;
    Hasher h;
    h.add(chain).add(flow_stage_name(row.stage));
    row.key(h, o, kind);
    chain = h.digest();
    keys[stage_idx(row.stage)] = chain;
  }
  return keys;
}

SynthConstraints wddl_synth_constraints() {
  SynthConstraints c;
  c.allowed_cells = {"NAND2", "NAND3", "NOR2", "NOR3", "AND2", "AND3",
                     "OR2",   "OR3",   "XOR2", "XNOR2", "AOI21", "AOI22",
                     "AOI32", "OAI21", "OAI22", "MUX2"};
  return c;
}

CompiledSimModel compile_power_model(const RegularFlowResult& result,
                                     PowerSimOptions opts) {
  return CompiledSimModel(result.rtl, result.caps, opts);
}

CompiledSimModel compile_power_model(const SecureFlowResult& result,
                                     PowerSimOptions opts) {
  opts.precharge_inputs = true;  // WDDL: inputs precharge to (0,0)
  return CompiledSimModel(result.diff, result.caps, opts);
}

RegularFlowResult run_regular_flow(const AigCircuit& circuit,
                                   std::shared_ptr<const CellLibrary> library,
                                   const FlowOptions& opts) {
  FlowRun r = run_stages(FlowKind::kRegular, circuit, std::move(library), opts);
  return RegularFlowResult{take_artifacts(r, r.lef, r.def)};
}

SecureFlowResult run_secure_flow(const AigCircuit& circuit,
                                 std::shared_ptr<const CellLibrary> library,
                                 const FlowOptions& opts) {
  FlowRun r = run_stages(FlowKind::kSecure, circuit, std::move(library), opts);

  // The evaluate wave must settle within the first half cycle so the WDDL
  // masters capture valid differential data at the falling edge.  Cheap,
  // so re-checked even when the timing came from the cache.
  if (r.t.outcome(FlowStage::kExtraction) != CacheOutcome::kNotRun) {
    const double half_cycle_ps = SamplingSpec{}.cycle_s() * 1e12 / 2;
    SECFLOW_CHECK(r.timing.critical_delay_ps < half_cycle_ps,
                  "WDDL evaluation (" +
                      std::to_string(r.timing.critical_delay_ps) +
                      " ps) does not fit the evaluate half-cycle");
  }

  return SecureFlowResult{take_artifacts(r, r.diff_lef, r.diff_def),
                          r.wlib,
                          take_netlist(std::move(r.fat), r.library),
                          take_netlist(std::move(r.diff), r.library),
                          std::move(r.lef),
                          std::move(r.def),
                          r.sub_stats,
                          r.lec,
                          r.stream_check};
}

std::vector<std::pair<std::string, std::string>> artifact_digests(
    const RegularFlowResult& r) {
  return digest_artifacts(r, kRegularArtifacts);
}

std::vector<std::pair<std::string, std::string>> artifact_digests(
    const SecureFlowResult& r) {
  return digest_artifacts(r, kSecureArtifacts);
}

namespace {

/// Common FlowReport fields shared by both flow kinds.  Stages that never
/// ran stay as "not-run" rows with 0 ms and no key, so every report lists
/// all six pipeline stages in order.
FlowReport base_flow_report(const FlowArtifacts& r, const char* flow_kind,
                            const Netlist& final_netlist) {
  FlowReport rep;
  rep.flow = flow_kind;
  rep.design = r.rtl.name();
  rep.completed_through = flow_stage_name(r.completed_through);
  rep.cells = final_netlist.n_instances();
  rep.cell_area_um2 = final_netlist.total_area_um2();
  rep.die_area_um2 = r.die_area_um2();
  rep.wirelength_um = dbu_to_um(r.def.total_wirelength());
  rep.vias = r.def.total_vias();
  rep.route_nets = r.route_stats.nets_routed;
  rep.route_iterations = r.route_stats.iterations;
  rep.critical_delay_ps = r.timing.critical_delay_ps;
  rep.total_ms = r.timings.total_ms();
  for (int i = 0; i < kNumFlowStages; ++i) {
    const FlowStage s = static_cast<FlowStage>(i);
    StageEntry e;
    e.name = flow_stage_name(s);
    e.ms = r.timings.stage_ms(s);
    e.cache = cache_outcome_name(r.timings.outcome(s));
    e.cache_key = r.timings.key(s) != 0 ? hash_hex(r.timings.key(s)) : "";
    rep.stages.push_back(std::move(e));
  }
  return rep;
}

}  // namespace

FlowReport build_flow_report(const RegularFlowResult& r) {
  return base_flow_report(r, "regular", r.rtl);
}

FlowReport build_flow_report(const SecureFlowResult& r) {
  FlowReport rep = base_flow_report(r, "secure", r.diff);
  rep.secure.present = true;
  rep.secure.fat_cells = r.fat.n_instances();
  rep.secure.diff_cells = r.diff.n_instances();
  rep.secure.inverters_removed = r.sub_stats.inverters_removed;
  rep.secure.lec_equivalent = r.lec.equivalent;
  rep.secure.lec_points = r.lec.compared_points;
  rep.secure.stream_check_ok = r.stream_out_check.ok;
  return rep;
}

std::string flow_report(const FlowArtifacts& r) {
  std::ostringstream os;
  os << "flow: " << r.rtl.name() << "\n";
  os << "  cells:       " << r.rtl.n_instances() << " (area "
     << r.rtl.total_area_um2() << " um^2)\n";
  append_common(os, r);
  return os.str();
}

std::string flow_report(const SecureFlowResult& r) {
  std::ostringstream os;
  os << "secure flow: " << r.rtl.name() << "\n";
  os << "  rtl cells:   " << r.rtl.n_instances() << "\n";
  os << "  fat cells:   " << r.fat.n_instances() << " ("
     << r.sub_stats.inverters_removed << " inverters removed)\n";
  os << "  diff cells:  " << r.diff.n_instances() << " (area "
     << r.diff.total_area_um2() << " um^2)\n";
  append_common(os, r);
  os << "  LEC:         " << (r.lec.equivalent ? "pass" : "FAIL") << " ("
     << r.lec.compared_points << " points)\n";
  os << "  eval timing: " << r.timing.critical_delay_ps
     << " ps critical (half-cycle budget 4000 ps)\n";
  return os.str();
}

}  // namespace secflow
