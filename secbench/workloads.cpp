#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <stdexcept>

#include "base/units.h"
#include "campaign/campaign.h"
#include "campaign/report.h"
#include "crypto/aes.h"
#include "crypto/des.h"
#include "extract/extract.h"
#include "flow/flow.h"
#include "leakage/assess.h"
#include "liberty/builtin_lib.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sca/dpa_experiment.h"
#include "stats.h"

namespace secbench {

using namespace secflow;

namespace {

// --- layer calls -----------------------------------------------------------
//
// The two flows' stage bodies, written as direct calls into each layer's
// public functions with a LayerCall around every call.  aes_backend runs
// the secure chain as its op; des_flow's traced run replays both chains
// and checks that they reproduce the flows' artifacts byte for byte.

/// Add `v` to metric `name` of a traced op; nothing when untraced.
void record(LayerTrace* t, const char* name, double v) {
  if (t) t->add(name, v);
}

Netlist synthesize(LayerTrace* t, const AigCircuit& circuit,
                   const std::shared_ptr<const CellLibrary>& lib,
                   const SynthConstraints& constraints) {
  LayerCall c(t, "synth", "synth.ms");
  Netlist nl = technology_map(circuit, lib, constraints);
  nl.validate();
  record(t, "synth.cells", double(nl.n_instances()));
  return nl;
}

LefLibrary make_lef(LayerTrace* t, const CellLibrary& cells,
                    const LefGenOptions& opts) {
  LayerCall c(t, "lef", "lef.ms");
  return generate_lef(cells, opts);
}

DefDesign place(LayerTrace* t, const Netlist& nl, const LefLibrary& lef,
                const PlaceOptions& opts) {
  std::optional<DefDesign> def;
  {
    LayerCall c(t, "pnr.place", "pnr.place.ms");
    def = place_design(nl, lef, opts);
  }
  if (t) {
    t->add("pnr.place.moves",
           double(opts.sa_moves_per_instance) * double(nl.n_instances()));
    t->add("pnr.place.hpwl_mm",
           dbu_to_um(placement_hpwl(nl, lef, *def)) / 1e3);
  }
  return std::move(*def);
}

RouteStats route(LayerTrace* t, const Netlist& nl, const LefLibrary& lef,
                 DefDesign& def, const FlowOptions& o) {
  RouteStats rs;
  if (o.route_mode == RouteMode::kQuickLShaped) {
    LayerCall c(t, "pnr.route", "pnr.route.quick_ms");
    rs = route_design_quick(nl, lef, def);
  } else {
    LayerCall c(t, "pnr.route", "pnr.route.ms");
    rs = route_design(nl, lef, def, o.route);
  }
  if (t) {
    t->add("pnr.route.expanded_nodes", double(rs.expanded_nodes));
    t->add("pnr.route.iterations", rs.iterations);
    t->add("pnr.route.window_escalations", rs.window_escalations);
    t->add("pnr.route.full_grid_searches", rs.full_grid_searches);
    t->add("pnr.route.nets_ripped", double(rs.nets_ripped));
    t->add("pnr.route.nets_routed", rs.nets_routed);
  }
  return rs;
}

/// Extraction, switched-cap table and STA, as the flows' last stage does.
struct Extracted {
  Extraction extraction;
  CapTable caps;
  TimingReport timing;
};

Extracted extract_stage(LayerTrace* t, const DefDesign& def, const Netlist& nl,
                        const ExtractOptions& opts) {
  Extracted r;
  {
    LayerCall c(t, "extract", "extract.ms");
    r.extraction = extract_parasitics(def, nl, opts);
    r.caps = build_cap_table(nl, r.extraction);
  }
  {
    LayerCall c(t, "sta", "sta.ms");
    r.timing = analyze_timing(nl, r.caps);
  }
  if (t) {
    double couplings = 0.0;
    std::vector<double> mismatch;
    for (const auto& [name, p] : r.extraction.nets) {
      couplings += double(p.couplings.size());
    }
    for (const auto& [name, ff] : rail_mismatch_ff(r.extraction)) {
      mismatch.push_back(ff);
    }
    t->add("extract.couplings", couplings);
    if (!mismatch.empty()) {
      std::sort(mismatch.begin(), mismatch.end());
      t->add("extract.rail_mismatch_p99_ff",
             mismatch[(mismatch.size() - 1) * 99 / 100]);
    }
  }
  return r;
}

/// The clock net of a mapped netlist (the net on flop CK pins), or "".
std::string clock_net(const Netlist& nl) {
  for (InstId iid : nl.instance_ids()) {
    const CellType& type = nl.cell_of(iid);
    if (type.kind != CellKind::kFlop) continue;
    const NetId ck =
        nl.instance(iid).conns[static_cast<std::size_t>(type.ck_pin())];
    if (ck.valid()) return nl.net(ck).name;
  }
  return {};
}

RegularFlowResult regular_chain(LayerTrace* t, const AigCircuit& circuit,
                                const std::shared_ptr<const CellLibrary>& lib,
                                const FlowOptions& o) {
  Netlist rtl = synthesize(t, circuit, lib, o.synth);
  LefLibrary lef = make_lef(t, *lib, LefGenOptions{o.extract.process});
  DefDesign def = place(t, rtl, lef, o.place);
  const RouteStats rs = route(t, rtl, lef, def, o);
  Extracted ex = extract_stage(t, def, rtl, o.extract);
  return RegularFlowResult{{std::move(rtl), std::move(lef), std::move(def),
                            rs, std::move(ex.extraction), std::move(ex.caps),
                            StageTimings{}, std::move(ex.timing),
                            FlowStage::kExtraction}};
}

SecureFlowResult secure_chain(LayerTrace* t, const AigCircuit& circuit,
                              const std::shared_ptr<const CellLibrary>& lib,
                              const FlowOptions& o) {
  Netlist rtl = synthesize(t, circuit, lib, wddl_synth_constraints());
  std::shared_ptr<WddlLibrary> wlib;
  std::optional<SubstitutionResult> sub;
  {
    LayerCall c(t, "wddl", "wddl.substitute_ms");
    wlib = std::make_shared<WddlLibrary>(lib);
    sub.emplace(substitute_cells(rtl, *wlib));
  }
  Netlist& fat = sub->fat;
  std::optional<Netlist> diff;
  {
    LayerCall c(t, "wddl", "wddl.expand_ms");
    diff.emplace(expand_differential(fat, *wlib));
  }
  record(t, "wddl.compounds", double(fat.n_instances()));
  LecResult lec;
  {
    LayerCall c(t, "lec", "lec.ms");
    lec = check_equivalence(rtl, fat);
  }

  const Process018& pr = o.extract.process;
  LefGenOptions fat_gen{pr};
  fat_gen.wire_scale = 2.0;
  LefLibrary fat_lef = make_lef(t, fat.library(), fat_gen);
  DefDesign fat_def = place(t, fat, fat_lef, o.place);
  const RouteStats rs = route(t, fat, fat_lef, fat_def, o);

  std::optional<LefLibrary> diff_lef;
  {
    LayerCall c(t, "lef", "lef.ms");
    diff_lef.emplace(
        make_diff_lef(fat_lef, pr.wire_pitch_um, pr.wire_width_um));
  }
  std::optional<DefDesign> diff_def;
  {
    LayerCall c(t, "pnr.decompose", "pnr.decompose.ms");
    DecomposeOptions dopts;
    const std::string clk = clock_net(fat);
    if (!clk.empty()) dopts.single_ended_nets.push_back(clk);
    diff_def.emplace(decompose_interconnect(fat_def,
                                            um_to_dbu(pr.wire_pitch_um),
                                            um_to_dbu(pr.wire_width_um),
                                            dopts));
  }
  CheckResult stream_check;
  {
    LayerCall c(t, "pnr.decompose", "pnr.check.ms");
    stream_check =
        check_differential_symmetry(*diff_def, um_to_dbu(pr.wire_pitch_um));
    const CheckResult rails = check_stream_out(
        fat, *diff_lef, *diff_def, 5 * fat_lef.track_pitch_dbu());
    stream_check.ok = stream_check.ok && rails.ok;
    stream_check.nets_checked += rails.nets_checked;
    stream_check.pins_checked += rails.pins_checked;
  }
  Extracted ex = extract_stage(t, *diff_def, *diff, o.extract);
  return SecureFlowResult{
      {std::move(rtl), std::move(*diff_lef), std::move(*diff_def), rs,
       std::move(ex.extraction), std::move(ex.caps), StageTimings{},
       std::move(ex.timing), FlowStage::kExtraction},
      std::move(wlib),
      std::move(fat),
      std::move(*diff),
      std::move(fat_lef),
      std::move(fat_def),
      sub->stats,
      lec,
      stream_check};
}

double wirelength_mm(const RouteStats& rs) {
  return dbu_to_um(rs.wirelength_dbu) / 1e3;
}

double rail_mismatch_max_ff(const Extraction& ex) {
  double worst = 0.0;
  for (const auto& [name, ff] : rail_mismatch_ff(ex)) worst = std::max(worst, ff);
  return worst;
}

void check_secure(const SecureFlowResult& r) {
  check(r.lec.equivalent, "LEC: fat netlist differs from rtl");
  check(r.stream_out_check.ok, "stream-out check failed");
}

// --- des_flow --------------------------------------------------------------

/// The paper's design example through run_regular_flow and run_secure_flow
/// (detailed router, no checkpoint cache).  Every op places with its own
/// seed derived from the workload seed, so a run samples many layouts.
class DesFlow final : public Workload {
 public:
  explicit DesFlow(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    lib_ = builtin_stdcell018();
    circuit_ = make_des_dpa_circuit();
    // One untimed flow pair on the default placement lets lazy start-up
    // (thread pool, allocator arenas) finish before the first timed op.
    run_regular_flow(*circuit_, lib_, {});
    run_secure_flow(*circuit_, lib_, {});
  }

  void op(int index, LayerTrace* t, OpOutcome& out) override {
    const FlowOptions o = options(index);
    const double t0 = now_s();
    const RegularFlowResult reg = run_regular_flow(*circuit_, lib_, o);
    const SecureFlowResult sec = run_secure_flow(*circuit_, lib_, o);
    const double flow_ms = (now_s() - t0) * 1e3;
    out.wirelength_mm = wirelength_mm(sec.route_stats);
    out.rail_mismatch_max_ff = rail_mismatch_max_ff(sec.extraction);
    check_secure(sec);
    // route_design throws when it does not converge; this guards the
    // iteration budget it reports.
    check(reg.route_stats.iterations <= o.route.max_iterations &&
              sec.route_stats.iterations <= o.route.max_iterations,
          "routing exceeded its iteration budget");

    if (t) {
      // The traced op is the replay through the layers.
      t->begin_op();
      const double r0 = now_s();
      const RegularFlowResult reg2 = regular_chain(t, *circuit_, lib_, o);
      const SecureFlowResult sec2 = secure_chain(t, *circuit_, lib_, o);
      t->add("flow.self_ms", flow_ms - (now_s() - r0) * 1e3);
      check(artifact_digests(reg2) == artifact_digests(reg) &&
                artifact_digests(sec2) == artifact_digests(sec),
            "layer replay artifacts differ from the flows'");
    }
    {
      LayerCall c(t, "obs", "obs.report_ms");
      check(!flow_report_json(build_flow_report(reg)).empty() &&
                !flow_report_json(build_flow_report(sec)).empty(),
            "empty flow report");
    }
    if (t) t->end_op();
  }

 private:
  FlowOptions options(int index) const {
    FlowOptions o;
    o.place.seed = derive_seed(seed_, "place", std::uint64_t(index));
    return o;
  }

  std::uint64_t seed_;
  std::shared_ptr<const CellLibrary> lib_;
  std::optional<AigCircuit> circuit_;
};

// --- aes_backend -----------------------------------------------------------

/// make_aes_sbox_array(4) through the secure backend, one layer call at a
/// time, with quick L-routing (the detailed router does not converge on
/// AES, and run_secure_flow rejects the L-routed result at its half-cycle
/// STA check).  Every op places with the default seed: quick L-routes
/// overlap freely, so the worst rail mismatch swings 1.6x between
/// placement seeds and a seeded layout would swamp that metric.  The
/// workload therefore takes no input from the seed.
class AesBackend final : public Workload {
 public:
  void setup() override {
    lib_ = builtin_stdcell018();
    circuit_ = make_aes_sbox_array(4);
  }

  void op(int, LayerTrace* t, OpOutcome& out) override {
    FlowOptions o;
    o.route_mode = RouteMode::kQuickLShaped;
    if (t) t->begin_op();
    const SecureFlowResult sec = secure_chain(t, *circuit_, lib_, o);
    if (t) t->end_op();
    out.wirelength_mm = wirelength_mm(sec.route_stats);
    out.rail_mismatch_max_ff = rail_mismatch_max_ff(sec.extraction);
    check_secure(sec);
    check(sec.route_stats.nets_routed > 0, "no net routed");
  }

 private:
  std::shared_ptr<const CellLibrary> lib_;
  std::optional<AigCircuit> circuit_;
};

// --- des_attack ------------------------------------------------------------

/// The full leakage verdict on both DES layouts (built in setup): TVLA 200,
/// CPA 1500 and MTD <= 600 (HW model, 0.6 mA noise), then Fig 6's
/// 2000-trace DPA.  Every op draws fresh TVLA/CPA/MTD trace streams, so
/// their verdict checks must hold for any stream, not only for a
/// calibrated one:
///  * regular CPA: correct key rank 1 with the 5 % margin ("disclosed");
///    1500 traces keep the margin above 45 % on every stream tried, where
///    400 traces miss it on about one stream in three;
///  * secure CPA: the correct key is not recovered with significance,
///    i.e. not (rank 1 and rho * sqrt(n - 3) >= kHiddenZ).  A rank or MTD
///    test alone fails by chance: an unrecoverable key still ranks first
///    on about one stream in 64.
/// The Fig 6 DPA runs bench_fig6_dpa's campaign (its stream, seed 2025)
/// and its shape check: the correct key's peak-to-peak beats every wrong
/// guess by 1.3x on the regular design and not on the secure one.  At
/// 2000 traces no threshold separates the two designs on every stream:
/// the secure key leaves the 1.3x band on about one stream in 300, and
/// the regular key's lead over the wrong guesses falls as low as 1.16x.
class DesAttack final : public Workload {
 public:
  /// Significance (Fisher z of the best correlation) above which a rank-1
  /// correct key counts as recovered.  The secure design's best z stays
  /// near 4.4 (max 6.0 over 300 streams); the regular design's exceeds 7
  /// already at 1000 traces.
  static constexpr double kHiddenZ = 8.0;

  explicit DesAttack(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    reg_model_.reset();
    sec_model_.reset();
    const auto lib = builtin_stdcell018();
    // The paper's layout (default placement seed): the placement changes
    // the secure design's residual leakage, which is P&R's business, not
    // the attack engine's.
    const AigCircuit circuit = make_des_dpa_circuit();
    reg_.emplace(run_regular_flow(circuit, lib, {}));
    sec_.emplace(run_secure_flow(circuit, lib, {}));
    reg_model_.emplace(compile_power_model(*reg_));
    sec_model_.emplace(compile_power_model(*sec_));
  }

  void op(int index, LayerTrace* t, OpOutcome& out) override {
    if (t) {
      t->begin_op();
      LayerCall c(t, "sim", "sim.model_build_ms");
      compile_power_model(*reg_);
      compile_power_model(*sec_);
    }
    LeakageSetup ls;
    ls.design = "des_dpa";
    ls.model = PowerModel::kHammingWeight;
    ls.noise_ma = 0.6;
    ls.tvla_traces = 200;
    ls.cpa_traces = 1500;
    ls.mtd.max_traces = 600;
    ls.mtd.step = 200;
    ls.seed = derive_seed(seed_, "leakage", std::uint64_t(index));
    DesDpaSetup ds;  // bench_fig6_dpa's campaign: 2000 traces, seed 2025

    LeakageReport lr[2];
    DpaResult dpa[2];
    for (int secure = 0; secure < 2; ++secure) {
      const CompiledSimModel& model = secure ? *sec_model_ : *reg_model_;
      {
        LayerCall c(t, "leakage", "leakage.stats_ms");
        lr[secure] = assess_des_leakage(model, secure == 1, ls);
      }
      LayerCall c(t, "sca", "sca.dpa.ms");
      const DesDpaCampaign camp = run_des_dpa_campaign(model, ds, secure == 1);
      dpa[secure] = camp.dpa.analyze(ds.key);
    }
    for (const LeakageReport& r : lr) {
      out.traces += r.tvla.n_fixed + r.tvla.n_random + r.cpa.n_traces +
                    r.mtd.traces_fed + ds.n_measurements;
      record(t, "leakage.mtd_traces_used", double(r.mtd.traces_fed));
    }
    if (t) t->end_op();
    out.wirelength_mm = wirelength_mm(sec_->route_stats);
    out.rail_mismatch_max_ff = rail_mismatch_max_ff(sec_->extraction);

    const LeakageReport& reg = lr[0];
    const LeakageReport& sec = lr[1];
    check(reg.cpa.correct_rank == 1 && reg.cpa.disclosed,
          "regular CPA: key rank " + std::to_string(reg.cpa.correct_rank) +
              (reg.cpa.disclosed ? "" : ", not disclosed"));
    const double sec_z =
        sec.cpa.best_score * std::sqrt(double(sec.cpa.n_traces) - 3.0);
    check(sec.cpa.correct_rank != 1 || sec_z < kHiddenZ,
          "secure CPA recovered the key (z " + std::to_string(sec_z) + ")");
    check(peak_ratio(dpa[0], ds.key) > 1.3 && peak_ratio(dpa[1], ds.key) < 1.3,
          "Fig 6 DPA shape check");
  }

 private:
  /// Correct-key peak-to-peak over the best wrong guess's.
  static double peak_ratio(const DpaResult& r, std::uint32_t key) {
    double wrong = 0.0;
    for (std::size_t g = 0; g < r.peak_to_peak.size(); ++g) {
      if (g != key) wrong = std::max(wrong, r.peak_to_peak[g]);
    }
    return r.peak_to_peak[key] / wrong;
  }

  std::uint64_t seed_;
  std::optional<RegularFlowResult> reg_;
  std::optional<SecureFlowResult> sec_;
  std::optional<CompiledSimModel> reg_model_, sec_model_;
};

// --- des_rerun -------------------------------------------------------------

/// A 5-job DES campaign run cold in setup, then re-run warm per op with the
/// corner job's extraction seed advanced: four jobs are pure checkpoint
/// reads, the corner job re-extracts and writes a new artifact.
class DesRerun final : public Workload {
 public:
  static constexpr std::size_t kCornerJob = 4;
  /// Jobs a warm re-run runs at once.  The job graph is two producers
  /// (regular, secure) and three jobs that wait on them, so two workers
  /// keep it busy; with one worker per vCPU the op's slowest decile
  /// tracked the host's scheduling noise (on a 4-vCPU VM, p96 of 20 s
  /// runs 75-88 ms at 4 workers, 73-79 ms at 2, median latency the same).  The cold run in
  /// setup keeps one worker per vCPU: at 2 workers, which of its flows
  /// overlap depends on timing, and peak RSS varied 20-24 MiB by run.
  static constexpr int kWarmConcurrency = 2;

  DesRerun(std::uint64_t seed, const std::string& work_dir)
      : seed_(seed), store_dir_(work_dir + "/ckpt") {}

  ~DesRerun() override {
    std::error_code ec;
    std::filesystem::remove_all(store_dir_, ec);
  }

  void setup() override {
    std::filesystem::remove_all(store_dir_);
    lib_ = builtin_stdcell018();
    cold_ = run_campaign(spec(0), lib_);
    if (cold_.n_failed != 0) {
      throw std::runtime_error("des_rerun: cold campaign failed: " +
                               first_error(cold_));
    }
    // The campaign reports no extraction; read the secure job's back from
    // the warm store for the layout's security health.
    FlowOptions o = spec(0).jobs[1].options;
    o.cache_dir = store_dir_;
    const SecureFlowResult sec =
        run_secure_flow(make_des_dpa_circuit(), lib_, o);
    secure_wirelength_mm_ = wirelength_mm(sec.route_stats);
    secure_mismatch_ff_ = rail_mismatch_max_ff(sec.extraction);
  }

  void op(int index, LayerTrace* t, OpOutcome& out) override {
    std::uintmax_t bytes0 = 0;
    if (t) {
      t->begin_op();
      bytes0 = store_bytes();
    }
    const double c0 = now_s();
    const CampaignResult res = run_campaign(spec(index + 1), lib_);
    const double campaign_ms = (now_s() - c0) * 1e3;
    std::string report;
    {
      LayerCall c(t, "obs", "obs.report_ms");
      report = campaign_report_json(res);
    }
    if (t) {
      book_campaign(*t, res, campaign_ms);
      t->add("ckpt.write_bytes", double(store_bytes() - bytes0));
      t->end_op();
    }

    out.wirelength_mm = secure_wirelength_mm_;
    out.rail_mismatch_max_ff = secure_mismatch_ff_;
    check(res.n_failed == 0, "campaign job failed: " + first_error(res));
    check(res.jobs.size() == cold_.jobs.size() && !report.empty(),
          "campaign report incomplete");
    for (std::size_t j = 0; j < res.jobs.size(); ++j) {
      for (const auto& [name, digest] : res.jobs[j].artifacts) {
        const bool re_extracted = j == kCornerJob &&
                                  (name == "extraction" || name == "caps" ||
                                   name == "timing");
        check(re_extracted || digest == cold_digest(j, name),
              "warm " + res.jobs[j].name + " " + name +
                  " differs from the cold run");
      }
    }
  }

 private:
  CampaignSpec spec(int rerun) const {
    CampaignSpec s;
    s.name = "des_rerun";
    s.cache_dir = store_dir_;
    s.threads = rerun == 0 ? 0 : kWarmConcurrency;
    const FlowOptions base;  // the paper's layout, as in des_attack
    const auto job = [&](const char* name, FlowKind kind) {
      CampaignJob j;
      j.name = name;
      j.flow = kind;
      j.options = base;
      return j;
    };
    s.jobs.push_back(job("regular", FlowKind::kRegular));
    s.jobs.push_back(job("secure", FlowKind::kSecure));
    s.jobs.push_back(job("secure_via5", FlowKind::kSecure));
    s.jobs.back().options.route.via_cost = 5;
    s.jobs.push_back(job("regular_quick", FlowKind::kRegular));
    s.jobs.back().options.route_mode = RouteMode::kQuickLShaped;
    s.jobs.push_back(job("secure_corner", FlowKind::kSecure));
    s.jobs.back().options.extract.variation_sigma = 0.02;
    s.jobs.back().options.extract.seed =
        derive_seed(seed_, "corner", std::uint64_t(rerun));
    return s;
  }

  std::string cold_digest(std::size_t job, const std::string& name) const {
    for (const auto& [n, d] : cold_.jobs[job].artifacts) {
      if (n == name) return d;
    }
    return {};
  }

  static std::string first_error(const CampaignResult& r) {
    for (const JobOutcome& j : r.jobs) {
      if (!j.ok) return j.name + ": " + j.error;
    }
    return {};
  }

  std::uintmax_t store_bytes() const {
    std::uintmax_t total = 0;
    for (const auto& e : std::filesystem::directory_iterator(store_dir_)) {
      if (e.is_regular_file()) total += e.file_size();
    }
    return total;
  }

  /// Attribute the campaign's wall time from the library's own spans: a
  /// stage that hit the store is a checkpoint read, a stage that ran is
  /// its layer's work, the rest of each flow span is flow-driver time, and
  /// what no flow span covers is the campaign scheduler's.
  static void book_campaign(LayerTrace& t, const CampaignResult& res,
                            double campaign_ms) {
    const std::vector<TraceEvent> events = Tracer::global().events();
    std::vector<std::pair<std::int64_t, std::int64_t>> flows;
    double flow_ms = 0.0, stage_ms = 0.0;
    for (const TraceEvent& e : events) {
      const double ms = double(e.dur_us) / 1e3;
      if (e.name == "flow.regular" || e.name == "flow.secure") {
        flows.emplace_back(e.ts_us, e.ts_us + e.dur_us);
        flow_ms += ms;
        continue;
      }
      if (e.name.rfind("flow.", 0) != 0) continue;
      stage_ms += ms;
      std::string cache;
      for (const auto& [k, v] : e.args) {
        if (k == "cache") cache = v;
      }
      if (cache == "hit") {
        t.book("ckpt", "ckpt.read_ms", ms, 0.0, 1);
      } else if (e.name == "flow.extraction") {
        t.book("extract", "extract.ms", ms, 0.0, 1);
      } else {
        t.book("flow", "flow.self_ms", ms, 0.0, 1);  // other recomputed stage
      }
    }
    t.book("flow", "flow.self_ms", flow_ms - stage_ms, 0.0,
           static_cast<int>(flows.size()));
    t.book("campaign", "campaign.ms",
           campaign_ms - double(union_us(std::move(flows))) / 1e3, 0.0, 1);
    double waited = 0.0;
    for (const JobOutcome& j : res.jobs) waited += double(j.waited_on.size());
    t.add("campaign.jobs_waited", waited);
  }

  std::uint64_t seed_;
  std::string store_dir_;
  std::shared_ptr<const CellLibrary> lib_;
  CampaignResult cold_;
  double secure_wirelength_mm_ = 0.0;
  double secure_mismatch_ff_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const std::string& work_dir) {
  if (name == "des_flow") return std::make_unique<DesFlow>(seed);
  if (name == "aes_backend") return std::make_unique<AesBackend>();
  if (name == "des_attack") return std::make_unique<DesAttack>(seed);
  if (name == "des_rerun") return std::make_unique<DesRerun>(seed, work_dir);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace secbench
