// Golden-hash regression test for the flow's stage artifacts.
//
// Runs both flows on fixed designs (two small ones and the paper's DES
// module) with checkpointing enabled, hashes every stage's checkpoint
// file, and compares against the hashes checked in at
// tests/golden/flow_small.golden.  Any behavioural drift in
// synthesis, substitution, placement, routing, decomposition or extraction
// shows up as a per-stage hash mismatch, keyed `<design>.<flow>.<stage>`.
// `des.<flow>.traces` pins the attack's input: the supply-current traces
// the DES trace task records on each golden DES layout.  The annealer is
// pinned beyond the default seed: `des_seed<N>.<flow>.placement` hashes the
// DES placement checkpoint at placement seeds 2, 3 and 7, and `aes1.secure.*`
// runs one AES S-box through the secure flow up to placement.  Extraction is
// pinned beyond the default options: `des_corner.secure.extraction` under a
// 2 % process corner, `des_sep3.<flow>.extraction` with a 3 um coupling
// window.  The same file
// pins the report writers: `report.<schema>` hashes the JSON bytes of the
// fixed sample reports in report_samples.h.
//
// When a change is *intentional*, regenerate the golden file with:
//
//   SECFLOW_REGEN_GOLDEN=1 ./build/tests/flow_golden_test
//
// and commit the updated tests/golden/flow_small.golden.
#include "flow/flow.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "ckpt/hash.h"
#include "ckpt/store.h"
#include "crypto/aes.h"
#include "crypto/des.h"
#include "liberty/builtin_lib.h"
#include "report_samples.h"
#include "sca/dpa_experiment.h"
#include "synth/hdl.h"

namespace secflow {
namespace {

namespace fs = std::filesystem;

// SECFLOW_GOLDEN_FILE is the absolute source-tree path of the golden file,
// injected by tests/CMakeLists.txt so regeneration can write it in place.
#ifndef SECFLOW_GOLDEN_FILE
#error "tests/CMakeLists.txt must define SECFLOW_GOLDEN_FILE"
#endif

constexpr const char* kSmallDesign = R"(
  module small (input clk, input [3:0] a, input [3:0] b, output [3:0] y);
    reg [3:0] r;
    wire [3:0] m;
    assign m = (a & b) ^ r;
    always @(posedge clk) r <= m | a;
    assign y = r ^ b;
  endmodule)";

// The flow-fuzzer's grammar in miniature: synchronous reset, a scalar and
// a vector register, bit-granular assigns and a mux — the WDDL features
// (tie compounds, rail-swapped port buffers, gated master/slave flops)
// the plain `small` design does not reach.
constexpr const char* kSeqRstDesign = R"(
  module seqrst (input clk, input rst, input [1:0] d, input s,
                 output [1:0] q, output p);
    reg [1:0] r;
    reg f;
    wire [1:0] n;
    assign n[0] = (s ? d[0] : r[1]) ^ f;
    assign n[1] = ~(d[1] & r[0]);
    always @(posedge clk) begin
      r <= rst ? 2'd0 : n;
      f <= rst ? 1'd0 : (d[0] | f);
    end
    assign q = r;
    assign p = ~f;
  endmodule)";

/// Digest of the first 64 DES trace-task traces on a DES layout (key 46,
/// 0.6 mA noise, seed 2025): every sample's bytes, the cycle energy, the
/// transition count and the observable of each trace.
std::string des_traces_hash(const CompiledSimModel& model,
                            bool differential) {
  const DesPortMap ports = DesPortMap::resolve(model.netlist(), differential);
  const TraceTask task = [&](PowerSimulator& sim, Rng& rng, std::uint64_t) {
    return des_trace(sim, rng, ports, 46, 0.6);
  };
  Hasher h;
  for (const SimTrace& t : simulate_traces(model, 0, 64, 2025, task)) {
    h.bytes(t.cycle.current_ma.data(),
            t.cycle.current_ma.size() * sizeof(double));
    h.add(t.cycle.energy_pj).add(t.cycle.transitions);
    h.add(static_cast<std::uint64_t>(t.observable));
  }
  return hash_hex(h.digest());
}

/// Run one flow on one design under `opts` and hash every executed stage's
/// checkpoint, keyed `<design>.<flow>.<stage>`; `with_traces` adds the
/// layout's `<design>.<flow>.traces` digest.
std::map<std::string, std::string> run_and_hash(const std::string& design,
                                                const AigCircuit& circuit,
                                                FlowKind kind,
                                                bool with_traces = false,
                                                FlowOptions opts = {}) {
  const fs::path dir = fs::path(::testing::TempDir()) / "flow_golden_cache";
  fs::remove_all(dir);
  opts.cache_dir = dir.string();
  const auto base = builtin_stdcell018();
  const std::string prefix = design + "." + flow_kind_name(kind) + ".";
  std::map<std::string, std::string> hashes;
  StageTimings timings;
  if (kind == FlowKind::kSecure) {
    const SecureFlowResult r = run_secure_flow(circuit, base, opts);
    timings = r.timings;
    if (with_traces) {
      hashes[prefix + "traces"] = des_traces_hash(compile_power_model(r), true);
    }
  } else {
    const RegularFlowResult r = run_regular_flow(circuit, base, opts);
    timings = r.timings;
    if (with_traces) {
      hashes[prefix + "traces"] =
          des_traces_hash(compile_power_model(r), false);
    }
  }

  const ArtifactStore store(dir.string());
  for (int i = 0; i < kNumFlowStages; ++i) {
    const FlowStage s = static_cast<FlowStage>(i);
    if (timings.outcome(s) == CacheOutcome::kNotRun) continue;
    const std::string path = store.path_for(flow_stage_name(s), timings.key(s));
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.good()) << "missing checkpoint " << path;
    std::ostringstream ss;
    ss << f.rdbuf();
    hashes[prefix + flow_stage_name(s)] = hash_hex(fnv1a(ss.str()));
  }
  fs::remove_all(dir);
  return hashes;
}

/// Writer bytes of the sample reports (full and bare forms together),
/// keyed `report.<schema>`.
std::map<std::string, std::string> report_hashes() {
  namespace samples = report_samples;
  const auto hash = [](const std::string& bytes) {
    return hash_hex(fnv1a(bytes));
  };
  return {
      {"report.flow", hash(flow_report_json(samples::full_flow()) +
                           flow_report_json(samples::bare_flow()))},
      {"report.leakage", hash(leakage_report_json(samples::full_leakage()) +
                              leakage_report_json(samples::bare_leakage()))},
      {"report.campaign", hash(campaign_report_json(samples::campaign()))},
  };
}

std::map<std::string, std::string> run_all() {
  const AigCircuit small = parse_hdl(kSmallDesign);
  const AigCircuit des = make_des_dpa_circuit();
  std::map<std::string, std::string> hashes;
  hashes.merge(run_and_hash("small", small, FlowKind::kSecure));
  hashes.merge(run_and_hash("small", small, FlowKind::kRegular));
  hashes.merge(run_and_hash("seqrst", parse_hdl(kSeqRstDesign),
                            FlowKind::kSecure));
  // The paper's DES module is the smallest design whose routing reaches
  // the serial tail and window escalation; its route_stats checkpoint
  // serializes expanded_nodes, so these hashes pin the exact A* pop order.
  hashes.merge(run_and_hash("des", des, FlowKind::kSecure, true));
  hashes.merge(run_and_hash("des", des, FlowKind::kRegular, true));
  // Runs that differ from the default one in a single stage keep only
  // that stage's line; the upstream stages repeat the default run's
  // checkpoints.
  const auto add_stage_line = [&](const std::string& design, FlowKind kind,
                                  const FlowOptions& opts, FlowStage stage) {
    const std::string key = design + "." + flow_kind_name(kind) + "." +
                            flow_stage_name(stage);
    hashes[key] = run_and_hash(design, des, kind, false, opts).at(key);
  };
  // Placement alone at more annealing seeds: each op of the des_flow
  // benchmark places with a seed of its own.
  FlowOptions place_only;
  place_only.stop_after = FlowStage::kPlacement;
  for (const std::uint64_t seed : {2, 3, 7}) {
    place_only.place.seed = seed;
    const std::string design = "des_seed" + std::to_string(seed);
    for (const FlowKind kind : {FlowKind::kRegular, FlowKind::kSecure}) {
      add_stage_line(design, kind, place_only, FlowStage::kPlacement);
    }
  }
  // Extraction beyond the default options: a 2 % process corner on the
  // secure layout, and a 3 um coupling window, which reaches wires five
  // tracks apart, on both layouts.
  FlowOptions corner;
  corner.extract.variation_sigma = 0.02;
  corner.extract.seed = 11;
  add_stage_line("des_corner", FlowKind::kSecure, corner,
                 FlowStage::kExtraction);
  FlowOptions sep3;
  sep3.extract.coupling_max_sep_um = 3.0;
  for (const FlowKind kind : {FlowKind::kRegular, FlowKind::kSecure}) {
    add_stage_line("des_sep3", kind, sep3, FlowStage::kExtraction);
  }
  // One AES S-box: a fat netlist four times the DES one.
  place_only.place.seed = PlaceOptions{}.seed;
  hashes.merge(run_and_hash("aes1", make_aes_sbox_array(1), FlowKind::kSecure,
                            false, place_only));
  hashes.merge(report_hashes());
  return hashes;
}

std::map<std::string, std::string> read_golden(const std::string& path) {
  std::ifstream f(path);
  std::map<std::string, std::string> golden;
  std::string stage, hex;
  while (f >> stage >> hex) golden[stage] = hex;
  return golden;
}

TEST(FlowGolden, StageArtifactsMatchCheckedInHashes) {
  const std::map<std::string, std::string> hashes = run_all();

  if (std::getenv("SECFLOW_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(SECFLOW_GOLDEN_FILE, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << SECFLOW_GOLDEN_FILE;
    for (const auto& [stage, hex] : hashes) out << stage << ' ' << hex << '\n';
    GTEST_SKIP() << "regenerated " << SECFLOW_GOLDEN_FILE;
  }

  const std::map<std::string, std::string> golden =
      read_golden(SECFLOW_GOLDEN_FILE);
  ASSERT_FALSE(golden.empty())
      << "no golden data at " << SECFLOW_GOLDEN_FILE
      << " — regenerate with SECFLOW_REGEN_GOLDEN=1 ./flow_golden_test";

  // Per-point comparison so drift reads as "seqrst secure routing
  // changed", not just "something changed".
  for (const auto& [stage, hex] : hashes) {
    const auto it = golden.find(stage);
    ASSERT_NE(it, golden.end()) << "golden file lacks " << stage;
    EXPECT_EQ(hex, it->second)
        << "'" << stage << "' artifact drifted from golden.\n"
        << "If this change is intentional, regenerate with:\n"
        << "  SECFLOW_REGEN_GOLDEN=1 ./build/tests/flow_golden_test";
  }
  EXPECT_EQ(golden.size(), hashes.size());
}

TEST(FlowGolden, HashesAreReproducibleWithinABuild) {
  // The golden comparison is only meaningful if two runs of the same build
  // agree with each other.
  EXPECT_EQ(run_all(), run_all());
}

}  // namespace
}  // namespace secflow
