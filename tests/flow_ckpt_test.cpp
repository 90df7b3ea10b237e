// Flow-level checkpoint tests: cache hit/miss accounting, warm-run speedup,
// selective invalidation (the content-address chain re-runs exactly the
// stages downstream of a changed input), checkpoint/resume, and bit-equality
// of cached and computed artifacts.
#include "flow/flow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/error.h"
#include "ckpt/hash.h"
#include "ckpt/serialize.h"
#include "ckpt/store.h"
#include "crypto/des.h"
#include "liberty/builtin_lib.h"
#include "netlist/verilog_writer.h"
#include "synth/hdl.h"

namespace secflow {
namespace {

namespace fs = std::filesystem;

/// Mid-size registered design: big enough that a cold secure flow spends
/// real time in routing (so the warm-run speedup assertion has margin),
/// small enough to keep the suite fast.
constexpr const char* kMidDesign = R"(
  module mid (input clk, input [7:0] a, input [7:0] b, output [7:0] y);
    reg [7:0] r1;
    reg [7:0] r2;
    wire [7:0] m;
    wire [7:0] s;
    assign m = (a & r2) ^ (b | r1);
    assign s = r1[0] ? (m ^ b) : (m & a);
    always @(posedge clk) begin
      r1 <= m ^ a;
      r2 <= s | b;
    end
    assign y = r2 ^ r1;
  endmodule)";

double wall_ms(const std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void expect_outcomes(const StageTimings& t,
                     const std::array<CacheOutcome, kNumFlowStages>& want,
                     const char* ctx) {
  for (int i = 0; i < kNumFlowStages; ++i) {
    EXPECT_EQ(t.cache[i], want[i])
        << ctx << ": stage " << flow_stage_name(static_cast<FlowStage>(i));
  }
}

constexpr CacheOutcome H = CacheOutcome::kHit;
constexpr CacheOutcome M = CacheOutcome::kMiss;
constexpr CacheOutcome N = CacheOutcome::kNotRun;

/// A netlist reparsed from a checkpoint numbers its nets differently (ports
/// first) than the one built in memory, and DEF nets and STA arrivals are
/// listed in NetId order.  Sorting an artifact's lines drops that order and
/// keeps everything else.
std::string sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

using Digests = std::vector<std::pair<std::string, std::string>>;

/// Replace the digest of artifact `name` by that of its sorted lines.
void ignore_net_order(Digests& digests, const std::string& name,
                      const std::string& text) {
  for (auto& [artifact, digest] : digests) {
    if (artifact == name) digest = hash_hex(fnv1a(sorted_lines(text)));
  }
}

/// What a run of either flow kind reports, for tests that loop over both:
/// artifact_digests(), with the NetId-ordered artifacts up to net order.
struct RunSummary {
  StageTimings timings;
  FlowStage completed_through;
  Digests digests;
};

RunSummary run_flow(FlowKind kind, const AigCircuit& circuit,
                    const std::shared_ptr<const CellLibrary>& lib,
                    const FlowOptions& opts) {
  if (kind == FlowKind::kSecure) {
    const SecureFlowResult r = run_secure_flow(circuit, lib, opts);
    RunSummary sum{r.timings, r.completed_through, artifact_digests(r)};
    ignore_net_order(sum.digests, "fat.def", write_def(r.fat_def));
    ignore_net_order(sum.digests, "diff.def", write_def(r.def));
    ignore_net_order(sum.digests, "timing", write_timing_report(r.timing));
    return sum;
  }
  const RegularFlowResult r = run_regular_flow(circuit, lib, opts);
  RunSummary sum{r.timings, r.completed_through, artifact_digests(r)};
  ignore_net_order(sum.digests, "design.def", write_def(r.def));
  ignore_net_order(sum.digests, "timing", write_timing_report(r.timing));
  return sum;
}

/// Shared fixture: one cold cached secure run of the mid design per test
/// binary; warm-run tests reuse its cache directory read-only.
class FlowCkpt : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = builtin_stdcell018();
    circuit_ = new AigCircuit(parse_hdl(kMidDesign));
    cache_dir_ = fs::path(::testing::TempDir()) / "flow_ckpt_cache";
    fs::remove_all(cache_dir_);
    FlowOptions opts;
    opts.cache_dir = cache_dir_.string();
    const auto t0 = std::chrono::steady_clock::now();
    cold_ = new SecureFlowResult(run_secure_flow(*circuit_, lib_, opts));
    cold_ms_ = wall_ms(t0);
  }
  static void TearDownTestSuite() {
    delete cold_;
    delete circuit_;
    cold_ = nullptr;
    circuit_ = nullptr;
    lib_.reset();
    fs::remove_all(cache_dir_);
  }

  static FlowOptions cached_opts() {
    FlowOptions o;
    o.cache_dir = cache_dir_.string();
    return o;
  }

  static std::shared_ptr<const CellLibrary> lib_;
  static AigCircuit* circuit_;
  static fs::path cache_dir_;
  static SecureFlowResult* cold_;
  static double cold_ms_;
};

std::shared_ptr<const CellLibrary> FlowCkpt::lib_;
AigCircuit* FlowCkpt::circuit_ = nullptr;
fs::path FlowCkpt::cache_dir_;
SecureFlowResult* FlowCkpt::cold_ = nullptr;
double FlowCkpt::cold_ms_ = 0.0;

TEST_F(FlowCkpt, ColdRunMissesAndCheckpointsEveryStage) {
  expect_outcomes(cold_->timings, {M, M, M, M, M, M}, "cold");
  EXPECT_EQ(cold_->timings.cache_hits(), 0);
  EXPECT_EQ(cold_->timings.cache_misses(), kNumFlowStages);
  const ArtifactStore store(cache_dir_.string());
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kNumFlowStages));
  for (int i = 0; i < kNumFlowStages; ++i) {
    const FlowStage s = static_cast<FlowStage>(i);
    EXPECT_NE(cold_->timings.key(s), 0u);
    EXPECT_TRUE(store.contains(flow_stage_name(s), cold_->timings.key(s)))
        << flow_stage_name(s);
  }
}

TEST_F(FlowCkpt, WarmRunHitsEveryStage) {
  const SecureFlowResult warm =
      run_secure_flow(*circuit_, lib_, cached_opts());

  expect_outcomes(warm.timings, {H, H, H, H, H, H}, "warm");
  EXPECT_EQ(warm.timings.cache_hits(), kNumFlowStages);
  // No wall-clock bar here: on a design this small a cold run now
  // finishes in tens of milliseconds (the windowed incremental router),
  // so deserializing six artifacts is not reliably faster than simply
  // recomputing them.  What the cache must guarantee is the hits above
  // and the bit-identical artifacts checked below.
  // Same keys as the run that wrote the entries.
  for (int i = 0; i < kNumFlowStages; ++i) {
    const FlowStage s = static_cast<FlowStage>(i);
    EXPECT_EQ(warm.timings.key(s), cold_->timings.key(s));
  }
}

/// Every checkpoint section a run of `kind` saves, as the re-serialization
/// of what a warm run under `opts` loaded from it, keyed
/// "<stage>/<section>".  The placed layout comes from a second warm run that
/// stops after placement, since routing rewrites it.
std::map<std::string, std::string> reserialize_warm(
    FlowKind kind, const AigCircuit& circuit,
    const std::shared_ptr<const CellLibrary>& lib, const FlowOptions& opts) {
  FlowOptions placed_opts = opts;
  placed_opts.stop_after = FlowStage::kPlacement;
  std::map<std::string, std::string> out;
  const auto add_common = [&out](const FlowArtifacts& r) {
    out["synthesis/rtl.v"] = write_verilog(r.rtl);
    out["routing/route_stats"] = write_route_stats(r.route_stats);
    out["extraction/extraction"] = write_extraction(r.extraction);
    out["extraction/caps"] = write_cap_table(r.caps);
    out["extraction/timing"] = write_timing_report(r.timing);
  };
  if (kind == FlowKind::kRegular) {
    const RegularFlowResult w = run_regular_flow(circuit, lib, opts);
    expect_outcomes(w.timings, {H, N, H, H, N, H}, "regular warm");
    add_common(w);
    out["placement/placed.def"] =
        write_def(run_regular_flow(circuit, lib, placed_opts).def);
    out["routing/routed.def"] = write_def(w.def);
    return out;
  }
  const SecureFlowResult w = run_secure_flow(circuit, lib, opts);
  expect_outcomes(w.timings, {H, H, H, H, H, H}, "secure warm");
  // On a substitution hit the live compound inventory is not rebuilt; the
  // fat netlist carries the deserialized fat library instead.
  EXPECT_EQ(w.wlib, nullptr);
  add_common(w);
  out["substitution/fat_lib"] = write_cell_library(w.fat.library());
  out["substitution/fat.v"] = write_verilog(w.fat);
  out["substitution/diff.v"] = write_verilog(w.diff);
  out["substitution/stats"] = write_substitution_stats(w.sub_stats);
  out["substitution/lec"] = write_lec_result(w.lec);
  out["placement/placed.def"] =
      write_def(run_secure_flow(circuit, lib, placed_opts).fat_def);
  out["routing/routed.def"] = write_def(w.fat_def);
  out["decomposition/diff.def"] = write_def(w.def);
  out["decomposition/stream_check"] = write_check_result(w.stream_out_check);
  return out;
}

/// Each section the cold run saved equals the re-serialization of what a
/// warm run loaded from it.
void expect_warm_reserializes_checkpoints(
    FlowKind kind, const AigCircuit& circuit,
    const std::shared_ptr<const CellLibrary>& lib, const fs::path& dir,
    const std::string& ctx) {
  FlowOptions opts;
  opts.cache_dir = dir.string();
  const std::map<std::string, std::string> warm =
      reserialize_warm(kind, circuit, lib, opts);
  const ArtifactStore store(dir.string());
  const auto keys = compute_stage_keys(kind, circuit, *lib, opts);
  std::size_t n_sections = 0;
  for (int i = 0; i < kNumFlowStages; ++i) {
    const FlowStage s = static_cast<FlowStage>(i);
    if (!flow_runs_stage(kind, s)) continue;
    const std::optional<Artifact> saved =
        store.load(flow_stage_name(s), keys[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(saved.has_value()) << ctx << ": " << flow_stage_name(s);
    for (const auto& [section, bytes] : saved->sections) {
      const std::string id = std::string(flow_stage_name(s)) + "/" + section;
      const auto it = warm.find(id);
      ASSERT_NE(it, warm.end()) << ctx << ": " << id;
      EXPECT_EQ(it->second, bytes) << ctx << ": " << id;
      ++n_sections;
    }
  }
  EXPECT_EQ(n_sections, warm.size()) << ctx;
}

TEST_F(FlowCkpt, CachedArtifactsAreBitIdenticalToComputedOnes) {
  // A warm job digests the checkpoint bytes it loaded instead of
  // re-serializing what it parsed from them; the two agree only while
  // write(parse(bytes)) == bytes holds for every section.
  expect_warm_reserializes_checkpoints(FlowKind::kSecure, *circuit_, lib_,
                                       cache_dir_, "mid secure");
  const AigCircuit des = make_des_dpa_circuit();
  const fs::path dir = fs::path(::testing::TempDir()) / "flow_des_cache";
  for (const FlowKind kind : {FlowKind::kRegular, FlowKind::kSecure}) {
    fs::remove_all(dir);
    FlowOptions cold;
    cold.cache_dir = dir.string();
    if (kind == FlowKind::kSecure) {
      run_secure_flow(des, lib_, cold);
    } else {
      run_regular_flow(des, lib_, cold);
    }
    expect_warm_reserializes_checkpoints(
        kind, des, lib_, dir, std::string("des ") + flow_kind_name(kind));
  }
  fs::remove_all(dir);
}

TEST_F(FlowCkpt, DigestsFromCheckpointBytesMatchSerializedOnes) {
  // A cold cached run digests the bytes it saves, a warm run the bytes it
  // loads, and an uncached run serializes every artifact: all three must
  // list the same artifacts with the same digests, at every stop_after.
  const AigCircuit des = make_des_dpa_circuit();
  const fs::path dir = fs::path(::testing::TempDir()) / "flow_digest_cache";
  for (const auto& [design, circuit] :
       {std::pair<const char*, const AigCircuit*>{"mid", circuit_},
        {"des", &des}}) {
    for (const FlowKind kind : {FlowKind::kRegular, FlowKind::kSecure}) {
      for (int i = 0; i < kNumFlowStages; ++i) {
        const FlowStage stop = static_cast<FlowStage>(i);
        if (!flow_runs_stage(kind, stop)) continue;
        const std::string ctx = std::string(design) + " " +
                                flow_kind_name(kind) + " stop_after " +
                                flow_stage_name(stop);
        FlowOptions uncached;
        uncached.stop_after = stop;
        FlowOptions cached = uncached;
        cached.cache_dir = dir.string();
        fs::remove_all(dir);
        const auto digests = [&](const FlowOptions& o) {
          return kind == FlowKind::kSecure
                     ? artifact_digests(run_secure_flow(*circuit, lib_, o))
                     : artifact_digests(run_regular_flow(*circuit, lib_, o));
        };
        const Digests cold = digests(cached);
        const Digests warm = digests(cached);
        const Digests plain = digests(uncached);
        EXPECT_FALSE(plain.empty()) << ctx;
        EXPECT_EQ(cold, plain) << ctx;
        EXPECT_EQ(warm, plain) << ctx;
      }
    }
  }
  fs::remove_all(dir);
}

TEST_F(FlowCkpt, RoutingOptionChangeRerunsRoutingOnwardOnly) {
  // The issue's acceptance criterion: change a routing-stage option and
  // synthesis/substitution/placement still hit while routing and every
  // stage downstream of it re-run.
  FlowOptions opts = cached_opts();
  opts.route.via_cost += 2;
  const SecureFlowResult r = run_secure_flow(*circuit_, lib_, opts);
  expect_outcomes(r.timings, {H, H, H, M, M, M}, "route change");
  // Upstream keys unchanged, routing key (and the chain after it) re-keyed.
  EXPECT_EQ(r.timings.key(FlowStage::kPlacement),
            cold_->timings.key(FlowStage::kPlacement));
  EXPECT_NE(r.timings.key(FlowStage::kRouting),
            cold_->timings.key(FlowStage::kRouting));
  EXPECT_NE(r.timings.key(FlowStage::kExtraction),
            cold_->timings.key(FlowStage::kExtraction));
}

TEST_F(FlowCkpt, ExtractionOptionChangeRerunsOnlyExtraction) {
  FlowOptions opts = cached_opts();
  opts.extract.coupling_max_sep_um += 0.3;
  const SecureFlowResult r = run_secure_flow(*circuit_, lib_, opts);
  expect_outcomes(r.timings, {H, H, H, H, H, M}, "extract change");
}

TEST_F(FlowCkpt, SynthesisInputChangeInvalidatesTheWholeChain) {
  const AigCircuit other = parse_hdl(R"(
    module mid (input clk, input [7:0] a, input [7:0] b, output [7:0] y);
      reg [7:0] r1;
      always @(posedge clk) r1 <= a ^ b;
      assign y = r1;
    endmodule)");
  const SecureFlowResult r = run_secure_flow(other, lib_, cached_opts());
  expect_outcomes(r.timings, {M, M, M, M, M, M}, "new circuit");
  EXPECT_NE(r.timings.key(FlowStage::kSynthesis),
            cold_->timings.key(FlowStage::kSynthesis));
}

TEST_F(FlowCkpt, ExtractionConstantChangeRerunsOnlyExtraction) {
  // Placement reads the wire pitch and width of the process, and nothing
  // else of it: a coupling constant re-extracts the same layout.
  FlowOptions opts = cached_opts();
  opts.extract.process.wire_c_couple_ff_per_um = 0.09;
  const SecureFlowResult r = run_secure_flow(*circuit_, lib_, opts);
  expect_outcomes(r.timings, {H, H, H, H, H, M}, "coupling constant");
}

TEST_F(FlowCkpt, StopAfterThenResumeReproducesTheFullRun) {
  const fs::path dir = fs::path(::testing::TempDir()) / "flow_resume_cache";
  fs::remove_all(dir);

  // First half: run through placement and stop.
  FlowOptions first;
  first.cache_dir = dir.string();
  first.stop_after = FlowStage::kPlacement;
  const SecureFlowResult head = run_secure_flow(*circuit_, lib_, first);
  expect_outcomes(head.timings, {M, M, M, N, N, N}, "stop_after");
  EXPECT_EQ(head.completed_through, FlowStage::kPlacement);
  EXPECT_EQ(ArtifactStore(dir.string()).size(), 3u);
  // Later-stage artifacts are placeholders.
  EXPECT_TRUE(head.def.nets.empty());
  EXPECT_EQ(head.timings.stage_ms(FlowStage::kRouting), 0.0);
  EXPECT_EQ(head.timings.key(FlowStage::kRouting), 0u);
  // The checkpointed prefix matches the full run's: same placement key,
  // and byte-identical placed.def (cold_->fat_def itself was later mutated
  // in place by routing, so compare against the placement checkpoint).
  EXPECT_EQ(head.timings.key(FlowStage::kPlacement),
            cold_->timings.key(FlowStage::kPlacement));
  const auto placed = ArtifactStore(cache_dir_.string())
                          .load("placement",
                                cold_->timings.key(FlowStage::kPlacement));
  ASSERT_TRUE(placed.has_value());
  EXPECT_EQ(write_def(head.fat_def), placed->section("placed.def"));

  // Second half: a warm run on the same store; the prefix must load, not
  // recompute.
  FlowOptions second;
  second.cache_dir = dir.string();
  const SecureFlowResult tail = run_secure_flow(*circuit_, lib_, second);
  expect_outcomes(tail.timings, {H, H, H, M, M, M}, "warm");
  EXPECT_EQ(tail.completed_through, FlowStage::kExtraction);
  // The stitched run equals the one-shot cold run: layout and caps bit for
  // bit; timing up to net enumeration order (net_arrival_ps is NetId-
  // indexed, and a netlist reparsed from cache may number nets differently
  // than the one built in memory).
  EXPECT_EQ(write_def(tail.def), write_def(cold_->def));
  EXPECT_EQ(write_cap_table(tail.caps), write_cap_table(cold_->caps));
  EXPECT_EQ(tail.timing.critical_delay_ps, cold_->timing.critical_delay_ps);
  EXPECT_EQ(tail.timing.min_period_ps, cold_->timing.min_period_ps);
  EXPECT_EQ(tail.timing.endpoint, cold_->timing.endpoint);
  std::vector<double> ta = tail.timing.net_arrival_ps;
  std::vector<double> ca = cold_->timing.net_arrival_ps;
  std::sort(ta.begin(), ta.end());
  std::sort(ca.begin(), ca.end());
  EXPECT_EQ(ta, ca);

  fs::remove_all(dir);
}

TEST_F(FlowCkpt, StopAfterAndResumeFromEveryStageOfBothFlows) {
  const fs::path dir = fs::path(::testing::TempDir()) / "flow_stage_cache";
  for (const FlowKind kind : {FlowKind::kRegular, FlowKind::kSecure}) {
    const RunSummary one_shot = run_flow(kind, *circuit_, lib_, {});
    std::vector<FlowStage> stages;
    for (int i = 0; i < kNumFlowStages; ++i) {
      const FlowStage s = static_cast<FlowStage>(i);
      if (flow_runs_stage(kind, s)) stages.push_back(s);
    }
    for (std::size_t k = 0; k < stages.size(); ++k) {
      const FlowStage stop = stages[k];
      const std::string ctx = std::string(flow_kind_name(kind)) +
                              " stop_after " + flow_stage_name(stop);
      fs::remove_all(dir);
      FlowOptions head_opts;
      head_opts.cache_dir = dir.string();
      head_opts.stop_after = stop;
      const RunSummary head = run_flow(kind, *circuit_, lib_, head_opts);
      EXPECT_EQ(head.completed_through, stop) << ctx;
      // The store holds exactly the checkpointed prefix.
      const ArtifactStore store(dir.string());
      EXPECT_EQ(store.size(), k + 1) << ctx;
      for (int i = 0; i < kNumFlowStages; ++i) {
        const FlowStage s = static_cast<FlowStage>(i);
        const bool ran = flow_runs_stage(kind, s) && s <= stop;
        EXPECT_EQ(head.timings.outcome(s), ran ? M : N)
            << ctx << ": " << flow_stage_name(s);
        if (ran) {
          EXPECT_TRUE(store.contains(flow_stage_name(s), head.timings.key(s)))
              << ctx << ": " << flow_stage_name(s);
        } else {
          EXPECT_EQ(head.timings.key(s), 0u)
              << ctx << ": " << flow_stage_name(s);
        }
      }
      if (k + 1 == stages.size()) continue;  // stopped after the last stage

      // A warm run on the same store loads the prefix, resumes at the
      // next stage and finishes with the one-shot run's artifacts.
      const FlowStage resume = stages[k + 1];
      FlowOptions tail_opts;
      tail_opts.cache_dir = dir.string();
      const RunSummary tail = run_flow(kind, *circuit_, lib_, tail_opts);
      for (int i = 0; i < kNumFlowStages; ++i) {
        const FlowStage s = static_cast<FlowStage>(i);
        const CacheOutcome want =
            !flow_runs_stage(kind, s) ? N : (s < resume ? H : M);
        EXPECT_EQ(tail.timings.outcome(s), want)
            << ctx << ", warm: " << flow_stage_name(s);
      }
      EXPECT_EQ(tail.completed_through, FlowStage::kExtraction) << ctx;
      EXPECT_EQ(tail.digests, one_shot.digests) << ctx;
    }
  }
  fs::remove_all(dir);
}

TEST_F(FlowCkpt, RegularFlowCachesItsFourStages) {
  const fs::path dir = fs::path(::testing::TempDir()) / "flow_regular_cache";
  fs::remove_all(dir);
  FlowOptions opts;
  opts.cache_dir = dir.string();
  const RegularFlowResult cold = run_regular_flow(*circuit_, lib_, opts);
  expect_outcomes(cold.timings, {M, N, M, M, N, M}, "regular cold");
  const RegularFlowResult warm = run_regular_flow(*circuit_, lib_, opts);
  expect_outcomes(warm.timings, {H, N, H, H, N, H}, "regular warm");
  EXPECT_EQ(write_def(warm.def), write_def(cold.def));
  EXPECT_EQ(write_cap_table(warm.caps), write_cap_table(cold.caps));
  // Regular and secure runs of the same circuit never share cache entries.
  EXPECT_NE(warm.timings.key(FlowStage::kSynthesis),
            cold_->timings.key(FlowStage::kSynthesis));
  fs::remove_all(dir);
}

TEST_F(FlowCkpt, RegularFlowRejectsSecureOnlyStages) {
  FlowOptions opts = cached_opts();
  opts.stop_after = FlowStage::kSubstitution;
  EXPECT_THROW(run_regular_flow(*circuit_, lib_, opts), Error);
  opts.stop_after = FlowStage::kDecomposition;
  EXPECT_THROW(run_regular_flow(*circuit_, lib_, opts), Error);
}

TEST_F(FlowCkpt, UncachedRunsReportDisabled) {
  const AigCircuit tiny = parse_hdl(
      "module t (input a, input b, output y); assign y = a & b; endmodule");
  const RegularFlowResult r = run_regular_flow(tiny, lib_);
  expect_outcomes(
      r.timings,
      {CacheOutcome::kDisabled, N, CacheOutcome::kDisabled,
       CacheOutcome::kDisabled, N, CacheOutcome::kDisabled},
      "no cache_dir");
  EXPECT_EQ(r.timings.cache_hits(), 0);
  EXPECT_EQ(r.timings.cache_misses(), 0);
}

}  // namespace
}  // namespace secflow
