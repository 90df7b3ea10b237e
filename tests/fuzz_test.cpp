#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "base/error.h"
#include "base/rng.h"
#include "ckpt/fingerprint.h"
#include "flow/flow.h"
#include "fuzz/fuzzer.h"
#include "fuzz/generator.h"
#include "fuzz/inject.h"
#include "fuzz/minimize.h"
#include "fuzz/oracles.h"
#include "fuzz/program.h"
#include "lec/lec.h"
#include "liberty/builtin_lib.h"
#include "obs/json.h"
#include "synth/hdl.h"
#include "synth/techmap.h"
#include "wddl/cell_substitution.h"
#include "wddl/wddl_library.h"

namespace secflow {
namespace {

std::uint64_t design_seed(std::uint64_t run_seed, std::uint64_t i) {
  return Rng::stream(run_seed, i).next_u64();
}

// --- generator --------------------------------------------------------------

TEST(FuzzGenerator, DeterministicInSeed) {
  for (std::uint64_t s = 0; s < 8; ++s) {
    const HdlModule a = generate_program(s);
    const HdlModule b = generate_program(s);
    EXPECT_EQ(a, b);
    EXPECT_EQ(emit_hdl(a), emit_hdl(b));
  }
  EXPECT_NE(emit_hdl(generate_program(1)), emit_hdl(generate_program(2)));
}

TEST(FuzzGenerator, ProducesElaborableSequentialDesigns) {
  int n_seq = 0, n_reset = 0, n_multi_out = 0;
  for (std::uint64_t s = 0; s < 32; ++s) {
    const HdlModule p = generate_program(s);
    if (!p.regs.empty()) {
      EXPECT_EQ(p.clock, "clk");
      ++n_seq;
    }
    for (const HdlSignal& in : p.inputs) {
      if (in.name == "rst") ++n_reset;
    }
    if (p.outputs.size() > 1) ++n_multi_out;
    // Every generated program must elaborate through the real HDL parser.
    EXPECT_NO_THROW(parse_hdl(emit_hdl(p))) << emit_hdl(p);
  }
  // The grammar exercises the sequential features it claims to cover.
  EXPECT_GT(n_seq, 0);
  EXPECT_GT(n_reset, 0);
  EXPECT_GT(n_multi_out, 0);
}

TEST(FuzzProgram, EmitParseRoundTrip) {
  for (std::uint64_t s = 0; s < 32; ++s) {
    const HdlModule p = generate_program(s);
    const HdlModule q = parse_hdl_module(emit_hdl(p));
    EXPECT_EQ(p, q) << emit_hdl(p);
  }
}

// --- metamorphic transforms -------------------------------------------------

TEST(FuzzTransforms, RenameAndShuffleAreDigestNeutral) {
  for (std::uint64_t s = 0; s < 16; ++s) {
    const HdlModule p = generate_program(s);
    const std::uint64_t fp = fingerprint(parse_hdl(emit_hdl(p)));
    EXPECT_EQ(fp, fingerprint(parse_hdl(emit_hdl(rename_wires(p, s + 1)))));
    EXPECT_EQ(fp,
              fingerprint(parse_hdl(emit_hdl(shuffle_statements(p, s + 1)))));
  }
}

TEST(FuzzTransforms, PortPermutationIsLogicallyEquivalent) {
  auto base = builtin_stdcell018();
  for (std::uint64_t s = 0; s < 8; ++s) {
    const HdlModule p = generate_program(s);
    const Netlist a = technology_map(parse_hdl(emit_hdl(p)), base);
    const Netlist b =
        technology_map(parse_hdl(emit_hdl(permute_ports(p, s + 1))), base);
    EXPECT_TRUE(check_equivalence(a, b).equivalent) << emit_hdl(p);
  }
}

// --- oracle battery ---------------------------------------------------------

TEST(FuzzOracles, CleanDesignsPassTheBattery) {
  for (std::uint64_t i = 0; i < 8; ++i) {
    OracleOptions opts;
    opts.seed = design_seed(1, i);
    opts.n_vectors = 100;
    const OracleReport rep =
        run_oracle_battery(generate_program(opts.seed), opts);
    const OracleVerdict* fail = rep.first_failure();
    EXPECT_TRUE(rep.all_ok())
        << (fail ? fail->oracle + ": " + fail->detail : "");
  }
}

TEST(FuzzOracles, BatteryDigestIsDeterministic) {
  OracleOptions opts;
  opts.seed = design_seed(1, 0);
  opts.n_vectors = 50;
  const HdlModule p = generate_program(opts.seed);
  EXPECT_EQ(run_oracle_battery(p, opts).digest(),
            run_oracle_battery(p, opts).digest());
}

/// Scan seeds for one where the requested fault has an injection site, and
/// return its failing report (the battery must object to every fault it
/// could plant).
OracleReport first_injectable_failure(FaultKind fault, bool deep,
                                      std::uint64_t* out_seed) {
  for (std::uint64_t i = 0; i < 64; ++i) {
    OracleOptions opts;
    opts.seed = design_seed(7, i);
    opts.n_vectors = 200;
    opts.deep = deep;
    opts.inject = fault;
    const OracleReport rep =
        run_oracle_battery(generate_program(opts.seed), opts);
    if (!rep.injectable) continue;
    if (deep && rep.first_failure() == nullptr) continue;  // flow infeasible
    *out_seed = opts.seed;
    return rep;
  }
  ADD_FAILURE() << "no injectable design in 64 seeds for fault "
                << fault_kind_name(fault);
  return {};
}

TEST(FuzzInjection, PinSwapIsCaughtByCrossChecks) {
  std::uint64_t seed = 0;
  const OracleReport rep =
      first_injectable_failure(FaultKind::kSubstitutionPinSwap, false, &seed);
  ASSERT_NE(rep.first_failure(), nullptr) << "pin swap went unnoticed";
  EXPECT_FALSE(rep.injected_edit.empty());
  const std::string& oracle = rep.first_failure()->oracle;
  EXPECT_TRUE(oracle == "cross-lec-fat-rtl" || oracle == "cross-sim-fat-rtl")
      << oracle;
}

TEST(FuzzInjection, RailSwapIsCaughtByDifferentialSimulation) {
  std::uint64_t seed = 0;
  const OracleReport rep =
      first_injectable_failure(FaultKind::kRailSwap, false, &seed);
  ASSERT_NE(rep.first_failure(), nullptr) << "rail swap went unnoticed";
  // The crossed pair stays complementary and still switches once per
  // phase, so only the value-level agreement oracle can object.
  EXPECT_EQ(rep.first_failure()->oracle, "wddl-seq-agreement");
}

TEST(FuzzInjection, CapImbalanceIsCaughtByTheMatchedLoadBound) {
  std::uint64_t seed = 0;
  const OracleReport rep =
      first_injectable_failure(FaultKind::kCapImbalance, true, &seed);
  ASSERT_NE(rep.first_failure(), nullptr) << "cap imbalance went unnoticed";
  EXPECT_EQ(rep.first_failure()->oracle, "wddl-cap-mismatch");
}

// --- minimizer --------------------------------------------------------------

TEST(FuzzMinimizer, ShrinksAPinSwapReproducerToTenLinesOrFewer) {
  std::uint64_t seed = 0;
  const OracleReport rep =
      first_injectable_failure(FaultKind::kSubstitutionPinSwap, false, &seed);
  ASSERT_NE(rep.first_failure(), nullptr);
  const std::string oracle = rep.first_failure()->oracle;

  OracleOptions opts;
  opts.seed = seed;
  opts.n_vectors = 200;
  opts.inject = FaultKind::kSubstitutionPinSwap;
  const HdlModule p = generate_program(seed);
  const auto still_fails = [&](const HdlModule& cand) {
    const OracleReport r = run_oracle_battery(cand, opts);
    if (!r.injectable) return false;
    const OracleVerdict* f = r.first_failure();
    return f != nullptr && f->oracle == oracle;
  };
  const MinimizeResult m = minimize_program(p, still_fails, 2000);
  EXPECT_TRUE(still_fails(m.program));
  EXPECT_LE(m.final_lines, m.initial_lines);
  EXPECT_LE(m.final_lines, 10) << emit_hdl(m.program);
}

// --- fuzzer-found regression ------------------------------------------------

// Found by `fuzz --seed 1`: a constant driven through an inverter to an
// output port.  The LEC cone builder walks topological_order(), which
// interleaved tie cells with combinational gates by instance index; the
// substituted fat netlist creates its port buffer before the tie, so the
// buffer's cone was evaluated against an uninitialized input and the
// secure flow failed its own fat-vs-rtl equivalence check.
TEST(FuzzRegression, ConstantThroughInverterSurvivesSubstitutionLec) {
  const char* src =
      "module fz (input in0, output out2);\n"
      "  wire w0;\n"
      "  assign w0 = ~1'd0;\n"
      "  assign out2 = w0;\n"
      "endmodule\n";
  auto base = builtin_stdcell018();
  WddlLibrary wlib(base);
  const Netlist rtl =
      technology_map(parse_hdl(src), base, wddl_synth_constraints());
  const SubstitutionResult sub = substitute_cells(rtl, wlib);
  const LecResult lec = check_equivalence(sub.fat, rtl);
  EXPECT_TRUE(lec.equivalent)
      << (lec.mismatches.empty() ? "" : lec.mismatches.front().what);

  // The ordering contract the fix restored: every sequential/constant
  // source precedes every combinational gate.
  bool seen_comb = false;
  for (InstId id : sub.fat.topological_order()) {
    const bool comb = sub.fat.cell_of(id).kind == CellKind::kCombinational;
    EXPECT_FALSE(!comb && seen_comb)
        << "source " << sub.fat.instance(id).name << " after a gate";
    seen_comb |= comb;
  }

  OracleOptions opts;
  opts.seed = 1;
  opts.n_vectors = 50;
  const OracleReport rep =
      run_oracle_battery(parse_hdl_module(src), opts);
  const OracleVerdict* fail = rep.first_failure();
  EXPECT_TRUE(rep.all_ok()) << (fail ? fail->oracle + ": " + fail->detail : "");
}

// --- campaign driver and replay ---------------------------------------------

class FuzzRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = ::testing::TempDir() + "secflow_fuzz_corpus";
    std::filesystem::remove_all(corpus_);
  }
  void TearDown() override { std::filesystem::remove_all(corpus_); }
  std::string corpus_;
};

TEST_F(FuzzRunTest, CleanRunWritesNoCorpus) {
  FuzzOptions opts;
  opts.seed = 1;
  opts.count = 10;
  opts.deep_every = 0;
  opts.corpus_dir = corpus_;
  opts.oracles.n_vectors = 100;
  const FuzzRunResult run = run_fuzz(opts);
  EXPECT_TRUE(run.all_ok());
  EXPECT_EQ(run.n_ok, 10);
  EXPECT_FALSE(std::filesystem::exists(corpus_));
}

TEST_F(FuzzRunTest, InjectedFaultYieldsAReplayableReproducer) {
  FuzzOptions opts;
  opts.seed = 1;
  opts.count = 20;
  opts.deep_every = 0;
  opts.corpus_dir = corpus_;
  opts.inject = FaultKind::kSubstitutionPinSwap;
  opts.oracles.n_vectors = 200;
  const FuzzRunResult run = run_fuzz(opts);
  ASSERT_EQ(run.n_failed, 1);

  const FuzzCaseResult* failed = nullptr;
  for (const FuzzCaseResult& c : run.cases) {
    if (!c.ok && !c.skipped) failed = &c;
  }
  ASSERT_NE(failed, nullptr);
  EXPECT_LE(failed->minimized_lines, 10);
  ASSERT_TRUE(std::filesystem::exists(failed->repro_path));

  // The stored document is strict JSON with the expected schema tag.
  std::ifstream in(failed->repro_path);
  std::ostringstream ss;
  ss << in.rdbuf();
  const JsonValue j = json_parse(ss.str());
  ASSERT_NE(j.find("schema"), nullptr);
  EXPECT_EQ(j.find("schema")->as_string(), "secflow.fuzz-repro/1");

  // Replays are bit-exact: same digest on every replay, fault still live.
  const ReplayResult r1 = replay_repro(failed->repro_path);
  const ReplayResult r2 = replay_repro(failed->repro_path);
  EXPECT_TRUE(r1.digest_match);
  EXPECT_TRUE(r1.still_fails);
  EXPECT_EQ(r1.oracle, failed->oracle);
  EXPECT_EQ(r1.replayed_digest, r2.replayed_digest);

  // A tampered count fails on read, naming the member, instead of being
  // cast to an int.
  JsonValue tampered = j;
  tampered.find("oracle_options")->set("n_vectors", JsonValue(1e12));
  const std::string tampered_path = corpus_ + "/tampered.json";
  std::ofstream(tampered_path) << json_dump(tampered, 2);
  try {
    replay_repro(tampered_path);
    ADD_FAILURE() << "replayed a reproducer with n_vectors = 1e12";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("member 'n_vectors'"),
              std::string::npos) << e.what();
  }
}

TEST_F(FuzzRunTest, RunsAreDeterministicInTheSeed) {
  FuzzOptions opts;
  opts.seed = 42;
  opts.count = 5;
  opts.deep_every = 0;
  opts.corpus_dir = corpus_;
  opts.oracles.n_vectors = 50;
  const FuzzRunResult a = run_fuzz(opts);
  const FuzzRunResult b = run_fuzz(opts);
  ASSERT_EQ(a.cases.size(), b.cases.size());
  for (std::size_t i = 0; i < a.cases.size(); ++i) {
    EXPECT_EQ(a.cases[i].design_seed, b.cases[i].design_seed);
    EXPECT_EQ(a.cases[i].ok, b.cases[i].ok);
  }
}

}  // namespace
}  // namespace secflow
