// Exhaustive FlowOptions::validate() coverage: every rejection rule fires
// with a descriptive Error, and legal configurations (including the
// checkpoint fields) all pass.  A legal option the flow still cannot
// honour (a pitch that stacks a cell's pins) fails with an Error naming it.
#include "flow/flow.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <utility>

#include "base/error.h"
#include "liberty/builtin_lib.h"
#include "synth/hdl.h"

namespace secflow {
namespace {

/// The message should tell the user which knob is wrong, not just "invalid
/// options".
void expect_invalid(const FlowOptions& o, const std::string& needle) {
  try {
    o.validate();
    FAIL() << "expected Error mentioning '" << needle << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(FlowOptionsValidate, DefaultsAreValid) {
  EXPECT_NO_THROW(FlowOptions{}.validate());
}

TEST(FlowOptionsValidate, ShieldingRequiresDetailedRouting) {
  FlowOptions o;
  o.shielded_pairs = true;
  o.route_mode = RouteMode::kQuickLShaped;
  expect_invalid(o, "shielded_pairs");
  o.route_mode = RouteMode::kDetailed;
  EXPECT_NO_THROW(o.validate());
}

TEST(FlowOptionsValidate, PlacementRanges) {
  FlowOptions o;
  o.place.aspect_ratio = 0.0;
  expect_invalid(o, "aspect_ratio");
  o.place.aspect_ratio = -2.0;
  expect_invalid(o, "aspect_ratio");
  // A tiny ratio overflowed the floorplan's row count into one row.
  o.place.aspect_ratio = 1e-30;
  expect_invalid(o, "place.aspect_ratio");
  o.place.aspect_ratio = 2e3;
  expect_invalid(o, "place.aspect_ratio");
  o.place.aspect_ratio = 1e-3;  // boundaries: legal
  EXPECT_NO_THROW(o.validate());
  o.place.aspect_ratio = 1e3;
  EXPECT_NO_THROW(o.validate());

  o = FlowOptions{};
  o.place.fill_factor = 0.0;
  expect_invalid(o, "fill_factor");
  o.place.fill_factor = 1.5;
  expect_invalid(o, "fill_factor");
  o.place.fill_factor = 1.0;  // boundary: legal
  EXPECT_NO_THROW(o.validate());

  o = FlowOptions{};
  o.place.sa_moves_per_instance = -1;
  expect_invalid(o, "sa_moves_per_instance");

  o = FlowOptions{};
  o.place.sa_batch = 0;
  expect_invalid(o, "sa_batch");

  // A negative margin puts the core outside the die; it is collected with
  // the other violations.
  o = FlowOptions{};
  o.place.margin_tracks = -1;
  expect_invalid(o, "place.margin_tracks must be >= 0");
  o.place.sa_batch = 0;
  expect_invalid(o, "2 violations");
  o = FlowOptions{};
  o.place.margin_tracks = 0;  // boundary: legal (die == core)
  EXPECT_NO_THROW(o.validate());
}

TEST(FlowOptionsValidate, ExtractionRanges) {
  FlowOptions o;
  o.extract.coupling_max_sep_um = -0.1;
  expect_invalid(o, "coupling_max_sep_um");
  o.extract.coupling_max_sep_um = 0.0;  // boundary: legal (no coupling)
  EXPECT_NO_THROW(o.validate());
  // A wider window overflowed its DBU conversion and dropped all coupling.
  o.extract.coupling_max_sep_um = 1e16;
  expect_invalid(o, "extract.coupling_max_sep_um");
  o.extract.coupling_max_sep_um = kMaxCouplingSepUm;  // boundary: legal
  EXPECT_NO_THROW(o.validate());

  o = FlowOptions{};
  o.extract.variation_sigma = -1e-9;
  expect_invalid(o, "variation_sigma");
}

TEST(FlowOptionsValidate, WirePitchConvertsToAtLeastOneDbu) {
  // generate_lef divides by the pitch in DBU: a pitch that rounds to 0
  // DBU killed the process with SIGFPE.
  FlowOptions o;
  o.extract.process.wire_pitch_um = 0.0;
  expect_invalid(o, "extract.process.wire_pitch_um");
  o.extract.process.wire_pitch_um = 0.0004;
  expect_invalid(o, "extract.process.wire_pitch_um");
  o.extract.process.wire_pitch_um = -0.56;
  expect_invalid(o, "extract.process.wire_pitch_um");
  // Boundary: the finest legal wires, 1 DBU wide on a 2 DBU pitch.
  o.extract.process.wire_pitch_um = 0.002;
  o.extract.process.wire_width_um = 0.0005;
  EXPECT_NO_THROW(o.validate());
}

TEST(FlowOptionsValidate, WireGeometryIsBounded) {
  // Without an upper bound the DBU conversion overflows.
  FlowOptions o;
  for (double bad : {1e16, 1e300, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    o.extract.process.wire_pitch_um = bad;
    expect_invalid(o, "extract.process.wire_pitch_um");
  }
  o.extract.process.wire_pitch_um = kMaxWirePitchUm;  // boundary: legal
  EXPECT_NO_THROW(o.validate());
  o.extract.process.wire_width_um = 1e16;
  expect_invalid(o, "extract.process.wire_width_um");
}

TEST(FlowOptionsValidate, WireWidthIsBelowPitch) {
  FlowOptions o;
  // Wider than the 0.56 um pitch, the two rails of a pair overlap.
  o.extract.process.wire_width_um = 0.7;
  expect_invalid(o, "extract.process.wire_width_um");
  o.extract.process.wire_width_um = 0.56;  // touching rails
  expect_invalid(o, "extract.process.wire_width_um");
  o.extract.process.wire_width_um = 0.559;  // boundary: legal
  EXPECT_NO_THROW(o.validate());
  o.extract.process.wire_width_um = 0.0;  // failed deep in decomposition
  expect_invalid(o, "extract.process.wire_width_um");
  o.extract.process.wire_width_um = 0.0004;  // rounds to 0 DBU
  expect_invalid(o, "extract.process.wire_width_um");
  o.extract.process.wire_width_um = 0.0005;  // boundary: 1 DBU, legal
  EXPECT_NO_THROW(o.validate());
  // A bad pitch is one violation, not one for the width as well.
  o = FlowOptions{};
  o.extract.process.wire_pitch_um = 0.0;
  try {
    o.validate();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("wire_pitch_um"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("wire_width_um"), std::string::npos) << msg;
  }
}

TEST(FlowOptionsValidate, SupplyVoltageIsPositive) {
  FlowOptions o;
  o.extract.process.vdd_v = 0.0;
  expect_invalid(o, "extract.process.vdd_v");
  o.extract.process.vdd_v = -1.8;
  expect_invalid(o, "extract.process.vdd_v");
  o.extract.process.vdd_v = 1e-9;  // any positive supply is legal
  EXPECT_NO_THROW(o.validate());
}

TEST(FlowOptionsValidate, ParasiticsAreNonNegative) {
  // A negative coupling capacitance cut the secure DES critical delay
  // from 2,268 to 1,834 ps.
  const std::pair<double Process018::*, const char*> members[] = {
      {&Process018::wire_c_area_ff_per_um2, "wire_c_area_ff_per_um2"},
      {&Process018::wire_c_fringe_ff_per_um, "wire_c_fringe_ff_per_um"},
      {&Process018::wire_c_couple_ff_per_um, "wire_c_couple_ff_per_um"},
      {&Process018::via_c_ff, "via_c_ff"},
      {&Process018::wire_r_ohm_per_sq, "wire_r_ohm_per_sq"},
      {&Process018::via_r_ohm, "via_r_ohm"},
  };
  for (const auto& [member, name] : members) {
    FlowOptions o;
    o.extract.process.*member = -1e-9;
    expect_invalid(o, std::string("extract.process.") + name);
    o.extract.process.*member = 0.0;  // boundary: legal
    EXPECT_NO_THROW(o.validate()) << name;
  }
}

TEST(FlowOptionsValidate, RoutingRanges) {
  FlowOptions o;
  o.route.max_iterations = 0;
  expect_invalid(o, "max_iterations");

  o = FlowOptions{};
  o.route.via_cost = -2;  // a via up-and-down pair would cost < 0
  expect_invalid(o, "via_cost");
  o.route.via_cost = -1;
  expect_invalid(o, "via_cost");
  o.route.via_cost = 0;  // boundary: legal
  EXPECT_NO_THROW(o.validate());

  o = FlowOptions{};
  o.route.window_margin = -1;
  expect_invalid(o, "window_margin");
  o.route.window_margin = 0;  // boundary: legal (pin bounding box itself)
  EXPECT_NO_THROW(o.validate());

  o = FlowOptions{};
  o.route.window_escalation = 1;  // a non-growing window never escapes
  expect_invalid(o, "window_escalation");
  o.route.window_escalation = 2;  // boundary: legal
  EXPECT_NO_THROW(o.validate());
}

TEST(FlowOptionsValidate, ThreadCounts) {
  FlowOptions o;
  o.parallelism.n_threads = -1;
  expect_invalid(o, "thread");
  o = FlowOptions{};
  o.parallelism.n_threads = 16;  // explicit counts are fine
  EXPECT_NO_THROW(o.validate());
}

TEST(FlowOptionsValidate, CacheFieldsAcceptLegalCombinations) {
  FlowOptions o;
  o.cache_dir = "/tmp/ckpt";
  EXPECT_NO_THROW(o.validate());

  o.stop_after = FlowStage::kPlacement;  // stop without resume
  EXPECT_NO_THROW(o.validate());

  o.resume_from = FlowStage::kPlacement;  // resume == stop: one stage runs
  EXPECT_NO_THROW(o.validate());

  o.resume_from = FlowStage::kSubstitution;
  o.stop_after = FlowStage::kExtraction;
  EXPECT_NO_THROW(o.validate());

  o.resume_from.reset();
  o.stop_after = FlowStage::kSynthesis;  // stop_after alone, first stage
  EXPECT_NO_THROW(o.validate());

  // stop_after does not require a cache directory (nothing to load).
  o = FlowOptions{};
  o.stop_after = FlowStage::kRouting;
  EXPECT_NO_THROW(o.validate());
}

TEST(FlowOptionsValidate, ResumeWithoutCacheDirIsRejected) {
  FlowOptions o;
  o.resume_from = FlowStage::kRouting;
  expect_invalid(o, "cache_dir");
}

TEST(FlowOptionsValidate, ResumeFromSynthesisIsRejected) {
  FlowOptions o;
  o.cache_dir = "/tmp/ckpt";
  o.resume_from = FlowStage::kSynthesis;
  expect_invalid(o, "synthesis");
}

TEST(FlowOptionsValidate, StopBeforeResumeIsRejected) {
  FlowOptions o;
  o.cache_dir = "/tmp/ckpt";
  o.resume_from = FlowStage::kRouting;
  o.stop_after = FlowStage::kPlacement;
  expect_invalid(o, "stop_after");
}

TEST(FlowOptionsValidate, AggregatesAllViolationsIntoOneError) {
  // Several independent problems at once: validate() must report every
  // one of them in a single Error, not just the first.
  FlowOptions o;
  o.place.aspect_ratio = -1.0;
  o.place.fill_factor = 2.0;
  o.place.sa_batch = 0;
  o.extract.variation_sigma = -0.5;
  o.resume_from = FlowStage::kRouting;  // without cache_dir
  try {
    o.validate();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("violations"), std::string::npos) << msg;
    EXPECT_NE(msg.find("aspect_ratio"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fill_factor"), std::string::npos) << msg;
    EXPECT_NE(msg.find("sa_batch"), std::string::npos) << msg;
    EXPECT_NE(msg.find("variation_sigma"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cache_dir"), std::string::npos) << msg;
  }
}

TEST(FlowOptionsValidate, SingleViolationHasNoAggregateHeader) {
  FlowOptions o;
  o.place.sa_batch = -4;
  try {
    o.validate();
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.find("violations"), std::string::npos) << msg;
    EXPECT_NE(msg.find("sa_batch"), std::string::npos) << msg;
  }
}

TEST(FlowLef, PitchThatStacksPinsFailsBothFlowsNamingTheCell) {
  // A legal but coarse pitch snaps every pin of a small cell to one grid
  // point, where the router would join their nets; downstream, only the
  // secure flow's stream-out check would notice, naming a rail pin rather
  // than the cell or the pitch.
  const AigCircuit small = parse_hdl(R"(
    module small (input clk, input [3:0] a, input [3:0] b, output [3:0] y);
      reg [3:0] r;
      wire [3:0] m;
      assign m = (a & b) ^ r;
      always @(posedge clk) r <= m | a;
      assign y = r ^ b;
    endmodule)");
  const auto lib = builtin_stdcell018();
  FlowOptions o;
  o.extract.process.wire_pitch_um = 50.0;
  o.extract.process.wire_width_um = 25.0;
  ASSERT_NO_THROW(o.validate());
  const auto expect_stacked_pins = [](const std::function<void()>& run,
                                      const char* flow) {
    try {
      run();
      ADD_FAILURE() << flow << " flow: expected Error";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("LEF generation: macro "), std::string::npos)
          << flow << ": " << msg;
      EXPECT_NE(msg.find("both snap to (0, 0) DBU at wire pitch"),
                std::string::npos)
          << flow << ": " << msg;
    }
  };
  expect_stacked_pins([&] { run_regular_flow(small, lib, o); }, "regular");
  expect_stacked_pins([&] { run_secure_flow(small, lib, o); }, "secure");
}

TEST(FlowStageApi, NamesAndCounters) {
  EXPECT_STREQ(flow_stage_name(FlowStage::kSynthesis), "synthesis");
  EXPECT_STREQ(flow_stage_name(FlowStage::kSubstitution), "substitution");
  EXPECT_STREQ(flow_stage_name(FlowStage::kPlacement), "placement");
  EXPECT_STREQ(flow_stage_name(FlowStage::kRouting), "routing");
  EXPECT_STREQ(flow_stage_name(FlowStage::kDecomposition), "decomposition");
  EXPECT_STREQ(flow_stage_name(FlowStage::kExtraction), "extraction");

  StageTimings t;
  EXPECT_EQ(t.cache_hits(), 0);
  EXPECT_EQ(t.cache_misses(), 0);
  EXPECT_EQ(t.outcome(FlowStage::kRouting), CacheOutcome::kNotRun);
  EXPECT_EQ(t.key(FlowStage::kRouting), 0u);
  t.cache[static_cast<std::size_t>(FlowStage::kSynthesis)] =
      CacheOutcome::kHit;
  t.cache[static_cast<std::size_t>(FlowStage::kPlacement)] =
      CacheOutcome::kMiss;
  t.cache[static_cast<std::size_t>(FlowStage::kRouting)] =
      CacheOutcome::kDisabled;
  EXPECT_EQ(t.cache_hits(), 1);
  EXPECT_EQ(t.cache_misses(), 1);
}

}  // namespace
}  // namespace secflow
