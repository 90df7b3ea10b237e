// Exhaustive FlowOptions::validate() coverage: every rejection rule fires
// with a descriptive Error, and legal configurations (including the
// checkpoint fields) all pass.
#include "flow/flow.h"

#include <gtest/gtest.h>

#include "base/error.h"

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
