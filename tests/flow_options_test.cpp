// Exhaustive FlowOptions::validate() coverage: every rejection rule fires
// with a descriptive Error, and legal configurations (including the
// checkpoint fields) all pass.  A legal option the flow still cannot
// honour (a pitch that stacks a cell's pins) fails with an Error naming it.
// Every knob of flow/knobs.h is walked: set from a campaign spec, keyed
// into the right stage, and rejected just outside its range.
#include "flow/flow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "base/error.h"
#include "campaign/spec.h"
#include "flow/knobs.h"
#include "liberty/builtin_lib.h"
#include "obs/json.h"
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

TEST(FlowOptionsValidate, CacheFieldsAcceptLegalCombinations) {
  FlowOptions o;
  o.cache_dir = "/tmp/ckpt";
  EXPECT_NO_THROW(o.validate());

  o.stop_after = FlowStage::kPlacement;
  EXPECT_NO_THROW(o.validate());

  o.stop_after = FlowStage::kExtraction;
  EXPECT_NO_THROW(o.validate());

  o.stop_after = FlowStage::kSynthesis;  // the first stage
  EXPECT_NO_THROW(o.validate());

  // stop_after does not require a cache directory (nothing to load).
  o = FlowOptions{};
  o.stop_after = FlowStage::kRouting;
  EXPECT_NO_THROW(o.validate());
}

TEST(FlowOptionsValidate, AggregatesAllViolationsIntoOneError) {
  // Several independent problems at once: validate() must report every
  // one of them in a single Error, not just the first.
  FlowOptions o;
  o.place.aspect_ratio = -1.0;
  o.place.fill_factor = 2.0;
  o.place.sa_batch = 0;
  o.extract.variation_sigma = -0.5;
  o.shielded_pairs = true;  // with quick routing: a cross-knob rule
  o.route_mode = RouteMode::kQuickLShaped;
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
    EXPECT_NE(msg.find("shielded_pairs"), std::string::npos) << msg;
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

TEST(FlowOptionsValidate, SynthCutLimits) {
  // A negative per-node cut count made the mapper's cut list throw
  // std::length_error; a cut narrower than 2 inputs, or no cut kept per
  // node, left AND nodes unmappable and blamed the allowed cell set.
  FlowOptions o;
  for (const int bad : {-1, 0}) {
    o.synth.max_cuts_per_node = bad;
    expect_invalid(o, "synth.max_cuts_per_node must be >= 1");
  }
  o = FlowOptions{};
  for (const int bad : {1, 0, -3}) {
    o.synth.max_cut_size = bad;
    expect_invalid(o, "synth.max_cut_size must be >= 2");
  }
  // Boundaries: legal, and both flows map the small design under them.
  const AigCircuit small = parse_hdl(R"(
    module small (input clk, input [3:0] a, input [3:0] b, output [3:0] y);
      reg [3:0] r;
      wire [3:0] m;
      assign m = (a & b) ^ r;
      always @(posedge clk) r <= m | a;
      assign y = r ^ b;
    endmodule)");
  o = FlowOptions{};
  o.synth.max_cut_size = 2;
  o.synth.max_cuts_per_node = 1;
  o.stop_after = FlowStage::kSynthesis;
  EXPECT_NO_THROW(o.validate());
  EXPECT_NO_THROW(run_regular_flow(small, builtin_stdcell018(), o));
  EXPECT_NO_THROW(run_secure_flow(small, builtin_stdcell018(), o));
}

// ---------------------------------------------------------------------------
// The knob lists, walked.

using KnobRef = std::variant<double*, int*, std::uint64_t*, bool*,
                             std::vector<std::string>*, RouteMode*>;

/// One knob of a FlowOptions: its dotted path, where its value lives and
/// its range, if it has one.
struct Knob {
  std::string path;
  KnobRef ref;
  std::optional<KnobRange> range;
};

struct KnobCollector {
  std::vector<Knob>& out;
  std::string prefix;

  template <class T>
  void knob(const char* key, T& v) {
    out.push_back({prefix + key, &v, std::nullopt});
  }
  template <class T>
  void knob(const char* key, T& v, const KnobRange& r) {
    out.push_back({prefix + key, &v, r});
  }
  template <class E, std::size_t N>
  void choice(const char* key, E& v, const KnobChoice<E> (&)[N]) {
    out.push_back({prefix + key, &v, std::nullopt});
  }
  template <class S>
  void group(const char* key, S& s) {
    KnobCollector sub{out, prefix + key + "."};
    knobs(sub, s);
  }
};

/// Every knob of `o`, in list order, pointing into `o`.
std::vector<Knob> knobs_of(FlowOptions& o) {
  std::vector<Knob> out;
  KnobCollector walk{out, ""};
  knobs(walk, o);
  return out;
}

/// A knob's value as a campaign spec spells it.
JsonValue knob_json(const KnobRef& ref) {
  return std::visit(
      [](auto* v) -> JsonValue {
        using T = std::remove_pointer_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          JsonValue a = JsonValue::array();
          for (const std::string& s : *v) a.push_back(JsonValue(s));
          return a;
        } else if constexpr (std::is_same_v<T, RouteMode>) {
          for (const auto& c : kRouteModes) {
            if (c.value == *v) return JsonValue(c.name);
          }
          return JsonValue();
        } else {
          return JsonValue(*v);
        }
      },
      ref);
}

/// Sets a knob from a number: the values just outside its range.
void set_knob(const KnobRef& ref, double x) {
  std::visit(
      [x](auto* v) {
        using T = std::remove_pointer_t<decltype(v)>;
        if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
          *v = static_cast<T>(x);
        } else {
          ADD_FAILURE() << "a knob with a range is not a number";
        }
      },
      ref);
}

/// Sets a knob to a legal value other than the one it holds.
void change_knob(const Knob& k) {
  const KnobRange any;
  const KnobRange& r = k.range ? *k.range : any;
  std::visit(
      [&r](auto* v) {
        using T = std::remove_pointer_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>) {
          *v = !*v;
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          *v = {"NAND2", "n1"};
        } else if constexpr (std::is_same_v<T, RouteMode>) {
          *v = *v == RouteMode::kDetailed ? RouteMode::kQuickLShaped
                                          : RouteMode::kDetailed;
        } else if constexpr (std::is_floating_point_v<T>) {
          for (const T x : {*v * 1.25, *v * 0.75, T{0.5}}) {
            if (x != *v && r.contains(x)) {
              *v = x;
              return;
            }
          }
        } else {
          *v = r.contains(static_cast<double>(*v + 1)) ? *v + 1 : *v - 1;
        }
      },
      k.ref);
}

/// The numbers just outside a knob's range: the open bound itself, or the
/// next value past a closed one (for an integer knob, one past it).
std::vector<double> just_outside(const Knob& k) {
  const bool integral = !std::holds_alternative<double*>(k.ref);
  const KnobRange& r = *k.range;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> out;
  if (r.lo != -inf) {
    out.push_back(r.lo_open   ? r.lo
                  : integral ? r.lo - 1
                             : std::nextafter(r.lo, -inf));
  }
  if (r.hi != inf) {
    out.push_back(integral ? r.hi + 1 : std::nextafter(r.hi, inf));
  }
  return out;
}

/// A one-job secure campaign whose options set the knob at `path`.
std::string spec_setting(const std::string& path, const JsonValue& value) {
  JsonValue options = value;
  std::size_t end = path.size();
  while (end != 0) {
    const std::size_t dot = path.rfind('.', end - 1);
    const std::size_t begin = dot == std::string::npos ? 0 : dot + 1;
    JsonValue o = JsonValue::object();
    o.set(path.substr(begin, end - begin), std::move(options));
    options = std::move(o);
    end = begin == 0 ? 0 : dot;
  }
  JsonValue circuit = JsonValue::object();
  circuit.set("builtin", "des-dpa");
  JsonValue job = JsonValue::object();
  job.set("circuit", std::move(circuit));
  job.set("flow", "secure");
  job.set("options", std::move(options));
  JsonValue jobs = JsonValue::array();
  jobs.push_back(std::move(job));
  JsonValue doc = JsonValue::object();
  doc.set("schema", kCampaignSpecSchema);
  doc.set("jobs", std::move(jobs));
  return json_dump(doc);
}

/// Every knob's value, by path.
std::map<std::string, JsonValue> knob_values(FlowOptions o) {
  std::map<std::string, JsonValue> values;
  for (const Knob& k : knobs_of(o)) values[k.path] = knob_json(k.ref);
  return values;
}

/// The first stage whose key a knob feeds (kStages in flow.cpp): the LEF
/// generator reads only the wire pitch and width of the process.
FlowStage stage_fed(const std::string& path) {
  const std::pair<const char*, FlowStage> feeds[] = {
      {"synth.", FlowStage::kSynthesis},
      {"place.", FlowStage::kPlacement},
      {"extract.process.wire_pitch_um", FlowStage::kPlacement},
      {"extract.process.wire_width_um", FlowStage::kPlacement},
      {"shielded_pairs", FlowStage::kPlacement},
      {"route.", FlowStage::kRouting},
      {"route_mode", FlowStage::kRouting},
      {"extract.", FlowStage::kExtraction},
  };
  for (const auto& [prefix, stage] : feeds) {
    if (path.rfind(prefix, 0) == 0) return stage;
  }
  ADD_FAILURE() << "no stage feeds " << path;
  return FlowStage::kSynthesis;
}

std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "accepted";
}

TEST(FlowKnobs, EveryKnobIsSetKeyedAndRangeChecked) {
  const AigCircuit circuit = parse_hdl(
      "module m (input a, input b, output y); assign y = a & b; endmodule");
  const auto lib = builtin_stdcell018();
  const FlowOptions defaults;
  const auto default_keys =
      compute_stage_keys(FlowKind::kSecure, circuit, *lib, defaults);
  FlowOptions walked;
  std::vector<std::string> paths;
  for (const Knob& k : knobs_of(walked)) {
    SCOPED_TRACE(k.path);
    paths.push_back(k.path);

    // (a) A spec that sets the knob by its path parses to that value, and
    // to every other knob's default.
    FlowOptions changed = defaults;
    const std::vector<Knob> changed_knobs = knobs_of(changed);
    const Knob& target = changed_knobs[paths.size() - 1];
    change_knob(target);
    ASSERT_NO_THROW(changed.validate());
    const JsonValue value = knob_json(target.ref);
    ASSERT_NE(value, knob_json(k.ref)) << "no legal non-default value";
    CampaignSpec spec;
    ASSERT_NO_THROW(spec = parse_campaign_spec(spec_setting(k.path, value)));
    std::map<std::string, JsonValue> want = knob_values(defaults);
    want[k.path] = value;
    EXPECT_EQ(knob_values(spec.jobs[0].options), want);

    // (b) The secure flow re-keys the stage the knob feeds, and nothing
    // before it.
    const auto keys = compute_stage_keys(FlowKind::kSecure, circuit, *lib,
                                         spec.jobs[0].options);
    const std::size_t fed = static_cast<std::size_t>(stage_fed(k.path));
    for (std::size_t s = 0; s < fed; ++s) {
      EXPECT_EQ(keys[s], default_keys[s]) << flow_stage_name(FlowStage(s));
    }
    EXPECT_NE(keys[fed], default_keys[fed]);

    // (c) Just outside its range, validate() and the spec reject the knob
    // by its dotted path.
    if (!k.range) continue;
    const std::vector<double> outside = just_outside(k);
    EXPECT_FALSE(outside.empty());
    for (const double x : outside) {
      SCOPED_TRACE(x);
      FlowOptions bad = defaults;
      set_knob(knobs_of(bad)[paths.size() - 1].ref, x);
      EXPECT_NE(error_of([&] { bad.validate(); }).find(k.path + " must be"),
                std::string::npos);
      const std::string spec_error = error_of(
          [&] { parse_campaign_spec(spec_setting(k.path, JsonValue(x))); });
      EXPECT_NE(spec_error.find("options." + k.path + " must be"),
                std::string::npos)
          << spec_error;
    }
  }
  // The knobs the fingerprint test this walk replaced checked one by one.
  for (const char* path :
       {"synth.allowed_cells", "place.sa_moves_per_instance", "route.via_cost",
        "route.skip_nets", "route.window_margin", "route.window_escalation",
        "route.incremental", "extract.coupling_max_sep_um"}) {
    EXPECT_NE(std::find(paths.begin(), paths.end(), path), paths.end())
        << path;
  }
  // An enumerated knob names its legal values.
  const std::string fast = spec_setting("route_mode", JsonValue("fast"));
  EXPECT_NE(error_of([&] { parse_campaign_spec(fast); })
                .find("route_mode must be \"detailed\" or \"quick\""),
            std::string::npos);
}

TEST(FlowKnobs, TheSupplyVoltageIsNoFlowKnob) {
  // The power model owns the supply (kVddV, a constant); no stage of
  // the flow reads it.
  const std::string e = error_of([] {
    parse_campaign_spec(spec_setting("extract.process.vdd_v", JsonValue(1.5)));
  });
  EXPECT_NE(e.find("options.extract.process: unknown member 'vdd_v'"),
            std::string::npos)
      << e;
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
