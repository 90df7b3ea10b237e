// Every FlowOptions knob, named once.
//
// One function template per option struct, `knobs(v, s)`, names each knob
// of `s` (the struct, const or not) once, with its legal range, in the
// order the stage keys hash them: a list's order is the byte order of its
// cache key (DESIGN.md §8), so moving an entry re-keys every checkpoint.
// FlowOptions::validate() walks the lists to check every range,
// compute_stage_keys to fold each struct's digest into the key of the
// stage it feeds, and the campaign spec to read a job's "options".  A
// visitor speaks:
//
//   v.knob(name, value)           a number, a bool or a list of names
//   v.knob(name, value, range)    a number that must lie in `range`
//   v.choice(name, value, names)  an enum, spelled by `names`
//   v.group(name, options)        a nested option struct, walked by its
//                                 own list
//
// Rules that tie knobs together (wire width below the pitch, shielding
// only with detailed routing) stay in FlowOptions::validate().
#pragma once

#include <concepts>
#include <limits>
#include <type_traits>

#include "flow/flow.h"

namespace secflow {

/// The legal values of a numeric knob: [lo, hi], or (lo, hi] when
/// `lo_open`.  NaN lies in no range.
struct KnobRange {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  const char* unit = "";  ///< appended to the range in messages

  bool contains(double v) const {
    return (lo_open ? v > lo : v >= lo) && v <= hi;
  }
};

constexpr KnobRange at_least(double lo) { return {.lo = lo}; }

/// One value of an enumerated knob and its name in a campaign spec.
template <class E>
struct KnobChoice {
  const char* name;
  E value;
};

inline constexpr KnobChoice<RouteMode> kRouteModes[] = {
    {"detailed", RouteMode::kDetailed}, {"quick", RouteMode::kQuickLShaped}};

/// S is the option struct T, const or not.
template <class S, class T>
concept KnobsOf = std::same_as<std::remove_const_t<S>, T>;

template <class V, KnobsOf<SynthConstraints> S>
void knobs(V& v, S& s) {
  v.knob("allowed_cells", s.allowed_cells);
  // Below these no cut covers an AND node (the mapper would blame the
  // cell set), and a negative count cannot size the cut list.
  v.knob("max_cut_size", s.max_cut_size, at_least(2));
  v.knob("max_cuts_per_node", s.max_cuts_per_node, at_least(1));
}

template <class V, KnobsOf<PlaceOptions> S>
void knobs(V& v, S& o) {
  // A die far taller than wide overflows its row count.
  v.knob("aspect_ratio", o.aspect_ratio, KnobRange{.lo = 1e-3, .hi = 1e3});
  v.knob("fill_factor", o.fill_factor,
         KnobRange{.lo = 0.0, .hi = 1.0, .lo_open = true});
  v.knob("seed", o.seed);
  v.knob("sa_moves_per_instance", o.sa_moves_per_instance, at_least(0));
  // A negative margin puts the core outside the die.
  v.knob("margin_tracks", o.margin_tracks, at_least(0));
  v.knob("sa_batch", o.sa_batch, at_least(1));
}

template <class V, KnobsOf<RouteOptions> S>
void knobs(V& v, S& o) {
  // Below -1 a via up-and-down pair has negative cost and the maze
  // search never settles.
  v.knob("via_cost", o.via_cost, at_least(0));
  v.knob("max_iterations", o.max_iterations, at_least(1));
  v.knob("window_margin", o.window_margin, at_least(0));
  // The search window must grow on escalation or congested nets never
  // reach full-grid search.
  v.knob("window_escalation", o.window_escalation, at_least(2));
  v.knob("incremental", o.incremental);
  v.knob("skip_nets", o.skip_nets);
}

// FlowOptions::validate() checks that the wire width and pitch convert
// to at least one DBU each, the width below the pitch.
template <class V, KnobsOf<Process018> S>
void knobs(V& v, S& p) {
  v.knob("wire_c_area_ff_per_um2", p.wire_c_area_ff_per_um2, at_least(0));
  v.knob("wire_c_fringe_ff_per_um", p.wire_c_fringe_ff_per_um, at_least(0));
  v.knob("wire_c_couple_ff_per_um", p.wire_c_couple_ff_per_um, at_least(0));
  v.knob("wire_r_ohm_per_sq", p.wire_r_ohm_per_sq, at_least(0));
  v.knob("via_r_ohm", p.via_r_ohm, at_least(0));
  v.knob("via_c_ff", p.via_c_ff, at_least(0));
  v.knob("wire_width_um", p.wire_width_um);
  v.knob("wire_pitch_um", p.wire_pitch_um);
}

template <class V, KnobsOf<ExtractOptions> S>
void knobs(V& v, S& o) {
  v.group("process", o.process);
  // A wider window overflows its conversion to DBU.
  v.knob("coupling_max_sep_um", o.coupling_max_sep_um,
         KnobRange{.lo = 0.0, .hi = kMaxCouplingSepUm, .unit = " um"});
  v.knob("variation_sigma", o.variation_sigma, at_least(0));
  v.knob("seed", o.seed);
}

/// cache_dir and stop_after steer a run, not its artifacts: they are not
/// knobs.
template <class V, KnobsOf<FlowOptions> S>
void knobs(V& v, S& o) {
  v.group("synth", o.synth);
  v.group("place", o.place);
  v.group("route", o.route);
  v.group("extract", o.extract);
  v.choice("route_mode", o.route_mode, kRouteModes);
  v.knob("shielded_pairs", o.shielded_pairs);
}

}  // namespace secflow
