// Floorplanning and row-based standard-cell placement.
//
// Mirrors the paper's Silicon Ensemble setup: aspect ratio 1, fill factor
// 80 %.  Cells go into uniform rows; an initial connectivity-driven order
// is refined by simulated annealing on half-perimeter wirelength.
#pragma once

#include <cstdint>

#include "netlist/netlist.h"
#include "pnr/def.h"

namespace secflow {

struct PlaceOptions {
  double aspect_ratio = 1.0;  ///< die width / height target
  double fill_factor = 0.8;   ///< cell area / core area (paper: 80 %)
  std::uint64_t seed = 1;     ///< annealing seed (deterministic runs)
  /// Annealing moves per instance; 0 disables refinement.
  int sa_moves_per_instance = 60;
  /// Extra routing margin around the core, in track pitches (>= 0).
  int margin_tracks = 8;
  /// Candidate swaps proposed per temperature step.  Every candidate of a
  /// step is costed against the placement at the start of the step;
  /// commits then run in proposal order, and a candidate whose rows an
  /// earlier commit of the same step moved is re-costed first.  The batch
  /// size is part of the algorithm: changing it changes the layout.
  int sa_batch = 16;
};

/// Compute die and row geometry for `nl` under `opts`.
struct Floorplan {
  Rect die;
  Rect core;
  std::int64_t row_height_dbu = 0;
  int n_rows = 0;
  std::int64_t row_width_dbu = 0;
};

/// Size the core for `nl` at opts' fill factor and aspect ratio.  Throws
/// Error when the die would need more than 1e9 rows.
Floorplan make_floorplan(const Netlist& nl, const LefLibrary& lef,
                         const PlaceOptions& opts);

/// Place all instances of `nl`; returns a DefDesign with components placed
/// and nets declared (no routing).  Throws if the cells cannot fit.
DefDesign place_design(const Netlist& nl, const LefLibrary& lef,
                       const PlaceOptions& opts = {});

/// Total half-perimeter wirelength of the placement [DBU] (metric used by
/// the annealer; exposed for tests/benchmarks).
std::int64_t placement_hpwl(const Netlist& nl, const LefLibrary& lef,
                            const DefDesign& d);

}  // namespace secflow
