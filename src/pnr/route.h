// Gridded multi-layer maze router (the Silicon Ensemble stand-in).
//
// Routes on the track grid defined by the LEF in use: with the normal LEF
// this is single-width routing; with the fat LEF (doubled pitch and width)
// every wire reserves the space of two adjacent fine tracks — the paper's
// "fat wire" trick falls out of just swapping the library (section 2.2).
//
// Layers: M1/M3 horizontal, M2 vertical.  Negotiated-congestion routing
// (PathFinder-style) with a throughput-oriented core (DESIGN.md §15):
//  * A* over epoch-stamped search state that lives for one route_design
//    call — no per-sink full-grid refills, a 4-ary heap of packed keys,
//    admissible Manhattan + via lower bound;
//  * bounded search windows around each net's pin bounding box, grown on
//    a deterministic escalation schedule until they cover the full grid;
//  * incremental rip-up-and-reroute — after the first iteration only nets
//    overlapping congested nodes are ripped, usage is maintained
//    incrementally;
//  * a serial head and a snapshot tail per iteration — the first 32
//    pending nets route one at a time, each seeing the commits before it;
//    the rest route against the one snapshot the head leaves.  Routing
//    runs on the calling thread, so the geometry is fixed by the inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "pnr/def.h"

namespace secflow {

struct RouteOptions {
  int via_cost = 3;
  int max_iterations = 48;
  /// Initial search-window margin in tracks around a net's pin bounding
  /// box (0 = the bounding box itself).  A net that stays congested after
  /// a reroute has its margin multiplied by `window_escalation` before the
  /// next attempt, saturating at the full grid, so window pruning never
  /// costs completeness — only early-iteration search breadth.
  int window_margin = 64;
  /// Multiplier applied to the window margin per escalation step (>= 2).
  int window_escalation = 4;
  /// After the first full iteration, rip up and reroute only the nets that
  /// overlap congested (shared) nodes instead of every net.  An iteration
  /// rips all its pending nets before any search.  The first 32 then route
  /// one at a time, each committed before the next search starts; the rest
  /// route against the one snapshot the first 32 leave and commit after
  /// all their searches.
  /// Off = the classic serial reroute-everything loop where each net is
  /// ripped just before its search and negotiates against everyone
  /// else's live path (the bench's A/B reference).
  bool incremental = true;
  /// Nets to skip entirely (e.g. power; empty by default).
  std::vector<std::string> skip_nets;
};

struct RouteStats {
  std::int64_t wirelength_dbu = 0;
  int vias = 0;
  int nets_routed = 0;
  int iterations = 0;
  /// A* node expansions (heap pops) across all searches — the router's
  /// work metric; window pruning shows up here first.
  std::int64_t expanded_nodes = 0;
  /// Net reroutes attempted with an escalated (grown) window.
  int window_escalations = 0;
  /// Net routing passes whose window saturated at the full grid.
  int full_grid_searches = 0;
  /// Nets ripped up and rerouted after the first iteration.
  std::int64_t nets_ripped = 0;
};

/// Route all multi-pin nets of `nl` into `placed` (wires filled in).
/// Throws Error when congestion cannot be resolved within
/// `max_iterations`; the message names the iterations run, the shared
/// node count, up to five congested nets and the shared nodes' DBU
/// bounding box.
RouteStats route_design(const Netlist& nl, const LefLibrary& lef,
                        DefDesign& placed, const RouteOptions& opts = {});

/// Fast non-conflict-checked L-routing used by scale benchmarks: every net
/// gets an L-shaped two-segment route between consecutive pins.  Geometry
/// is legal DEF but may overlap; decomposition and parser timing do not
/// care.  Returns the same stats structure.
RouteStats route_design_quick(const Netlist& nl, const LefLibrary& lef,
                              DefDesign& placed);

}  // namespace secflow
