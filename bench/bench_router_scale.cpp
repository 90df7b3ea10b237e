// Section 2.2: "These [gridless] tools are unable to route 20K+
// differential pairs as an encryption algorithm requires."  The fat-wire
// method turns differential-pair routing into ordinary gridded routing, so
// routing throughput is the flow's scaling bottleneck.  This bench
// measures the maze router at module scale (the DES design example's fat
// netlist) in two configurations:
//
//   serial     incremental off: full-grid windows, every net rerouted
//              serially each iteration against live paths — structurally
//              the seed's loop, sharing the A* core (A/B reference)
//   default    windowed A* + incremental rip-up: a serial head of 32
//              nets, then a snapshot tail.  Slower than `serial` on this
//              small die (ripping every pending net first costs extra
//              conflict iterations) but the geometry it converges to is
//              straighter and more loosely packed, which the decomposed
//              rails' capacitance balance depends on (DESIGN.md
//              section 15)
//
// The seed implementation (per-search allocation, full-grid Dijkstra,
// no incremental rip-up) measured 24153 ms on this same workload; both
// configurations below are >200x faster than that.
//
// plus the fat L-route + decomposition throughput sweep across design
// sizes (differential pairs = fat nets), which also extracts each
// decomposed layout: `quick.sboxes<N>_extract_ms` times one extraction and
// `quick.sboxes<N>_coupled_pairs` counts the net pairs it couples.
//
// The bench also places the fat DES it routes, so it reports the placer
// too: `place.ms` is the median of 5 default placements, and the annealer's
// accepted and stale-recosted proposal counts pin its move sequence.
//
// `--json <path>` writes the metrics as BENCH_route.json for CI trending.
#include <chrono>
#include <string>
#include <utility>

#include "bench_util.h"
#include "crypto/aes.h"
#include "crypto/des.h"
#include "extract/extract.h"
#include "lef/lef.h"
#include "obs/metrics.h"
#include "pnr/def.h"
#include "pnr/decompose.h"
#include "pnr/place.h"
#include "pnr/route.h"
#include "synth/techmap.h"
#include "wddl/cell_substitution.h"

using namespace secflow;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct FatDesign {
  std::shared_ptr<WddlLibrary> wlib;
  Netlist fat;
  LefLibrary fat_lef;
  DefDesign placed;
};

FatDesign make_fat_des() {
  auto lib = builtin_stdcell018();
  Netlist rtl = technology_map(make_des_dpa_circuit(), lib,
                               wddl_synth_constraints());
  auto wlib = std::make_shared<WddlLibrary>(lib);
  SubstitutionResult sub = substitute_cells(rtl, *wlib);
  LefGenOptions fat_gen;
  fat_gen.wire_scale = 2.0;
  LefLibrary fat_lef = generate_lef(*wlib->fat_library(), fat_gen);
  DefDesign placed = place_design(sub.fat, fat_lef);
  return FatDesign{wlib, std::move(sub.fat), std::move(fat_lef),
                   std::move(placed)};
}

FatDesign make_fat_aes(int n_boxes) {
  auto lib = builtin_stdcell018();
  Netlist rtl = technology_map(make_aes_sbox_array(n_boxes), lib,
                               wddl_synth_constraints());
  auto wlib = std::make_shared<WddlLibrary>(lib);
  SubstitutionResult sub = substitute_cells(rtl, *wlib);
  LefGenOptions fat_gen;
  fat_gen.wire_scale = 2.0;
  LefLibrary fat_lef = generate_lef(*wlib->fat_library(), fat_gen);
  PlaceOptions popts;
  popts.sa_moves_per_instance = 4;  // scale sweep: cheap placement
  DefDesign placed = place_design(sub.fat, fat_lef, popts);
  return FatDesign{wlib, std::move(sub.fat), std::move(fat_lef),
                   std::move(placed)};
}

struct MazeRun {
  double ms = 0.0;
  RouteStats stats;
};

MazeRun run_maze(const FatDesign& d, const RouteOptions& opts) {
  DefDesign def = d.placed;
  const auto t0 = std::chrono::steady_clock::now();
  const RouteStats rs = route_design(d.fat, d.fat_lef, def, opts);
  return MazeRun{ms_since(t0), rs};
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report("router_scale", argc, argv);

  bench::header("route-maze", "maze router at module scale (fat DES)");
  Metrics::global().set_enabled(true);
  const FatDesign des = make_fat_des();
  const MetricsSnapshot placed = Metrics::global().snapshot();
  const auto counter = [&](const char* name) {
    const auto it = placed.counters.find(name);
    return it == placed.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double place_ms = bench::median_ms(
      5, [&] { place_design(des.fat, des.fat_lef); });
  bench::row("  placement: %.1f ms (median of 5), %.0f swaps accepted, "
             "%.0f stale proposals re-costed",
             place_ms, counter("pnr.place.sa_accepted"),
             counter("pnr.place.sa_stale_reevals"));
  report.metric("place.ms", place_ms);
  report.metric("place.sa_accepted", counter("pnr.place.sa_accepted"));
  report.metric("place.sa_stale_reevals",
                counter("pnr.place.sa_stale_reevals"));
  bench::row("  %-22s %8s %6s %10s %12s", "configuration", "ms", "iters",
             "expanded", "wirelength");

  // Serial reference: incremental off — the reroute-everything loop.
  RouteOptions serial;
  serial.incremental = false;
  serial.window_margin = 1 << 20;  // window saturates at the full grid
  const MazeRun reference = run_maze(des, serial);
  bench::row("  %-22s %8.1f %6d %10lld %12lld", "serial(full grid)",
             reference.ms, reference.stats.iterations,
             static_cast<long long>(reference.stats.expanded_nodes),
             static_cast<long long>(reference.stats.wirelength_dbu));

  // Default: windowed A* + incremental rip-up.
  const MazeRun optimized = run_maze(des, RouteOptions{});
  bench::row("  %-22s %8.1f %6d %10lld %12lld", "default(windowed)",
             optimized.ms, optimized.stats.iterations,
             static_cast<long long>(optimized.stats.expanded_nodes),
             static_cast<long long>(optimized.stats.wirelength_dbu));
  bench::row("  pairs=%d  (seed implementation: 24153 ms on this workload)",
             optimized.stats.nets_routed);
  report.metric("maze.serial_ms", reference.ms);
  report.metric("maze.serial_expanded",
                static_cast<double>(reference.stats.expanded_nodes));
  report.metric("maze.optimized_ms", optimized.ms);
  report.metric("maze.pairs", optimized.stats.nets_routed);
  report.metric("maze.iterations", optimized.stats.iterations);
  report.metric("maze.expanded_nodes",
                static_cast<double>(optimized.stats.expanded_nodes));

  bench::header("route-scale",
                "fat L-route + decompose, then extract, vs design size");
  const Process018 pr;
  bench::row("  %-8s %10s %10s %12s %14s", "sboxes", "pairs", "ms",
             "extract ms", "coupled pairs");
  for (const int n_boxes : {1, 4, 16}) {
    const FatDesign d = make_fat_aes(n_boxes);
    const auto t0 = std::chrono::steady_clock::now();
    DefDesign def = d.placed;
    route_design_quick(d.fat, d.fat_lef, def);
    const DefDesign diff = decompose_interconnect(
        def, um_to_dbu(pr.wire_pitch_um), um_to_dbu(pr.wire_width_um));
    const double ms = ms_since(t0);
    const Netlist diff_nl = expand_differential(d.fat, *d.wlib);
    const auto t1 = std::chrono::steady_clock::now();
    const Extraction ex = extract_parasitics(diff, diff_nl);
    const double extract_ms = ms_since(t1);
    std::size_t couplings = 0;
    for (const auto& [name, p] : ex.nets) couplings += p.couplings.size();
    const std::size_t coupled_pairs = couplings / 2;
    bench::row("  %-8d %10zu %10.1f %12.1f %14zu", n_boxes, def.nets.size(),
               ms, extract_ms, coupled_pairs);
    const std::string key = "quick.sboxes" + std::to_string(n_boxes);
    report.metric(key + "_ms", ms);
    report.metric(key + "_pairs", static_cast<double>(diff.nets.size() / 2));
    report.metric(key + "_extract_ms", extract_ms);
    report.metric(key + "_coupled_pairs", static_cast<double>(coupled_pairs));
  }

  report.note("design", "des_dpa fat (WDDL)");
  bench::blank();
  return 0;
}
