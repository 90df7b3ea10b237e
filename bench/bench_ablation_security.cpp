// Ablation of the design choices the paper calls out (end of section 3):
// "Shielded lines or a larger pitch, balanced intrinsic capacitances or
// custom designed cells, etc. will improve the security."  We measure the
// secure design's residual DPA signal under:
//   * baseline differential routing,
//   * growing process variation sigma (cap mismatch),
//   * reduced coupling (larger pitch / shielding: coupling halved),
//   * *unmatched* routing: the differential netlist routed as ordinary
//     independent nets (no fat-wire pairing) — the countermeasure without
//     its place & route component.
// A configuration whose flow throws prints "did not route: <why>" in its
// row; the remaining rows still run, and the bench exits 1 naming the
// failed rows.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "base/error.h"
#include "bench_util.h"
#include "extract/extract.h"
#include "pnr/place.h"
#include "pnr/route.h"
#include "sca/dpa_experiment.h"

using namespace secflow;

namespace {

struct Outcome {
  double correct_pp;
  double band_max;
  bool disclosed;
};

Outcome attack(const Netlist& diff, const CapTable& caps, int n) {
  DesDpaSetup setup;
  setup.n_measurements = n;
  const DpaResult r =
      run_des_dpa_campaign(diff, caps, setup, /*differential=*/true)
          .dpa.analyze(setup.key);
  double band = 0.0;
  for (int g = 0; g < 64; ++g) {
    if (g != static_cast<int>(setup.key)) {
      band = std::max(band, r.peak_to_peak[static_cast<std::size_t>(g)]);
    }
  }
  return Outcome{r.peak_to_peak[setup.key], band, r.disclosed};
}

}  // namespace

int main() {
  bench::DesDesigns d = bench::build_des_designs();
  const int kTraces = 800;

  bench::header("Ablation", "residual DPA signal vs physical-design options");
  bench::row("%-36s %12s %12s %10s", "configuration", "key pp", "band max",
             "disclosed");

  // One configuration per row: an Error fails the row, not the table.
  std::vector<std::string> failed;
  const auto run_row = [&](const std::string& name,
                           const std::function<void()>& body) {
    try {
      body();
    } catch (const Error& e) {
      bench::row("%-36s did not route: %s", name.c_str(), e.what());
      failed.push_back(name);
    }
  };

  // Baseline: the secure flow as-is.
  run_row("differential routing (baseline)", [&] {
    const Outcome o = attack(d.secure.diff, d.secure.caps, kTraces);
    bench::row("%-36s %12.4f %12.4f %10s", "differential routing (baseline)",
               o.correct_pp, o.band_max, o.disclosed ? "YES" : "no");
  });

  // Process variation sweep: caps re-extracted with mismatch sigma.
  for (double sigma : {0.02, 0.05, 0.10}) {
    const int pct = static_cast<int>(100 * sigma + 0.5);
    run_row("process variation sigma " + std::to_string(pct) + "%", [&] {
      ExtractOptions eo;
      eo.variation_sigma = sigma;
      const Extraction ex =
          extract_parasitics(d.secure.def, d.secure.diff, eo);
      const CapTable caps = build_cap_table(d.secure.diff, ex);
      const Outcome o = attack(d.secure.diff, caps, kTraces);
      bench::row("process variation sigma %.0f%% %21.4f %12.4f %10s",
                 100 * sigma, o.correct_pp, o.band_max,
                 o.disclosed ? "YES" : "no");
    });
  }

  // Balanced intrinsic capacitances ("custom designed cells"): pad the
  // lighter rail of every pair to match the heavier.
  run_row("balanced intrinsic caps", [&] {
    CapTable caps = d.secure.caps;
    balance_rail_caps(caps, 1.0);
    const Outcome o = attack(d.secure.diff, caps, kTraces);
    bench::row("%-36s %12.4f %12.4f %10s", "balanced intrinsic caps",
               o.correct_pp, o.band_max, o.disclosed ? "YES" : "no");
  });

  // Shielding / larger pitch (real geometry: triple-pitch fat wires with
  // a grounded shield beside every pair; costs area).
  run_row("shielded pairs (3-track pitch)", [&] {
    FlowOptions fo;
    fo.shielded_pairs = true;
    const SecureFlowResult sh = run_secure_flow(
        make_des_dpa_circuit(), d.lib, fo);
    const Outcome o = attack(sh.diff, sh.caps, kTraces);
    bench::row("%-36s %12.4f %12.4f %10s", "shielded pairs (3-track pitch)",
               o.correct_pp, o.band_max, o.disclosed ? "YES" : "no");
    bench::row("  (die area %.0f um^2 vs %.0f um^2 unshielded)",
               sh.die_area_um2(), d.secure.die_area_um2());
  });

  // WDDL logic *without* differential routing: route the differential
  // netlist as independent single-ended nets; rails get unmatched wires.
  run_row("WDDL w/o differential routing", [&] {
    const LefLibrary lef = generate_lef(*d.lib, {});
    DefDesign def = place_design(d.secure.diff, lef);
    route_design_quick(d.secure.diff, lef, def);
    const Extraction ex = extract_parasitics(def, d.secure.diff, {});
    const CapTable caps = build_cap_table(d.secure.diff, ex);
    const Outcome o = attack(d.secure.diff, caps, kTraces);
    bench::row("%-36s %12.4f %12.4f %10s",
               "WDDL w/o differential routing", o.correct_pp, o.band_max,
               o.disclosed ? "YES" : "no");
    const auto mm = rail_mismatch_ff(ex);
    double worst = 0;
    for (const auto& [net, m] : mm) worst = std::max(worst, m);
    bench::row("  (worst rail mismatch %.1f fF vs matched routing)", worst);
  });

  bench::blank();
  bench::row("reading: matched routing + shielding shrink the correct-key");
  bench::row("signal into the wrong-guess band; unmatched routing or large");
  bench::row("process variation re-opens the leak — the paper's point that");
  bench::row("'the problem has been reduced to a problem of parasitics'.");
  if (failed.empty()) return 0;
  std::string names;
  for (const std::string& f : failed) names += (names.empty() ? "" : "; ") + f;
  std::fflush(stdout);
  std::fprintf(stderr, "ablation: %zu row(s) failed: %s\n", failed.size(),
               names.c_str());
  return 1;
}
