// Fig 5: layouts of the paper's design example through the regular and
// secure flows, with the area comparison (paper: 3782 vs 12880 um^2).
//
// Shape check, the exit status: the secure/regular die-area ratio stays
// in [3.0, 3.6], a band around the 3.3x this flow measures that also holds
// the paper's 3.41x.  Exits 1 when the ratio leaves the band.
#include "bench_util.h"
#include "netlist/netlist_ops.h"
#include "pnr/render.h"

using namespace secflow;

namespace {
constexpr double kMinAreaRatio = 3.0;
constexpr double kMaxAreaRatio = 3.6;
}  // namespace

int main() {
  bench::DesDesigns d = bench::build_des_designs();

  bench::header("Fig 5", "layout area: regular vs secure flow");
  bench::row("%-24s %14s %14s", "", "regular flow", "secure flow");
  bench::row("%-24s %14zu %14zu", "logic cells",
             d.regular.rtl.n_instances(), d.secure.diff.n_instances());
  bench::row("%-24s %14.0f %14.0f", "cell area [um^2]",
             d.regular.rtl.total_area_um2(), d.secure.diff.total_area_um2());
  bench::row("%-24s %14.0f %14.0f", "die area [um^2]",
             d.regular.die_area_um2(), d.secure.die_area_um2());
  const double ratio = d.secure.die_area_um2() / d.regular.die_area_um2();
  bench::row("%-24s %14s %14.2f", "area ratio", "1.00x", ratio);
  bench::row("%-24s %14s %14s", "paper [um^2]", "3782", "12880 (3.41x)");
  bench::row("%-24s %14.0f %14.0f", "wirelength [um]",
             dbu_to_um(d.regular.def.total_wirelength()),
             dbu_to_um(d.secure.def.total_wirelength()));

  bench::row("\n--- regular flow layout ---");
  RenderOptions ro;
  ro.max_cols = 80;
  std::fputs(render_design(d.regular.def, ro).c_str(), stdout);
  bench::row("--- secure flow layout (differential, after decomposition) ---");
  std::fputs(render_design(d.secure.def, ro).c_str(), stdout);

  const bool shape = ratio >= kMinAreaRatio && ratio <= kMaxAreaRatio;
  bench::row("shape check: die-area ratio %.2f in [%.1f, %.1f]: %s", ratio,
             kMinAreaRatio, kMaxAreaRatio, shape ? "pass" : "FAIL");
  return shape ? 0 : 1;
}
