// Section 2.3 runtime claims:
//   * cell substitution generated fat.v + diff netlists for a 39K-gate
//     prototype in < 4 minutes (550 MHz SunFire);
//   * interconnect decomposition edited fat.def in ~2 minutes.
// We synthesize an AES S-box array to the paper's gate scale and time the
// same two procedures (absolute numbers differ — modern hardware — but
// the claim under test is that both steps are negligible backend add-ons).
// Each step reports the median wall time of kRepeats runs; `--json <path>`
// writes the medians as a secflow.bench-report/1 document.
#include <cstddef>

#include "bench_util.h"
#include "crypto/aes.h"
#include "lef/lef.h"
#include "netlist/verilog_parser.h"
#include "netlist/verilog_writer.h"
#include "pnr/decompose.h"
#include "pnr/place.h"
#include "pnr/route.h"
#include "synth/techmap.h"
#include "wddl/cell_substitution.h"

using namespace secflow;

constexpr int kRepeats = 5;

int main(int argc, char** argv) {
  bench::JsonReport json("bench_tab_runtime", argc, argv);
  const auto lib = builtin_stdcell018();
  // ~54 boxes x ~700 cells ~= 39 K gates (exact count printed below).
  const Netlist rtl = technology_map(make_aes_sbox_array(54), lib,
                                     wddl_synth_constraints());
  WddlLibrary wlib(lib);
  const SubstitutionResult sub = substitute_cells(rtl, wlib);
  LefGenOptions fat_gen;
  fat_gen.wire_scale = 2.0;
  const LefLibrary fat_lef = generate_lef(*wlib.fat_library(), fat_gen);
  DefDesign fat_def = place_design(sub.fat, fat_lef);
  route_design_quick(sub.fat, fat_lef, fat_def);  // geometry to decompose
  const Process018 pr;

  // Every timed result feeds `sink`, which is printed, so no step can be
  // optimized away.
  std::size_t sink = 0;
  const double substitution_ms = bench::median_ms(kRepeats, [&] {
    WddlLibrary fresh(lib);
    sink += substitute_cells(rtl, fresh).fat.n_instances();
  });
  const double expansion_ms = bench::median_ms(kRepeats, [&] {
    sink += expand_differential(sub.fat, wlib).n_instances();
  });
  const double decomposition_ms = bench::median_ms(kRepeats, [&] {
    sink += decompose_interconnect(fat_def, um_to_dbu(pr.wire_pitch_um),
                                   um_to_dbu(pr.wire_width_um))
                .nets.size();
  });
  // The paper's Awk parser timing analogue: write + reparse the netlist.
  const double roundtrip_ms = bench::median_ms(kRepeats, [&] {
    sink += parse_verilog(write_verilog(rtl), lib).n_instances();
  });

  bench::header("§2.3", "secure-flow backend steps at the 39K-gate scale");
  bench::row("AES S-box array x54: %zu gates, %zu fat nets (median of %d)",
             rtl.n_instances(), fat_def.nets.size(), kRepeats);
  bench::row("%-44s %10s", "step", "time [ms]");
  bench::row("%-44s %10.1f", "cell substitution (fat.v)", substitution_ms);
  bench::row("%-44s %10.1f", "differential netlist expansion", expansion_ms);
  bench::row("%-44s %10.1f", "interconnect decomposition (diff.def)",
             decomposition_ms);
  bench::row("%-44s %10.1f", "netlist write + reparse", roundtrip_ms);
  bench::row("paper: < 4 min substitution, ~2 min decomposition (550 MHz)");
  bench::row("(checksum %zu)", sink);

  json.metric("gates", static_cast<double>(rtl.n_instances()));
  json.metric("fat_nets", static_cast<double>(fat_def.nets.size()));
  json.metric("substitution_ms", substitution_ms);
  json.metric("expansion_ms", expansion_ms);
  json.metric("decomposition_ms", decomposition_ms);
  json.metric("roundtrip_ms", roundtrip_ms);
  json.note("repeats", std::to_string(kRepeats));
  return 0;
}
