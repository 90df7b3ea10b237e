// Section 3 energy table: mean energy per encryption, normalized energy
// deviation and normalized standard deviation over 2000 random
// encryptions with K = 46 (paper: 27.1 pJ / 6.6% / 0.9% secure vs
// 4.6 pJ / 60% / 12% reference).
//
// Shape check, the exit status: the secure layout's NED and NSD each stay
// below a quarter of the reference's.  Exits 1 when either check fails.
#include "bench_util.h"
#include "sca/dpa_experiment.h"

using namespace secflow;

int main() {
  bench::DesDesigns d = bench::build_des_designs();

  DesDpaSetup setup;
  setup.n_measurements = 2000;
  const auto ref =
      run_des_dpa_campaign(d.regular.rtl, d.regular.caps, setup, false);
  const auto sec =
      run_des_dpa_campaign(d.secure.diff, d.secure.caps, setup, true);
  const EnergyStats rs = compute_energy_stats(ref.cycle_energies_pj);
  const EnergyStats ss = compute_energy_stats(sec.cycle_energies_pj);

  bench::header("Table (sec. 3)", "energy per encryption, 2000 measurements");
  bench::row("%-28s %12s %12s", "", "regular", "secure");
  bench::row("%-28s %12.2f %12.2f", "mean energy [pJ]", rs.mean_pj, ss.mean_pj);
  bench::row("%-28s %12.2f %12.2f", "min / cycle [pJ]", rs.min_pj, ss.min_pj);
  bench::row("%-28s %12.2f %12.2f", "max / cycle [pJ]", rs.max_pj, ss.max_pj);
  bench::row("%-28s %11.1f%% %11.1f%%", "normalized energy deviation",
             100 * rs.ned, 100 * ss.ned);
  bench::row("%-28s %11.1f%% %11.1f%%", "normalized std deviation",
             100 * rs.nsd, 100 * ss.nsd);
  bench::row("%-28s %12s %12s", "paper mean [pJ]", "4.6", "27.1");
  bench::row("%-28s %12s %12s", "paper NED / NSD", "60% / 12%", "6.6% / 0.9%");
  bench::blank();
  const bool ned = ss.ned < 0.25 * rs.ned;
  const bool nsd = ss.nsd < 0.25 * rs.nsd;
  bench::row("shape check: secure NED << reference NED: %s",
             ned ? "pass" : "FAIL");
  bench::row("shape check: secure NSD << reference NSD: %s",
             nsd ? "pass" : "FAIL");
  return ned && nsd ? 0 : 1;
}
