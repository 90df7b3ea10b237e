// Fig 6: the DPA result.  Top: measurements-to-disclosure (paper: the
// reference design discloses K=46 within ~250 measurements, the secure
// design does not disclose within 2000).  Bottom: the peak-to-peak value
// of the 64 differential traces at 2000 measurements (the secret key
// stands out only for the reference implementation).
//
// Exits non-zero when the shape check fails or when the parallel campaign
// differs from the serial one.
#include <algorithm>
#include <chrono>
#include <optional>

#include "base/parallel.h"
#include "bench_util.h"
#include "sca/dpa_experiment.h"

using namespace secflow;

namespace {

void print_pp_series(const DpaResult& r, std::uint32_t key) {
  // Compact 64-entry series, 8 per line, correct key marked.
  for (int g = 0; g < 64; ++g) {
    std::printf("%s%6.3f%s", g == static_cast<int>(key) ? "[" : " ",
                r.peak_to_peak[static_cast<std::size_t>(g)],
                g == static_cast<int>(key) ? "]" : " ");
    if (g % 8 == 7) std::printf("\n");
  }
}

double wall_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report("bench_fig6_dpa", argc, argv);
  bench::DesDesigns d = bench::build_des_designs();
  DesDpaSetup setup;
  setup.n_measurements = 2000;
  report.note("design", "des");
  report.metric("measurements", setup.n_measurements);

  // Campaign parallelism: serial baseline vs the full thread budget
  // (SECFLOW_THREADS or hardware).  The per-trace RNG streams make the
  // parallel campaign bit-identical to the serial one — verified below.
  DesDpaSetup serial = setup;
  serial.parallelism.n_threads = 1;
  const int n_par = Parallelism{}.resolved_threads();

  std::optional<DesDpaCampaign> ref_opt, ref_par_opt;
  const double ser_ms = wall_ms([&] {
    ref_opt = run_des_dpa_campaign(d.regular.rtl, d.regular.caps, serial,
                                   /*differential=*/false);
  });
  const double par_ms = wall_ms([&] {
    ref_par_opt = run_des_dpa_campaign(d.regular.rtl, d.regular.caps, setup,
                                       /*differential=*/false);
  });
  const DpaAccumulator& ref = ref_opt->dpa;
  const DpaAccumulator& ref_par = ref_par_opt->dpa;
  const DesDpaCampaign sec_campaign = run_des_dpa_campaign(
      d.secure.diff, d.secure.caps, setup, /*differential=*/true);
  const DpaAccumulator& sec = sec_campaign.dpa;

  bench::header("parallel campaign", "serial vs parallel trace synthesis");
  bench::row("regular campaign, %d traces: %.0f ms @ 1 thread, "
             "%.0f ms @ %d threads (%.2fx)",
             setup.n_measurements, ser_ms, par_ms, n_par, ser_ms / par_ms);
  report.metric("campaign.serial_ms", ser_ms);
  report.metric("campaign.parallel_ms", par_ms);
  report.metric("campaign.threads", n_par);
  report.metric("campaign.speedup", ser_ms / par_ms);
  auto same = [](const DpaResult& a, const DpaResult& b) {
    return a.peak_to_peak == b.peak_to_peak && a.best_guess == b.best_guess &&
           a.disclosed == b.disclosed;
  };
  bool identical =
      same(ref.analyze(setup.key), ref_par.analyze(setup.key)) &&
      ref.checkpoints().size() == ref_par.checkpoints().size() &&
      ref.mtd() == ref_par.mtd() &&
      ref_opt->cycle_energies_pj == ref_par_opt->cycle_energies_pj;
  for (std::size_t i = 0; identical && i < ref.checkpoints().size(); ++i) {
    identical = same(ref.checkpoints()[i], ref_par.checkpoints()[i]);
  }
  bench::row("parallel == serial DPA result: %s",
             identical ? "bit-identical" : "MISMATCH");

  bench::header("Fig 6 (top)", "measurements to disclosure (MTD)");
  bench::row("%-12s %28s %28s", "traces", "regular: key found?",
             "secure: key found?");
  for (std::size_t i = 0; i < ref.checkpoints().size(); ++i) {
    const DpaResult& rr = ref.checkpoints()[i];
    const DpaResult& sr = sec.checkpoints()[i];
    bench::row("%-12d %17s (guess %2d) %17s (guess %2d)", rr.n_measurements,
               rr.disclosed ? "DISCLOSED" : "hidden", rr.best_guess,
               sr.disclosed ? "DISCLOSED" : "hidden", sr.best_guess);
  }
  const int mtd_ref = ref.mtd();
  const int mtd_sec = sec.mtd();
  bench::blank();
  bench::row("MTD regular: %d   [paper: ~250]", mtd_ref);
  const std::string mtd_sec_str =
      mtd_sec < 0 ? "> 2000" : std::to_string(mtd_sec);
  bench::row("MTD secure:  %s   [paper: > 2000]", mtd_sec_str.c_str());
  report.metric("mtd.regular", mtd_ref);
  report.metric("mtd.secure", mtd_sec);

  bench::header("Fig 6 (bottom)",
                "peak-to-peak of differential traces @ 2000 measurements");
  const DpaResult rr = ref.analyze(setup.key);
  const DpaResult sr = sec.analyze(setup.key);
  bench::row("regular flow (correct key bracketed; units mA):");
  print_pp_series(rr, setup.key);
  auto stats = [](const DpaResult& r, std::uint32_t key) {
    std::vector<double> others;
    for (int g = 0; g < 64; ++g) {
      if (g != static_cast<int>(key)) {
        others.push_back(r.peak_to_peak[static_cast<std::size_t>(g)]);
      }
    }
    const double mx = *std::max_element(others.begin(), others.end());
    return std::pair<double, double>(
        r.peak_to_peak[static_cast<std::size_t>(key)], mx);
  };
  auto [rk, rmax] = stats(rr, setup.key);
  bench::row("correct key pp %.3f vs best wrong guess %.3f (%.2fx)", rk, rmax,
             rk / rmax);
  bench::blank();
  bench::row("secure flow:");
  print_pp_series(sr, setup.key);
  auto [sk, smax] = stats(sr, setup.key);
  bench::row("correct key pp %.3f vs best wrong guess %.3f (%.2fx)", sk, smax,
             sk / smax);
  bench::blank();
  // The regular key stands out and is disclosed on the grid; the secure
  // key stays in the band and hidden at 2000 measurements.
  const bool shape =
      rk > 1.3 * rmax && mtd_ref > 0 && sk < 1.3 * smax && mtd_sec < 0;
  bench::row("shape check: regular discloses, secure conforms to the band: %s",
             shape ? "pass" : "FAIL");
  report.metric("pp.regular.correct_key", rk);
  report.metric("pp.regular.best_wrong", rmax);
  report.metric("pp.regular.ratio", rk / rmax);
  report.metric("pp.secure.correct_key", sk);
  report.metric("pp.secure.best_wrong", smax);
  report.metric("pp.secure.ratio", sk / smax);
  return shape && identical ? 0 : 1;
}
