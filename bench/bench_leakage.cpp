// The statistical leakage-assessment engine: accumulator throughput
// (traces/s through the streaming CPA and TVLA statistics) and the full
// DES assessment — CPA ranking, TVLA verdict and MTD on both flows at the
// calibrated attack point, with the cold-vs-warm trace-cache replay
// speedup.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <span>

#include "bench_util.h"
#include "leakage/accumulators.h"
#include "leakage/assess.h"
#include "leakage/cpa.h"
#include "sca/selection.h"

using namespace secflow;

namespace {

double wall_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::vector<CpaMeasurement> synthetic_cpa_traces(int n, int n_samples) {
  std::vector<CpaMeasurement> traces;
  traces.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Rng rng = Rng::stream(77, static_cast<std::uint64_t>(i));
    CpaMeasurement m;
    m.ct = static_cast<std::uint32_t>(rng.next_below(1024));
    m.prev_ct = static_cast<std::uint32_t>(rng.next_below(1024));
    m.samples.resize(static_cast<std::size_t>(n_samples));
    for (double& s : m.samples) s = rng.next_gaussian();
    traces.push_back(std::move(m));
  }
  return traces;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report("bench_leakage", argc, argv);

  // --- statistics throughput on synthetic traces (no simulator cost) ---
  const int kTraces = 4000, kSamples = 64;
  const std::vector<CpaMeasurement> traces =
      synthetic_cpa_traces(kTraces, kSamples);
  const HypothesisFn hyp = des_hypothesis(PowerModel::kHammingDistance);

  bench::header("throughput", "streaming statistics, synthetic traces");
  // CPA folds 100-trace blocks, the assessment's default block width.
  const auto cpa_fold = [&](const Parallelism& par) {
    CpaAccumulator acc(kDesKeyGuesses, kSamples);
    for (std::size_t b = 0; b < traces.size(); b += 100) {
      const std::size_t n = std::min<std::size_t>(100, traces.size() - b);
      fold_cpa(acc, std::span(traces).subspan(b, n), hyp, par);
    }
  };
  const double cpa_ser_ms = wall_ms([&] { cpa_fold(Parallelism{1}); });
  const double cpa_par_ms = wall_ms([&] { cpa_fold({}); });
  const int n_par = Parallelism{}.resolved_threads();
  bench::row("CPA  %d traces x %d samples x 64 guesses: "
             "%.0f ms @ 1 thread (%.0f traces/s), %.0f ms @ %d threads",
             kTraces, kSamples, cpa_ser_ms, kTraces / cpa_ser_ms * 1e3,
             cpa_par_ms, n_par);
  report.metric("cpa.serial_traces_per_s", kTraces / cpa_ser_ms * 1e3);
  report.metric("cpa.parallel_traces_per_s", kTraces / cpa_par_ms * 1e3);
  report.metric("cpa.threads", n_par);

  // TVLA adds the same traces, fixed class on even indices, to one
  // WelchAccumulator in trace order, 100-trace block by block as the
  // assessment fetches them.
  const double tvla_ms = wall_ms([&] {
    WelchAccumulator acc(kSamples);
    for (std::size_t b = 0; b < traces.size(); b += 100) {
      const std::size_t end = std::min<std::size_t>(b + 100, traces.size());
      for (std::size_t i = b; i < end; ++i) {
        acc.add(i % 2 == 0, traces[i].samples.data());
      }
    }
  });
  bench::row("TVLA %d traces x %d samples: %.0f ms (%.0f traces/s)", kTraces,
             kSamples, tvla_ms, kTraces / tvla_ms * 1e3);
  report.metric("tvla.traces_per_s", kTraces / tvla_ms * 1e3);

  // --- the full DES assessment at the calibrated attack point ---
  bench::DesDesigns d = bench::build_des_designs();
  const std::string cache =
      (std::filesystem::temp_directory_path() / "secflow_bench_leakage_ck")
          .string();
  std::filesystem::remove_all(cache);
  LeakageSetup setup;
  setup.design = "des_dpa";
  setup.model = PowerModel::kHammingWeight;
  setup.noise_ma = 0.6;
  setup.tvla_traces = 200;
  setup.cpa_traces = 400;
  setup.mtd.max_traces = 600;
  setup.mtd.step = 200;
  setup.cache_dir = cache;

  bench::header("DES assessment", "hw model, 0.6 mA noise, 400 traces");
  LeakageSetup reg_setup = setup;
  reg_setup.base_key = d.regular.timings.key(FlowStage::kExtraction);
  LeakageReport reg;
  const double reg_cold_ms = wall_ms([&] {
    reg = assess_des_leakage(d.regular.rtl, d.regular.caps,
                             /*differential=*/false, reg_setup);
  });
  LeakageSetup sec_setup = setup;
  sec_setup.base_key = d.secure.timings.key(FlowStage::kExtraction);
  LeakageReport sec;
  const double sec_cold_ms = wall_ms([&] {
    sec = assess_des_leakage(d.secure.diff, d.secure.caps,
                             /*differential=*/true, sec_setup);
  });
  const double sec_warm_ms = wall_ms([&] {
    assess_des_leakage(d.secure.diff, d.secure.caps,
                       /*differential=*/true, sec_setup);
  });

  bench::row("regular: CPA rank %d, TVLA max|t| %.2f, MTD %d  (%.0f ms)",
             static_cast<int>(reg.cpa.correct_rank), reg.tvla.max_abs_t,
             static_cast<int>(reg.mtd.mtd), reg_cold_ms);
  bench::row("secure:  CPA rank %d, TVLA max|t| %.2f, MTD %s  (%.0f ms)",
             static_cast<int>(sec.cpa.correct_rank), sec.tvla.max_abs_t,
             sec.mtd.mtd < 0 ? "hidden" : std::to_string(sec.mtd.mtd).c_str(),
             sec_cold_ms);
  bench::row("warm trace-cache replay: %.0f ms (%.1fx faster than cold)",
             sec_warm_ms, sec_cold_ms / sec_warm_ms);
  const bool headline = mtd_exceeds(static_cast<int>(sec.mtd.mtd),
                                    static_cast<int>(sec.mtd.max_traces),
                                    static_cast<int>(reg.mtd.mtd));
  bench::row("shape check: MTD(secure) exceeds MTD(regular): %s",
             headline ? "pass" : "FAIL");

  report.metric("des.regular.cpa_rank", static_cast<double>(reg.cpa.correct_rank));
  report.metric("des.regular.mtd", static_cast<double>(reg.mtd.mtd));
  report.metric("des.regular.tvla_max_abs_t", reg.tvla.max_abs_t);
  report.metric("des.regular.cold_ms", reg_cold_ms);
  report.metric("des.secure.cpa_rank", static_cast<double>(sec.cpa.correct_rank));
  report.metric("des.secure.mtd", static_cast<double>(sec.mtd.mtd));
  report.metric("des.secure.tvla_max_abs_t", sec.tvla.max_abs_t);
  report.metric("des.secure.cold_ms", sec_cold_ms);
  report.metric("des.secure.warm_ms", sec_warm_ms);
  report.metric("des.cache_replay_speedup", sec_cold_ms / sec_warm_ms);
  report.metric("des.mtd_secure_exceeds_regular", headline ? 1.0 : 0.0);
  report.note("model", "hw");

  std::filesystem::remove_all(cache);
  return headline ? 0 : 1;
}
