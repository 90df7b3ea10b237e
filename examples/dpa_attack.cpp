// Mount the paper's DPA (section 3) against both implementations of the
// reduced-DES module and watch the secret key appear — or not.
//
//   $ ./dpa_attack [n_traces]     (default 800)
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "secflow.h"

using namespace secflow;

namespace {

void report(const char* label, const DpaAccumulator& dpa,
            const DesDpaSetup& setup) {
  const DpaResult r = dpa.analyze(setup.key);
  std::vector<std::pair<double, int>> ranked;
  for (int g = 0; g < 64; ++g) {
    ranked.push_back({r.peak_to_peak[static_cast<std::size_t>(g)], g});
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("\n%s (%d traces):\n", label, r.n_measurements);
  std::printf("  top guesses: ");
  for (int i = 0; i < 5; ++i) {
    std::printf("%s%d (%.3f)%s", ranked[i].second == (int)setup.key ? "[" : "",
                ranked[i].second, ranked[i].first,
                ranked[i].second == (int)setup.key ? "]" : "");
    std::printf(i < 4 ? ", " : "\n");
  }
  std::printf("  secret key %u: rank %ld, %s\n", setup.key,
              1 + std::distance(ranked.begin(),
                                std::find_if(ranked.begin(), ranked.end(),
                                             [&](const auto& p) {
                                               return p.second ==
                                                      (int)setup.key;
                                             })),
              r.disclosed ? "DISCLOSED" : "still hidden");
}

}  // namespace

int main(int argc, char** argv) {
  DesDpaSetup setup;
  setup.n_measurements = argc > 1 ? std::atoi(argv[1]) : 800;

  std::printf("building the reduced-DES module (paper Fig 4), key = %u...\n",
              setup.key);
  const auto lib = builtin_stdcell018();
  const AigCircuit circuit = make_des_dpa_circuit();
  const RegularFlowResult regular = run_regular_flow(circuit, lib);
  const SecureFlowResult secure = run_secure_flow(circuit, lib);

  std::printf("collecting %d power traces per implementation "
              "(125 MHz, 800 samples/cycle)...\n",
              setup.n_measurements);
  const DesDpaCampaign ref = run_des_dpa_campaign(
      regular.rtl, regular.caps, setup, /*differential=*/false);
  const DesDpaCampaign sec = run_des_dpa_campaign(
      secure.diff, secure.caps, setup, /*differential=*/true);

  report("regular CMOS implementation", ref.dpa, setup);
  report("WDDL secure implementation", sec.dpa, setup);

  std::printf("\ndifferential trace of the correct key (regular flow), "
              "max |sample|:\n  ");
  const auto diff = ref.dpa.differential(setup.key);
  const auto peak = std::max_element(
      diff.begin(), diff.end(),
      [](double a, double b) { return std::abs(a) < std::abs(b); });
  std::printf("%.4f mA at sample %ld of %zu\n", *peak,
              std::distance(diff.begin(), peak), diff.size());

  // Export the Fig 6-style series for plotting.
  std::vector<std::string> names;
  std::vector<std::vector<double>> cols;
  for (int g = 0; g < 64; g += 21) {
    names.push_back("guess" + std::to_string(g));
    cols.push_back(ref.dpa.differential(static_cast<std::uint32_t>(g)));
  }
  names.push_back("key46");
  cols.push_back(diff);
  write_series_csv("dpa_differential_traces.csv", names, cols);
  std::printf("differential traces written to dpa_differential_traces.csv\n");
  return 0;
}
