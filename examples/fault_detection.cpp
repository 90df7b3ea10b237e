// WDDL's built-in Differential Fault Analysis countermeasure (paper
// section 4.3): a clock-glitch attack leaves register rail pairs in the
// invalid (0,0) state, which the alarm logic detects.
//
//   $ ./fault_detection
#include <cstdio>

#include "secflow.h"

using namespace secflow;

namespace {

void drive(PowerSimulator& sim, std::uint32_t pl, std::uint32_t pr,
           std::uint32_t k) {
  auto rails = [&](const std::string& base, int width, std::uint32_t v) {
    for (int b = 0; b < width; ++b) {
      sim.set_input(base + "_" + std::to_string(b) + "_t", (v >> b) & 1);
      sim.set_input(base + "_" + std::to_string(b) + "_f", !((v >> b) & 1));
    }
  };
  rails("pl", 4, pl);
  rails("pr", 6, pr);
  rails("k", 6, k);
}

}  // namespace

int main() {
  std::printf("building the WDDL reduced-DES module...\n");
  const auto lib = builtin_stdcell018();
  const SecureFlowResult secure =
      run_secure_flow(make_des_dpa_circuit(), lib);
  const DfaMonitor monitor(secure.diff);
  std::printf("alarm monitor attached to %d WDDL registers\n\n",
              monitor.n_monitored_registers());

  PowerSimOptions opts;
  opts.precharge_inputs = true;
  PowerSimulator sim(secure.diff, secure.caps, opts);
  Rng rng(7);

  // Reset sequence: WDDL registers power up in the invalid (0,0) state;
  // two cycles flush valid differential data through the pipeline before
  // the alarm is armed (a real IC gates the alarm with its reset).
  for (int i = 0; i < 2; ++i) {
    drive(sim, static_cast<std::uint32_t>(rng.next_below(16)),
          static_cast<std::uint32_t>(rng.next_below(64)), 46);
    sim.step_cycle();
  }

  std::printf("%-8s %-12s %-10s %s\n", "cycle", "period", "alarms",
              "comment");
  for (int cycle = 0; cycle < 8; ++cycle) {
    drive(sim, static_cast<std::uint32_t>(rng.next_below(16)),
          static_cast<std::uint32_t>(rng.next_below(64)), 46);
    // The attacker glitches cycle 5: the clock runs 10x too fast, the
    // evaluation wave cannot reach the registers before capture.
    const bool glitch = cycle == 5;
    sim.step_cycle(glitch ? 800.0 : 0.0);
    const auto alarms = monitor.check(sim);
    std::printf("%-8d %-12s %-10zu %s\n", cycle,
                glitch ? "800 ps !" : "8000 ps", alarms.size(),
                alarms.empty()
                    ? "valid differential state"
                    : ("ALARM: " + alarms[0].register_name +
                       " captured (0,0) — wipe secrets and halt")
                          .c_str());
    if (!alarms.empty()) {
      std::printf("\nfault detected: in a deployed IC this would zeroize the "
                  "key registers.\n");
      break;
    }
  }
  return 0;
}
