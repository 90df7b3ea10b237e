// Section 4.3: DFA countermeasure.  A clock-glitch attack shortens the
// period so the evaluation wave cannot reach the registers; WDDL's
// redundant encoding detects it — a register rail pair still (0,0) at the
// capture edge raises the alarm.  We sweep the glitched period and report
// the alarm behaviour across the boundary.
#include "base/rng.h"
#include "bench_util.h"
#include "sca/dfa.h"
#include "sim/power_sim.h"

using namespace secflow;

namespace {

/// Rail port ids of one bit-blasted input, resolved once.
struct RailPorts {
  std::vector<std::pair<PortId, PortId>> bits;
  RailPorts(const Netlist& nl, const std::string& base, int width) {
    for (int b = 0; b < width; ++b) {
      const std::string bit = base + "_" + std::to_string(b);
      bits.emplace_back(nl.find_port(bit + "_t"), nl.find_port(bit + "_f"));
    }
  }
  void drive(PowerSimulator& sim, std::uint32_t v) const {
    for (std::size_t b = 0; b < bits.size(); ++b) {
      sim.set_input(bits[b].first, (v >> b) & 1);
      sim.set_input(bits[b].second, !((v >> b) & 1));
    }
  }
};

struct DrivePorts {
  RailPorts pl, pr, k;
  explicit DrivePorts(const Netlist& nl)
      : pl(nl, "pl", 4), pr(nl, "pr", 6), k(nl, "k", 6) {}
  void drive(PowerSimulator& sim, std::uint32_t plv, std::uint32_t prv,
             std::uint32_t kv) const {
    pl.drive(sim, plv);
    pr.drive(sim, prv);
    k.drive(sim, kv);
  }
};

}  // namespace

int main() {
  bench::DesDesigns d = bench::build_des_designs();
  const DfaMonitor monitor(d.secure.diff);
  // One compiled model for the whole period sweep; reset() per period.
  const CompiledSimModel model = compile_power_model(d.secure);
  const DrivePorts ports(d.secure.diff);
  PowerSimulator sim(model);

  bench::header("Sec 4.3",
                "DFA clock-glitch detection via redundant encoding");
  bench::row("monitored WDDL registers: %d", monitor.n_monitored_registers());
  bench::row("%-14s %10s %14s", "period [ps]", "alarms", "verdict");

  Rng rng(31);
  double detect_from = -1.0, clean_from = -1.0;
  bool first = true;
  for (double period : {400.0, 800.0, 1200.0, 1600.0, 2000.0, 2400.0, 2800.0,
                        3200.0, 4800.0, 8000.0}) {
    if (!first) sim.reset();
    first = false;
    // Two normal cycles establish valid state, then the glitched cycle.
    ports.drive(sim, 5, 21, 46);
    sim.step_cycle();
    ports.drive(sim, static_cast<std::uint32_t>(rng.next_below(16)),
                static_cast<std::uint32_t>(rng.next_below(64)), 46);
    sim.step_cycle();
    ports.drive(sim, static_cast<std::uint32_t>(rng.next_below(16)),
                static_cast<std::uint32_t>(rng.next_below(64)), 46);
    sim.step_cycle(period);
    const auto alarms = monitor.check(sim);
    bench::row("%-14.0f %10zu %14s", period, alarms.size(),
               alarms.empty() ? "ok" : "ALARM");
    if (!alarms.empty()) detect_from = period;
    if (alarms.empty() && clean_from < 0) clean_from = period;
  }
  bench::blank();
  bench::row("glitches at or below %.0f ps are detected; the nominal", detect_from);
  bench::row("8000 ps cycle (and any period past the critical path) is clean.");
  bench::row("A regular CMOS design has no such invalid state to detect:");
  bench::row("a glitched capture silently latches a wrong-but-valid value.");
  return 0;
}
