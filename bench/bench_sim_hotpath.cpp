// Power-sim hot path: compile-once / simulate-many vs per-trace model
// construction.
//
// The bulk workloads (Fig 6 DPA, the energy table, fuzz oracles) simulate
// thousands of traces of one netlist.  This bench quantifies the split
// introduced by CompiledSimModel: model build cost vs per-trace reset()
// cost, and traces/sec with per-trace construction ("cold", the engine's
// former behaviour) vs one shared model + reset ("reused").  Everything
// runs single-threaded so the numbers are comparable on any machine.
//
// `--json <path>` writes the metrics as BENCH_sim.json for CI trending,
// with the reused simulator's exact work counters over the dpa4 streams
// (`<design>.dpa4.events`, `<design>.dpa4.charge_bins`).
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.h"
#include "bench_util.h"
#include "sca/dpa_experiment.h"

using namespace secflow;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One trace = the 4-cycle DPA mini-campaign of sca/dpa_experiment.
double dpa4_trace(PowerSimulator& sim, const DesPortMap& ports, Rng& rng) {
  return des_trace(sim, rng, ports, 46, 0.0).cycle.energy_pj;
}

/// One trace = a single recorded cycle (the finest trace granularity:
/// per-cycle energy signatures, glitch-period probes).
double cycle_trace(PowerSimulator& sim, const DesPortMap& ports, Rng& rng) {
  ports.drive(sim, ports.k, 46);
  ports.drive(sim, ports.pl, static_cast<std::uint32_t>(rng.next_below(16)));
  ports.drive(sim, ports.pr, static_cast<std::uint32_t>(rng.next_below(64)));
  return sim.run_cycle().energy_pj;
}

using TraceFn = double (*)(PowerSimulator&, const DesPortMap&, Rng&);

struct WorkloadResult {
  double cold_tps = 0.0;    ///< traces/sec, pre-split engine per trace
  double reused_tps = 0.0;  ///< traces/sec, shared model + reset
  double checksum = 0.0;
  std::uint64_t events = 0;       ///< reused simulator's events_applied()
  std::uint64_t charge_bins = 0;  ///< reused simulator's charge_bins()
  double speedup() const {
    return cold_tps > 0.0 ? reused_tps / cold_tps : 0.0;
  }
};

WorkloadResult run_workload(const Netlist& nl, const CapTable& caps,
                            const PowerSimOptions& opts,
                            const CompiledSimModel& model,
                            const DesPortMap& ports, TraceFn trace, int n_cold,
                            int n_reused) {
  WorkloadResult r;
  {  // cold: per-trace construction, as the engine behaved before the
     // compile-once split — the old constructor took the CapTable by
     // value (a full string-keyed map copy per trace) and rebuilt every
     // derived table (cap resolution, clock, delays) from scratch.
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < n_cold; ++i) {
      const CapTable by_value_copy(caps);
      PowerSimulator sim(nl, by_value_copy, opts);
      Rng rng = Rng::stream(7, static_cast<std::uint64_t>(i));
      r.checksum += trace(sim, ports, rng);
    }
    r.cold_tps = n_cold / seconds_since(t0);
  }
  {  // reused: one simulator on the shared model, reset between traces
    PowerSimulator sim(model);
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < n_reused; ++i) {
      if (i != 0) sim.reset();
      Rng rng = Rng::stream(7, static_cast<std::uint64_t>(i));
      r.checksum += trace(sim, ports, rng);
    }
    r.reused_tps = n_reused / seconds_since(t0);
    r.events = sim.events_applied();
    r.charge_bins = sim.charge_bins();
  }
  return r;
}

struct HotpathResult {
  double build_us = 0.0;  ///< one CompiledSimModel build
  double reset_us = 0.0;  ///< one PowerSimulator::reset()
  WorkloadResult cycle;   ///< 1 recorded cycle per trace
  WorkloadResult dpa4;    ///< 4-cycle DPA mini-campaign per trace
  double checksum = 0.0;
};

HotpathResult run_hotpath(const Netlist& nl, const CapTable& caps,
                          const PowerSimOptions& opts, int n_cold,
                          int n_reused) {
  HotpathResult r;
  const CompiledSimModel model(nl, caps, opts);
  const DesPortMap ports =
      DesPortMap::resolve(model.netlist(), opts.precharge_inputs);

  {  // model build cost
    const int n = 50;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
      const CompiledSimModel m(nl, caps, opts);
      r.checksum += static_cast<double>(m.n_nets());
    }
    r.build_us = seconds_since(t0) / n * 1e6;
  }
  {  // reset cost
    PowerSimulator sim(model);
    Rng rng = Rng::stream(7, 0);
    dpa4_trace(sim, ports, rng);  // populate state so reset has work to do
    const int n = 2000;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) sim.reset();
    r.reset_us = seconds_since(t0) / n * 1e6;
  }
  r.cycle = run_workload(nl, caps, opts, model, ports, cycle_trace,
                         4 * n_cold, 4 * n_reused);
  r.dpa4 =
      run_workload(nl, caps, opts, model, ports, dpa4_trace, n_cold, n_reused);
  r.checksum += r.cycle.checksum + r.dpa4.checksum;
  return r;
}

void report_workload(bench::JsonReport& report, const std::string& design,
                     const std::string& workload, const WorkloadResult& w) {
  bench::row("%-10s %-8s %14.1f %14.1f %9.2fx", design.c_str(),
             workload.c_str(), w.cold_tps, w.reused_tps, w.speedup());
  const std::string p = design + "." + workload;
  report.metric(p + ".cold_traces_per_s", w.cold_tps);
  report.metric(p + ".reused_traces_per_s", w.reused_tps);
  report.metric(p + ".speedup", w.speedup());
}

void report_design(bench::JsonReport& report, const std::string& name,
                   const HotpathResult& r) {
  report_workload(report, name, "cycle", r.cycle);
  report_workload(report, name, "dpa4", r.dpa4);
  report.metric(name + ".dpa4.events", static_cast<double>(r.dpa4.events));
  report.metric(name + ".dpa4.charge_bins",
                static_cast<double>(r.dpa4.charge_bins));
  report.metric(name + ".model_build_us", r.build_us);
  report.metric(name + ".reset_us", r.reset_us);
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report("bench_sim_hotpath", argc, argv);
  report.note("design", "reduced-DES (Fig 4)");
  report.note("workload", "4-cycle DPA mini-campaign per trace, 1 thread");

  bench::DesDesigns d = bench::build_des_designs();
  bench::header("sim hotpath",
                "compile-once / simulate-many vs per-trace construction");
  bench::row("%-10s %-8s %14s %14s %10s", "netlist", "trace", "cold [tr/s]",
             "reused [tr/s]", "speedup");

  const HotpathResult reg = run_hotpath(d.regular.rtl, d.regular.caps,
                                        PowerSimOptions{}, 60, 300);
  report_design(report, "regular", reg);

  PowerSimOptions sopts;
  sopts.precharge_inputs = true;
  const HotpathResult sec =
      run_hotpath(d.secure.diff, d.secure.caps, sopts, 40, 200);
  report_design(report, "secure", sec);

  bench::blank();
  bench::row("model build: regular %.1f us, secure %.1f us; reset: regular "
             "%.3f us, secure %.3f us",
             reg.build_us, sec.build_us, reg.reset_us, sec.reset_us);
  bench::row("cold reconstructs per trace as the pre-split engine did (by-");
  bench::row("value CapTable copy + cap/clock/delay resolution); reused");
  bench::row("shares one immutable CompiledSimModel and reset()s between");
  bench::row("traces.  'cycle' = one recorded cycle per trace; 'dpa4' = the");
  bench::row("4-cycle DPA mini-campaign.");
  bench::row("dpa4 work (reused): regular %llu events, %llu charge bins; "
             "secure %llu events, %llu charge bins",
             static_cast<unsigned long long>(reg.dpa4.events),
             static_cast<unsigned long long>(reg.dpa4.charge_bins),
             static_cast<unsigned long long>(sec.dpa4.events),
             static_cast<unsigned long long>(sec.dpa4.charge_bins));
  bench::row("checksums: %.3f %.3f", reg.checksum, sec.checksum);
  return 0;
}
