#include "sca/dpa_experiment.h"

#include <algorithm>

#include "base/error.h"
#include "base/rng.h"
#include "obs/log.h"
#include "obs/trace.h"

namespace secflow {
namespace {

std::vector<DesBitPorts> resolve_bits(const Netlist& nl,
                                      const std::string& base, int width,
                                      bool differential) {
  std::vector<DesBitPorts> ports(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    const std::string bit = base + "_" + std::to_string(i);
    DesBitPorts& b = ports[static_cast<std::size_t>(i)];
    if (differential) {
      b.t = nl.find_port(bit + "_t");
      b.f = nl.find_port(bit + "_f");
      SECFLOW_CHECK(b.t.valid() && b.f.valid(), "missing rail ports: " + bit);
    } else {
      b.t = nl.find_port(bit);
      SECFLOW_CHECK(b.t.valid(), "unknown port: " + bit);
    }
  }
  return ports;
}

}  // namespace

DesPortMap DesPortMap::resolve(const Netlist& nl, bool differential) {
  DesPortMap m;
  m.differential = differential;
  m.k = resolve_bits(nl, "k", 6, differential);
  m.pl = resolve_bits(nl, "pl", 4, differential);
  m.pr = resolve_bits(nl, "pr", 6, differential);
  m.cl = resolve_bits(nl, "cl", 4, differential);
  m.cr = resolve_bits(nl, "cr", 6, differential);
  return m;
}

void DesPortMap::drive(PowerSimulator& sim,
                       const std::vector<DesBitPorts>& ports,
                       std::uint32_t value) const {
  for (std::size_t i = 0; i < ports.size(); ++i) {
    const bool v = (value >> i) & 1;
    sim.set_input(ports[i].t, v);
    if (differential) sim.set_input(ports[i].f, !v);
  }
}

std::uint32_t DesPortMap::read(const PowerSimulator& sim,
                               const std::vector<DesBitPorts>& ports) const {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < ports.size(); ++i) {
    const bool b = differential ? sim.output_at_eval(ports[i].t)
                                : sim.output(ports[i].t);
    if (b) v |= 1u << i;
  }
  return v;
}

SimTrace des_trace(PowerSimulator& sim, Rng& rng, const DesPortMap& ports,
                   std::uint32_t key, double noise_ma,
                   std::optional<std::uint32_t> fixed_plaintext) {
  const auto prev_pl = static_cast<std::uint32_t>(rng.next_below(16));
  const auto prev_pr = static_cast<std::uint32_t>(rng.next_below(64));
  auto pl = static_cast<std::uint32_t>(rng.next_below(16));
  auto pr = static_cast<std::uint32_t>(rng.next_below(64));
  if (fixed_plaintext) {
    pl = *fixed_plaintext & 0xF;
    pr = (*fixed_plaintext >> 4) & 0x3F;
  }
  ports.drive(sim, ports.k, key);
  ports.drive(sim, ports.pl, prev_pl);
  ports.drive(sim, ports.pr, prev_pr);
  sim.settle();
  sim.step_cycle();
  ports.drive(sim, ports.pl, pl);
  ports.drive(sim, ports.pr, pr);
  sim.step_cycle();
  SimTrace out;
  out.cycle = sim.run_cycle();
  // The previous encryption's result lands in the CL/CR output registers
  // one cycle before the target's.
  const std::uint32_t prev_ct =
      ports.read(sim, ports.cl) | (ports.read(sim, ports.cr) << 4);
  sim.step_cycle();
  const std::uint32_t ct =
      ports.read(sim, ports.cl) | (ports.read(sim, ports.cr) << 4);
  out.observable = ct | (prev_ct << 10);
  if (noise_ma > 0.0) {
    for (double& s : out.cycle.current_ma) s += noise_ma * rng.next_gaussian();
  }
  return out;
}

void check_precharge(const CompiledSimModel& model, bool differential,
                     const char* caller) {
  const bool precharge = model.options().precharge_inputs;
  SECFLOW_CHECK(precharge == differential,
                std::string(caller) + ": differential = " +
                    (differential ? "true" : "false") +
                    ", but the model was compiled with precharge_inputs = " +
                    (precharge ? "true" : "false"));
}

DesDpaCampaign run_des_dpa_campaign(const CompiledSimModel& model,
                                    const DesDpaSetup& setup,
                                    bool differential) {
  check_precharge(model, differential, "run_des_dpa_campaign");
  Span span("sca.dpa.campaign", "sca");
  span.arg("measurements", setup.n_measurements);
  span.arg("differential", differential ? "true" : "false");
  SECFLOW_LOG_INFO("sca", "DPA campaign start",
                   LogField("measurements", setup.n_measurements),
                   LogField("differential", differential));

  // Resolve the Fig 4 interface once; the per-trace task below does no
  // string lookups.
  const DesPortMap ports = DesPortMap::resolve(model.netlist(), differential);
  const TraceTask task = [&](PowerSimulator& sim, Rng& rng, std::uint64_t) {
    return des_trace(sim, rng, ports, setup.key, setup.noise_ma);
  };
  DesDpaCampaign campaign{
      DpaAccumulator(des_selection(setup.select_bit, setup.sbox), setup.key,
                     setup.parallelism),
      {}};
  // One checkpoint's traces at a time: simulate, fold, drop.
  for (int begin = 0; begin < setup.n_measurements;
       begin += kDpaCheckpointTraces) {
    const std::vector<SimTrace> block = simulate_traces(
        model, static_cast<std::uint64_t>(begin),
        std::min(kDpaCheckpointTraces, setup.n_measurements - begin),
        setup.seed, task, setup.parallelism);
    for (const SimTrace& t : block) {
      campaign.cycle_energies_pj.push_back(t.cycle.energy_pj);
    }
    campaign.dpa.fold(block);
  }
  return campaign;
}

DesDpaCampaign run_des_dpa_campaign(const Netlist& nl, const CapTable& caps,
                                    const DesDpaSetup& setup,
                                    bool differential) {
  PowerSimOptions opts;
  opts.precharge_inputs = differential;
  const CompiledSimModel model(nl, caps, opts);
  return run_des_dpa_campaign(model, setup, differential);
}

void attach_dpa(FlowReport& report, const DpaResult& result,
                const std::vector<double>& cycle_energies_pj) {
  const GuessRanking ranking = rank_guesses(result.peak_to_peak);
  DpaSection& d = report.dpa;
  d.present = true;
  d.n_measurements = result.n_measurements;
  d.best_guess = result.best_guess;
  d.disclosed = result.disclosed;
  d.best_peak = ranking.best_score;
  d.runner_up_peak = ranking.runner_up_score;
  d.mean_cycle_energy_pj = 0.0;
  if (!cycle_energies_pj.empty()) {
    double sum = 0.0;
    for (const double e : cycle_energies_pj) sum += e;
    d.mean_cycle_energy_pj = sum / static_cast<double>(cycle_energies_pj.size());
  }
}

}  // namespace secflow
