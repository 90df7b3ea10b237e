#include "sim/sim_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/error.h"

namespace secflow {

CompiledSimModel::CompiledSimModel(const Netlist& nl, const CapTable& caps,
                                   const PowerSimOptions& opts)
    : nl_(&nl), opts_(opts) {
  const std::size_t n_nets = nl.n_nets();

  // Sampling constants.
  sample_dt_ps_ = opts_.sampling.sample_dt_s() * 1e12;
  samples_per_cycle_ = opts_.sampling.samples_per_cycle;
  nominal_period_ps_ = opts_.sampling.cycle_s() * 1e12;

  // One clock net, driven by an input port.
  clock_net_ = nl.clock_net();
  if (clock_net_.valid()) {
    const auto port = nl.driving_port(clock_net_);
    SECFLOW_CHECK(port.has_value(), "clock must be driven by an input port");
    clock_port_ = *port;
  }

  // Data-input ports: every input except the clock, with its net resolved.
  data_input_flag_.assign(nl.n_ports(), 0);
  for (PortId pid : nl.port_ids()) {
    const Port& p = nl.port(pid);
    if (p.dir != PinDir::kInput) continue;
    if (clock_port_.valid() && pid == clock_port_) continue;
    data_input_flag_[pid.index()] = 1;
    data_inputs_.push_back(DataInput{pid, p.net});
  }

  // Per-net cap resolution: the one place net names are hash-looked-up.
  net_cap_ff_.resize(n_nets);
  for (NetId id : nl.net_ids()) {
    const auto it = caps.find(nl.net(id).name);
    if (it != caps.end()) {
      net_cap_ff_[id.index()] = it->second;
    } else {
      // Fallback: sink pin caps plus a nominal local wire.
      double c = 1.0;
      for (const PinRef& p : nl.net(id).pins) {
        const CellType& type = nl.cell_of(p.inst);
        const PinDef& pin = type.pins[static_cast<std::size_t>(p.pin)];
        if (pin.dir == PinDir::kInput) c += pin.cap_ff;
      }
      net_cap_ff_[id.index()] = c;
    }
  }

  // Per-net power constants.  A rising edge on net n draws
  // Q = (C_net + C_internal(driver)) * VDD as a pulse with time constant
  // tau = max(min_tau, R_drive * C_net); the sampled deposit decays by
  // exp(-dt/tau) per bin, precomputed here so the simulator needs just one
  // exp per event (the fractional first bin) plus multiplies.
  charge_fc_.resize(n_nets);
  rise_energy_pj_.resize(n_nets);
  tau_ps_.resize(n_nets);
  bin_decay_.resize(n_nets);
  for (NetId id : nl.net_ids()) {
    const std::size_t i = id.index();
    double c = net_cap_ff_[i];
    double tau = kMinTauPs;
    if (const auto drv = nl.driver(id)) {
      const CellType& type = nl.cell_of(drv->inst);
      c += type.internal_cap_ff;
      tau = std::max(tau, type.drive_res_kohm * net_cap_ff_[i]);
    }
    charge_fc_[i] = c * kVddV;
    rise_energy_pj_[i] = c * kVddV * kVddV * 1e-3;
    tau_ps_[i] = tau;
    bin_decay_[i] = std::exp(-sample_dt_ps_ / tau);
  }

  // Compiled combinational gates, then the net -> sink-gate CSR.
  std::vector<std::int32_t> gate_of_inst(nl.n_instances(), -1);
  for (InstId iid : nl.instance_ids()) {
    const CellType& type = nl.cell_of(iid);
    if (type.kind != CellKind::kCombinational) continue;
    const Instance& in = nl.instance(iid);
    const int out_pin = type.output_pin();
    const NetId out = in.conns[static_cast<std::size_t>(out_pin)];
    if (!out.valid()) continue;  // dangling output: nothing to propagate
    Gate g;
    g.out_net = out.value();
    g.first_input = static_cast<std::int32_t>(gate_input_nets_.size());
    g.fn = type.function;
    g.delay_ps =
        type.intrinsic_delay_ps + type.drive_res_kohm * net_cap_ff(out);
    for (int pin : type.input_pins()) {
      const NetId net = in.conns[static_cast<std::size_t>(pin)];
      gate_input_nets_.push_back(net.valid() ? net.value() : -1);
      ++g.n_inputs;
    }
    gate_of_inst[iid.index()] = static_cast<std::int32_t>(gates_.size());
    gates_.push_back(g);
  }

  // CSR: counting pass, prefix sum, fill pass.  Sink order per net matches
  // the net's pin order, preserving the event schedule (and therefore the
  // FIFO sequence numbers) of the pre-compiled simulator.
  net_sink_offset_.assign(n_nets + 1, 0);
  for (NetId id : nl.net_ids()) {
    for (const PinRef& sink : nl.net(id).pins) {
      const std::int32_t g = gate_of_inst[sink.inst.index()];
      if (g < 0) continue;
      // Only input pins of the gate are fanout; its own output pin also
      // appears on the driven net's pin list.
      const CellType& type = nl.cell_of(sink.inst);
      if (type.pins[static_cast<std::size_t>(sink.pin)].dir != PinDir::kInput)
        continue;
      ++net_sink_offset_[id.index() + 1];
    }
  }
  for (std::size_t i = 0; i < n_nets; ++i) {
    net_sink_offset_[i + 1] += net_sink_offset_[i];
  }
  net_sinks_.resize(static_cast<std::size_t>(net_sink_offset_[n_nets]));
  std::vector<std::int32_t> cursor(net_sink_offset_.begin(),
                                   net_sink_offset_.end() - 1);
  for (NetId id : nl.net_ids()) {
    for (const PinRef& sink : nl.net(id).pins) {
      const std::int32_t g = gate_of_inst[sink.inst.index()];
      if (g < 0) continue;
      const CellType& type = nl.cell_of(sink.inst);
      if (type.pins[static_cast<std::size_t>(sink.pin)].dir != PinDir::kInput)
        continue;
      net_sinks_[static_cast<std::size_t>(cursor[id.index()]++)] = g;
    }
  }

  // Flops, split by capture edge, in instance order (capture simultaneity
  // and Q-update order are preserved).
  for (InstId iid : nl.instance_ids()) {
    const CellType& type = nl.cell_of(iid);
    if (type.kind != CellKind::kFlop) continue;
    const Instance& in = nl.instance(iid);
    Flop f;
    f.inst = iid;
    f.d = in.conns[static_cast<std::size_t>(type.d_pin())];
    SECFLOW_CHECK(f.d.valid(), "flop with floating D: " + in.name);
    f.q = in.conns[static_cast<std::size_t>(type.output_pin())];
    f.clk_to_q_ps = type.intrinsic_delay_ps;
    f.fn = type.function;
    (type.negedge_clock ? negedge_flops_ : posedge_flops_).push_back(f);
  }

  // Topological gate order: Kahn's algorithm over the CSR, a gate becoming
  // ready once every CSR edge from a driving gate has been consumed.
  const auto fanout = [&](const Gate& g) {
    return sinks_of(static_cast<std::size_t>(g.out_net));
  };
  std::vector<std::int32_t> unresolved(gates_.size(), 0);
  gate_order_.reserve(gates_.size());
  for (const Gate& g : gates_) {
    for (const std::int32_t sink : fanout(g))
      ++unresolved[static_cast<std::size_t>(sink)];
  }
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    if (unresolved[i] == 0) gate_order_.push_back(static_cast<std::int32_t>(i));
  }
  for (std::size_t head = 0; head < gate_order_.size(); ++head) {
    const Gate& g = gates_[static_cast<std::size_t>(gate_order_[head])];
    for (const std::int32_t sink : fanout(g))
      if (--unresolved[static_cast<std::size_t>(sink)] == 0)
        gate_order_.push_back(sink);
  }
  has_gate_order_ = gate_order_.size() == gates_.size();
  if (!has_gate_order_) {
    gate_order_.clear();
    wave_bound_ps_ = std::numeric_limits<double>::infinity();
    return;
  }

  // Static wave bound: the latest arrival over every net, walking the
  // gates in order from the edge's sources.  A net no source reaches never
  // switches inside a half.
  constexpr double kNever = -std::numeric_limits<double>::infinity();
  std::vector<double> arrival(n_nets, kNever);
  const auto source = [&](NetId net, double t) {
    double& a = arrival[net.index()];
    a = std::max(a, t);
    wave_bound_ps_ = std::max(wave_bound_ps_, t);
  };
  if (clock_net_.valid()) source(clock_net_, kClockNetDelayPs);
  for (const DataInput& di : data_inputs_) source(di.net, kInputDelayPs);
  for (const std::vector<Flop>* flops : {&posedge_flops_, &negedge_flops_}) {
    for (const Flop& f : *flops)
      if (f.q.valid()) source(f.q, f.clk_to_q_ps);
  }
  for (const std::int32_t gid : gate_order_) {
    const Gate& g = gates_[static_cast<std::size_t>(gid)];
    const std::int32_t* inputs = gate_input_nets(g);
    double latest = kNever;
    for (std::int32_t k = 0; k < g.n_inputs; ++k) {
      if (inputs[k] >= 0)
        latest = std::max(latest, arrival[static_cast<std::size_t>(inputs[k])]);
    }
    if (latest != kNever) source(NetId(g.out_net), latest + g.delay_ps);
  }
}

}  // namespace secflow
