#include "sim/power_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "base/error.h"

namespace secflow {
namespace {

/// Events settle() applies per net of a model with a combinational cycle
/// before it calls the cycle an oscillation.
constexpr std::uint64_t kSettleEventsPerNet = 1024;

}  // namespace

double CycleTrace::peak_ma() const {
  double p = 0.0;
  for (double v : current_ma) p = std::max(p, std::abs(v));
  return p;
}

PowerSimulator::PowerSimulator(const CompiledSimModel& model)
    : model_(model),
      net_val_(model.n_nets(), 0),
      mid_val_(model.n_nets(), 0),
      net_next_(model.n_nets(), 0),
      pending_(model.n_nets(), 0),
      flop_state_(model.n_instances(), 0),
      input_val_(model.n_ports(), 0) {}

PowerSimulator::PowerSimulator(const Netlist& nl, const CapTable& caps,
                               const PowerSimOptions& opts)
    : owned_(std::make_unique<CompiledSimModel>(nl, caps, opts)),
      model_(*owned_),
      net_val_(model_.n_nets(), 0),
      mid_val_(model_.n_nets(), 0),
      net_next_(model_.n_nets(), 0),
      pending_(model_.n_nets(), 0),
      flop_state_(model_.n_instances(), 0),
      input_val_(model_.n_ports(), 0) {}

void PowerSimulator::reset() {
  std::fill(net_val_.begin(), net_val_.end(), 0);
  std::fill(mid_val_.begin(), mid_val_.end(), 0);
  std::fill(net_next_.begin(), net_next_.end(), 0);
  std::fill(pending_.begin(), pending_.end(), 0);
  std::fill(flop_state_.begin(), flop_state_.end(), 0);
  std::fill(input_val_.begin(), input_val_.end(), 0);
  heap_.clear();
  seq_ = 0;
  now_ps_ = 0.0;
  settled_ = false;
}

void PowerSimulator::set_input(const std::string& port, bool value) {
  const Netlist& nl = model_.netlist();
  const PortId pid = nl.find_port(port);
  SECFLOW_CHECK(pid.valid(), "unknown port: " + port);
  SECFLOW_CHECK(nl.port(pid).dir == PinDir::kInput,
                "not an input port: " + port);
  SECFLOW_CHECK(!(model_.clock_port().valid() && pid == model_.clock_port()),
                "the clock is driven by the simulator");
  input_val_[pid.index()] = value ? 1 : 0;
}

void PowerSimulator::set_input(PortId port, bool value) {
  SECFLOW_CHECK(model_.is_data_input(port),
                "not a data input port: " + model_.netlist().port(port).name);
  input_val_[port.index()] = value ? 1 : 0;
}

void PowerSimulator::push_event(Event ev) {
  heap_.push_back(ev);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

PowerSimulator::Event PowerSimulator::pop_event() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
  const Event ev = heap_.back();
  heap_.pop_back();
  return ev;
}

bool PowerSimulator::gate_value(const CompiledSimModel::Gate& g) const {
  // Net values are 0 or 1, so each input's bit is shifted in without a
  // data-dependent branch.
  const std::int32_t* inputs = model_.gate_input_nets(g);
  std::uint64_t bits = 0;
  for (std::int32_t k = 0; k < g.n_inputs; ++k) {
    const std::int32_t net = inputs[k];
    if (net >= 0) {
      bits |= std::uint64_t{static_cast<unsigned char>(
                  net_val_[static_cast<std::size_t>(net)])}
              << k;
    }
  }
  return g.fn.eval(bits);
}

void PowerSimulator::schedule(double t, NetId net, bool value) {
  const std::size_t idx = net.index();
  const char v = value ? 1 : 0;
  // Dedup against the value the net will hold once the queue drains: the
  // last scheduled value while events are in flight, the settled value
  // otherwise (net_next_ goes stale between event bursts).
  if (pending_[idx] == 0 ? net_val_[idx] == v : net_next_[idx] == v) return;
  net_next_[idx] = v;
  ++pending_[idx];
  push_event(Event{t, net, value, seq_++});
}

void PowerSimulator::deposit_charge(CycleTrace& trace, double t_ps,
                                    std::size_t net_idx) {
  // Exponential pulse i(t) = (Q/tau) e^{-(t-t0)/tau}, discretized so the
  // sampled sum carries exactly Q.  fC per ps is mA.
  //
  // Per bin [t0, t1) the delivered charge is Q (f(t0) - f(t1)) with
  // f(t) = e^{-(t-t_ps)/tau}; consecutive bin edges satisfy
  // f(t + dt) = f(t) * e^{-dt/tau}, so after the first (fractional) bin the
  // loop needs one multiply per bin instead of two std::exp calls.
  const double dt = model_.sample_dt_ps();
  const int n = static_cast<int>(trace.current_ma.size());
  int bin = static_cast<int>(t_ps / dt);
  if (bin >= n) return;  // event spilled past the cycle end
  const double charge_fc = model_.charge_fc(net_idx);
  const double tau_ps = model_.tau_ps(net_idx);
  const double decay = model_.bin_decay(net_idx);
  // First bin starts at the event itself (f = 1) unless the event time was
  // clamped below the window, in which case the pulse is already partway
  // decayed at t = 0.
  double f_prev = 1.0;
  if (bin < 0) {
    bin = 0;
    f_prev = std::exp(t_ps / tau_ps);
  }
  // f at the first bin's right edge; thereafter advanced by the recurrence.
  double f_next = std::exp(-((bin + 1) * dt - t_ps) / tau_ps);
  double remaining = charge_fc;
  int k = bin;
  for (; k < n && remaining > 1e-9; ++k) {
    const double q = charge_fc * (f_prev - f_next);
    trace.current_ma[static_cast<std::size_t>(k)] += q / dt;
    remaining -= q;
    f_prev = f_next;
    f_next *= decay;
  }
  charge_bins_ += static_cast<std::uint64_t>(k - bin);
}

void PowerSimulator::apply_event(const Event& ev, CycleTrace* trace,
                                 double t_offset) {
  const std::size_t idx = ev.net.index();
  ++events_applied_;
  --pending_[idx];
  if (net_val_[idx] == (ev.value ? 1 : 0)) return;
  net_val_[idx] = ev.value ? 1 : 0;
  if (trace != nullptr) {
    ++trace->transitions;
    if (ev.value) {
      // Rising edge draws supply charge for the net plus the driver's
      // internal nodes; all constants are precompiled per net.
      trace->energy_pj += model_.rise_energy_pj(idx);
      deposit_charge(*trace, ev.time_ps - t_offset, idx);
    }
  }
  // Propagate to combinational sinks via the compiled CSR adjacency.
  for (const std::int32_t gid : model_.sinks_of(idx)) {
    const CompiledSimModel::Gate& g =
        model_.gates()[static_cast<std::size_t>(gid)];
    schedule(ev.time_ps + g.delay_ps, NetId(g.out_net), gate_value(g));
  }
}

void PowerSimulator::drain_until(double t_end, CycleTrace* trace,
                                 double t_offset) {
  while (!heap_.empty() && heap_.front().time_ps <= t_end) {
    const Event ev = pop_event();
    apply_event(ev, trace, t_offset);
  }
}

void PowerSimulator::capture_flops(bool rising, bool zero_delay) {
  // Capture simultaneously from current values, then schedule Q updates
  // (or, zero-delay, set each Q to the value its event would leave).
  const std::vector<CompiledSimModel::Flop>& flops = model_.flops(rising);
  capture_scratch_.resize(flops.size());
  for (std::size_t i = 0; i < flops.size(); ++i) {
    capture_scratch_[i] =
        flops[i].fn.eval(net_val_[flops[i].d.index()] ? 1 : 0) ? 1 : 0;
  }
  const double edge = now_ps_;
  for (std::size_t i = 0; i < flops.size(); ++i) {
    const CompiledSimModel::Flop& f = flops[i];
    const char v = capture_scratch_[i];
    flop_state_[f.inst.index()] = v;
    if (!f.q.valid()) continue;
    if (zero_delay) {
      net_val_[f.q.index()] = v;
    } else {
      schedule(edge + f.clk_to_q_ps, f.q, v != 0);
    }
  }
}

bool PowerSimulator::zero_delay_exact(double period) const {
  return settled_ && heap_.empty() && model_.has_gate_order() &&
         model_.wave_bound_ps() + 1.0 < period / 2;
}

void PowerSimulator::zero_delay_half(bool rising) {
  capture_flops(rising, /*zero_delay=*/true);
  if (model_.clock_net().valid()) {
    net_val_[model_.clock_net().index()] = rising ? 1 : 0;
  }
  if (rising || model_.options().precharge_inputs) {
    for (const CompiledSimModel::DataInput& di : model_.data_inputs()) {
      net_val_[di.net.index()] = rising ? input_val_[di.port.index()] : 0;
    }
  }
  const std::vector<CompiledSimModel::Gate>& gates = model_.gates();
  for (const std::int32_t gid : model_.gate_order()) {
    const CompiledSimModel::Gate& g = gates[static_cast<std::size_t>(gid)];
    net_val_[static_cast<std::size_t>(g.out_net)] = gate_value(g) ? 1 : 0;
  }
}

CycleTrace PowerSimulator::run_cycle(double period_ps) {
  CycleTrace trace;
  trace.current_ma.assign(
      static_cast<std::size_t>(model_.samples_per_cycle()), 0.0);
  cycle(period_ps, &trace);
  return trace;
}

void PowerSimulator::step_cycle(double period_ps) { cycle(period_ps, nullptr); }

// One clock cycle; a null `trace` books no power (step_cycle).
void PowerSimulator::cycle(double period_ps, CycleTrace* trace) {
  const double period =
      period_ps > 0.0 ? period_ps : model_.nominal_period_ps();
  const double start = now_ps_;

  if (trace == nullptr && zero_delay_exact(period)) {
    // Every event of each half would drain inside it and leave each net
    // at its zero-delay value, and nothing is booked: jump to that state.
    zero_delay_half(/*rising=*/true);
    now_ps_ = start + period / 2;
    mid_val_ = net_val_;
    zero_delay_half(/*rising=*/false);
    now_ps_ = start + period;
    return;
  }

  // Rising edge.
  capture_flops(/*rising=*/true, /*zero_delay=*/false);
  if (model_.clock_net().valid()) {
    schedule(start + kClockNetDelayPs, model_.clock_net(), true);
  }
  for (const CompiledSimModel::DataInput& di : model_.data_inputs()) {
    schedule(start + kInputDelayPs, di.net,
             input_val_[di.port.index()] != 0);
  }
  now_ps_ = start;
  drain_until(start + period / 2, trace, start);
  now_ps_ = start + period / 2;
  mid_val_ = net_val_;

  // Falling edge.
  capture_flops(/*rising=*/false, /*zero_delay=*/false);
  if (model_.clock_net().valid()) {
    schedule(now_ps_ + kClockNetDelayPs, model_.clock_net(), false);
  }
  if (model_.options().precharge_inputs) {
    for (const CompiledSimModel::DataInput& di : model_.data_inputs()) {
      schedule(now_ps_ + kInputDelayPs, di.net, false);
    }
  }
  drain_until(start + period, trace, start);
  now_ps_ = start + period;
}

bool PowerSimulator::net_value(const std::string& net) const {
  const NetId id = model_.netlist().find_net(net);
  SECFLOW_CHECK(id.valid(), "unknown net: " + net);
  return net_val_[id.index()] != 0;
}

bool PowerSimulator::net_value(NetId net) const {
  return net_val_[net.index()] != 0;
}

bool PowerSimulator::output(const std::string& port) const {
  const PortId pid = model_.netlist().find_port(port);
  SECFLOW_CHECK(pid.valid(), "unknown port: " + port);
  return output(pid);
}

bool PowerSimulator::output(PortId port) const {
  return net_val_[model_.netlist().port(port).net.index()] != 0;
}

bool PowerSimulator::output_at_eval(const std::string& port) const {
  const PortId pid = model_.netlist().find_port(port);
  SECFLOW_CHECK(pid.valid(), "unknown port: " + port);
  return output_at_eval(pid);
}

bool PowerSimulator::output_at_eval(PortId port) const {
  return mid_val_[model_.netlist().port(port).net.index()] != 0;
}

bool PowerSimulator::flop_state(InstId flop) const {
  return flop_state_[flop.index()] != 0;
}

void PowerSimulator::set_flop_state(InstId flop, bool value) {
  const Netlist& nl = model_.netlist();
  SECFLOW_CHECK(nl.cell_of(flop).kind == CellKind::kFlop, "not a flop");
  flop_state_[flop.index()] = value ? 1 : 0;
  // Drive its Q immediately (initialization convenience).
  const Instance& in = nl.instance(flop);
  const CellType& type = nl.cell_of(flop);
  const NetId q = in.conns[static_cast<std::size_t>(type.output_pin())];
  if (q.valid()) schedule(now_ps_, q, value);
}

void PowerSimulator::settle() {
  for (const CompiledSimModel::DataInput& di : model_.data_inputs()) {
    schedule(now_ps_, di.net, input_val_[di.port.index()] != 0);
  }
  // Event-driven simulation only re-evaluates gates whose inputs change;
  // seed every combinational output once so gates whose inputs happen to
  // match the all-zero reset state still assume consistent values.
  for (const CompiledSimModel::Gate& g : model_.gates()) {
    schedule(now_ps_, NetId(g.out_net), gate_value(g));
  }
  // Only a combinational cycle can oscillate and keep the queue from ever
  // draining, so only a model without a gate order has a budget.
  const std::uint64_t budget =
      model_.has_gate_order() ? std::numeric_limits<std::uint64_t>::max()
                              : kSettleEventsPerNet * (model_.n_nets() + 1);
  for (std::uint64_t applied = 0; !heap_.empty(); ++applied) {
    if (applied == budget) {
      const Netlist& nl = model_.netlist();
      throw Error("settle: netlist '" + nl.name() + "' did not settle in " +
                  std::to_string(budget) + " events; net '" +
                  nl.net(heap_.front().net).name +
                  "' is still switching (an oscillating combinational loop)");
    }
    const Event ev = pop_event();
    now_ps_ = std::max(now_ps_, ev.time_ps);
    apply_event(ev, nullptr, now_ps_);
  }
  settled_ = true;
}

EnergyStats compute_energy_stats(const std::vector<double>& energies_pj) {
  EnergyStats s;
  if (energies_pj.empty()) return s;
  s.min_pj = energies_pj[0];
  s.max_pj = energies_pj[0];
  double sum = 0.0;
  for (double e : energies_pj) {
    sum += e;
    s.min_pj = std::min(s.min_pj, e);
    s.max_pj = std::max(s.max_pj, e);
  }
  s.mean_pj = sum / static_cast<double>(energies_pj.size());
  double var = 0.0;
  for (double e : energies_pj) var += (e - s.mean_pj) * (e - s.mean_pj);
  var /= static_cast<double>(energies_pj.size());
  if (s.mean_pj > 0.0) {
    s.ned = (s.max_pj - s.min_pj) / s.mean_pj;
    s.nsd = std::sqrt(var) / s.mean_pj;
  }
  return s;
}

}  // namespace secflow
