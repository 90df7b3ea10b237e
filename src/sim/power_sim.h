// Event-driven gate-level power simulation (the HSpice stand-in).
//
// Switched-capacitance model: every rising net transition draws
// Q = (C_net + C_internal(driver)) * VDD from the supply at the event's
// (load-dependent) time; each charge is deposited on the sampled
// supply-current trace as an exponentially decaying pulse.  The paper's
// measurement setup is reproduced: 125 MHz clock, 800 samples per cycle.
//
// One cycle is simulated in two half-phases so both regular synchronous
// designs and WDDL differential designs run on the same engine:
//   t=0    rising clock edge:  posedge flops capture, clock net -> 1,
//          new input values arrive; events propagate.
//   t=T/2  falling clock edge: negedge flops (WDDL masters) capture,
//          clock net -> 0; with precharge_inputs, all data inputs -> 0
//          (the WDDL precharge wave); events propagate to t=T.
//
// A cycle whose power is not booked (step_cycle) skips the event loop
// when its events provably drain inside each half: it evaluates every gate
// once per half, zero-delay, and ends in the same logic state.
//
// Compile-once / simulate-many: everything derived from (netlist, caps,
// options) lives in an immutable CompiledSimModel (sim/sim_model.h); a
// PowerSimulator borrows the model and holds only mutable trace state, so
// bulk campaigns build the model once and reuse one simulator per worker
// via reset().  The two-argument convenience constructor builds and owns
// a private model for tests and examples.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/units.h"
#include "netlist/netlist.h"
#include "sim/sim_model.h"

namespace secflow {

struct CycleTrace {
  std::vector<double> current_ma;  ///< samples_per_cycle supply samples
  double energy_pj = 0.0;          ///< total supply charge * VDD
  int transitions = 0;             ///< net value changes (both directions)

  double peak_ma() const;
};

class PowerSimulator {
 public:
  /// Borrow a shared compiled model (the bulk-simulation path).  The model
  /// must outlive the simulator.
  explicit PowerSimulator(const CompiledSimModel& model);

  /// Convenience: compile a private model from (netlist, caps, options).
  /// `caps` is only read during construction (no copy is kept).
  PowerSimulator(const Netlist& nl, const CapTable& caps,
                 const PowerSimOptions& opts = {});

  /// Return to the power-up state: all nets/flops/inputs 0, empty event
  /// queue, t = 0.  A reset simulator is bit-identical to a freshly
  /// constructed one, but keeps its buffers (no allocation churn).
  void reset();

  /// Set a data input port's value for the next cycle's evaluate phase.
  void set_input(const std::string& port, bool value);
  void set_input(PortId port, bool value);

  /// Simulate one full clock cycle; `period_ps` overrides the nominal
  /// period (used by the DFA glitch experiment).  Returns the supply
  /// current trace.
  CycleTrace run_cycle(double period_ps = 0.0);

  /// Advance one clock cycle to the logic state run_cycle would leave
  /// (nets, flops, the evaluate-phase snapshot and the time), but book no
  /// power: no charge deposit, no energy, no sample vector.  When the
  /// simulator has settle()d since construction or reset(), no event is
  /// in flight, the model has a gate order and its wave bound plus 1 ps
  /// is under half the period, every event of each half would drain
  /// inside it; the cycle then applies no event and evaluates each gate
  /// once per half in topological order (zero-delay).  Otherwise it runs
  /// run_cycle's event loop without a trace.
  void step_cycle(double period_ps = 0.0);

  /// Settled value of a net / output port after the last cycle.
  bool net_value(const std::string& net) const;
  bool net_value(NetId net) const;
  bool output(const std::string& port) const;
  bool output(PortId port) const;
  /// Output port value snapshotted at the end of the evaluate phase (T/2)
  /// of the last cycle — the observable of a WDDL design, whose rails are
  /// precharged to 0 by the end of the full cycle.
  bool output_at_eval(const std::string& port) const;
  bool output_at_eval(PortId port) const;
  bool flop_state(InstId flop) const;
  void set_flop_state(InstId flop, bool value);

  /// Force-settle current input values without booking power (testbench
  /// initialization): every gate is evaluated once and the event loop runs
  /// dry, ending at its last event's time.  Afterwards every gate output
  /// equals its function whenever no event is in flight, which is what
  /// lets step_cycle skip the events of later cycles.  On a model without
  /// a gate order the drain stops after a budget derived from the model
  /// size and throws an Error naming the netlist and a net still switching
  /// (an oscillating loop never drains); reset() before reusing the
  /// simulator.
  void settle();

  const Netlist& netlist() const { return model_.netlist(); }
  const CompiledSimModel& model() const { return model_; }

  /// Work counters since construction (reset() keeps them): events the
  /// event loop applied, and supply-current sample bins charge was
  /// deposited into.
  std::uint64_t events_applied() const { return events_applied_; }
  std::uint64_t charge_bins() const { return charge_bins_; }

 private:
  struct Event {
    double time_ps;
    NetId net;
    bool value;
    long seq;  // FIFO tie-break for determinism
    bool operator>(const Event& o) const {
      return time_ps != o.time_ps ? time_ps > o.time_ps : seq > o.seq;
    }
  };

  void cycle(double period_ps, CycleTrace* trace);
  bool zero_delay_exact(double period) const;
  void zero_delay_half(bool rising);
  bool gate_value(const CompiledSimModel::Gate& g) const;
  void schedule(double t, NetId net, bool value);
  void apply_event(const Event& ev, CycleTrace* trace, double t_offset);
  void deposit_charge(CycleTrace& trace, double t_ps, std::size_t net_idx);
  void capture_flops(bool rising, bool zero_delay);
  void drain_until(double t_end, CycleTrace* trace, double t_offset = 0.0);
  void push_event(Event ev);
  Event pop_event();

  std::unique_ptr<const CompiledSimModel> owned_;  // convenience ctor only
  const CompiledSimModel& model_;
  std::vector<char> net_val_;
  std::vector<char> mid_val_;     // snapshot at T/2 of the last cycle
  std::vector<char> net_next_;    // last scheduled value per net
  std::vector<int> pending_;      // in-flight events per net
  std::vector<char> flop_state_;
  std::vector<char> input_val_;   // per port
  std::vector<Event> heap_;       // binary min-heap on (time, seq)
  std::vector<char> capture_scratch_;  // per-flop captured values
  long seq_ = 0;
  double now_ps_ = 0.0;
  bool settled_ = false;  // settle() ran since construction or reset()
  std::uint64_t events_applied_ = 0;
  std::uint64_t charge_bins_ = 0;
};

/// Energy statistics over a set of per-cycle energies: the paper's
/// normalized energy deviation (max-min)/mean and normalized standard
/// deviation sigma/mean.
struct EnergyStats {
  double mean_pj = 0.0;
  double min_pj = 0.0;
  double max_pj = 0.0;
  double ned = 0.0;  ///< (max - min) / mean
  double nsd = 0.0;  ///< stddev / mean
};

EnergyStats compute_energy_stats(const std::vector<double>& energies_pj);

}  // namespace secflow
