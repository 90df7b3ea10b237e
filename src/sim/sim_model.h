// Compile-once / simulate-many power-simulation model.
//
// Bulk workloads (DPA campaigns, fuzz oracles, energy tables) simulate
// thousands of independent traces of the *same* netlist.  Everything that
// depends only on (netlist, extracted caps, options) is resolved once into
// an immutable CompiledSimModel:
//
//   * per-net switched-capacitance constants — resolved cap, supply charge
//     per rising edge, booked energy, current-pulse time constant, and the
//     per-sample-bin exponential decay factor (one std::exp per net at
//     build time instead of two per sample bin per event at run time);
//   * a CSR fanout adjacency from each net to its combinational sink
//     gates, each gate carrying its resolved output net, flattened input
//     net indices, truth table, and load-dependent delay;
//   * flop lists split by capture edge with resolved D/Q nets;
//   * the resolved clock port/net and the list of data-input ports;
//   * sampling constants (sample period, samples per cycle);
//   * a topological order of the compiled gates and the static wave
//     bound (the latest an event can fire after a clock edge), which
//     PowerSimulator::step_cycle's zero-delay path needs.
//
// PowerSimulator then holds only cheap mutable trace state and borrows a
// `const CompiledSimModel&`; the model is safe to share across any number
// of simulators on any number of threads (it is never written after
// construction).  The model borrows the Netlist, which must outlive it.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "base/units.h"
#include "netlist/logic_fn.h"
#include "netlist/netlist.h"

namespace secflow {

using CapTable = std::unordered_map<std::string, double>;  // net -> fF

/// The power model's fixed operating point (the paper's 0.18 um process).
/// Supply voltage [V].
inline constexpr double kVddV = 1.8;
/// Data input arrival time after the active edge [ps]; STA uses it too.
inline constexpr double kInputDelayPs = 100.0;
/// Minimum current-pulse time constant [ps].
inline constexpr double kMinTauPs = 30.0;
/// Delay from the ideal clock edge to the clock *net* transition seen by
/// gates (clock-tree insertion delay).  Must exceed the flop clk->q delay
/// so WDDL output AND gates open on the new slave value.
inline constexpr double kClockNetDelayPs = 250.0;

struct PowerSimOptions {
  SamplingSpec sampling;
  /// Drive all data input ports to 0 at the falling edge (WDDL mode).
  bool precharge_inputs = false;
};

class CompiledSimModel {
 public:
  /// Build the model once for (netlist, caps, options).  `caps` is taken
  /// by reference and only read during construction — no copy is kept;
  /// `nl` is borrowed and must outlive the model.
  CompiledSimModel(const Netlist& nl, const CapTable& caps,
                   const PowerSimOptions& opts = {});

  const Netlist& netlist() const { return *nl_; }
  const PowerSimOptions& options() const { return opts_; }

  // --- resolved clock and ports --------------------------------------------
  PortId clock_port() const { return clock_port_; }
  NetId clock_net() const { return clock_net_; }
  /// True for input ports the testbench may drive (input dir, not the
  /// clock).  Index-based: no name lookup.
  bool is_data_input(PortId pid) const {
    return data_input_flag_[pid.index()] != 0;
  }
  struct DataInput {
    PortId port;
    NetId net;
  };
  const std::vector<DataInput>& data_inputs() const { return data_inputs_; }

  // --- per-net power constants ---------------------------------------------
  double net_cap_ff(NetId id) const { return net_cap_ff_[id.index()]; }
  /// Supply charge drawn by a rising transition [fC]: (C_net + C_internal
  /// of the driver) * VDD.
  double charge_fc(std::size_t net_idx) const { return charge_fc_[net_idx]; }
  /// Energy booked per rising transition [pJ]: (C_net + C_internal) *
  /// VDD^2, the whole charge-plus-discharge dissipation, booked at charge
  /// time as a supply-current measurement sees it.
  double rise_energy_pj(std::size_t net_idx) const {
    return rise_energy_pj_[net_idx];
  }
  /// Current-pulse time constant [ps]: max(min_tau, R_drive * C_net).
  double tau_ps(std::size_t net_idx) const { return tau_ps_[net_idx]; }
  /// exp(-sample_dt / tau): the per-sample-bin decay of the pulse.
  double bin_decay(std::size_t net_idx) const { return bin_decay_[net_idx]; }

  // --- sampling constants ---------------------------------------------------
  double sample_dt_ps() const { return sample_dt_ps_; }
  int samples_per_cycle() const { return samples_per_cycle_; }
  double nominal_period_ps() const { return nominal_period_ps_; }

  // --- compiled combinational gates + CSR fanout adjacency -----------------
  struct Gate {
    std::int32_t out_net = -1;      ///< output net index
    std::int32_t first_input = 0;   ///< offset into gate_input_nets()
    std::int32_t n_inputs = 0;
    double delay_ps = 0.0;          ///< intrinsic + R_drive * C(out)
    LogicFn fn;
  };
  const std::vector<Gate>& gates() const { return gates_; }
  const std::int32_t* gate_input_nets(const Gate& g) const {
    return gate_input_nets_.data() + g.first_input;
  }
  /// Compiled-gate ids of the combinational sinks of a net (CSR row).
  struct SinkRange {
    const std::int32_t* begin_;
    const std::int32_t* end_;
    const std::int32_t* begin() const { return begin_; }
    const std::int32_t* end() const { return end_; }
  };
  SinkRange sinks_of(std::size_t net_idx) const {
    return {net_sinks_.data() + net_sink_offset_[net_idx],
            net_sinks_.data() + net_sink_offset_[net_idx + 1]};
  }

  /// Compiled-gate ids, each after every gate driving one of its inputs.
  /// Empty, and has_gate_order() false, when the gates form a
  /// combinational cycle.
  bool has_gate_order() const { return has_gate_order_; }
  const std::vector<std::int32_t>& gate_order() const { return gate_order_; }
  /// Static wave bound [ps]: the latest an event can fire after a clock
  /// edge, the longest source-plus-delay_ps path over the gates.  Sources
  /// are flop Q at clk_to_q_ps, data inputs at kInputDelayPs and the
  /// clock net at kClockNetDelayPs.  Infinite without a gate order.
  double wave_bound_ps() const { return wave_bound_ps_; }

  // --- flops, split by capture edge ----------------------------------------
  struct Flop {
    InstId inst;            ///< index for flop-state storage
    NetId d;                ///< D input net (always valid; checked at build)
    NetId q;                ///< Q output net (invalid = unconnected)
    double clk_to_q_ps = 0.0;
    LogicFn fn;             ///< D -> captured-state function
  };
  const std::vector<Flop>& flops(bool rising_edge) const {
    return rising_edge ? posedge_flops_ : negedge_flops_;
  }

  std::size_t n_nets() const { return net_cap_ff_.size(); }
  std::size_t n_instances() const { return nl_->n_instances(); }
  std::size_t n_ports() const { return nl_->n_ports(); }

 private:
  const Netlist* nl_;
  PowerSimOptions opts_;

  PortId clock_port_;
  NetId clock_net_;
  std::vector<char> data_input_flag_;
  std::vector<DataInput> data_inputs_;

  std::vector<double> net_cap_ff_;
  std::vector<double> charge_fc_;
  std::vector<double> rise_energy_pj_;
  std::vector<double> tau_ps_;
  std::vector<double> bin_decay_;

  double sample_dt_ps_ = 0.0;
  int samples_per_cycle_ = 0;
  double nominal_period_ps_ = 0.0;

  std::vector<Gate> gates_;
  std::vector<std::int32_t> gate_input_nets_;
  std::vector<std::int32_t> net_sink_offset_;  ///< n_nets + 1 entries
  std::vector<std::int32_t> net_sinks_;
  std::vector<std::int32_t> gate_order_;
  bool has_gate_order_ = false;
  double wave_bound_ps_ = 0.0;

  std::vector<Flop> posedge_flops_;
  std::vector<Flop> negedge_flops_;
};

}  // namespace secflow
