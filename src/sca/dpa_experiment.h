// The paper's DPA experiment (section 3): drive the reduced-DES circuit
// with random plaintexts and a fixed secret key, record one supply-current
// trace per encryption, and mount the DPA of Fig 6.
//
// Works on any implementation of the Fig 4 interface — the regular
// single-ended netlist or the WDDL differential netlist — given the
// netlist and its extracted switched-capacitance table.
//
// Each measurement is an independent simulation task (previous plaintext,
// target plaintext, and measurement noise all drawn from the per-trace
// RNG stream Rng::stream(seed, i)), so the campaign parallelizes across
// traces with bit-identical results at any thread count.  The same trace
// task (des_trace) feeds the leakage assessment's CPA, GE, MTD and TVLA
// phases (leakage/assess.h).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "netlist/netlist.h"
#include "obs/report.h"
#include "sca/dpa.h"
#include "sim/power_sim.h"
#include "sim/trace_sim.h"

namespace secflow {

/// Pre-resolved port ids for one bit of the Fig 4 interface.  For a
/// differential netlist each bit has a true and a false rail;
/// single-ended designs leave `f` invalid.
struct DesBitPorts {
  PortId t;
  PortId f;
};

/// The Fig 4 interface (pl/pr/k inputs, cl/cr outputs, rails suffixed
/// _t/_f on differential netlists), resolved to PortIds once per campaign
/// so per-trace tasks never hash a port name.  Shared by the DPA campaign
/// and the leakage-assessment campaigns (leakage/assess.h).
struct DesPortMap {
  std::vector<DesBitPorts> k, pl, pr, cl, cr;
  bool differential = false;

  /// Resolve from port names; throws Error on a missing port/rail.
  static DesPortMap resolve(const Netlist& nl, bool differential);

  /// Drive a multi-bit input (both rails on differential designs).
  void drive(PowerSimulator& sim, const std::vector<DesBitPorts>& ports,
             std::uint32_t value) const;

  /// Read a multi-bit observable.  A WDDL design is observable only
  /// during the evaluate phase (rails precharge to 0 afterwards); a
  /// regular design reads the settled end-of-cycle value.
  std::uint32_t read(const PowerSimulator& sim,
                     const std::vector<DesBitPorts>& ports) const;
};

/// Throws an Error, prefixed `caller`, naming both values unless `model`
/// precharges its inputs exactly when the attack is `differential`.
void check_precharge(const CompiledSimModel& model, bool differential,
                     const char* caller);

/// One encryption of the paper's DPA experiment, replayed as a four-cycle
/// mini-campaign on a reset simulator so the recorded cycle carries
/// exactly the register activity the attacks target:
///   cycle 1  the previous plaintext reaches the PL/PR registers,
///   cycle 2  the target plaintext arrives at the register inputs,
///   cycle 3  PL/PR transition previous -> target   (the recorded trace),
///   cycle 4  the ciphertext reaches the CL/CR output registers.
/// The simulator settle()s first, then cycles 1, 2 and 4 are stepped
/// (PowerSimulator::step_cycle): their power is never booked, and each
/// runs zero-delay, applying no event, while the model's wave bound fits
/// the half-period.  Only settle() and cycle 3 run the event loop.
/// Draws the previous PL, PR and the target PL, PR from `rng` in that
/// order, then `noise_ma` Gaussian noise per sample when positive.
/// `fixed_plaintext` (packed pl | pr << 4) replaces the drawn target
/// plaintext: TVLA's fixed class.  The observable packs the ciphertext of
/// the target encryption and of the previous one, ct | prev_ct << 10, so
/// its low 10 bits are what every DES selection function reads.
SimTrace des_trace(PowerSimulator& sim, Rng& rng, const DesPortMap& ports,
                   std::uint32_t key, double noise_ma,
                   std::optional<std::uint32_t> fixed_plaintext = {});

struct DesDpaSetup {
  std::uint32_t key = 46;      ///< the paper's secret key
  int select_bit = 2;          ///< "3rd bit of PL"
  int sbox = 1;
  int n_measurements = 2000;   ///< the paper's trace count
  std::uint64_t seed = 2025;
  /// Gaussian measurement noise added per sample [mA] (the paper's traces
  /// include measurement noise; 0 disables).
  double noise_ma = 0.0;
  /// Trace-synthesis and key-guess-sweep parallelism.
  Parallelism parallelism;
};

/// A finished campaign: the DPA state after its last trace (its checkpoints
/// are Fig 6's MTD grid, judged against the setup's key) and the energy
/// of every recorded cycle (for the NED/NSD table).
struct DesDpaCampaign {
  DpaAccumulator dpa;
  std::vector<double> cycle_energies_pj;
};

/// Run the campaign on a reduced-DES netlist with ports pl_*, pr_*, k_*,
/// clk, cl_*, cr_* (rail ports *_t/_f when `differential`).  Traces are
/// simulated kDpaCheckpointTraces at a time, folded and dropped.
DesDpaCampaign run_des_dpa_campaign(const Netlist& nl, const CapTable& caps,
                                    const DesDpaSetup& setup,
                                    bool differential);

/// Run the campaign against a prebuilt simulation model (compile once,
/// attack many).  The model's options must already carry the right
/// precharge mode (precharge_inputs == differential, else Error); all DES
/// port names are resolved to PortIds once, so the per-trace task does no
/// string lookups.
DesDpaCampaign run_des_dpa_campaign(const CompiledSimModel& model,
                                    const DesDpaSetup& setup,
                                    bool differential);

/// Fill FlowReport::dpa from an analyzed campaign: measurement count,
/// ranked guess, disclosure verdict, best/runner-up peaks, and the mean
/// per-cycle energy (pass an empty vector when energies were not kept).
void attach_dpa(FlowReport& report, const DpaResult& result,
                const std::vector<double>& cycle_energies_pj);

}  // namespace secflow
