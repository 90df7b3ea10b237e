// Static timing analysis over the linear delay model used by the router
// and power simulator: gate delay = intrinsic + drive_resistance * C_load.
//
// Computes arrival times from sequential/primary sources, the critical
// path, and the minimum clock period.  In the secure flow the combinational
// depth must fit the *evaluate half-cycle* (the WDDL masters capture at the
// falling edge), so the WDDL fmax check uses period/2; this analysis also
// predicts the clock-glitch detection boundary of the DFA experiment.
#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "sim/power_sim.h"

namespace secflow {

struct PathNode {
  std::string instance;  ///< driving instance ("<port>" for port sources)
  std::string net;
  double arrival_ps = 0.0;
};

struct TimingReport {
  double critical_delay_ps = 0.0;       ///< worst arrival at any endpoint
  std::vector<PathNode> critical_path;  ///< source -> endpoint
  std::string endpoint;                 ///< flop D or output port name
  /// Minimum clock period for a regular design [ps].
  double min_period_ps = 0.0;
  /// Arrival time per net [ps], indexed by net id.
  std::vector<double> net_arrival_ps;
};

/// Analyze `nl` with per-net loads from `caps` (falls back to pin caps for
/// missing nets, like the power simulator).  Input ports arrive at the
/// power simulator's kInputDelayPs and each flop's Q at its cell's
/// intrinsic delay.
TimingReport analyze_timing(const Netlist& nl, const CapTable& caps);

/// Render a human-readable critical-path report.
std::string timing_report_text(const TimingReport& r);

}  // namespace secflow
