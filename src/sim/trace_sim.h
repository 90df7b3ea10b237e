// Bulk trace synthesis: simulate N independent stimuli of one netlist,
// one task per trace, in parallel.
//
// The immutable CompiledSimModel is shared read-only by every worker; each
// worker owns ONE PowerSimulator for its whole claimed chunk and reset()s
// it between traces (fresh flop/net state without rebuilding or
// reallocating).  Each task gets a private RNG stream split from the
// master seed (Rng::stream(seed, i)), so trace i is bit-identical no
// matter the thread count — the determinism contract the DPA campaigns
// and the regression tests rely on.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"
#include "sim/power_sim.h"

namespace secflow {

/// Output of one simulated stimulus: the recorded supply-current cycle
/// plus the packed observable the attacker reads (circuit-specific).
struct SimTrace {
  CycleTrace cycle;
  std::uint32_t observable = 0;
};

/// One task: drive `sim` (fresh state, keyed RNG stream) and return the
/// recorded trace.  `index` is the trace's stream index.  Must not touch
/// anything but its arguments.
using TraceTask = std::function<SimTrace(PowerSimulator& sim, Rng& rng,
                                         std::uint64_t index)>;

/// Simulate the `n_traces` tasks at stream indices [first, first +
/// n_traces) against a prebuilt model; the task at stream index i draws
/// from Rng::stream(master_seed, i), so a trace is the same whichever
/// block it is simulated in.  Results are in stream order, identical for
/// every thread count (including 1 == serial).
std::vector<SimTrace> simulate_traces(const CompiledSimModel& model,
                                      std::uint64_t first, int n_traces,
                                      std::uint64_t master_seed,
                                      const TraceTask& task,
                                      const Parallelism& par = {});

/// Convenience: compile the model once from (netlist, caps, options), then
/// simulate stream indices [0, n_traces).  Prefer the model overload when
/// running several campaigns on the same design.
std::vector<SimTrace> simulate_traces(const Netlist& nl, const CapTable& caps,
                                      const PowerSimOptions& opts,
                                      int n_traces, std::uint64_t master_seed,
                                      const TraceTask& task,
                                      const Parallelism& par = {});

}  // namespace secflow
