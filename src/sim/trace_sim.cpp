#include "sim/trace_sim.h"

#include "base/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace secflow {

std::vector<SimTrace> simulate_traces(const CompiledSimModel& model,
                                      std::uint64_t first, int n_traces,
                                      std::uint64_t master_seed,
                                      const TraceTask& task,
                                      const Parallelism& par) {
  SECFLOW_CHECK(n_traces >= 0, "negative trace count");
  SECFLOW_CHECK(task != nullptr, "simulate_traces needs a task");
  std::vector<SimTrace> out(static_cast<std::size_t>(n_traces));
  parallel_for(
      static_cast<std::size_t>(n_traces), par,
      [&](std::size_t begin, std::size_t end) {
        // One span per claimed chunk: each worker's claimed ranges show as
        // blocks on its own track in the trace viewer.
        Span span("sim.trace_chunk", "sim");
        span.arg("begin", static_cast<std::uint64_t>(begin));
        span.arg("end", static_cast<std::uint64_t>(end));
        // One simulator per chunk; reset() restores the power-up state
        // between traces, so trace i is independent of chunk boundaries.
        PowerSimulator sim(model);
        for (std::size_t i = begin; i < end; ++i) {
          if (i != begin) sim.reset();
          Rng rng = Rng::stream(master_seed, first + i);
          out[i] = task(sim, rng, first + i);
        }
        Metrics::global().add("sim.traces",
                              static_cast<std::uint64_t>(end - begin));
        Metrics::global().add("sim.events", sim.events_applied());
        Metrics::global().add("sim.charge_bins", sim.charge_bins());
      });
  return out;
}

std::vector<SimTrace> simulate_traces(const Netlist& nl, const CapTable& caps,
                                      const PowerSimOptions& opts,
                                      int n_traces, std::uint64_t master_seed,
                                      const TraceTask& task,
                                      const Parallelism& par) {
  const CompiledSimModel model(nl, caps, opts);
  return simulate_traces(model, 0, n_traces, master_seed, task, par);
}

}  // namespace secflow
