// Fig 1: the secure digital design flow, stage by stage, with per-stage
// artifact statistics and CPU time on the paper's design example — plus the
// checkpoint store in action: a cold cached run, a warm rerun (every stage
// a cache hit), a routing-option change (only routing onward re-runs), and
// the write and parse time of each checkpoint payload the secure run stored.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>

#include "bench_util.h"
#include "ckpt/hash.h"
#include "ckpt/serialize.h"
#include "netlist/netlist_ops.h"
#include "netlist/verilog_writer.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"

using namespace secflow;

namespace {

double wall_ms(const std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  const auto lib = builtin_stdcell018();
  const AigCircuit circuit = make_des_dpa_circuit();

  // True cold start: wipe any checkpoint state from a previous bench run.
  const std::string cache_dir = "bench_flow_stages_out/ckpt";
  std::filesystem::remove_all("bench_flow_stages_out");
  FlowOptions opts;
  opts.cache_dir = cache_dir;

  auto t0 = std::chrono::steady_clock::now();
  const RegularFlowResult regular = run_regular_flow(circuit, lib, opts);
  const SecureFlowResult secure = run_secure_flow(circuit, lib, opts);
  const double cold_ms = wall_ms(t0);

  bench::header("Fig 1", "secure digital design flow stages (DES module)");
  bench::row("%-28s %-34s %10s", "stage", "artifact", "time [ms]");
  bench::row("%-28s %-34s %10s", "logic design", "behavior (AIG circuit)",
             "-");
  bench::row("%-28s rtl.v: %4zu cells, %4zu nets %14.1f", "logic synthesis",
             secure.rtl.n_instances(), secure.rtl.n_nets(),
             secure.timings.stage_ms(FlowStage::kSynthesis));
  bench::row("%-28s fat.v: %4zu compounds (+diff) %12.1f",
             "cell substitution*", secure.fat.n_instances(),
             secure.timings.stage_ms(FlowStage::kSubstitution));
  bench::row("%-28s %-34s %10s", "", "  (LEC fat.v == rtl.v: pass)", "");
  bench::row("%-28s fat.def: %4zu nets routed %15.1f", "place & route",
             secure.fat_def.nets.size(),
             secure.timings.stage_ms(FlowStage::kPlacement) +
                 secure.timings.stage_ms(FlowStage::kRouting));
  bench::row("%-28s diff.def: %4zu rail nets %15.1f",
             "interconnect decomposition*", secure.def.nets.size(),
             secure.timings.stage_ms(FlowStage::kDecomposition));
  bench::row("%-28s layout + parasitics %20.1f", "stream out / extraction",
             secure.timings.stage_ms(FlowStage::kExtraction));
  bench::blank();
  bench::row("* = the two steps the secure flow adds to a regular flow.");
  const double extra = secure.timings.stage_ms(FlowStage::kSubstitution) +
                       secure.timings.stage_ms(FlowStage::kDecomposition);
  const double total = secure.timings.total_ms();
  bench::row("added steps: %.1f ms of %.1f ms total (%.1f%%) — the paper",
             extra, total, 100.0 * extra / total);
  bench::row("reports ~6 CPU minutes for both steps on a 39K-gate IC");
  bench::row("(550 MHz SunFire), 'a negligible overhead in design time'.");

  bench::row("\nregular flow for comparison:\n%s",
             flow_report(regular).c_str());
  bench::row("secure flow:\n%s", flow_report(secure).c_str());

  // Emit the first lines of the actual artifacts for inspection.
  const std::string fat_v = write_verilog(secure.fat);
  bench::row("fat.v (first 400 chars):\n%.400s...", fat_v.c_str());

  // --- checkpoint store: warm rerun and selective invalidation -------------
  bench::header("ckpt", "stage-artifact cache (content-addressed)");

  std::optional<SecureFlowResult> warm;
  const double warm_ms = bench::median_ms(
      5, [&] { warm.emplace(run_secure_flow(circuit, lib, opts)); });

  FlowOptions rerouted = opts;
  rerouted.route.via_cost += 2;
  t0 = std::chrono::steady_clock::now();
  const SecureFlowResult changed = run_secure_flow(circuit, lib, rerouted);
  const double changed_ms = wall_ms(t0);

  bench::row("%-16s %-7s %-7s %-12s %-18s", "stage", "cold", "warm",
             "route change", "cache key (warm)");
  for (int i = 0; i < kNumFlowStages; ++i) {
    const FlowStage s = static_cast<FlowStage>(i);
    bench::row("%-16s %-7s %-7s %-12s %-18s", flow_stage_name(s),
               cache_outcome_name(secure.timings.outcome(s)),
               cache_outcome_name(warm->timings.outcome(s)),
               cache_outcome_name(changed.timings.outcome(s)),
               hash_hex(warm->timings.key(s)).c_str());
  }
  bench::blank();
  bench::row("cold (both flows) %9.1f ms", cold_ms);
  bench::row("warm rerun        %9.1f ms  (median of 5; %.0fx faster, %d/%d "
             "stages hit)",
             warm_ms, cold_ms / warm_ms, warm->timings.cache_hits(),
             kNumFlowStages);
  bench::row("via_cost change   %9.1f ms  (%d stages hit, %d re-run)",
             changed_ms, changed.timings.cache_hits(),
             changed.timings.cache_misses());

  // What a warm rerun pays per payload: each section the secure run stored,
  // written and parsed by its own serializer (median of 21 calls each).
  bench::blank();
  bench::row("%-26s %9s %11s %11s", "payload", "bytes", "write [ms]",
             "parse [ms]");
  const auto payload_row = [](const char* name, const auto& value,
                              auto write, auto parse) {
    const std::string text = write(value);
    const double write_ms =
        bench::median_ms(21, [&] { (void)write(value); });
    const double parse_ms =
        bench::median_ms(21, [&] { (void)parse(text); });
    bench::row("%-26s %9zu %11.4f %11.4f", name, text.size(), write_ms,
               parse_ms);
  };
  payload_row("substitution/fat_lib", secure.fat.library(),
              write_cell_library, parse_cell_library);
  payload_row("substitution/stats", secure.sub_stats,
              write_substitution_stats, parse_substitution_stats);
  payload_row("substitution/lec", secure.lec, write_lec_result,
              parse_lec_result);
  payload_row("routing/route_stats", secure.route_stats, write_route_stats,
              parse_route_stats);
  payload_row("decomposition/stream_check", secure.stream_out_check,
              write_check_result, parse_check_result);
  payload_row("extraction/extraction", secure.extraction, write_extraction,
              parse_extraction);
  payload_row("extraction/caps", secure.caps, write_cap_table,
              parse_cap_table);
  payload_row("extraction/timing", secure.timing, write_timing_report,
              parse_timing_report);

  // --- observability: disabled-probe overhead + machine-readable report ----
  bench::header("obs", "observability cost and the JSON flow report");

  // Per-call price of a suppressed probe — what the flow's hot loops pay
  // when tracing/metrics are off (one relaxed atomic load each).
  constexpr int kProbes = 1'000'000;
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kProbes; ++i) {
    Span probe("probe", "bench");
    (void)probe;
  }
  const double span_ns = wall_ms(t0) * 1e6 / kProbes;
  t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kProbes; ++i) Metrics::global().add("probe");
  const double counter_ns = wall_ms(t0) * 1e6 / kProbes;

  // An instrumented (uncached, metrics+tracing on) secure flow, to count
  // how many probes one run actually fires and to produce the report.
  FlowOptions uncached;
  Tracer::global().set_enabled(true);
  Tracer::global().clear();
  Metrics::global().set_enabled(true);
  Metrics::global().reset();
  t0 = std::chrono::steady_clock::now();
  const SecureFlowResult traced = run_secure_flow(circuit, lib, uncached);
  const double traced_ms = wall_ms(t0);
  const MetricsSnapshot snap = Metrics::global().snapshot();
  const std::size_t n_spans = Tracer::global().n_events();
  Tracer::global().set_enabled(false);
  Metrics::global().set_enabled(false);

  const auto ctr = [&](const char* name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  // add() call sites fired by one run: 3 per SA batch, 2 per route
  // iteration, 1 per routed design and per checkpoint-store access.
  const std::uint64_t n_counts =
      ctr("pnr.place.sa_batches") * 3 + ctr("pnr.route.iterations") * 2 +
      ctr("ckpt.store.hits") + ctr("ckpt.store.misses") +
      ctr("ckpt.store.saves") + 1;
  // Projected cost of the same probes when DISABLED, as a fraction of the
  // uninstrumented flow: (#spans + #counter bumps) * per-probe ns.
  const double disabled_cost_ms =
      (static_cast<double>(n_spans) * span_ns +
       static_cast<double>(n_counts) * counter_ns) /
      1e6;
  bench::row("suppressed probe   %8.2f ns/span  %8.2f ns/counter", span_ns,
             counter_ns);
  bench::row("one secure flow    %8zu spans   %8llu counter bumps", n_spans,
             static_cast<unsigned long long>(n_counts));
  bench::row("disabled overhead  %8.3f ms of %.1f ms flow (%.3f%%)",
             disabled_cost_ms, traced_ms,
             100.0 * disabled_cost_ms / traced_ms);
  bench::row("(measured projection, not asserted; target < 2%%)");

  // The unified machine-readable report for the traced run.
  FlowReport report = build_flow_report(traced);
  attach_metrics(report, snap);
  const std::string report_path = "bench_flow_stages_out/flow_report.json";
  std::ofstream rf(report_path);
  rf << flow_report_json(report);
  bench::row("\nflow report: %s (%zu stages, %zu metric counters)",
             report_path.c_str(), report.stages.size(),
             report.metrics.counters.size());
  return 0;
}
