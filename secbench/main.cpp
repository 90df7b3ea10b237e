// secflow's benchmark driver: one workload, one seed, one measured run.
//
//   secbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--commit <id>] [--out <dir>]
//
// Set-up runs at least kSetupReps times and for at least kSetupSeconds
// (setup_s is the median).  Then ops run as a
// closed loop for --seconds.  With --trace 0 the run prints every
// end-to-end metric; with --trace 1 the first half of the time measures
// untraced ops and the second half traced replays, and the run prints the
// per-layer metrics, writes the Chrome trace and per-layer table of the
// traced ops under --out, and reports the tracing overhead.  The last
// line of standard output is the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "base/parallel.h"
#include "stats.h"
#include "workloads.h"

using namespace secbench;

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_ms_p50", "ms"},
    {"op_ms_tail", "ms"},
    {"ops_per_s", "1/s"},
    {"cpu_s_per_op", "s"},
    {"peak_rss_mb", "MiB"},
    {"wirelength_mm", "mm"},
    {"rail_mismatch_max_ff", "fF"},
};

constexpr Metric kPerLayer[] = {
    {"synth.ms", "ms"},
    {"synth.cells", "count"},
    {"lef.ms", "ms"},
    {"wddl.substitute_ms", "ms"},
    {"wddl.expand_ms", "ms"},
    {"wddl.compounds", "count"},
    {"lec.ms", "ms"},
    {"pnr.place.ms", "ms"},
    {"pnr.place.cpu_ms", "ms"},
    {"pnr.place.sa_batches", "count"},
    {"pnr.place.accept_ratio", "ratio"},
    {"pnr.place.stale_ratio", "ratio"},
    {"pnr.place.hpwl_mm", "mm"},
    {"pnr.route.ms", "ms"},
    {"pnr.route.expanded_nodes", "count"},
    {"pnr.route.iterations", "count"},
    {"pnr.route.rip_ratio", "ratio"},
    {"pnr.route.window_escalations", "count"},
    {"pnr.route.full_grid_searches", "count"},
    {"pnr.route.quick_ms", "ms"},
    {"pnr.decompose.ms", "ms"},
    {"pnr.check.ms", "ms"},
    {"extract.ms", "ms"},
    {"extract.cpu_ms", "ms"},
    {"extract.couplings", "count"},
    {"extract.rail_mismatch_p99_ff", "fF"},
    {"sta.ms", "ms"},
    {"sim.model_build_ms", "ms"},
    {"sim.ms", "ms"},
    {"sim.cpu_ms", "ms"},
    {"sim.traces", "count"},
    {"sim.traces_per_cpu_s", "1/s"},
    {"sca.dpa.ms", "ms"},
    {"sca.dpa.guesses", "count"},
    {"leakage.stats_ms", "ms"},
    {"leakage.traces_simulated", "count"},
    {"leakage.mtd_traces_used", "count"},
    {"ckpt.hits", "count"},
    {"ckpt.misses", "count"},
    {"ckpt.saves", "count"},
    {"ckpt.read_ms", "ms"},
    {"ckpt.write_bytes", "B"},
    {"campaign.ms", "ms"},
    {"campaign.jobs_waited", "count"},
    {"flow.self_ms", "ms"},
    {"obs.report_ms", "ms"},
    {"trace.op_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"traces_per_s", "1/s"},
};

constexpr std::size_t kSetupReps = 5;
constexpr double kSetupSeconds = 2.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string out = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "secbench: %s\nusage: secbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--commit <id>] [--out <dir>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string v = argv[++i];
    try {
      if (key == "--workload") a.workload = v;
      else if (key == "--seed") a.seed = std::stoull(v);
      else if (key == "--seconds") a.seconds = std::stod(v);
      else if (key == "--trace") a.trace = std::stoi(v) != 0;
      else if (key == "--commit") a.commit = v;
      else if (key == "--out") a.out = v;
      else usage("unknown argument " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// Run ops as a closed loop until `seconds` have passed (at least one op).
/// Returns the loop's wall time [s].
double run_loop(Workload& w, double seconds, LayerTrace* trace, OpLog& log,
                std::vector<OpOutcome>& outcomes) {
  const double t0 = now_s();
  do {
    OpOutcome out;
    const int index = log.attempted();
    if (!log.run([&] { w.op(index, trace, out); })) {
      std::fprintf(stderr, "op %d failed: %s\n", index,
                   log.last_error().c_str());
    }
    outcomes.push_back(out);
  } while (now_s() - t0 < seconds);
  return now_s() - t0;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::string work_dir =
      args.out + "/" + args.workload + "-" + std::to_string(getpid());
  std::filesystem::create_directories(work_dir);

  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  try {
    w = make_workload(args.workload, args.seed, work_dir);
    const double t0 = now_s();
    while (setup_s.size() < kSetupReps || now_s() - t0 < kSetupSeconds) {
      const double t1 = now_s();
      w->setup();
      setup_s.push_back(now_s() - t1);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "secbench: set-up failed: %s\n", e.what());
    std::filesystem::remove_all(work_dir);
    return 1;
  }

  OpLog log;
  std::vector<OpOutcome> outcomes;
  const double cpu0 = process_cpu_s();
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const double wall_s = run_loop(*w, untraced_s, nullptr, log, outcomes);
  const double cpu_s = process_cpu_s() - cpu0;
  const int untraced_ops = log.attempted();
  const int untraced_ok = untraced_ops - log.failed();

  std::vector<double> wirelength, mismatch;
  double traces = 0;
  for (const OpOutcome& o : outcomes) {
    wirelength.push_back(o.wirelength_mm);
    mismatch.push_back(o.rail_mismatch_max_ff);
    traces += double(o.traces);
  }
  const Tail tail = tail_percentile(log.latencies_ms());
  const double p50 = median(log.latencies_ms());

  std::vector<std::pair<Metric, double>> metrics;
  if (!args.trace) {
    const double values[] = {
        median(setup_s),
        p50,
        tail.value,
        double(untraced_ok) / wall_s,
        cpu_s / double(untraced_ops),
        peak_rss_mib(),
        mean(wirelength),
        mean(mismatch),
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.emplace_back(kEndToEnd[i], values[i]);
    }
  } else {
    LayerTrace lt;
    run_loop(*w, args.seconds - untraced_s, &lt, log, outcomes);
    std::map<std::string, double> layer = lt.medians();
    layer["trace.op_ms"] = median(lt.op_ms());
    layer["trace.overhead_ms"] = layer["trace.op_ms"] - p50;
    layer["traces_per_s"] = traces / wall_s;
    for (const Metric& m : kPerLayer) metrics.emplace_back(m, layer[m.name]);

    const std::string stem = args.out + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    std::ofstream(stem + ".trace.json") << lt.last_chrome_trace();
    std::ofstream(stem + ".layers.tsv") << lt.table();
    std::printf("per-layer table (median traced op):\n%s", lt.table().c_str());
    std::printf("tracing overhead: %.3f ms (traced op %.3f ms - untraced "
                "op_ms_p50 %.3f ms)\n",
                layer["trace.overhead_ms"], layer["trace.op_ms"], p50);
  }
  std::filesystem::remove_all(work_dir);

  // Comparability header, the human-readable metric lines, then the
  // JSON result line.
  std::printf("workload %s seed %llu trace %d seconds %g\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
              args.seconds);
  std::printf("nproc %ld threads %d build %s commit %s\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              secflow::Parallelism{}.resolved_threads(), SECBENCH_BUILD_TYPE,
              args.commit.c_str());
  if (!args.trace) {
    const Quartiles q = quartiles(log.latencies_ms());
    std::printf("op_ms quartiles %.6g %.6g %.6g\n", q.q1, q.q2, q.q3);
    std::printf("op_ms_tail is p%.2f over %d samples (%d beyond)\n",
                tail.percentile, tail.samples, tail.beyond);
    std::printf("traces_per_s %.6g 1/s\n", traces / wall_s);
  }
  std::printf("fail_ratio %.6g (%d of %d ops)\n", log.fail_ratio(),
              log.failed(), log.attempted());
  std::string json = "{\"correct\": ";
  json += log.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(log.attempted());
  json += ", \"failed\": " + std::to_string(log.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [m, v] = metrics[i];
    std::printf("%s %.6g %s\n", m.name, v, m.unit);
    if (i > 0) json += ", ";
    json += std::string("\"") + m.name + "\": {\"value\": " + json_number(v) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
