// Command-line driver for the secure digital design flow.
//
//   secflow_cli flow <design.v> [--regular] [--out DIR] [--quick-route]
//                    [--report FILE] [--trace FILE] [--log LEVEL]
//       run the secure (default) or regular flow on a mini-HDL design and
//       write every Fig 1 artifact into DIR (default: <module>_out/);
//       --report dumps the machine-readable JSON flow report, --trace a
//       Chrome trace-event file (open in chrome://tracing or Perfetto)
//   secflow_cli report <design.v>
//       synthesize only and print netlist statistics + timing
//   secflow_cli wddl-lib
//       print the generated WDDL compound-cell inventory
//   secflow_cli campaign <spec.json> [--out FILE] [--cache DIR]
//                        [--threads N] [--log LEVEL]
//       run a batch of flows through the DAG scheduler and write the
//       secflow.campaign-report/1 JSON document
//   secflow_cli fuzz [--seed N] [--count M] [--deep-every K]
//                    [--corpus DIR] [--inject KIND] [--keep-going]
//                    [--no-minimize] [--replay FILE]
//       drive random sequential designs through the oracle catalogue;
//       failures are minimized into replayable fuzz-corpus reproducers
//   secflow_cli leakage [design.v] [--des] [--flow regular|secure]
//                       [--traces N] [--tvla-traces N] [--model hw|hd]
//                       [--mtd-max N] [--mtd-step N] [--ge K] [--seed N]
//                       [--noise X] [--out FILE] [--cache DIR]
//                       [--threads N] [--log LEVEL]
//       run the flow, then the statistical leakage assessment on the
//       extracted design: the built-in DES example (--des) gets the full
//       battery (TVLA + CPA + guessing entropy + MTD), arbitrary designs
//       the model-free TVLA; writes a secflow.leakage-report/1 document
//
// Every subcommand accepts --help.  Options take either `--key value`
// or `--key=value`; a numeric option must be a whole number in its range.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "base/arg_parser.h"
#include "secflow.h"

using namespace secflow;

namespace {

// Upper bounds of the numeric options: the thread pool never runs more
// than 1024 workers, and every trace of a budget is held in memory.
constexpr int kMaxThreads = 1024;
constexpr int kMaxTraces = 1'000'000;

int usage() {
  std::fprintf(stderr,
               "usage: secflow_cli <command> [options]\n"
               "\n"
               "commands:\n"
               "  flow <design.v>       run the secure (or --regular) flow\n"
               "  report <design.v>     synthesize only, print statistics\n"
               "  wddl-lib              print the WDDL compound-cell "
               "inventory\n"
               "  campaign <spec.json>  run a batch campaign, write the "
               "JSON report\n"
               "  fuzz                  fuzz both flows with the oracle "
               "catalogue\n"
               "  leakage [design.v]    statistical leakage assessment "
               "(TVLA/CPA/MTD)\n"
               "\n"
               "run 'secflow_cli <command> --help' for per-command "
               "options\n");
  return 2;
}

/// Applies --log, when given, to the process-wide logger.
void apply_log_option(const ArgParser& args) {
  if (!args.has("log")) return;
  const std::string text = args.get("log");
  const auto lvl = parse_log_level(text);
  SECFLOW_CHECK(lvl.has_value(), "unknown log level: " + text);
  Logger::global().set_level(*lvl);
}

int cmd_flow(int argc, char** argv) {
  ArgParser args("secflow_cli flow",
                 "Run the secure (default) or regular flow on a mini-HDL "
                 "design and\nwrite every Fig 1 artifact.");
  args.positional("design.v", "mini-HDL input file");
  args.flag("regular", "run the regular flow instead of the secure one");
  args.flag("quick-route", "L-shaped quick routing instead of maze routing");
  args.option("out", "DIR", "artifact directory (default: <module>_out/)");
  args.option("report", "FILE", "write the JSON flow report here");
  args.option("trace", "FILE", "write a Chrome trace-event file here");
  args.option("log", "LEVEL", "log level: debug|info|warn|error|off");
  if (!args.parse(argc, argv)) return 0;

  apply_log_option(args);
  FlowOptions opts;
  if (args.has("quick-route")) opts.route_mode = RouteMode::kQuickLShaped;
  const std::string report_path = args.get("report");
  const std::string trace_path = args.get("trace");

  const AigCircuit circuit = parse_hdl_file(args.pos("design.v"));
  const std::string out_dir = args.get("out", circuit.name + "_out");
  const auto lib = builtin_stdcell018();

  // Observability is opt-in: collecting spans/metrics costs nothing to the
  // artifacts (bit-identical either way) but does cost memory and time.
  if (!trace_path.empty()) Tracer::global().set_enabled(true);
  if (!report_path.empty()) Metrics::global().set_enabled(true);

  std::filesystem::create_directories(out_dir);
  const std::filesystem::path out = out_dir;
  FlowReport rep;
  if (args.has("regular")) {
    const RegularFlowResult r = run_regular_flow(circuit, lib, opts);
    std::printf("%s", flow_report(r).c_str());
    write_verilog_file(r.rtl, (out / "rtl.v").string());
    write_lef_file(r.lef, (out / "lib.lef").string());
    write_def_file(r.def, (out / "design.def").string());
    std::printf("%s", timing_report_text(r.timing).c_str());
    rep = build_flow_report(r);
  } else {
    const SecureFlowResult r = run_secure_flow(circuit, lib, opts);
    std::printf("%s", flow_report(r).c_str());
    write_verilog_file(r.rtl, (out / "rtl.v").string());
    write_verilog_file(r.fat, (out / "fat.v").string());
    write_verilog_file(r.diff, (out / "diff.v").string());
    write_lef_file(r.fat_lef, (out / "fat_lib.lef").string());
    write_lef_file(r.lef, (out / "diff_lib.lef").string());
    write_def_file(r.fat_def, (out / "fat.def").string());
    write_def_file(r.def, (out / "diff.def").string());
    std::printf("%s", timing_report_text(r.timing).c_str());
    rep = build_flow_report(r);
  }
  if (!report_path.empty()) {
    attach_metrics(rep, Metrics::global().snapshot());
    std::ofstream f(report_path);
    f << flow_report_json(rep);
    SECFLOW_CHECK(f.good(), "cannot write report to " + report_path);
    std::printf("flow report written to %s\n", report_path.c_str());
  }
  if (!trace_path.empty()) {
    Tracer::global().write_chrome_trace(trace_path);
    std::printf("trace written to %s (open in chrome://tracing)\n",
                trace_path.c_str());
  }
  std::printf("artifacts written to %s/\n", out_dir.c_str());
  return 0;
}

int cmd_report(int argc, char** argv) {
  ArgParser args("secflow_cli report",
                 "Synthesize a design and print netlist statistics and "
                 "timing.");
  args.positional("design.v", "mini-HDL input file");
  if (!args.parse(argc, argv)) return 0;

  const AigCircuit circuit = parse_hdl_file(args.pos("design.v"));
  const auto lib = builtin_stdcell018();
  const Netlist rtl = technology_map(circuit, lib);
  std::printf("module %s: %zu cells, %zu nets, %.1f um^2 cell area\n",
              rtl.name().c_str(), rtl.n_instances(), rtl.n_nets(),
              rtl.total_area_um2());
  for (const auto& [cell, count] : cell_histogram(rtl)) {
    std::printf("  %-8s x%d\n", cell.c_str(), count);
  }
  std::printf("%s", timing_report_text(analyze_timing(rtl, {})).c_str());
  return 0;
}

int cmd_wddl_lib(int argc, char** argv) {
  ArgParser args("secflow_cli wddl-lib",
                 "Print the generated WDDL compound-cell inventory.");
  if (!args.parse(argc, argv)) return 0;

  const auto lib = builtin_stdcell018();
  WddlLibrary wlib(lib);
  const int n = wlib.generate_full_inventory();
  std::printf("%d WDDL compound cells from %zu base cells:\n", n, lib->size());
  for (const WddlCompound* c : wlib.all()) {
    std::printf("  %-18s area %8.2f um^2  (", c->name.c_str(), c->area_um2);
    bool first = true;
    for (const auto& [prim, count] : c->primitives) {
      std::printf("%s%dx%s", first ? "" : " ", count, prim.c_str());
      first = false;
    }
    std::printf(")\n");
  }
  return 0;
}

int cmd_campaign(int argc, char** argv) {
  ArgParser args("secflow_cli campaign",
                 "Run a batch of flows described by a secflow.campaign/1 "
                 "JSON spec\nthrough the DAG scheduler and write the "
                 "campaign report.");
  args.positional("spec.json", "campaign spec file");
  args.option("out", "FILE",
              "write the campaign report here (default: stdout)");
  args.option("cache", "DIR", "checkpoint directory (overrides the spec)");
  args.option("threads", "N", "concurrent jobs (overrides the spec)");
  args.option("log", "LEVEL", "log level: debug|info|warn|error|off");
  if (!args.parse(argc, argv)) return 0;

  std::ifstream in(args.pos("spec.json"));
  SECFLOW_CHECK(in.good(), "cannot read spec " + args.pos("spec.json"));
  std::ostringstream text;
  text << in.rdbuf();
  CampaignSpec spec = parse_campaign_spec(text.str());
  if (args.has("cache")) spec.cache_dir = args.get("cache");
  spec.threads = args.get_number("threads", spec.threads, 0, kMaxThreads);
  apply_log_option(args);

  const CampaignResult result = run_campaign(spec);
  const std::string json = campaign_report_json(result);
  validate_campaign_report(json_parse(json));
  const std::string out_path = args.get("out");
  if (out_path.empty()) {
    std::printf("%s", json.c_str());
  } else {
    std::ofstream f(out_path);
    f << json;
    SECFLOW_CHECK(f.good(), "cannot write report to " + out_path);
    std::printf("campaign '%s': %d ok, %d failed, report written to %s\n",
                result.campaign.c_str(), result.n_ok, result.n_failed,
                out_path.c_str());
  }
  return result.n_failed == 0 ? 0 : 1;
}

int cmd_fuzz(int argc, char** argv) {
  ArgParser args("secflow_cli fuzz",
                 "Generate random sequential mini-HDL designs and drive "
                 "them through\nthe metamorphic / security-invariant / "
                 "cross-check oracle catalogue.\nFailures are delta-debugged "
                 "to a minimal reproducer in the corpus\ndirectory; --replay "
                 "re-runs a stored reproducer bit-exactly.");
  args.option("seed", "N", "campaign seed (default 1)");
  args.option("count", "M", "number of designs to fuzz (default 100)");
  args.option("deep-every", "K",
              "run the full-flow deep oracles every K-th case "
              "(default 10, 0 = never)");
  args.option("corpus", "DIR",
              "reproducer directory (default fuzz-corpus)");
  args.option("inject", "KIND",
              "plant a bug to self-test the oracles: "
              "pin-swap|rail-swap|cap-imbalance");
  args.flag("keep-going", "continue after the first failure");
  args.flag("no-minimize", "store failures without delta-debugging");
  args.option("replay", "FILE", "replay a stored reproducer and exit");
  if (!args.parse(argc, argv)) return 0;

  if (args.has("replay")) {
    const ReplayResult r = replay_repro(args.get("replay"));
    std::printf("replay %s: battery digest %016llx (stored %016llx) %s\n",
                args.get("replay").c_str(),
                static_cast<unsigned long long>(r.replayed_digest),
                static_cast<unsigned long long>(r.stored_digest),
                r.digest_match ? "MATCH" : "MISMATCH");
    if (r.still_fails)
      std::printf("oracle '%s' still fails (reproducer is live)\n",
                  r.oracle.c_str());
    else
      std::printf("no oracle fails any more (bug fixed or environment "
                  "changed)\n");
    return r.digest_match ? 0 : 1;
  }

  FuzzOptions opts;
  opts.seed = args.get_number("seed", opts.seed);
  opts.count = args.get_number("count", opts.count, 1);
  opts.deep_every = args.get_number("deep-every", opts.deep_every, 0);
  opts.corpus_dir = args.get("corpus", "fuzz-corpus");
  if (args.has("inject")) opts.inject = parse_fault_kind(args.get("inject"));
  opts.stop_on_failure = !args.has("keep-going");
  opts.minimize = !args.has("no-minimize");

  const FuzzRunResult run = run_fuzz(opts);
  for (const FuzzCaseResult& c : run.cases) {
    if (c.ok && !c.skipped) continue;
    if (c.skipped) {
      std::printf("case %d (seed %016llx): skipped, fault not injectable\n",
                  c.index, static_cast<unsigned long long>(c.design_seed));
      continue;
    }
    std::printf("case %d (seed %016llx): FAIL %s — %s\n", c.index,
                static_cast<unsigned long long>(c.design_seed),
                c.oracle.c_str(), c.detail.c_str());
    std::printf("  reproducer (%d HDL lines): %s\n", c.minimized_lines,
                c.repro_path.c_str());
  }
  std::printf("fuzz seed %llu: %d ok, %d failed, %d skipped of %zu run\n",
              static_cast<unsigned long long>(opts.seed), run.n_ok,
              run.n_failed, run.n_skipped, run.cases.size());
  return run.all_ok() ? 0 : 1;
}

int cmd_leakage(int argc, char** argv) {
  ArgParser args("secflow_cli leakage",
                 "Run a flow, then the statistical leakage assessment on "
                 "the extracted\ndesign.  The built-in DES example (--des) "
                 "gets the full battery — TVLA,\nCPA key recovery, "
                 "guessing-entropy curves and MTD estimation; an\n"
                 "arbitrary design gets the model-free fixed-vs-random "
                 "TVLA.");
  args.positional("design.v", "mini-HDL input file (omit with --des)",
                  /*required=*/false);
  args.flag("des", "assess the paper's built-in reduced-DES example");
  args.option("flow", "KIND", "regular|secure (default: secure)");
  args.option("traces", "N", "CPA trace budget (default 800)");
  args.option("tvla-traces", "N", "TVLA trace budget (default 600)");
  args.option("model", "M", "CPA power model: hw|hd (default hd)");
  args.option("mtd-max", "N", "MTD trace budget (default 2000)");
  args.option("mtd-step", "N", "MTD feed/check granularity (default 100)");
  args.option("ge", "K",
              "guessing-entropy sub-campaigns (default 0 = off)");
  args.option("seed", "N", "campaign seed (default 2025)");
  args.option("noise", "X", "Gaussian noise per sample in mA (default 0.05)");
  args.option("out", "FILE",
              "write the secflow.leakage-report/1 JSON here");
  args.option("cache", "DIR",
              "checkpoint directory for flow stages and trace blocks");
  args.option("threads", "N", "worker threads (0 = auto)");
  args.option("log", "LEVEL", "log level: debug|info|warn|error|off");
  if (!args.parse(argc, argv)) return 0;

  const bool builtin_des = args.has("des");
  SECFLOW_CHECK(builtin_des || !args.pos("design.v").empty(),
                "pass a design.v or --des");
  const std::string flow_kind = args.get("flow", "secure");
  SECFLOW_CHECK(flow_kind == "regular" || flow_kind == "secure",
                "--flow must be regular or secure, got '" + flow_kind + "'");
  const bool secure = flow_kind == "secure";

  LeakageSetup setup;
  setup.seed = args.get_number("seed", setup.seed);
  setup.cpa_traces =
      args.get_number("traces", setup.cpa_traces, 1, kMaxTraces);
  setup.tvla_traces =
      args.get_number("tvla-traces", setup.tvla_traces, 4, kMaxTraces);
  setup.noise_ma = args.get_number("noise", setup.noise_ma, 0.0);
  if (args.has("model")) {
    const auto model = parse_power_model(args.get("model"));
    SECFLOW_CHECK(model.has_value(),
                  "--model must be hw or hd, got '" + args.get("model") + "'");
    setup.model = *model;
  }
  setup.mtd.max_traces =
      args.get_number("mtd-max", setup.mtd.max_traces, 1, kMaxTraces);
  setup.mtd.step = args.get_number("mtd-step", setup.mtd.step, 1, kMaxTraces);
  setup.ge_campaigns = args.get_number("ge", setup.ge_campaigns, 0);
  setup.parallelism.n_threads = args.get_number(
      "threads", setup.parallelism.n_threads, 0, kMaxThreads);
  setup.cache_dir = args.get("cache");

  FlowOptions opts;
  opts.cache_dir = setup.cache_dir;
  apply_log_option(args);
  Metrics::global().set_enabled(true);

  const AigCircuit circuit = builtin_des
                                 ? make_des_dpa_circuit()
                                 : parse_hdl_file(args.pos("design.v"));
  const auto lib = builtin_stdcell018();

  LeakageReport report;
  if (secure) {
    const SecureFlowResult r = run_secure_flow(circuit, lib, opts);
    setup.base_key = r.timings.key(FlowStage::kExtraction);
    setup.design = circuit.name;
    const CompiledSimModel model = compile_power_model(r);
    report = builtin_des
                 ? assess_des_leakage(model, /*differential=*/true, setup)
                 : assess_tvla_leakage(model, /*differential=*/true, setup);
  } else {
    const RegularFlowResult r = run_regular_flow(circuit, lib, opts);
    setup.base_key = r.timings.key(FlowStage::kExtraction);
    setup.design = circuit.name;
    const CompiledSimModel model = compile_power_model(r);
    report = builtin_des
                 ? assess_des_leakage(model, /*differential=*/false, setup)
                 : assess_tvla_leakage(model, /*differential=*/false, setup);
  }

  if (report.tvla.present) {
    std::printf("TVLA  max |t| %.2f over %lld samples (threshold %.1f): %s\n",
                report.tvla.max_abs_t,
                static_cast<long long>(report.tvla.n_samples),
                report.tvla.threshold,
                report.tvla.leaks ? "LEAKS" : "no leak detected");
  }
  if (report.cpa.present) {
    std::printf("CPA   best guess %lld (correct %lld, rank %lld) at %lld "
                "traces: %s\n",
                static_cast<long long>(report.cpa.best_guess),
                static_cast<long long>(report.cpa.correct_key),
                static_cast<long long>(report.cpa.correct_rank),
                static_cast<long long>(report.cpa.n_traces),
                report.cpa.disclosed ? "key DISCLOSED" : "key hidden");
  }
  if (report.mtd.present) {
    if (report.mtd.mtd >= 0) {
      std::printf("MTD   %lld traces to disclosure\n",
                  static_cast<long long>(report.mtd.mtd));
    } else {
      std::printf("MTD   key hidden at %lld traces\n",
                  static_cast<long long>(report.mtd.max_traces));
    }
  }
  if (report.ge.present) {
    for (std::size_t i = 0; i < report.ge.trace_grid.size(); ++i) {
      std::printf("GE    %5lld traces: mean rank %.2f, success rate %.2f\n",
                  static_cast<long long>(report.ge.trace_grid[i]),
                  report.ge.guessing_entropy[i], report.ge.success_rate[i]);
    }
  }
  std::printf("trace cache: %lld hits, %lld misses\n",
              static_cast<long long>(report.trace_cache_hits),
              static_cast<long long>(report.trace_cache_misses));

  const std::string json = leakage_report_json(report);
  validate_leakage_report(json_parse(json));
  const std::string out_path = args.get("out");
  if (!out_path.empty()) {
    std::ofstream f(out_path);
    f << json;
    SECFLOW_CHECK(f.good(), "cannot write report to " + out_path);
    std::printf("leakage report written to %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "flow") return cmd_flow(argc - 2, argv + 2);
    if (cmd == "report") return cmd_report(argc - 2, argv + 2);
    if (cmd == "wddl-lib") return cmd_wddl_lib(argc - 2, argv + 2);
    if (cmd == "campaign") return cmd_campaign(argc - 2, argv + 2);
    if (cmd == "fuzz") return cmd_fuzz(argc - 2, argv + 2);
    if (cmd == "leakage") return cmd_leakage(argc - 2, argv + 2);
  } catch (const secflow::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
