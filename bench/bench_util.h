// Shared helpers for the reproduction benches: consistent table printing,
// repeated wall-clock timing, an optional machine-readable JSON report
// (`--json <path>`), and the standard flow setup used across experiments.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "crypto/des.h"
#include "flow/flow.h"
#include "liberty/builtin_lib.h"
#include "obs/json.h"

namespace secflow::bench {

inline void header(const std::string& id, const std::string& title) {
  std::printf("\n==== %s: %s ====\n", id.c_str(), title.c_str());
}

inline void row(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

inline void blank() { std::printf("\n"); }

/// Median wall time in ms of `repeats` (>= 1) calls of `fn`.  A single
/// shot on a shared host can swing several-fold; the median of a fixed
/// repeat count does not.
template <typename Fn>
double median_ms(int repeats, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  std::sort(ms.begin(), ms.end());
  const std::size_t n = ms.size();
  return n % 2 == 1 ? ms[n / 2] : (ms[n / 2 - 1] + ms[n / 2]) / 2;
}

/// Machine-readable bench results (document `secflow.bench-report/1`).
/// Pass `--json <path>` (or `--json=<path>`) on a bench's command line to
/// write `{"schema", "bench", "metrics": {...}, "notes": {...}}` when the
/// report is destroyed; without the flag the report is a no-op and the
/// bench prints its human tables as before.  CI uploads these files to
/// track the performance trajectory across commits.
class JsonReport {
 public:
  JsonReport(std::string bench_name, int argc, char** argv)
      : bench_(std::move(bench_name)) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json" && i + 1 < argc) {
        path_ = argv[i + 1];
      } else if (arg.rfind("--json=", 0) == 0) {
        path_ = arg.substr(7);
      }
    }
  }

  bool enabled() const { return !path_.empty(); }

  /// Record one numeric result (e.g. "reused.traces_per_s").
  void metric(const std::string& name, double value) {
    metrics_.set(name, value);
  }
  /// Record one string annotation (e.g. "design" -> "des").
  void note(const std::string& key, const std::string& value) {
    notes_.set(key, value);
  }

  ~JsonReport() {
    if (!enabled()) return;
    JsonValue doc = JsonValue::object();
    doc.set("schema", "secflow.bench-report/1");
    doc.set("bench", bench_);
    doc.set("metrics", std::move(metrics_));
    doc.set("notes", std::move(notes_));
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << json_dump(doc, 2) << "\n";
  }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

 private:
  std::string bench_;
  std::string path_;
  JsonValue metrics_ = JsonValue::object();
  JsonValue notes_ = JsonValue::object();
};

/// The paper's design example through both flows (deterministic).
struct DesDesigns {
  std::shared_ptr<const CellLibrary> lib;
  RegularFlowResult regular;
  SecureFlowResult secure;
};

inline DesDesigns build_des_designs() {
  auto lib = builtin_stdcell018();
  const AigCircuit circuit = make_des_dpa_circuit();
  FlowOptions opts;
  return DesDesigns{lib, run_regular_flow(circuit, lib, opts),
                    run_secure_flow(circuit, lib, opts)};
}

}  // namespace secflow::bench
