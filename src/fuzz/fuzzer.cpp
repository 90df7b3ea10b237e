#include "fuzz/fuzzer.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/error.h"
#include "base/rng.h"
#include "ckpt/hash.h"
#include "fuzz/generator.h"
#include "fuzz/minimize.h"
#include "obs/json_fields.h"

namespace secflow {
namespace {

/// The minimizer's predicate-evaluation budget per failure.
constexpr int kMinimizeAttempts = 400;

/// Oracles that need opts.deep to run at all; a failure in one forces the
/// minimizer to re-run full flows per predicate evaluation, so it gets a
/// tenth of the attempt budget.
bool is_deep_oracle(const std::string& oracle) {
  return oracle == "secure-flow" || oracle == "flow-obs-invariance" ||
         oracle == "wddl-cap-mismatch";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("cannot write '" + path + "'");
  out << content;
  SECFLOW_CHECK(out.good(), "write to '" + path + "' failed");
}

constexpr const char* kReproSchema = "secflow.fuzz-repro/1";

/// One failing case as the corpus stores it.
struct Repro {
  std::uint64_t run_seed = 0;
  int index = 0;
  std::uint64_t design_seed = 0;
  std::string oracle;
  std::string detail;
  OracleOptions oracle_options;
  std::uint64_t battery_digest = 0;
  std::string hdl;
  std::string minimized_hdl;
  int minimized_lines = 0;
};

/// The secflow.fuzz-repro/1 field list (obs/json_fields.h).
template <class Io, class R>
void fields(Io& io, R& r) {
  std::string schema = kReproSchema;
  io.field("schema", schema);
  io.check(schema == kReproSchema, [&] {
    return "unknown schema '" + schema + "' (want " + kReproSchema + ")";
  });
  io.text("run_seed", r.run_seed, hash_hex, parse_hash_hex);
  io.field("index", r.index);
  io.text("design_seed", r.design_seed, hash_hex, parse_hash_hex);
  io.field("oracle", r.oracle);
  io.field("detail", r.detail);
  auto& o = r.oracle_options;
  io.object("oracle_options", [&] {
    io.text("seed", o.seed, hash_hex, parse_hash_hex);
    io.field("n_vectors", o.n_vectors);
    io.field("n_cycles", o.n_cycles);
    io.field("cap_worst_ff", o.cap_worst_ff);
    io.field("cap_mean_ff", o.cap_mean_ff);
    io.field("deep", o.deep);
    io.text("inject", o.inject, fault_kind_name, parse_fault_kind);
  });
  io.text("battery_digest", r.battery_digest, hash_hex, parse_hash_hex);
  io.field("hdl", r.hdl);
  io.field("minimized_hdl", r.minimized_hdl);
  io.field("minimized_lines", r.minimized_lines);
}

}  // namespace

std::string write_repro_json(const HdlModule& original,
                             const HdlModule& minimized,
                             const FuzzCaseResult& c, const FuzzOptions& opts,
                             std::uint64_t battery_digest) {
  Repro r{opts.seed, c.index, c.design_seed, c.oracle, c.detail,
          opts.oracles, battery_digest, emit_hdl(original),
          emit_hdl(minimized), hdl_line_count(minimized)};
  r.oracle_options.seed = c.design_seed;
  r.oracle_options.deep = is_deep_oracle(c.oracle);
  r.oracle_options.inject = opts.inject;
  JsonWriter io;
  fields(io, r);
  return json_dump(io.take(), 2) + "\n";
}

FuzzRunResult run_fuzz(const FuzzOptions& opts) {
  SECFLOW_CHECK(opts.count > 0, "fuzz: count must be positive");
  FuzzRunResult run;
  for (int i = 0; i < opts.count; ++i) {
    FuzzCaseResult c;
    c.index = i;
    c.design_seed = Rng::stream(opts.seed, static_cast<std::uint64_t>(i))
                        .next_u64();
    const HdlModule program = generate_program(c.design_seed);

    OracleOptions oracle_opts = opts.oracles;
    oracle_opts.seed = c.design_seed;
    oracle_opts.deep = opts.deep_every > 0 && i % opts.deep_every == 0;
    oracle_opts.inject = opts.inject;

    const OracleReport rep = run_oracle_battery(program, oracle_opts);
    if (!rep.injectable) {
      // The requested fault has no site in this design (e.g. pin-swap on a
      // design mapping to symmetric gates only) — not a pass, not a fail.
      c.skipped = true;
      ++run.n_skipped;
      run.cases.push_back(std::move(c));
      continue;
    }
    if (rep.all_ok()) {
      ++run.n_ok;
      run.cases.push_back(std::move(c));
      continue;
    }

    const OracleVerdict* fail = rep.first_failure();
    c.ok = false;
    c.oracle = fail->oracle;
    c.detail = fail->detail;
    ++run.n_failed;

    // Shrink while the same oracle keeps failing (and the fault, when one
    // is planted, keeps finding a site).
    OracleOptions pred_opts = oracle_opts;
    pred_opts.deep = is_deep_oracle(c.oracle);
    const auto still_fails = [&](const HdlModule& cand) {
      try {
        const OracleReport r = run_oracle_battery(cand, pred_opts);
        if (!r.injectable) return false;
        const OracleVerdict* f = r.first_failure();
        return f != nullptr && f->oracle == c.oracle;
      } catch (const std::exception&) {
        return false;
      }
    };
    HdlModule minimized = program;
    if (opts.minimize) {
      const int budget =
          pred_opts.deep ? kMinimizeAttempts / 10 : kMinimizeAttempts;
      minimized = minimize_program(program, still_fails, budget).program;
    }
    c.minimized_lines = hdl_line_count(minimized);

    const std::uint64_t digest =
        run_oracle_battery(minimized, pred_opts).digest();
    std::filesystem::create_directories(opts.corpus_dir);
    const std::string stem = opts.corpus_dir + "/repro-" +
                             hash_hex(opts.seed) + "-" + std::to_string(i);
    write_file(stem + ".v", emit_hdl(minimized));
    write_file(stem + ".json",
               write_repro_json(program, minimized, c, opts, digest));
    c.repro_path = stem + ".json";
    run.cases.push_back(std::move(c));
    if (opts.stop_on_failure) break;
  }
  return run;
}

ReplayResult replay_repro(const std::string& path) {
  const JsonValue doc = json_parse(read_file(path));
  const std::string doc_name = "repro '" + path + "'";
  JsonReader io(doc, doc_name.c_str());
  Repro stored;
  fields(io, stored);
  io.finish();

  const HdlModule program = parse_hdl_module(stored.minimized_hdl);
  const OracleReport rep = run_oracle_battery(program, stored.oracle_options);

  ReplayResult res;
  res.stored_digest = stored.battery_digest;
  res.replayed_digest = rep.digest();
  res.digest_match = res.stored_digest == res.replayed_digest;
  const OracleVerdict* fail = rep.first_failure();
  res.still_fails = fail != nullptr && rep.injectable;
  if (fail) res.oracle = fail->oracle;
  return res;
}

}  // namespace secflow
