#include "leakage/assess.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "base/error.h"
#include "base/rng.h"
#include "ckpt/hash.h"
#include "ckpt/store.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sca/dpa_experiment.h"
#include "sim/trace_sim.h"

namespace secflow {
namespace {

constexpr const char* kTraceKind = "leakage-traces";
// Fixed-class plaintext of the DES TVLA campaign, packed pl | pr << 4 (any
// constant works; the test is fixed-VS-random, not about the value
// itself).
constexpr std::uint32_t kFixedPlaintext = 0x5 | (0x2A << 4);
// TVLA draws from a disjoint stream range so its traces never alias the
// CPA/MTD traces (which use stream_base 0).
constexpr std::uint64_t kTvlaStreamBase = 1ull << 40;
// Stream id of the generic campaign's fixed-class lane pattern.
constexpr std::uint64_t kFixedPatternStream = 0x5EC0FA57ull;

/// Trace checkpointing: blocks of simulated measurements stored under a
/// content-address chained from the upstream flow key.
struct TraceCache {
  std::unique_ptr<ArtifactStore> store;  ///< null = caching disabled
  std::uint64_t base = 0;
  std::int64_t hits = 0;
  std::int64_t misses = 0;
};

/// A store without a design key would hand one design's traces to
/// another, so the key is required with a store.  The model's options
/// join it: a model compiled at another sample rate draws other traces.
TraceCache make_cache(const CompiledSimModel& model, const LeakageSetup& s) {
  TraceCache c;
  if (s.cache_dir.empty()) return c;
  SECFLOW_CHECK(s.base_key != 0, "LeakageSetup: a cache_dir needs a base_key "
                                 "(the design's extraction-stage key)");
  c.store = std::make_unique<ArtifactStore>(s.cache_dir);
  const PowerSimOptions& o = model.options();
  Hasher h;
  h.add(s.base_key).add(o.sampling.clock_hz).add(o.sampling.samples_per_cycle);
  h.add(o.precharge_inputs);
  c.base = h.digest();
  return c;
}

std::uint64_t block_key(const TraceCache& cache, const char* purpose,
                        const LeakageSetup& s, bool differential,
                        std::uint64_t stream_base, int begin, int end) {
  Hasher h;
  h.add(cache.base).add(purpose).add(s.seed).add(stream_base);
  h.add(begin).add(end);
  h.add(s.noise_ma).add(differential);
  h.add(static_cast<std::int64_t>(s.key)).add(s.sbox);
  return h.digest();
}

Artifact make_block_artifact(std::uint64_t key,
                             const std::vector<CpaMeasurement>& block) {
  const std::size_t n = block.size();
  const std::size_t s = block.front().samples.size();
  Artifact a(kTraceKind, key);
  a.add("meta", std::to_string(n) + " " + std::to_string(s) + "\n");
  std::string samples(n * s * sizeof(double), '\0');
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(samples.data() + i * s * sizeof(double),
                block[i].samples.data(), s * sizeof(double));
  }
  a.add("samples", std::move(samples));
  std::string obs(n * 2 * sizeof(std::uint32_t), '\0');
  for (std::size_t i = 0; i < n; ++i) {
    std::memcpy(obs.data() + (2 * i) * sizeof(std::uint32_t), &block[i].ct,
                sizeof(std::uint32_t));
    std::memcpy(obs.data() + (2 * i + 1) * sizeof(std::uint32_t),
                &block[i].prev_ct, sizeof(std::uint32_t));
  }
  a.add("obs", std::move(obs));
  return a;
}

/// Lenient decode: any shape mismatch reads as a miss (the store already
/// rejected corruption via its checksum), so a stale entry degrades to
/// re-simulation, never to wrong traces.
bool unpack_block(const Artifact& a, int expect_n,
                  std::vector<CpaMeasurement>* out) {
  const std::string* meta = a.find_section("meta");
  const std::string* samples = a.find_section("samples");
  const std::string* obs = a.find_section("obs");
  if (meta == nullptr || samples == nullptr || obs == nullptr) return false;
  std::istringstream ms(*meta);
  std::size_t n = 0, s = 0;
  if (!(ms >> n >> s) || s == 0) return false;
  if (n != static_cast<std::size_t>(expect_n)) return false;
  if (samples->size() != n * s * sizeof(double)) return false;
  if (obs->size() != n * 2 * sizeof(std::uint32_t)) return false;
  out->resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    CpaMeasurement& m = (*out)[i];
    m.samples.resize(s);
    std::memcpy(m.samples.data(), samples->data() + i * s * sizeof(double),
                s * sizeof(double));
    std::memcpy(&m.ct, obs->data() + (2 * i) * sizeof(std::uint32_t),
                sizeof(std::uint32_t));
    std::memcpy(&m.prev_ct, obs->data() + (2 * i + 1) * sizeof(std::uint32_t),
                sizeof(std::uint32_t));
  }
  return true;
}

std::vector<CpaMeasurement> fetch_block(
    const CompiledSimModel& model, TraceCache& cache, const char* purpose,
    const LeakageSetup& s, bool differential, std::uint64_t stream_base,
    int begin, int end, const TraceTask& task) {
  SECFLOW_CHECK(end > begin, "leakage: empty trace block");
  const std::uint64_t key =
      block_key(cache, purpose, s, differential, stream_base, begin, end);
  if (cache.store) {
    if (std::optional<Artifact> a = cache.store->load(kTraceKind, key)) {
      std::vector<CpaMeasurement> out;
      if (unpack_block(*a, end - begin, &out)) {
        ++cache.hits;
        Metrics::global().add("leakage.trace_cache.hit");
        return out;
      }
    }
  }
  std::vector<SimTrace> sims =
      simulate_traces(model, stream_base + static_cast<std::uint64_t>(begin),
                      end - begin, s.seed, task, s.parallelism);
  std::vector<CpaMeasurement> out(sims.size());
  for (std::size_t i = 0; i < sims.size(); ++i) {
    out[i].samples = std::move(sims[i].cycle.current_ma);
    out[i].ct = sims[i].observable & 0x3FF;
    out[i].prev_ct = (sims[i].observable >> 10) & 0x3FF;
  }
  ++cache.misses;
  Metrics::global().add("leakage.trace_cache.miss");
  Metrics::global().add("leakage.traces_simulated",
                        static_cast<std::uint64_t>(out.size()));
  if (cache.store) cache.store->save(make_block_artifact(key, out));
  return out;
}

/// TVLA's class of the trace at stream index `i`: fixed on even
/// phase-relative indices.  The trace tasks simulate by it and
/// run_tvla_phase accumulates by it.
bool tvla_fixed(std::uint64_t i) { return (i - kTvlaStreamBase) % 2 == 0; }

// --- generic (model-free) input lanes -------------------------------------

/// One logical input bit: a single-ended data input of the model (any
/// input but the clock, whatever it is called), or a *_t/*_f rail pair on
/// differential netlists.
std::vector<DesBitPorts> input_lanes(const CompiledSimModel& model,
                                     bool differential) {
  const Netlist& nl = model.netlist();
  std::vector<DesBitPorts> lanes;
  for (const CompiledSimModel::DataInput& in : model.data_inputs()) {
    const std::string& name = nl.port(in.port).name;
    const std::size_t n = name.size();
    const std::string rail = differential && n > 2 ? name.substr(n - 2) : "";
    if (rail == "_f") continue;  // folded into its *_t partner
    DesBitPorts lane{in.port, PortId()};
    if (rail == "_t") lane.f = nl.find_port(name.substr(0, n - 2) + "_f");
    lanes.push_back(lane);
  }
  SECFLOW_CHECK(!lanes.empty(), "TVLA: design has no drivable input lanes");
  return lanes;
}

void drive_lane(PowerSimulator& sim, const DesBitPorts& lane, bool v) {
  sim.set_input(lane.t, v);
  if (lane.f.valid()) sim.set_input(lane.f, !v);
}

SimTrace generic_tvla_trace(PowerSimulator& sim, Rng& rng,
                            const std::vector<DesBitPorts>& lanes,
                            const std::vector<char>& fixed_bits,
                            const LeakageSetup& s, bool fixed) {
  for (const DesBitPorts& lane : lanes) drive_lane(sim, lane, rng.next_bool());
  sim.settle();
  sim.step_cycle();
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    const bool rnd = rng.next_bool();  // consumed in both classes
    drive_lane(sim, lanes[i], fixed ? fixed_bits[i] != 0 : rnd);
  }
  SimTrace out;
  out.cycle = sim.run_cycle();
  if (s.noise_ma > 0.0) {
    for (double& v : out.cycle.current_ma) {
      v += s.noise_ma * rng.next_gaussian();
    }
  }
  return out;
}

// --- assessment phases ----------------------------------------------------

/// `purpose` keys the blocks: the DES and the generic trace tasks draw
/// different traces from one stream range, so each needs its own.
TvlaSummary run_tvla_phase(const CompiledSimModel& model, TraceCache& cache,
                           const char* purpose, const LeakageSetup& s,
                           bool differential, const TraceTask& task) {
  Span span("leakage.tvla", "leakage");
  span.arg("traces", s.tvla_traces);
  SECFLOW_CHECK(s.tvla_traces >= 4,
                "TVLA needs at least 4 traces (2 per class)");
  // Each step-wide block is fetched, added to the one accumulator in
  // trace order under its trace's class, and dropped.
  const int step = std::max(s.mtd.step, 1);
  WelchAccumulator acc(static_cast<std::size_t>(model.samples_per_cycle()));
  for (int b = 0; b < s.tvla_traces; b += step) {
    const std::vector<CpaMeasurement> block =
        fetch_block(model, cache, purpose, s, differential, kTvlaStreamBase,
                    b, std::min(b + step, s.tvla_traces), task);
    for (std::size_t k = 0; k < block.size(); ++k) {
      const std::uint64_t i = static_cast<std::uint64_t>(b) + k;
      SECFLOW_CHECK(block[k].samples.size() == acc.n_samples(),
                    "TVLA trace " + std::to_string(i) + ": " +
                        std::to_string(block[k].samples.size()) +
                        " samples, expected " +
                        std::to_string(acc.n_samples()));
      acc.add(tvla_fixed(kTvlaStreamBase + i), block[k].samples.data());
    }
  }

  TvlaSummary out;
  out.present = true;
  out.n_fixed = static_cast<std::int64_t>(acc.n(true));
  out.n_random = static_cast<std::int64_t>(acc.n(false));
  out.n_samples = static_cast<std::int64_t>(acc.n_samples());
  out.threshold = kTvlaThreshold;
  out.max_abs_t = acc.max_abs_t();
  out.leaky_samples = static_cast<std::int64_t>(
      acc.leaky_samples(kTvlaThreshold).size());
  out.leaks = out.max_abs_t > kTvlaThreshold;
  Metrics::global().gauge_max("leakage.tvla.max_abs_t", out.max_abs_t);
  SECFLOW_LOG_INFO("leakage", "TVLA done",
                   LogField("max_abs_t", out.max_abs_t),
                   LogField("leaks", out.leaks));
  return out;
}

CpaSummary cpa_summary(const CpaAccumulator& acc, const LeakageSetup& s) {
  const GuessRanking ranking = rank_guesses(acc.scores());
  CpaSummary out;
  out.present = true;
  out.model = power_model_name(s.model);
  out.n_traces = static_cast<std::int64_t>(acc.n());
  out.best_guess = ranking.best_guess;
  out.best_score = ranking.best_score;
  out.runner_up_score = ranking.runner_up_score;
  out.correct_key = static_cast<std::int64_t>(s.key);
  out.correct_rank = ranking.rank_of(static_cast<int>(s.key));
  out.disclosed = ranking.disclosed(s.key);
  Metrics::global().gauge_max("leakage.cpa.best_score", out.best_score);
  SECFLOW_LOG_INFO("leakage", "CPA done",
                   LogField("best_guess", out.best_guess),
                   LogField("correct_rank", out.correct_rank),
                   LogField("disclosed", out.disclosed));
  return out;
}

MtdSummary mtd_summary(const MtdResult& result, const LeakageSetup& s) {
  MtdSummary out;
  out.present = true;
  out.mtd = result.mtd;
  out.max_traces = s.mtd.max_traces;
  out.step = s.mtd.step;
  out.persist = kMtdPersist;
  out.traces_fed = result.traces_fed;
  out.disclosed = result.disclosed;
  for (int c : result.checkpoints) out.checkpoints.push_back(c);
  for (int r : result.ranks) out.ranks.push_back(r);
  Metrics::global().gauge_max(
      "leakage.mtd", static_cast<double>(result.mtd < 0 ? s.mtd.max_traces
                                                        : result.mtd));
  SECFLOW_LOG_INFO("leakage", "MTD done", LogField("mtd", result.mtd),
                   LogField("traces_fed", result.traces_fed));
  return out;
}

/// CPA and MTD in one pass over the CPA trace stream (stream_base 0):
/// each step-wide block is fetched once and folded in trace order; the
/// CPA summary is read at cpa_traces and MTD's rank at each of its
/// checkpoints.  The pass runs past cpa_traces only while MTD still needs
/// traces.  Fills r.cpa, and r.mtd when MTD is on.
void run_cpa_mtd_pass(const CompiledSimModel& model, TraceCache& cache,
                      const LeakageSetup& s, bool differential,
                      const HypothesisFn& hyp, const TraceTask& task,
                      LeakageReport& r) {
  Span span("leakage.cpa", "leakage");
  span.arg("traces", s.cpa_traces);
  span.arg("mtd_max_traces", s.mtd.max_traces);
  span.arg("model", power_model_name(s.model));
  std::optional<MtdTracker> mtd;
  if (s.mtd.max_traces > 0) mtd.emplace(s.mtd, s.key);
  const auto mtd_live = [&] { return mtd && !mtd->done(); };
  const int step = std::max(s.mtd.step, 1);
  CpaAccumulator acc(kDesKeyGuesses, model.samples_per_cycle());
  int n = 0;  // traces folded
  while (n < s.cpa_traces || mtd_live()) {
    const int limit = mtd_live() ? std::max(s.cpa_traces, s.mtd.max_traces)
                                 : s.cpa_traces;
    const std::vector<CpaMeasurement> block =
        fetch_block(model, cache, "cpa", s, differential, 0, n,
                    std::min(n + step, limit), task);
    // Fold up to each trace count a verdict is read at, read it, go on.
    for (std::size_t i = 0; i < block.size();) {
      int stop = n + static_cast<int>(block.size() - i);
      if (n < s.cpa_traces) stop = std::min(stop, s.cpa_traces);
      if (mtd_live()) stop = std::min(stop, mtd->next_checkpoint());
      const std::size_t k = static_cast<std::size_t>(stop - n);
      fold_cpa(acc, std::span(block).subspan(i, k), hyp, s.parallelism);
      i += k;
      n = stop;
      if (n == s.cpa_traces) r.cpa = cpa_summary(acc, s);
      if (mtd_live() && n == mtd->next_checkpoint()) mtd->check(acc);
    }
  }
  if (mtd) r.mtd = mtd_summary(mtd->result(), s);
}

GeSummary run_ge_phase(const CompiledSimModel& model, TraceCache& cache,
                       const LeakageSetup& s, bool differential,
                       const HypothesisFn& hyp, const TraceTask& task) {
  Span span("leakage.guessing_entropy", "leakage");
  span.arg("campaigns", s.ge_campaigns);
  // Grid: quarters of the CPA budget, deduplicated and > 0.
  std::vector<int> grid;
  for (int q = 1; q <= 4; ++q) {
    const int t = s.cpa_traces * q / 4;
    if (t > 0 && (grid.empty() || grid.back() != t)) grid.push_back(t);
  }
  // Campaign k draws from streams [(k+1)*range, (k+2)*range) — disjoint
  // from each other and from the CPA/MTD range [0, range).
  const std::uint64_t range = static_cast<std::uint64_t>(
      std::max(std::max(s.cpa_traces, s.mtd.max_traces), s.tvla_traces));
  const int step = std::max(s.mtd.step, 1);
  std::vector<double> rank_sum(grid.size(), 0.0);
  std::vector<double> success(grid.size(), 0.0);
  for (int k = 0; k < s.ge_campaigns; ++k) {
    const std::uint64_t stream_base = range * static_cast<std::uint64_t>(k + 1);
    CpaAccumulator acc(kDesKeyGuesses, model.samples_per_cycle());
    int fed = 0;
    for (std::size_t gi = 0; gi < grid.size(); ++gi) {
      for (; fed < grid[gi]; fed = std::min(fed + step, grid[gi])) {
        fold_cpa(acc,
                 fetch_block(model, cache, "ge", s, differential, stream_base,
                             fed, std::min(fed + step, grid[gi]), task),
                 hyp, s.parallelism);
      }
      const GuessRanking ranking = rank_guesses(acc.scores());
      const int rank = ranking.rank_of(static_cast<int>(s.key));
      rank_sum[gi] += rank;
      if (rank == 1) success[gi] += 1.0;
    }
  }
  GeSummary out;
  out.present = true;
  out.n_campaigns = s.ge_campaigns;
  for (std::size_t gi = 0; gi < grid.size(); ++gi) {
    out.trace_grid.push_back(grid[gi]);
    out.guessing_entropy.push_back(rank_sum[gi] /
                                   static_cast<double>(s.ge_campaigns));
    out.success_rate.push_back(success[gi] /
                               static_cast<double>(s.ge_campaigns));
  }
  return out;
}

LeakageReport report_shell(const CompiledSimModel& model, bool differential,
                           const LeakageSetup& setup) {
  LeakageReport r;
  r.flow = differential ? "secure" : "regular";
  r.design = setup.design.empty() ? model.netlist().name() : setup.design;
  r.seed = static_cast<std::int64_t>(setup.seed);
  r.n_threads = setup.parallelism.resolved_threads();
  r.noise_ma = setup.noise_ma;
  return r;
}

}  // namespace

LeakageReport assess_des_leakage(const CompiledSimModel& model,
                                 bool differential,
                                 const LeakageSetup& setup) {
  check_precharge(model, differential, "assess_des_leakage");
  // A budget of 0 turns its phase off; a negative one is a caller's error.
  SECFLOW_CHECK(setup.tvla_traces >= 0 && setup.cpa_traces >= 0 &&
                    setup.mtd.max_traces >= 0,
                "LeakageSetup: negative trace budget (tvla_traces " +
                    std::to_string(setup.tvla_traces) + ", cpa_traces " +
                    std::to_string(setup.cpa_traces) + ", mtd.max_traces " +
                    std::to_string(setup.mtd.max_traces) + ")");
  Span span("leakage.assess", "leakage");
  span.arg("flow", differential ? "secure" : "regular");
  SECFLOW_LOG_INFO("leakage", "assessment start",
                   LogField("differential", differential),
                   LogField("cpa_traces", setup.cpa_traces),
                   LogField("tvla_traces", setup.tvla_traces));
  TraceCache cache = make_cache(model, setup);
  LeakageReport r = report_shell(model, differential, setup);

  const DesPortMap ports = DesPortMap::resolve(model.netlist(), differential);
  if (setup.tvla_traces > 0) {
    const TraceTask task = [&](PowerSimulator& sim, Rng& rng,
                               std::uint64_t i) {
      return des_trace(sim, rng, ports, setup.key, setup.noise_ma,
                       tvla_fixed(i) ? std::optional(kFixedPlaintext)
                                     : std::nullopt);
    };
    r.tvla = run_tvla_phase(model, cache, "tvla", setup, differential, task);
  }
  if (setup.cpa_traces > 0) {
    const HypothesisFn hyp = des_hypothesis(setup.model, setup.sbox);
    const TraceTask task = [&](PowerSimulator& sim, Rng& rng,
                               std::uint64_t) {
      return des_trace(sim, rng, ports, setup.key, setup.noise_ma);
    };
    run_cpa_mtd_pass(model, cache, setup, differential, hyp, task, r);
    if (setup.ge_campaigns > 0) {
      r.ge = run_ge_phase(model, cache, setup, differential, hyp, task);
    }
  }
  r.trace_cache_hits = cache.hits;
  r.trace_cache_misses = cache.misses;
  return r;
}

LeakageReport assess_des_leakage(const Netlist& nl, const CapTable& caps,
                                 bool differential,
                                 const LeakageSetup& setup) {
  PowerSimOptions opts;
  opts.precharge_inputs = differential;
  const CompiledSimModel model(nl, caps, opts);
  return assess_des_leakage(model, differential, setup);
}

LeakageReport assess_tvla_leakage(const CompiledSimModel& model,
                                  bool differential,
                                  const LeakageSetup& setup) {
  check_precharge(model, differential, "assess_tvla_leakage");
  Span span("leakage.assess", "leakage");
  span.arg("flow", differential ? "secure" : "regular");
  TraceCache cache = make_cache(model, setup);
  LeakageReport r = report_shell(model, differential, setup);

  const std::vector<DesBitPorts> lanes = input_lanes(model, differential);
  // The fixed-class lane pattern, drawn once per assessment from a
  // dedicated stream (constant across traces, deterministic per seed).
  Rng pattern_rng = Rng::stream(setup.seed, kFixedPatternStream);
  std::vector<char> fixed_bits(lanes.size());
  for (char& b : fixed_bits) b = pattern_rng.next_bool() ? 1 : 0;

  const TraceTask task = [&](PowerSimulator& sim, Rng& rng,
                             std::uint64_t i) {
    return generic_tvla_trace(sim, rng, lanes, fixed_bits, setup,
                              tvla_fixed(i));
  };
  r.tvla =
      run_tvla_phase(model, cache, "tvla-lanes", setup, differential, task);
  r.trace_cache_hits = cache.hits;
  r.trace_cache_misses = cache.misses;
  return r;
}

LeakageReport assess_tvla_leakage(const Netlist& nl, const CapTable& caps,
                                  bool differential,
                                  const LeakageSetup& setup) {
  PowerSimOptions opts;
  opts.precharge_inputs = differential;
  const CompiledSimModel model(nl, caps, opts);
  return assess_tvla_leakage(model, differential, setup);
}

}  // namespace secflow
