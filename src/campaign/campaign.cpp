#include "campaign/campaign.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <unordered_map>

#include "base/error.h"
#include "crypto/des.h"
#include "liberty/builtin_lib.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sca/dpa_experiment.h"
#include "synth/hdl.h"

namespace secflow {
namespace {

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

AigCircuit elaborate_circuit(const CircuitSource& src) {
  switch (src.kind) {
    case CircuitSourceKind::kBuiltinDesDpa: return make_des_dpa_circuit();
    case CircuitSourceKind::kHdlText: return parse_hdl(src.text);
    case CircuitSourceKind::kHdlFile: return parse_hdl_file(src.text);
  }
  throw Error("campaign: unknown circuit source kind");
}

/// One circuit source, elaborated once for every job that names it.
struct Elaborated {
  std::shared_ptr<const AigCircuit> circuit;  ///< null when elaboration failed
  std::string error;
};

Elaborated elaborate(const CircuitSource& src) {
  try {
    return {std::make_shared<const AigCircuit>(elaborate_circuit(src)), ""};
  } catch (const std::exception& e) {
    return {nullptr, e.what()};
  }
}

/// Everything the scheduler precomputes about one job before launch.
struct PreparedJob {
  const CampaignJob* job = nullptr;
  FlowOptions options;  ///< spec overrides + engine cache_dir
  std::shared_ptr<const AigCircuit> circuit;  ///< null when not elaborated
  std::string prepare_error;
  std::array<std::uint64_t, kNumFlowStages> keys{};  ///< 0 = stage not run
};

PreparedJob prepare_job(const CampaignJob& job, const CampaignSpec& spec,
                        const CellLibrary& library, const Elaborated& src) {
  PreparedJob p;
  p.job = &job;
  p.options = job.options;
  p.options.cache_dir = spec.cache_dir;
  p.circuit = src.circuit;
  p.prepare_error = src.error;
  if (!p.circuit) return p;
  try {
    p.keys = compute_stage_keys(job.flow, *p.circuit, library, p.options);
    // Stages past stop_after never run, so they neither produce nor
    // consume checkpoints — drop them from the dependency analysis.
    if (p.options.stop_after) {
      for (int i = static_cast<int>(*p.options.stop_after) + 1;
           i < kNumFlowStages; ++i) {
        p.keys[static_cast<std::size_t>(i)] = 0;
      }
    }
  } catch (const std::exception& e) {
    p.prepare_error = e.what();
  }
  return p;
}

void run_dpa(const CampaignJob& job, const Netlist& nl, const CapTable& caps,
             FlowReport& report) {
  const DesDpaCampaign dpa = run_des_dpa_campaign(
      nl, caps, job.dpa, /*differential=*/job.flow == FlowKind::kSecure);
  attach_dpa(report, dpa.dpa.analyze(job.dpa.key), dpa.cycle_energies_pj);
}

/// One job, start to finish, with every failure folded into the outcome.
JobOutcome execute_job(const PreparedJob& p,
                       std::shared_ptr<const CellLibrary> library) {
  const CampaignJob& job = *p.job;
  JobOutcome out;
  out.name = job.name;
  Span span("campaign.job", "campaign");
  span.arg("job", job.name);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    SECFLOW_CHECK(p.prepare_error.empty(), p.prepare_error);
    if (job.flow == FlowKind::kRegular) {
      const RegularFlowResult r =
          run_regular_flow(*p.circuit, library, p.options);
      out.report = build_flow_report(r);
      out.artifacts = artifact_digests(r);
      if (job.has_dpa) run_dpa(job, r.rtl, r.caps, out.report);
    } else {
      const SecureFlowResult r =
          run_secure_flow(*p.circuit, library, p.options);
      out.report = build_flow_report(r);
      out.artifacts = artifact_digests(r);
      if (job.has_dpa) run_dpa(job, r.diff, r.caps, out.report);
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
    out.report = FlowReport{};
    out.artifacts.clear();
  }
  out.wall_ms = wall_ms_since(t0);
  span.arg("status", out.ok ? "ok" : "error");
  SECFLOW_LOG_INFO("campaign", "job done", LogField("job", job.name),
                   LogField("status", out.ok ? "ok" : "error"),
                   LogField("ms", out.wall_ms));
  return out;
}

}  // namespace

CampaignResult run_campaign(const CampaignSpec& spec,
                            std::shared_ptr<const CellLibrary> library) {
  spec.validate();
  if (!library) library = builtin_stdcell018();
  const std::size_t n = spec.jobs.size();
  const int max_concurrent = std::min(
      static_cast<int>(n), Parallelism{spec.threads}.resolved_threads());

  Span campaign_span("campaign.run", "campaign");
  campaign_span.arg("campaign", spec.name);
  SECFLOW_LOG_INFO("campaign", "campaign start",
                   LogField("campaign", spec.name),
                   LogField("jobs", static_cast<std::int64_t>(n)),
                   LogField("concurrency", max_concurrent));
  const auto t0 = std::chrono::steady_clock::now();

  // Phase 1: elaborate each distinct circuit source once, and compute
  // every job's key chain.
  std::map<std::pair<CircuitSourceKind, std::string>, Elaborated> sources;
  std::vector<PreparedJob> prepared;
  prepared.reserve(n);
  for (const CampaignJob& job : spec.jobs) {
    const auto [it, fresh] =
        sources.try_emplace({job.circuit.kind, job.circuit.text});
    if (fresh) it->second = elaborate(job.circuit);
    prepared.push_back(prepare_job(job, spec, *library, it->second));
  }

  // Phase 2: dependency edges.  The first job holding a stage key is its
  // producer; later holders wait for it, then hit the checkpoint store.
  // Without a cache directory there is nothing to share, so every job is
  // independent.  Producer indices always precede dependents (spec
  // order), so the graph is acyclic by construction.
  std::vector<std::vector<std::size_t>> dependents(n);
  std::vector<int> blockers(n, 0);
  if (!spec.cache_dir.empty()) {
    std::unordered_map<std::uint64_t, std::size_t> producer_of;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<std::size_t> waits;
      for (const std::uint64_t key : prepared[i].keys) {
        if (key == 0) continue;
        const auto [it, inserted] = producer_of.try_emplace(key, i);
        if (!inserted && it->second != i) waits.push_back(it->second);
      }
      std::sort(waits.begin(), waits.end());
      waits.erase(std::unique(waits.begin(), waits.end()), waits.end());
      for (const std::size_t producer : waits) {
        dependents[producer].push_back(i);
        ++blockers[i];
      }
    }
  }

  // Phase 3: execute.  Jobs run on pool workers, at most max_concurrent at
  // once, in ready order.  A worker that finishes a job goes on with the
  // next ready job itself; another worker is woken only for a ready job
  // that no running worker will take, and the caller only when the last
  // worker is done.  A wake-up waits for the sleeper's CPU, which on a
  // loaded host takes milliseconds at random, while a warm job takes a few
  // milliseconds in all.  Workers never wait on other jobs (the DAG is
  // tracked with counters), so the pool stays deadlock-free.
  CampaignResult result;
  result.campaign = spec.name;
  result.jobs.resize(n);

  struct Sched {
    std::mutex mu;
    std::condition_variable done_cv;
    std::vector<std::size_t> ready;
    int workers = 0;   ///< pool tasks submitted and not yet returned
    int starting = 0;  ///< of those, the ones that have not taken a job yet
    std::size_t completed = 0;
  } sched;

  for (std::size_t i = 0; i < n; ++i) {
    if (blockers[i] == 0) sched.ready.push_back(i);
  }

  ThreadPool& pool = ThreadPool::global();
  pool.ensure_workers(max_concurrent);

  // A worker runs ready jobs until none is left.  start_workers submits
  // one for each ready job that no worker is about to take, up to the cap.
  // Both run with sched.mu held; pool.submit takes only the pool's own
  // lock, so the lock order is acyclic.
  std::function<void()> work;
  const auto start_workers = [&] {
    while (sched.workers < max_concurrent &&
           sched.ready.size() > static_cast<std::size_t>(sched.starting)) {
      ++sched.workers;
      ++sched.starting;
      pool.submit(work);
    }
  };
  work = [&] {
    std::unique_lock<std::mutex> lock(sched.mu);
    --sched.starting;
    while (!sched.ready.empty()) {
      const std::size_t i = sched.ready.front();
      sched.ready.erase(sched.ready.begin());
      start_workers();
      lock.unlock();
      JobOutcome out = execute_job(prepared[i], library);
      lock.lock();
      result.jobs[i] = std::move(out);
      ++sched.completed;
      for (const std::size_t dep : dependents[i]) {
        if (--blockers[dep] == 0) sched.ready.push_back(dep);
      }
    }
    // With no worker left and nothing ready, every job is done: a job
    // still blocked would wait on an unfinished producer that is neither
    // running nor ready, and producers precede their dependents.
    if (--sched.workers == 0) sched.done_cv.notify_one();
  };

  {
    std::unique_lock<std::mutex> lock(sched.mu);
    start_workers();
    sched.done_cv.wait(lock, [&] { return sched.workers == 0; });
  }
  SECFLOW_CHECK(sched.completed == n, "campaign: scheduler stopped early");

  // Record who each job waited on (stable, spec-ordered names).
  for (std::size_t producer = 0; producer < n; ++producer) {
    for (const std::size_t dep : dependents[producer]) {
      result.jobs[dep].waited_on.push_back(spec.jobs[producer].name);
    }
  }

  for (const JobOutcome& out : result.jobs) {
    if (out.ok) {
      ++result.n_ok;
    } else {
      ++result.n_failed;
    }
  }
  result.wall_ms = wall_ms_since(t0);
  Metrics::global().add("campaign.jobs.ok",
                        static_cast<std::uint64_t>(result.n_ok));
  Metrics::global().add("campaign.jobs.failed",
                        static_cast<std::uint64_t>(result.n_failed));
  SECFLOW_LOG_INFO("campaign", "campaign done",
                   LogField("campaign", spec.name),
                   LogField("ok", result.n_ok),
                   LogField("failed", result.n_failed),
                   LogField("ms", result.wall_ms));
  return result;
}

}  // namespace secflow
