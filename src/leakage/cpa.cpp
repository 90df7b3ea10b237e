#include "leakage/cpa.h"

#include <algorithm>
#include <utility>

#include "base/error.h"

namespace secflow {
namespace {

// Fold traces [begin, end) serially in index order into a fresh
// accumulator.  Shared by the sharded batch path and the streaming MTD
// path so both produce the same in-shard update order.
CpaAccumulator accumulate_shard(const std::vector<CpaMeasurement>& traces,
                                std::size_t begin, std::size_t end,
                                const HypothesisFn& hypothesis,
                                int n_guesses, int n_samples) {
  CpaAccumulator acc(n_guesses, n_samples);
  std::vector<double> hyp(static_cast<std::size_t>(n_guesses));
  for (std::size_t i = begin; i < end; ++i) {
    const CpaMeasurement& m = traces[i];
    SECFLOW_CHECK(m.samples.size() == static_cast<std::size_t>(n_samples),
                  "CPA trace " + std::to_string(i) + ": " +
                      std::to_string(m.samples.size()) +
                      " samples, expected " + std::to_string(n_samples));
    for (int g = 0; g < n_guesses; ++g) {
      hyp[static_cast<std::size_t>(g)] =
          hypothesis(m.ct, m.prev_ct, static_cast<std::uint32_t>(g));
    }
    acc.add(m.samples.data(), hyp.data());
  }
  return acc;
}

}  // namespace

CpaAccumulator accumulate_cpa(const std::vector<CpaMeasurement>& traces,
                              const HypothesisFn& hypothesis,
                              const CpaOptions& opts) {
  SECFLOW_CHECK(!traces.empty(), "CPA: no traces to accumulate");
  SECFLOW_CHECK(opts.n_guesses > 1, "CPA needs at least 2 key guesses");
  const int n_samples = static_cast<int>(traces.front().samples.size());
  SECFLOW_CHECK(n_samples > 0, "CPA: empty trace");

  const std::size_t n_shards =
      (traces.size() + kLeakageShardTraces - 1) / kLeakageShardTraces;
  std::vector<CpaAccumulator> shards = parallel_map(
      n_shards, opts.parallelism, [&](std::size_t shard) {
        const std::size_t begin = shard * kLeakageShardTraces;
        const std::size_t end =
            std::min(begin + kLeakageShardTraces, traces.size());
        return accumulate_shard(traces, begin, end, hypothesis,
                                opts.n_guesses, n_samples);
      });
  // Serial ascending-order merge: the reduction tree never depends on the
  // thread count, so the result is bit-identical at any SECFLOW_THREADS.
  CpaAccumulator total = std::move(shards.front());
  for (std::size_t i = 1; i < shards.size(); ++i) total.merge(shards[i]);
  return total;
}

MtdResult estimate_mtd(const TraceFeeder& feeder,
                       const HypothesisFn& hypothesis,
                       std::uint32_t correct_key, const MtdOptions& mtd,
                       const CpaOptions& opts) {
  SECFLOW_CHECK(mtd.step > 0, "MTD step must be positive");
  SECFLOW_CHECK(mtd.max_traces >= mtd.step,
                "MTD budget smaller than one step");
  SECFLOW_CHECK(mtd.persist > 0, "MTD persist must be positive");

  MtdResult out;
  CpaAccumulator acc;  // shaped on the first batch
  bool have_shape = false;
  DisclosureRun run;
  for (int fed = 0; fed < mtd.max_traces;) {
    const int begin = fed;
    const int end = std::min(fed + mtd.step, mtd.max_traces);
    std::vector<CpaMeasurement> batch = feeder(begin, end);
    SECFLOW_CHECK(static_cast<int>(batch.size()) == end - begin,
                  "MTD feeder returned " + std::to_string(batch.size()) +
                      " traces for [" + std::to_string(begin) + ", " +
                      std::to_string(end) + ")");
    if (!have_shape) {
      SECFLOW_CHECK(!batch.front().samples.empty(), "MTD: empty trace");
      acc = CpaAccumulator(opts.n_guesses,
                           static_cast<int>(batch.front().samples.size()));
      have_shape = true;
    }
    // Streaming: each batch is folded via the same shard machinery, then
    // merged onto the running total in arrival (= index) order.
    CpaAccumulator batch_acc =
        accumulate_cpa(batch, hypothesis, opts);
    acc.merge(batch_acc);
    fed = end;
    out.traces_fed = fed;

    const GuessRanking ranking = rank_guesses(acc.scores());
    out.checkpoints.push_back(fed);
    out.ranks.push_back(ranking.rank_of(static_cast<int>(correct_key)));
    // Early stop once the run persisted: no need to burn the remaining
    // budget.  A run still alive at the budget is credited too (the budget
    // cut it short), the DPA checkpoints' persist-to-last rule.
    if (run.check(fed, ranking.disclosed(correct_key)) >= mtd.persist) break;
  }
  out.mtd = run.mtd();
  out.disclosed = out.mtd >= 0;
  return out;
}

bool mtd_exceeds(int later, int later_budget, int earlier) {
  if (earlier < 0) return false;  // earlier already hidden: nothing beats it
  if (later < 0) return later_budget >= earlier;
  return later > earlier;
}

}  // namespace secflow
