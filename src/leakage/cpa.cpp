#include "leakage/cpa.h"

#include <algorithm>

#include "base/error.h"

namespace secflow {

void fold_cpa(CpaAccumulator& acc, std::span<const CpaMeasurement> traces,
              const HypothesisFn& hypothesis, const Parallelism& par) {
  const std::size_t n_guesses = static_cast<std::size_t>(acc.n_guesses());
  std::vector<const double*> samples(traces.size());
  std::vector<double> hyp(traces.size() * n_guesses);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const CpaMeasurement& m = traces[i];
    SECFLOW_CHECK(m.samples.size() == static_cast<std::size_t>(acc.n_samples()),
                  "CPA trace " + std::to_string(acc.n() + i) + ": " +
                      std::to_string(m.samples.size()) +
                      " samples, expected " +
                      std::to_string(acc.n_samples()));
    samples[i] = m.samples.data();
    for (std::size_t g = 0; g < n_guesses; ++g) {
      hyp[i * n_guesses + g] =
          hypothesis(m.ct, m.prev_ct, static_cast<std::uint32_t>(g));
    }
  }
  acc.fold(traces.size(), samples.data(), hyp.data(), par);
}

MtdTracker::MtdTracker(const MtdOptions& opts, std::uint32_t correct_key)
    : opts_(opts), correct_key_(correct_key) {
  SECFLOW_CHECK(opts.step > 0, "MTD step must be positive");
  SECFLOW_CHECK(opts.max_traces >= opts.step,
                "MTD budget smaller than one step");
}

int MtdTracker::next_checkpoint() const {
  return std::min(result_.traces_fed + opts_.step, opts_.max_traces);
}

void MtdTracker::check(const CpaAccumulator& acc) {
  const int traces = next_checkpoint();
  SECFLOW_CHECK(!done_, "MTD run already done");
  SECFLOW_CHECK(acc.n() == static_cast<std::uint64_t>(traces),
                "MTD checkpoint at " + std::to_string(traces) +
                    " traces, accumulator holds " + std::to_string(acc.n()));
  const GuessRanking ranking = rank_guesses(acc.scores());
  result_.traces_fed = traces;
  result_.checkpoints.push_back(traces);
  result_.ranks.push_back(ranking.rank_of(static_cast<int>(correct_key_)));
  // Early stop once the run persisted: no need to burn the remaining
  // budget.  A run still alive at the budget is credited too (the budget
  // cut it short), the DPA checkpoints' persist-to-last rule.
  const int run = run_.check(traces, ranking.disclosed(correct_key_));
  done_ = run >= kMtdPersist || traces >= opts_.max_traces;
  result_.mtd = run_.mtd();
  result_.disclosed = result_.mtd >= 0;
}

bool mtd_exceeds(int later, int later_budget, int earlier) {
  if (earlier < 0) return false;  // earlier already hidden: nothing beats it
  if (later < 0) return later_budget >= earlier;
  return later > earlier;
}

}  // namespace secflow
