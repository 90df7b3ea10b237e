// Tests of the benchmark's own helpers: quantiles, the tail rule, failure
// accounting and the process readers.
#include "stats.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

namespace secbench {
namespace {

std::vector<double> range(int lo, int hi) {
  std::vector<double> v;
  for (int i = lo; i <= hi; ++i) v.push_back(i);
  return v;
}

TEST(Stats, Median) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Stats, Mean) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({1, 2, 6}), 3.0);
}

// Reference values from Python's statistics.quantiles(v, n=4).
TEST(Stats, QuartilesMatchPython) {
  const Quartiles a = quartiles({3, 1, 2, 5, 4});
  EXPECT_DOUBLE_EQ(a.q1, 1.5);
  EXPECT_DOUBLE_EQ(a.q2, 3.0);
  EXPECT_DOUBLE_EQ(a.q3, 4.5);

  const Quartiles b = quartiles(range(1, 10));
  EXPECT_DOUBLE_EQ(b.q1, 2.75);
  EXPECT_DOUBLE_EQ(b.q2, 5.5);
  EXPECT_DOUBLE_EQ(b.q3, 8.25);

  // Two values: the exclusive method extrapolates past both ends.
  const Quartiles c = quartiles({1, 2});
  EXPECT_DOUBLE_EQ(c.q1, 0.75);
  EXPECT_DOUBLE_EQ(c.q2, 1.5);
  EXPECT_DOUBLE_EQ(c.q3, 2.25);

  const Quartiles one = quartiles({7});
  EXPECT_EQ(one.q1, 7.0);
  EXPECT_EQ(one.q3, 7.0);
}

TEST(Stats, TailIsHighestPercentileWithTenSamplesBeyond) {
  const Tail t = tail_percentile(range(1, 100));
  EXPECT_EQ(t.value, 90.0);
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.beyond, 10);
  EXPECT_EQ(t.samples, 100);

  const Tail u = tail_percentile(range(1, 1000));
  EXPECT_EQ(u.value, 990.0);
  EXPECT_DOUBLE_EQ(u.percentile, 99.0);
  EXPECT_EQ(u.beyond, 10);

  // 21 samples is the least that puts the rank above the median.
  const Tail v = tail_percentile(range(1, 21));
  EXPECT_EQ(v.value, 11.0);
  EXPECT_EQ(v.beyond, 10);
  EXPECT_EQ(v.samples, 21);
}

TEST(Stats, TailFallsBackToMedianOnFewSamples) {
  const Tail t = tail_percentile(range(1, 20));
  EXPECT_EQ(t.value, 10.5);
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.beyond, 10);
  EXPECT_EQ(t.samples, 20);

  const Tail u = tail_percentile({5.0, 1.0, 3.0});
  EXPECT_EQ(u.value, 3.0);
  EXPECT_EQ(u.beyond, 1);
  EXPECT_EQ(u.samples, 3);

  EXPECT_EQ(tail_percentile({}).samples, 0);
}

TEST(OpLog, ThrowingAndFailedChecksCountWithoutStoppingTheRun) {
  OpLog log;
  EXPECT_TRUE(log.run([] {}));
  EXPECT_FALSE(log.run([] { throw std::runtime_error("router gave up"); }));
  EXPECT_EQ(log.last_error(), "router gave up");
  EXPECT_FALSE(log.run([] { check(false, "LEC"); }));
  EXPECT_EQ(log.last_error(), "check failed: LEC");
  EXPECT_FALSE(log.run([] { throw 42; }));
  EXPECT_TRUE(log.run([] { check(true, "unused"); }));

  EXPECT_EQ(log.attempted(), 5);
  EXPECT_EQ(log.failed(), 3);
  EXPECT_DOUBLE_EQ(log.fail_ratio(), 0.6);
  EXPECT_EQ(log.latencies_ms().size(), 5u);
  for (double ms : log.latencies_ms()) EXPECT_GE(ms, 0.0);
}

TEST(OpLog, EmptyLogHasZeroFailRatio) {
  EXPECT_EQ(OpLog{}.fail_ratio(), 0.0);
}

TEST(Readers, CpuTimeGrowsWithWork) {
  const double c0 = process_cpu_s();
  const double t0 = now_s();
  volatile double sink = 0;
  while (now_s() - t0 < 0.2) sink = sink + 1.0;
  const double used = process_cpu_s() - c0;
  EXPECT_GT(used, 0.1);
  EXPECT_LT(used, 1.0);
}

TEST(Readers, PeakRssSeesTouchedMemory) {
  const double before = peak_rss_mib();
  EXPECT_GT(before, 0.0);
  constexpr std::size_t kBytes = std::size_t{96} << 20;
  const auto buf = std::make_unique<char[]>(kBytes);
  std::memset(buf.get(), 1, kBytes);
  EXPECT_EQ(buf[kBytes - 1], 1);
  EXPECT_GE(peak_rss_mib(), before + 64.0);
}

TEST(Seeds, DeriveIsStableAndSeparatesLabelsAndIndices) {
  EXPECT_EQ(derive_seed(1, "place", 3), derive_seed(1, "place", 3));
  EXPECT_NE(derive_seed(1, "place", 3), derive_seed(1, "place", 4));
  EXPECT_NE(derive_seed(1, "place"), derive_seed(1, "dpa"));
  EXPECT_NE(derive_seed(1, "place"), derive_seed(2, "place"));
  EXPECT_NE(derive_seed(0, ""), 0u);
}

}  // namespace
}  // namespace secbench
