#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>

namespace secbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / double(v.size());
}

Quartiles quartiles(std::vector<double> v) {
  if (v.empty()) return {};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, j = i*m // 4
  // clamped to [1, n-1], delta = i*m - 4j,
  // q_i = (v[j-1] * (4 - delta) + v[j] * delta) / 4.
  const long n = static_cast<long>(v.size());
  const long m = n + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[j - 1] * double(4 - delta) + v[j] * double(delta)) / 4.0;
  }
  return {q[0], q[1], q[2]};
}

Tail tail_percentile(std::vector<double> v, int min_beyond) {
  Tail t;
  t.samples = static_cast<int>(v.size());
  if (v.empty()) return t;
  if (t.samples < 2 * min_beyond + 1) {
    t.value = median(v);
    t.percentile = 50.0;
    t.beyond = t.samples / 2;
    return t;
  }
  std::sort(v.begin(), v.end());
  const int rank = t.samples - min_beyond;  // 1-based
  t.value = v[static_cast<std::size_t>(rank - 1)];
  t.percentile = 100.0 * rank / t.samples;
  t.beyond = min_beyond;
  return t;
}

void check(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("check failed: " + what);
}

bool OpLog::run(const std::function<void()>& op) {
  ++attempted_;
  const double t0 = now_s();
  bool ok = false;
  try {
    op();
    ok = true;
  } catch (const std::exception& e) {
    last_error_ = e.what();
  } catch (...) {
    last_error_ = "unknown exception";
  }
  latencies_ms_.push_back((now_s() - t0) * 1e3);
  if (!ok) ++failed_;
  return ok;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t derive_seed(std::uint64_t seed, const std::string& label,
                          std::uint64_t index) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : label) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  std::uint64_t x = seed ^ h ^ (index * 0x9E3779B97F4A7C15ULL);
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

}  // namespace secbench
