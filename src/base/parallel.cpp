#include "base/parallel.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "base/error.h"

namespace secflow {
namespace {

/// Set while a pool worker executes a task; parallel_for uses it to run
/// nested invocations inline instead of waiting on the pool.
thread_local bool t_on_pool_worker = false;

int read_env_threads() {
  const char* env = std::getenv("SECFLOW_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  const long v = std::strtol(env, nullptr, 10);
  if (v < 1 || v > 1024) return 0;
  return static_cast<int>(v);
}

}  // namespace

int default_thread_count() {
  static const int count = [] {
    if (const int env = read_env_threads(); env > 0) return env;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return count;
}

int Parallelism::resolved_threads() const {
  if (n_threads > 0) return n_threads;
  return default_thread_count();
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::ensure_workers(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  SECFLOW_CHECK(n <= 1024, "unreasonable thread count");
  while (static_cast<int>(workers_.size()) < n) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

int ThreadPool::n_workers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

bool ThreadPool::on_worker_thread() const { return t_on_pool_worker; }

void ThreadPool::worker_loop() {
  t_on_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // tasks are noexcept wrappers built by parallel_for
  }
}

ThreadPool& ThreadPool::global() {
  // Leaked on purpose: worker threads may outlive static destruction
  // order, and the process exit reclaims everything anyway.
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

void parallel_for(std::size_t n, const Parallelism& par,
                  const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const int threads = par.resolved_threads();
  // Serial paths: single thread, one index, or nested inside a pool task
  // (running inline keeps workers non-blocking => no deadlock).
  if (threads <= 1 || n == 1 ||
      ThreadPool::global().on_worker_thread()) {
    body(0, n);
    return;
  }

  struct Control {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mu;
    std::mutex done_mu;
    std::condition_variable done_cv;
    int pending = 0;
  };
  auto ctl = std::make_shared<Control>();
  // Chunks several times smaller than a fair share let fast threads steal
  // from slow ones while keeping claim traffic low.
  const std::size_t chunk =
      n / (static_cast<std::size_t>(threads) * 8 + 1) + 1;

  auto run_chunks = [ctl, n, chunk, &body] {
    for (;;) {
      const std::size_t begin = ctl->next.fetch_add(chunk);
      if (begin >= n || ctl->failed.load(std::memory_order_relaxed)) return;
      try {
        body(begin, std::min(begin + chunk, n));
      } catch (...) {
        std::lock_guard<std::mutex> lock(ctl->error_mu);
        if (!ctl->error) ctl->error = std::current_exception();
        ctl->failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  const int helpers = threads - 1;
  ThreadPool& pool = ThreadPool::global();
  pool.ensure_workers(helpers);
  ctl->pending = helpers;
  for (int h = 0; h < helpers; ++h) {
    pool.submit([ctl, run_chunks] {
      run_chunks();
      {
        std::lock_guard<std::mutex> lock(ctl->done_mu);
        --ctl->pending;
      }
      ctl->done_cv.notify_one();
    });
  }
  run_chunks();  // the caller works too
  {
    std::unique_lock<std::mutex> lock(ctl->done_mu);
    ctl->done_cv.wait(lock, [&] { return ctl->pending == 0; });
  }
  if (ctl->error) std::rethrow_exception(ctl->error);
}

}  // namespace secflow
