// Parallel execution primitives for the attack engine's embarrassingly
// parallel hot loops (trace synthesis, DPA and CPA guess sweeps) and the
// campaign's job scheduler.
//
// Design rules, chosen so every caller stays bit-identical to its serial
// execution:
//  * work is split into index chunks claimed from a shared atomic cursor
//    (work stealing at chunk granularity — fast chunks steal the slow
//    ones' leftovers);
//  * each index writes only its own output slot, so the result never
//    depends on thread scheduling;
//  * stochastic tasks take an explicit per-index RNG stream split from a
//    master seed (see Rng::stream) instead of sharing one generator.
//
// Thread count resolution order: explicit Parallelism::n_threads, then
// the SECFLOW_THREADS environment variable, then hardware concurrency.
// Nested parallel_for calls run serially inline on the caller's thread,
// which keeps pool workers non-blocking and the pool deadlock-free.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace secflow {

/// Per-call parallelism knob carried by the option structs of every
/// parallelized engine (DesDpaSetup, LeakageSetup, ...).
struct Parallelism {
  /// Threads to use; 0 = auto (SECFLOW_THREADS env var, else hardware).
  int n_threads = 0;

  /// The thread count this request resolves to (always >= 1).
  int resolved_threads() const;
};

/// Threads implied by SECFLOW_THREADS / hardware (the `n_threads = 0`
/// resolution, cached after the first call).
int default_thread_count();

/// A lazily grown pool of worker threads shared process-wide.  Tasks must
/// never block on other pool tasks: parallel_for guarantees this by
/// running nested calls inline.
class ThreadPool {
 public:
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue one task for any idle worker.
  void submit(std::function<void()> task);

  /// Grow the pool so at least `n` workers exist (no-op if already there).
  void ensure_workers(int n);

  int n_workers() const;

  /// True when the calling thread is one of this pool's workers.
  bool on_worker_thread() const;

  /// The process-wide shared pool.
  static ThreadPool& global();

 private:
  ThreadPool() = default;
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

/// Run body(begin, end) over disjoint chunks covering [0, n).  Chunks are
/// claimed dynamically; the caller participates, so the call completes
/// even with zero pool workers.  The first exception thrown by any chunk
/// is rethrown on the caller after all workers quiesce.
void parallel_for(std::size_t n, const Parallelism& par,
                  const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace secflow
