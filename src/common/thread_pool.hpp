// Fixed-size worker pool with a blocking parallel_for.
//
// The pool is the only threading primitive in the repo: the functional kernel
// executors iterate GPU thread-blocks over it, the runtime inference scores
// candidate kernels over it, and the online retrainer runs each warm-start
// fit as one task on it (training itself is serial). parallel_for captures chunk exceptions and rethrows the first (by
// index order) on the calling thread; an exception escaping a bare submit()
// task has no caller to deliver to, so the worker swallows it and counts
// `pool.task_exceptions` instead of letting the unwind terminate the process.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"

namespace isaac {

class ThreadPool {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue fire-and-forget work. Prefer parallel_for for data parallelism.
  void submit(std::function<void()> task);

  /// Run fn(begin, end) over [0, n) split into roughly pool-size chunks and
  /// block until all chunks finish. The calling thread participates, so
  /// parallel_for(n, ...) with a 1-thread pool degrades to a serial loop.
  /// No chunk holds fewer than `grain` items (n < grain makes one chunk of
  /// n); when that leaves one chunk, it runs on the calling thread and
  /// nothing is queued.
  /// The first exception thrown by any chunk is rethrown here.
  void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
                    std::size_t grain = 1);

  /// Convenience: per-index body.
  void parallel_for_each(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Process-wide pool sized from ISAAC_THREADS (default: hardware).
  static ThreadPool& global();

 private:
  void worker_loop();

  /// The enqueue timestamp rides in the queue entry (0 = telemetry off at
  /// submit time) so the queue-delay histogram needs no wrapping closure —
  /// the enabled path costs two clock reads, never an extra allocation.
  struct Task {
    std::function<void()> fn;
    std::uint64_t enqueue_us = 0;
  };

  std::vector<std::thread> workers_;
  sync::Mutex mutex_{lock_rank::Rank::pool};
  sync::CondVar cv_;
  std::queue<Task> queue_ ISAAC_GUARDED_BY(mutex_);
  bool stop_ ISAAC_GUARDED_BY(mutex_) = false;
};

}  // namespace isaac
