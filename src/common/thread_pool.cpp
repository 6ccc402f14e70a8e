#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace isaac {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    sync::MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  std::uint64_t enqueue_us = 0;
  if (telemetry::enabled()) {
    ISAAC_TM_COUNT("pool.submitted");
    static telemetry::Gauge& g_size = telemetry::gauge("pool.size");
    g_size.set(static_cast<std::int64_t>(size()));
    enqueue_us = telemetry::now_us();
  }
  {
    sync::MutexLock lock(mutex_);
    queue_.push(Task{std::move(task), enqueue_us});
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  while (true) {
    Task task;
    {
      sync::MutexLock lock(mutex_);
      // Explicit predicate loop: the lambda overload of wait() would hide the
      // guarded stop_/queue_ reads from the thread-safety analysis.
      while (!stop_ && queue_.empty()) cv_.wait(mutex_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    if (task.enqueue_us) {
      ISAAC_TM_RECORD("pool.queue_delay_us", telemetry::now_us() - task.enqueue_us);
    }
    try {
      task.fn();
    } catch (...) {
      // A task that throws across the pool boundary has nowhere to deliver
      // its exception — without this catch the unwind would std::terminate
      // the whole process. parallel_for routes errors through its own
      // exception_ptr channel; for bare submit() tasks, count and drop.
      ISAAC_TM_COUNT("pool.task_exceptions");
    }
  }
}

namespace {

/// Shared between the caller and any helper tasks still queued in the pool.
/// Helpers hold a shared_ptr, so a task that wakes up after the caller has
/// already collected the results finds the state alive (it simply sees all
/// chunks claimed and exits).
struct ParallelForState {
  std::size_t n = 0;
  std::size_t chunks = 0;
  std::function<void(std::size_t, std::size_t)> fn;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  sync::Mutex done_mutex{lock_rank::Rank::leaf};
  sync::CondVar done_cv;
  sync::Mutex error_mutex{lock_rank::Rank::leaf};
  std::exception_ptr first_error ISAAC_GUARDED_BY(error_mutex);
  std::size_t first_error_chunk ISAAC_GUARDED_BY(error_mutex) = 0;

  /// First index of chunk c: the chunks are near-equal, the first
  /// n mod chunks of them one index longer than the rest.
  std::size_t begin_of(std::size_t c) const { return c * (n / chunks) + std::min(c, n % chunks); }

  void run_chunks() {
    while (true) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) break;
      const std::size_t begin = begin_of(c);
      const std::size_t end = begin_of(c + 1);
      try {
        fn(begin, end);
      } catch (...) {
        // First error *by index order* wins, not by wall-clock race: the
        // caller sees the same exception no matter how chunks interleave.
        sync::MutexLock lock(error_mutex);
        if (!first_error || c < first_error_chunk) {
          first_error = std::current_exception();
          first_error_chunk = c;
        }
      }
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        sync::MutexLock lock(done_mutex);
        done_cv.notify_all();
      }
    }
  }
};

}  // namespace

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t, std::size_t)>& fn,
                              std::size_t grain) {
  if (n == 0) return;
  ISAAC_TM_COUNT("pool.parallel_for");
  // Oversubscribe chunks 4x so uneven work (e.g. predicated edge blocks in the
  // functional executors) balances across workers, but never below the
  // caller's grain: a chunk too small to pay for its queue hop runs inline.
  // ⌊n / length⌋ near-equal chunks leave no short tail below the grain.
  const std::size_t want_chunks = std::max<std::size_t>(1, size() * 4);
  const std::size_t length =
      std::max({std::size_t{1}, grain, (n + want_chunks - 1) / want_chunks});
  const std::size_t chunks = std::max<std::size_t>(1, n / length);

  if (chunks == 1) {
    fn(0, n);
    return;
  }

  auto state = std::make_shared<ParallelForState>();
  state->n = n;
  state->chunks = chunks;
  state->fn = fn;

  // Hand one task per worker; the calling thread also drains chunks so the
  // pool cannot deadlock when parallel_for is called from inside a task.
  const std::size_t helpers = std::min(chunks - 1, size());
  for (std::size_t i = 0; i < helpers; ++i) {
    submit([state] { state->run_chunks(); });
  }
  state->run_chunks();

  {
    sync::MutexLock lock(state->done_mutex);
    while (state->done.load(std::memory_order_acquire) != state->chunks) {
      state->done_cv.wait(state->done_mutex);
    }
  }
  // first_error is guarded: a helper that lost the done-count race may still
  // be inside its catch block, so read under the lock (finding from the
  // annotation pass — the old code read it bare).
  std::exception_ptr err;
  {
    sync::MutexLock lock(state->error_mutex);
    err = state->first_error;
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::parallel_for_each(std::size_t n, const std::function<void(std::size_t)>& fn) {
  parallel_for(n, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("ISAAC_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<std::size_t>(v);
    }
    return std::size_t{0};
  }());
  return pool;
}

}  // namespace isaac
