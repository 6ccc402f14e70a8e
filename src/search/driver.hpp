// drive(): the one budgeted measure loop of runtime inference
// (core/inference.cpp). core::tune<Op>() ranks the legal space with the
// model (search/model_topk.hpp) and hands drive() the ranked winners, best
// first; drive() re-times them on the device. Tests hand it the exhaustive
// list of every legal point (tests/support/exhaustive_search.hpp), so their
// ground truth runs through this same loop.
//
// Budget semantics are exact: at most `budget` calls to `measure`, and
// exactly min(budget, list size). Anytime semantics fall out of the loop
// shape — every measured candidate reaches `sink` before the next batch, so
// aborting after any batch leaves a usable best-so-far.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "search/config.hpp"
#include "search/problem.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace isaac::search {

/// Re-time `list` in order until `config.budget` measured evaluations
/// (SIZE_MAX = the whole list). `config` is a resolved SearchConfig: besides
/// the budget, the loop honors its retry, deadline and cancellation fields.
/// `measure(tuning) -> double` is the expensive oracle;
/// `sink(entry, measured_gflops)` receives every result. Returns the number
/// of evaluations performed; `stopped_early` (optional) is set when a
/// deadline or cancellation cut the loop short.
///
/// The list is measured in batches in parallel on the global thread pool —
/// `measure` must be thread-safe. `sink` runs sequentially in list order
/// afterwards, so result accumulation stays single-threaded and
/// deterministic.
///
/// A `measure` throw is retried in place up to `measure_retries` times with
/// capped exponential backoff (`search.measure_retry` counts attempts); a
/// measurement still failing after its retries propagates to the caller (the
/// pool rethrows the lowest-index failure, so equal runs fail identically).
/// Results of the failing batch never reach `sink`, keeping anytime state
/// consistent with what the caller was told.
///
/// Deadline and cancellation are cooperative: polled before each batch, so a
/// drive stops with a complete batch's results sunk and its best-so-far
/// usable (`search.deadline_exceeded` / `search.cancelled` count the stops).
/// The deadline runs from drive()'s entry.
///
/// Model lifetime: the list's predicted GFLOPS come from one model — under
/// the online model lifecycle (DESIGN.md) the caller pins one
/// Context::model_snapshot() per search, which keeps the search.measure
/// results (the sink's (entry, gflops) stream, surfaced as TuneResult::top)
/// attributable to exactly one model version in the observation log.
template <typename Tuning, typename MeasureFn, typename SinkFn>
std::size_t drive(const std::vector<RankedTuning<Tuning>>& list, const SearchConfig& config,
                  const MeasureFn& measure, const SinkFn& sink, bool* stopped_early = nullptr) {
  // Batch: big enough to amortize parallel measurement, small enough that
  // deadlines and cancellation are polled often.
  constexpr std::size_t kBatch = 64;
  const std::size_t target = std::min(config.budget, list.size());
  // Wrap the oracle with bounded retry: a transient throw (an injected fault,
  // a flaky device) is retried in place after a capped exponential backoff;
  // the retried measurement is as deterministic as the original, so a retry
  // that succeeds yields the same score a fault-free run would have.
  const auto measure_with_retry = [&](const auto& tuning) {
    for (int attempt = 0;; ++attempt) {
      try {
        return measure(tuning);
      } catch (...) {
        ISAAC_TM_COUNT("fault.measure_failures");
        if (attempt >= config.measure_retries) throw;
        ISAAC_TM_COUNT("search.measure_retry");
        // ldexp doubles without an integer shift, so any retry count stays
        // defined: the factor saturates to +inf and the cap takes over.
        const double backoff_ms = std::min(config.retry_backoff_cap_ms,
                                           std::ldexp(config.retry_backoff_ms, attempt));
        if (backoff_ms > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(static_cast<std::int64_t>(backoff_ms * 1000.0)));
        }
      }
    }
  };
  const auto deadline = config.timeout_ms > 0.0
                            ? std::chrono::steady_clock::now() +
                                  std::chrono::microseconds(
                                      static_cast<std::int64_t>(config.timeout_ms * 1000.0))
                            : std::chrono::steady_clock::time_point::max();
  std::size_t measured = 0;
  std::vector<double> scores;
  while (measured < target) {
    if (config.cancelled()) {
      ISAAC_TM_COUNT("search.cancelled");
      if (stopped_early) *stopped_early = true;
      break;
    }
    if (config.timeout_ms > 0.0 && std::chrono::steady_clock::now() >= deadline) {
      ISAAC_TM_COUNT("search.deadline_exceeded");
      if (stopped_early) *stopped_early = true;
      break;
    }
    const std::size_t n = std::min<std::size_t>(kBatch, target - measured);
    const RankedTuning<Tuning>* batch = list.data() + measured;
    scores.assign(n, 0.0);
    const std::uint64_t t_measure = telemetry::enabled() ? telemetry::now_us() : 0;
    {
      telemetry::Span measure_span("search.measure");
      if (n > 1) {
        ThreadPool::global().parallel_for_each(n, [&](std::size_t i) {
          scores[i] = measure_with_retry(batch[i].tuning);
        });
      } else {
        scores[0] = measure_with_retry(batch[0].tuning);
      }
    }
    if (t_measure) {
      ISAAC_TM_RECORD("search.measure_us", telemetry::now_us() - t_measure);
      ISAAC_TM_COUNT_N("search.measured", n);
    }
    for (std::size_t i = 0; i < n; ++i) sink(batch[i], scores[i]);
    measured += n;
  }
  return measured;
}

}  // namespace isaac::search
