// drive(): the one budgeted propose → measure loop of runtime inference
// (core/inference.cpp). It drives a SearchStrategy (search/strategy.hpp):
// ModelGuidedTopK at run time, the exhaustive reference in tests.
//
// Budget semantics are exact: at most `budget` calls to `measure`, and
// exactly `budget` whenever the strategy can keep supplying fresh legal
// candidates. Anytime semantics fall out of the loop shape — every measured
// candidate reaches `sink` before the next proposal round, so aborting after
// any iteration leaves a usable best-so-far.
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
#include "search/strategy.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace isaac::search {

/// Run `strategy` until `config.budget` measured evaluations (SIZE_MAX =
/// until the strategy is exhausted). `config` is a resolved SearchConfig:
/// besides the budget, the loop honors its retry, deadline and cancellation
/// fields. `measure(tuning) -> double` is the expensive oracle;
/// `sink(proposal, measured_gflops)` receives every result. Returns the
/// number of evaluations performed; `stopped_early` (optional) is set when a
/// deadline or cancellation cut the loop short.
///
/// A proposal batch is measured in parallel on the global thread pool —
/// `measure` must be thread-safe. `sink` runs sequentially in proposal order
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
/// Deadline and cancellation are cooperative: polled between batches, so a
/// drive stops with a complete batch's results sunk and its best-so-far
/// usable (`search.deadline_exceeded` / `search.cancelled` count the stops).
///
/// Model lifetime: any model the strategy's problem references must stay
/// alive and unchanged for the whole drive() — under the online model
/// lifecycle (DESIGN.md) the caller pins one Context::model_snapshot() per
/// search, which also keeps the search.measure results (the sink's
/// (proposal, gflops) stream, surfaced as TuneResult::top) attributable to
/// exactly one model version in the observation log.
template <typename Op, typename MeasureFn, typename SinkFn>
std::size_t drive(SearchStrategy<Op>& strategy, const SearchConfig& config,
                  const MeasureFn& measure, const SinkFn& sink, bool* stopped_early = nullptr) {
  // Proposal batch: big enough to amortize parallel measurement, small
  // enough that deadlines and cancellation are polled often.
  constexpr std::size_t kBatch = 64;
  // Clamp to |X̂|: measuring more evaluations than the space has distinct
  // points is never useful.
  const std::size_t target =
      std::min<std::size_t>(config.budget, std::max<std::size_t>(strategy.space_points(), 1));
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
    if (config.cancel && config.cancel->load(std::memory_order_relaxed)) {
      ISAAC_TM_COUNT("search.cancelled");
      if (stopped_early) *stopped_early = true;
      break;
    }
    if (config.timeout_ms > 0.0 && std::chrono::steady_clock::now() >= deadline) {
      ISAAC_TM_COUNT("search.deadline_exceeded");
      if (stopped_early) *stopped_early = true;
      break;
    }
    const std::size_t want = std::min<std::size_t>(kBatch, target - measured);
    const std::uint64_t t_propose = telemetry::enabled() ? telemetry::now_us() : 0;
    auto proposals = [&] {
      telemetry::Span propose_span("search.propose");
      return strategy.propose(want);
    }();
    if (t_propose) {
      ISAAC_TM_RECORD("search.propose_us", telemetry::now_us() - t_propose);
      ISAAC_TM_COUNT_N("search.proposed", proposals.size());
    }
    if (proposals.empty()) break;
    if (proposals.size() > want) proposals.resize(want);  // never overspend
    scores.assign(proposals.size(), 0.0);
    const std::uint64_t t_measure = telemetry::enabled() ? telemetry::now_us() : 0;
    {
      telemetry::Span measure_span("search.measure");
      if (proposals.size() > 1) {
        ThreadPool::global().parallel_for_each(proposals.size(), [&](std::size_t i) {
          scores[i] = measure_with_retry(proposals[i].tuning);
        });
      } else {
        scores[0] = measure_with_retry(proposals[0].tuning);
      }
    }
    if (t_measure) {
      ISAAC_TM_RECORD("search.measure_us", telemetry::now_us() - t_measure);
      ISAAC_TM_COUNT_N("search.measured", proposals.size());
    }
    for (std::size_t i = 0; i < proposals.size(); ++i) {
      sink(proposals[i], scores[i]);
      ++measured;
    }
  }
  return measured;
}

}  // namespace isaac::search
