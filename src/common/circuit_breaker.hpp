// CircuitBreaker: the classic closed → open → half-open state machine,
// guarding the dispatch leader path against persistent downstream failure
// (DESIGN.md, "Failure domains").
//
//   closed     normal operation; consecutive failures are counted and
//              `failure_threshold` of them in a row trip the breaker open
//   open       requests are refused (the caller serves its degraded
//              fallback) until `cooldown_ms` elapses
//   half-open  one trial request is let through after the cooldown; success
//              closes the breaker, failure re-opens it and restarts the
//              cooldown
//
// Thread-safe behind one mutex — the breaker sits on the *cold* leader path
// (a cache miss that is about to run a model ranking or a search), never on
// the cache-hit fast path, so lock cost is irrelevant. Telemetry counters
// `breaker.opened` / `breaker.closed` / `breaker.half_open` record every
// transition; state()/opens() are for tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/thread_annotations.hpp"

namespace isaac {

struct CircuitBreakerConfig {
  /// Consecutive record_failure() calls (with no success between) that trip
  /// the breaker open.
  std::size_t failure_threshold = 3;
  /// How long the breaker stays open before probing with one trial request.
  double cooldown_ms = 250.0;
};

class CircuitBreaker {
 public:
  enum class State { closed, open, half_open };

  explicit CircuitBreaker(CircuitBreakerConfig config = {}, std::string name = "");

  /// May this request attempt the real operation? Closed: yes. Open: no,
  /// until the cooldown expires — then the breaker turns half-open and
  /// admits exactly one trial (the caller that got `true` must report back
  /// via record_success/record_failure). Half-open: no for everyone but the
  /// in-flight trial.
  bool allow_request();

  /// Report the outcome of an admitted request. A success closes the breaker
  /// and clears the failure streak; a failure feeds the streak (closed) or
  /// re-opens with a fresh cooldown (half-open trial failed).
  void record_success();
  void record_failure();

  State state() const;
  /// Times the breaker tripped open (including half-open re-opens).
  std::uint64_t opens() const;
  /// Consecutive failures recorded since the last success (diagnostic).
  std::size_t consecutive_failures() const;

  const CircuitBreakerConfig& config() const noexcept { return config_; }

 private:
  std::uint64_t now_us() const;
  void open_locked(std::uint64_t now) ISAAC_REQUIRES(mutex_);

  CircuitBreakerConfig config_;
  std::string name_;  // suffix for per-breaker telemetry ("" = anonymous)

  mutable sync::Mutex mutex_{lock_rank::Rank::breaker};
  State state_ ISAAC_GUARDED_BY(mutex_) = State::closed;
  // consecutive failures, since last success
  std::size_t failures_ ISAAC_GUARDED_BY(mutex_) = 0;
  // steady-clock stamp of the last open
  std::uint64_t opened_at_us_ ISAAC_GUARDED_BY(mutex_) = 0;
  // the half-open probe has been handed out
  bool trial_inflight_ ISAAC_GUARDED_BY(mutex_) = false;
  std::uint64_t opens_ ISAAC_GUARDED_BY(mutex_) = 0;
};

}  // namespace isaac
