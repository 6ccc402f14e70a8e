// ISAAC public API — the input-aware auto-tuning framework of the paper,
// end to end (Figure 1): kernel generation → data generation → regression →
// runtime inference, wrapped in a Context bound to one (simulated) device.
//
// Typical use (see examples/quickstart.cpp):
//
//   isaac::core::Context ctx(isaac::gpusim::tesla_p100());
//   ctx.train_model();                       // hours on a real GPU, seconds here
//   isaac::codegen::GemmShape shape{...};
//   auto info = ctx.run<isaac::core::GemmOp>(shape, 1.0f, A, lda, B, ldb, 0.0f, C, ldc);
//   // C now holds the product; info reports the selected kernel + timing.
//
// The Context is safe to share across threads: the profile cache is sharded
// behind per-bucket shared mutexes, and concurrent misses on the same
// (device, shape) coalesce into a single-flight leader the other callers
// wait on. warmup<Op>() pre-tunes a shape list asynchronously on the thread
// pool.
//
// Dispatch is two-tier (the paper's point: runtime inference replaces
// on-the-fly measurement). A cold select() answers with the model's instant
// argmax — zero device measurements on the calling thread — stores the entry
// as *provisional*, and enqueues a background refinement that runs the
// configured full search and upgrades the entry in place. See DESIGN.md,
// "Two-tier dispatch".
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/circuit_breaker.hpp"
#include "common/thread_annotations.hpp"
#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "core/inference.hpp"
#include "core/operation.hpp"
#include "core/profile_cache.hpp"
#include "gpusim/simulator.hpp"
#include "mlp/regressor.hpp"
#include "mlp/versioned_model.hpp"
#include "telemetry/telemetry.hpp"
#include "tuning/collector.hpp"
#include "tuning/observation_log.hpp"
#include "tuning/online.hpp"

namespace isaac::core {

/// Online model lifecycle (DESIGN.md, "Online model lifecycle"): learn from
/// production measurements. Disabled by default — dispatch behavior is then
/// bit-identical to a fixed-model Context: no observations are recorded, no
/// retrain ever runs, and the installed model serves unchanged.
struct OnlineLearningOptions {
  bool enabled = false;
  /// Bounded in-memory observation ring; oldest records drop first.
  std::size_t log_capacity = 4096;
  /// "" = in-memory only; otherwise every observation is flock-appended to
  /// `log_dir/isaac_observations.txt` for durability and offline replay.
  std::string log_dir;
  /// Rolling model-vs-measured relative-error windows that trip retraining.
  tuning::DriftConfig drift;
  /// Fold + warm-start-train settings for the successor version.
  tuning::RetrainConfig retrain;
  /// Also retrain every N appended observations regardless of drift
  /// (0 = retrain only on drift trips or explicit request_retrain()).
  std::size_t retrain_every = 0;
};

/// Fault tolerance for the dispatch runtime (DESIGN.md, "Failure domains").
/// The defaults are live in every Context; with nothing failing, none of the
/// machinery does anything (the breaker stays closed, no refinement is shed).
struct FaultToleranceOptions {
  /// Consecutive leader-path failures (the tier-1 prediction throwing a
  /// runtime error) that trip the per-op circuit breaker open.
  std::size_t breaker_failure_threshold = 3;
  /// How long an open breaker refuses leaders before a half-open trial.
  double breaker_cooldown_ms = 250.0;
  /// Admission control: background refinements concurrently pending before
  /// new ones are shed (the key re-arms, so a later hit retries). 0 = off.
  std::size_t refine_max_pending = 64;
  /// A failing refinement is retried this many times in total; further hits
  /// inside the reset window are dropped without re-enqueueing.
  int refine_max_attempts = 2;
  /// After this long without a new failure, a dropped key's attempt count
  /// resets — the fault storm may have passed, so refinement gets another go.
  double refine_retry_reset_ms = 1000.0;
  /// Deadline handed to background refinement searches (SearchConfig::
  /// timeout_ms): the anytime result is kept at expiry. 0 = no deadline.
  double refine_deadline_ms = 0.0;
  /// Re-probe interval for the disk-degraded profile cache / observation log.
  double disk_retry_ms = 1000.0;
};

struct ContextOptions {
  double noise_sigma = 0.03;       // simulated measurement noise
  std::uint64_t seed = 0x15AAC;
  std::string cache_dir;           // "" = in-memory profile cache only
  /// Budget and ranking knobs every tuning run dispatches through
  /// (zero-valued fields resolve against the op's
  /// OperationTraits::default_search()).
  search::SearchConfig search;
  /// Learn from production measurements: observation log, drift detection,
  /// warm-start retraining, hot model swaps. Off by default.
  OnlineLearningOptions online;
  /// Retry / breaker / admission-control knobs. Inert while nothing fails.
  FaultToleranceOptions fault;
};

/// What a tuned call reports back.
template <typename Op>
struct CallInfo {
  typename OperationTraits<Op>::Tuning tuning{};  // selected kernel
  double simulated_seconds = 0.0;                 // device-model execution time
  double gflops = 0.0;                            // useful FLOPs / simulated time
  bool from_cache = false;  // true when the kernel came out of an existing
                            // cache entry (disk, a previous call, or a
                            // concurrent leader) — provisional or refined;
                            // false when this call was the leader that
                            // produced the selection (a tier-1 prediction,
                            // or a seed-grid fallback while predicting
                            // fails)
  bool provisional = false;  // the served entry was a tier-1 model prediction
                             // whose background refinement has not landed yet
  bool fallback = false;  // the served entry is a seed-grid fallback minted
                          // while the leader path was failing (breaker open
                          // or the ranking threw); refinement will upgrade
                          // it once the fault clears
};

class Context {
 public:
  explicit Context(const gpusim::DeviceDescriptor& device, ContextOptions options = {});

  /// Blocks until every outstanding background task — warmup selections and
  /// two-tier refinements — has finished: they run on the global pool and
  /// reference this Context, so none may outlive it.
  ~Context();

  const gpusim::DeviceDescriptor& device() const noexcept { return sim_.device(); }
  const gpusim::Simulator& simulator() const noexcept { return sim_; }

  /// Run the paper's offline pipeline: collect benchmarking data on this
  /// device and train the input-aware regression model. `samples` trades
  /// model quality against tuning time (Fig. 5).
  void train_model(std::size_t samples = 8000, int epochs = 12);

  /// Install an externally trained / deserialized model: wraps it into the
  /// next VersionedModel (version = current + 1, provenance "install") and
  /// hot-swaps it in. Safe while other threads dispatch — they pinned a
  /// snapshot of the predecessor and finish their operation on it.
  void set_model(mlp::Regressor model);

  /// Hot-swap an externally built version in. The caller owns version
  /// assignment; Context's own producers derive current version + 1.
  void install_model(std::shared_ptr<const mlp::VersionedModel> model);

  /// Pin the current model for one operation. The returned snapshot is
  /// immutable and keeps the model alive across any concurrent hot swap —
  /// every dispatch-path reader (select, tune, background refinement,
  /// warmup) pins exactly one snapshot and scores its whole ranking against
  /// it, so a mid-flight swap never mixes two models in one decision.
  /// Returns nullptr when no model is installed.
  std::shared_ptr<const mlp::VersionedModel> model_snapshot() const noexcept;

  bool has_model() const noexcept { return model_snapshot() != nullptr; }

  /// Input-aware kernel selection (uncached; see run()/select() for the
  /// cached path). Requires a model.
  template <typename Op>
  TuneResult<typename OperationTraits<Op>::Tuning> tune(
      const typename OperationTraits<Op>::Shape& shape) {
    const auto snapshot = model_snapshot();
    if (!snapshot) throw std::logic_error("Context: no model trained or installed");
    return core::tune<Op>(shape, snapshot->regressor(), sim_, options_.search);
  }

  /// Tune (or fetch from cache), execute the selected kernel functionally on
  /// the host buffers through the op's executor hook, and report the
  /// simulated device timing. `args...` are forwarded to
  /// OperationTraits<Op>::execute after (shape, tuning).
  template <typename Op, typename... Args>
  CallInfo<Op> run(const typename OperationTraits<Op>::Shape& shape, Args&&... args) {
    CallInfo<Op> info;
    EntryTier tier = EntryTier::refined;
    info.tuning = select<Op>(shape, &info.from_cache, &tier);
    info.provisional = tier == EntryTier::provisional;
    info.fallback = tier == EntryTier::fallback;
    OperationTraits<Op>::execute(shape, info.tuning, std::forward<Args>(args)...);
    const auto timing =
        sim_.launch_median(OperationTraits<Op>::analyze(shape, info.tuning, sim_.device()), 3);
    info.simulated_seconds = timing.seconds;
    info.gflops = timing.tflops * 1000.0;
    return info;
  }

  /// Cached kernel selection with single-flight coalescing. A cache hit
  /// returns immediately. On a miss the first caller leads: it answers with
  /// the model's zero-measurement argmax, stores it provisional and hands the
  /// full search to a background refinement task, while concurrent callers
  /// for the same (device, shape) block only on that ranking-time
  /// prediction. Throws std::logic_error when no model is installed.
  /// `from_cache` (optional) reports whether this caller avoided leading;
  /// `tier` (optional) reports the served entry's tier.
  template <typename Op>
  typename OperationTraits<Op>::Tuning select(const typename OperationTraits<Op>::Shape& shape,
                                              bool* from_cache = nullptr,
                                              EntryTier* tier = nullptr);

  /// Pre-tune a list of shapes asynchronously on the global thread pool; the
  /// returned future becomes ready when every shape is cached (exceptional if
  /// any selection failed). "Cached" means at least provisional —
  /// refinements may still be in flight when the future resolves;
  /// drain_background() waits for those too. Dropping the future
  /// is safe: ~Context waits for outstanding background tasks before tearing
  /// the Context down.
  template <typename Op>
  std::future<void> warmup(std::vector<typename OperationTraits<Op>::Shape> shapes);

  /// Block until no warmup or refinement task is outstanding. After this,
  /// every entry whose refinement was pending has reached its final tier.
  void drain_background();

  /// Number of full tuning searches this Context's background refinements
  /// have completed (explicit tune<Op>() calls are not counted) — with
  /// single-flight dispatch and exactly-once refinement this converges to
  /// one per distinct cold shape once drained, no matter how many threads
  /// raced. Every other dispatch event (tier-1 predictions, upgrades,
  /// fallbacks, sheds, drops, swaps, retrains, drift trips) is counted once,
  /// process-wide, in its telemetry counter (DESIGN.md, "Runtime telemetry").
  std::size_t tuning_runs() const noexcept { return tuning_runs_.load(); }

  /// Background refinements currently pending (enqueued or running).
  std::size_t refinements_pending() const noexcept {
    return refine_pending_.load(std::memory_order_relaxed);
  }

  /// State of `kind`'s dispatch breaker (closed when the op never failed).
  CircuitBreaker::State breaker_state(std::string_view kind) {
    return breaker_for(kind).state();
  }

  ProfileCache& cache() noexcept { return cache_; }

  // ---- online model lifecycle (no-ops unless options.online.enabled) ----

  /// The bounded production-measurement log feeding retrains.
  tuning::ObservationLog& observation_log() noexcept { return observations_; }

  /// Ask for a retrain off the hot path: folds the current log into the
  /// dataset on the global pool and hot-swaps the successor version in.
  /// Returns false when one is already in flight or no model is installed.
  /// Needs online learning enabled but ignores drift state and
  /// retrain.min_observations-independent triggers — this is the "on
  /// demand" path.
  bool request_retrain();

  /// Synchronous retrain on the calling thread (deterministic tests and
  /// benches). Returns true when a successor version was swapped in.
  bool retrain_now();

  /// A background retrain is currently running.
  bool retrain_in_flight() const noexcept {
    return retrain_inflight_.load(std::memory_order_acquire);
  }

  /// Wall time of the most recent completed retrain, microseconds (0 = none).
  std::uint64_t last_retrain_us() const noexcept {
    return last_retrain_us_.load(std::memory_order_relaxed);
  }

 private:
  /// Enqueue the background refinement for `key` unless one is already
  /// pending (or already landed). The refining set is the exactly-once gate:
  /// whoever wins the insert owns the refinement; keys stay in the set after
  /// a successful upgrade so a stale "provisional" observation can never
  /// double-refine, and are erased on failure so a later hit may retry —
  /// bounded by refine_max_attempts per refine_retry_reset_ms window, and
  /// shed entirely when refine_max_pending tasks are already outstanding.
  template <typename Op>
  void maybe_refine(const std::string& key, const typename OperationTraits<Op>::Shape& shape);

  /// Run `task` on the global pool as a background task that ~Context and
  /// drain_background() wait for: it counts in background_pending_ from this
  /// call until its last step. That step decrements and notifies under the
  /// lock, so a destructor waiting on zero cannot resume (and free `this`)
  /// until the task's unlock, after which the task touches nothing of
  /// `this`.
  template <typename Task>
  void submit_background(Task task) {
    {
      sync::MutexLock lock(background_mutex_);
      ++background_pending_;
    }
    ThreadPool::global().submit([this, task = std::move(task)] {
      task();
      sync::MutexLock lock(background_mutex_);
      --background_pending_;
      background_cv_.notify_all();
    });
  }

  /// The degradation ladder's last sane rung: the first seed-grid entry legal
  /// for `shape` — no model, no measurement, no search, just the coarse grid
  /// every op guarantees. Throws std::runtime_error when no seed is legal
  /// (the shape is genuinely untunable; nothing left to degrade to).
  template <typename Op>
  typename OperationTraits<Op>::Tuning fallback_tuning(
      const typename OperationTraits<Op>::Shape& shape) const {
    using Traits = OperationTraits<Op>;
    for (const auto& t : Traits::seed_grid()) {
      if (Traits::validate(shape, t, sim_.device())) return t;
    }
    throw std::runtime_error(std::string("Context: no legal seed-grid fallback for ") +
                             Traits::kind() + " shape " + shape.to_string());
  }

  /// The per-op-kind dispatch breaker (created closed on first use). The map
  /// node is stable, so the returned reference stays valid for the Context's
  /// lifetime.
  CircuitBreaker& breaker_for(std::string_view kind);

  /// Fold a search's measured candidates into the observation log, feed the
  /// drift detector, and schedule a retrain when a trigger fires. Never
  /// throws (a lifecycle hiccup must not fail the dispatch that produced the
  /// measurements). No-op unless online learning is enabled.
  template <typename Op>
  void record_observations(const mlp::VersionedModel& model,
                           const typename OperationTraits<Op>::Shape& shape,
                           const TuneResult<typename OperationTraits<Op>::Tuning>& result);

  /// Trigger policy: schedule when drift tripped, or when retrain_every
  /// observations accumulated since the last retrain, gated on the log
  /// holding at least retrain.min_observations records.
  void maybe_schedule_retrain(bool drift_tripped);

  /// Steady-clock microseconds: the time base of the refinement backoff and
  /// the retrain backoff.
  static std::uint64_t steady_now_us();

  /// Exactly-once gate + pool submission; false when one is already pending.
  bool schedule_retrain();

  /// The retrain body: drain log → warm-start train → hot swap. Returns
  /// whether a successor was swapped in; always clears the in-flight gate.
  bool run_retrain(std::uint64_t parent_span);

  gpusim::Simulator sim_;
  ContextOptions options_;

  // The hot-swappable model slot. A plain mutex-guarded shared_ptr: readers
  // pin a snapshot once per operation (model_snapshot()), writers swap the
  // pointer; the old version dies when its last pinned reader drops it —
  // never mid-ranking, never under a lock.
  mutable sync::Mutex model_mutex_{lock_rank::Rank::model};
  std::shared_ptr<const mlp::VersionedModel> model_ ISAAC_GUARDED_BY(model_mutex_);

  ProfileCache cache_;

  // Single-flight state: key -> future completed once the key is in cache_.
  // refining_ holds keys whose background refinement is pending or done (see
  // maybe_refine). Acquisition order: inflight_mutex_ may be held while the
  // cache takes a shard lock (select()'s under-lock recheck), never the
  // reverse — rank inflight sits above cache_shard for exactly that edge.
  sync::Mutex inflight_mutex_{lock_rank::Rank::inflight};
  std::unordered_map<std::string, std::shared_future<void>> inflight_
      ISAAC_GUARDED_BY(inflight_mutex_);
  std::unordered_set<std::string> refining_ ISAAC_GUARDED_BY(inflight_mutex_);
  /// Retry-then-drop bookkeeping for failing refinements, guarded by
  /// inflight_mutex_ like the set above. attempts counts failures inside the
  /// current reset window; entries older than refine_retry_reset_ms are
  /// forgiven (the storm may have passed).
  struct RefineBackoff {
    int attempts = 0;
    std::uint64_t last_failure_us = 0;
  };
  std::unordered_map<std::string, RefineBackoff> refine_backoff_
      ISAAC_GUARDED_BY(inflight_mutex_);
  /// The reset-window rule: `backoff`'s failure streak is forgiven once
  /// refine_retry_reset_ms has passed since its last failure.
  bool backoff_expired(const RefineBackoff& backoff, std::uint64_t now_us) const {
    return now_us - backoff.last_failure_us >=
           static_cast<std::uint64_t>(options_.fault.refine_retry_reset_ms * 1000.0);
  }
  std::atomic<std::size_t> tuning_runs_{0};

  // Fault-tolerance state. One breaker per op kind: a conv-specific fault
  // (say, a poisoned conv ranking) must not degrade gemm dispatch.
  // breaker_map ranks above breaker: breaker_for() holds the map lock while
  // try_emplace runs each CircuitBreaker's constructor (which touches the
  // breaker's own mutex-guarded state only after construction, but the
  // ordering keeps "map lock outside any one breaker's lock" explicit).
  sync::Mutex breaker_mutex_{lock_rank::Rank::breaker_map};
  std::map<std::string, CircuitBreaker, std::less<>> breakers_
      ISAAC_GUARDED_BY(breaker_mutex_);
  std::atomic<std::size_t> refine_pending_{0};
  /// Set by ~Context before draining: background refinements poll it between
  /// search batches (SearchConfig::cancel) and abandon cooperatively, so
  /// teardown never waits out a long search or an injected hang.
  std::atomic<bool> cancel_requested_{false};
  std::atomic<std::uint64_t> retrain_backoff_until_us_{0};
  std::atomic<int> retrain_failures_{0};

  // Online model lifecycle state (inert when options_.online.enabled is
  // false: the log and detector are constructed but never fed).
  tuning::ObservationLog observations_;
  tuning::DriftDetector drift_;
  tuning::Retrainer retrainer_;
  std::atomic<bool> retrain_inflight_{false};
  std::atomic<std::uint64_t> last_retrain_us_{0};
  /// observations_.total_appended() when the last retrain was scheduled.
  std::atomic<std::uint64_t> last_retrain_mark_{0};

  // Outstanding background tasks — warmup selections, refinements and
  // retrains (they capture `this`); ~Context waits on zero.
  //
  // Documented order vs inflight_mutex_ (the ISSUE-10 finding): today no
  // thread holds both, but maybe_refine() and the refinement task acquire
  // them back-to-back in the order inflight → background-released →
  // background — so the declared order, should nesting ever become
  // necessary, is background OUTSIDE inflight (rank 60 > 50), and the
  // acquired_before attribute makes Clang enforce it the first time someone
  // nests them.
  sync::Mutex background_mutex_ ISAAC_ACQUIRED_BEFORE(inflight_mutex_){
      lock_rank::Rank::background};
  sync::CondVar background_cv_;
  std::size_t background_pending_ ISAAC_GUARDED_BY(background_mutex_) = 0;
};

template <typename Op>
typename OperationTraits<Op>::Tuning Context::select(
    const typename OperationTraits<Op>::Shape& shape, bool* from_cache, EntryTier* tier) {
  // Dispatch-lifecycle telemetry: one root span per select() with the
  // leader's predict/tune (and any background refinement it enqueues) linked
  // underneath, plus the latency histogram the serving benches report from.
  telemetry::Span select_span("dispatch.select");
  ISAAC_TM_COUNT("dispatch.select");
  struct LatencyProbe {
    std::uint64_t begin_us;
    LatencyProbe() : begin_us(telemetry::enabled() ? telemetry::now_us() : 0) {}
    ~LatencyProbe() {
      if (begin_us) ISAAC_TM_RECORD("dispatch.select_us", telemetry::now_us() - begin_us);
    }
  } latency_probe;

  const std::string& dev = device().name;
  EntryTier hit_tier = EntryTier::refined;
  if (const auto cached = cache_.lookup<Op>(dev, shape, &hit_tier)) {
    ISAAC_TM_COUNT("dispatch.hit");
    if (hit_tier != EntryTier::refined) {
      // Normally a no-op (the leader already owns the refinement); this
      // re-arms refinement for provisional entries loaded from disk, whose
      // producing process died before upgrading them, and for fallback
      // entries minted during a fault storm — each hit is another chance to
      // converge back to the refined tier once the fault clears.
      maybe_refine<Op>(ProfileCache::key<Op>(dev, shape), shape);
    }
    if (from_cache) *from_cache = true;
    if (tier) *tier = hit_tier;
    return *cached;
  }

  const std::string key = ProfileCache::key<Op>(dev, shape);
  for (;;) {
    std::promise<void> promise;
    std::shared_future<void> flight;
    bool leader = false;
    {
      // Holds inflight (rank 50) across a cache_.lookup that takes a shard
      // lock (rank 30) — the inflight → cache_shard edge in the rank table.
      sync::MutexLock lock(inflight_mutex_);
      // Re-check under the lock: a leader stores to cache before erasing its
      // flight, so a miss here plus an absent flight really means cold.
      if (const auto cached = cache_.lookup<Op>(dev, shape, &hit_tier)) {
        ISAAC_TM_COUNT("dispatch.hit_coalesced");
        if (from_cache) *from_cache = true;
        if (tier) *tier = hit_tier;
        return *cached;
      }
      const auto it = inflight_.find(key);
      if (it == inflight_.end()) {
        flight = promise.get_future().share();
        inflight_.emplace(key, flight);
        leader = true;
      } else {
        flight = it->second;
      }
    }

    if (leader) {
      std::optional<typename OperationTraits<Op>::Tuning> winner;
      EntryTier winner_tier = EntryTier::refined;
      std::exception_ptr error;
      CircuitBreaker& breaker = breaker_for(OperationTraits<Op>::kind());
      // Serve the seed-grid fallback: stored (so followers and future callers
      // hit), tiered `fallback`, and upgradeable by a later refinement.
      const auto serve_fallback = [&] {
        winner = fallback_tuning<Op>(shape);
        cache_.store<Op>(dev, shape, *winner,
                         ProfileCache::provenance("fallback", 0, EntryTier::fallback));
        ISAAC_TM_COUNT("breaker.fallbacks");
        winner_tier = EntryTier::fallback;
      };
      try {
        // One snapshot pin for the whole leader operation: a concurrent hot
        // swap cannot mix two model versions into one decision, and the
        // pinned version outlives the ranking no matter when the swap lands.
        const auto snapshot = model_snapshot();
        if (!snapshot) throw std::logic_error("Context: no model trained or installed");
        if (!breaker.allow_request()) {
          // Persistent-failure short circuit: don't even attempt the ranking
          // the last N leaders died in — serve the seed-grid fallback
          // instantly; it upgrades once the breaker lets a refinement
          // through again.
          ISAAC_TM_COUNT("breaker.short_circuit");
          serve_fallback();
        } else {
          try {
            // Tier 1: the model's argmax, zero measurements on this thread.
            telemetry::Span predict_span("select.predict");
            const auto pred = core::predict<Op>(shape, snapshot->regressor(), sim_.device(),
                                                options_.search);
            cache_.store<Op>(dev, shape, pred.tuning,
                             ProfileCache::provenance("predict", 0, EntryTier::provisional));
            ISAAC_TM_COUNT("dispatch.leader_predict");
            winner = pred.tuning;
            winner_tier = EntryTier::provisional;
            // Report before enqueueing the refinement: a leader holding the
            // half-open trial closes the breaker here, so maybe_refine is
            // admitted instead of finding the trial still taken.
            breaker.record_success();
            maybe_refine<Op>(key, shape);
          } catch (const std::runtime_error& e) {
            // A transient-class failure of the prediction: feed the
            // breaker, degrade to the seed-grid fallback instead of failing
            // the dispatch, and re-arm refinement so the entry upgrades once
            // the fault clears.
            // fallback_tuning itself throws when no seed is legal — that
            // (and any logic_error above) still propagates: "untunable
            // shape" and "no model" are caller bugs, not device faults.
            breaker.record_failure();
            ISAAC_TM_COUNT("fault.leader_failures");
            ISAAC_LOG_WARN() << "dispatch leader failed for " << key << " (" << e.what()
                             << "); serving seed-grid fallback";
            serve_fallback();
            maybe_refine<Op>(key, shape);
          }
        }
        promise.set_value();
      } catch (...) {
        error = std::current_exception();
        promise.set_exception(error);
      }
      {
        sync::MutexLock lock(inflight_mutex_);
        inflight_.erase(key);
      }
      if (error) std::rethrow_exception(error);
      if (from_cache) *from_cache = false;
      if (tier) *tier = winner_tier;
      return *winner;
    }

    {
      // Followers of the single flight wait here for the leader's ranking
      // time — span it so coalescing shows up in traces.
      telemetry::Span wait_span("select.wait");
      ISAAC_TM_COUNT("dispatch.follower_wait");
      flight.get();  // rethrows the leader's tuning failure
    }
    // The leader stored the result before completing the flight; loop back to
    // pick it up from the cache (it can only be a hit now).
  }
}

template <typename Op>
void Context::maybe_refine(const std::string& key,
                           const typename OperationTraits<Op>::Shape& shape) {
  if (!has_model()) return;
  if (cancel_requested_.load(std::memory_order_relaxed)) return;  // tearing down
  // While the op's breaker is open there is no point searching — the same
  // downstream fault that failed the leaders would fail the refinement.
  // allow_request() doubles as the recovery probe: after the cooldown it
  // hands out the half-open trial, and this refinement's outcome (reported
  // below) is what re-closes or re-opens the breaker.
  CircuitBreaker& breaker = breaker_for(OperationTraits<Op>::kind());
  if (!breaker.allow_request()) {
    ISAAC_TM_COUNT("refine.skipped_open");
    return;
  }
  const std::uint64_t now_us = steady_now_us();
  {
    sync::MutexLock lock(inflight_mutex_);
    const auto backoff = refine_backoff_.find(key);
    if (backoff != refine_backoff_.end()) {
      if (backoff_expired(backoff->second, now_us)) {
        // The reset window passed without a new failure: forgive the streak
        // and let refinement try again.
        refine_backoff_.erase(backoff);
      } else if (backoff->second.attempts >= options_.fault.refine_max_attempts) {
        return;  // dropped for now; the reset window re-arms it later
      }
    }
    if (!refining_.insert(key).second) return;  // pending or already landed
  }
  // Admission control: a fault storm that turns every dispatch into a
  // refinement candidate must not flood the pool (those workers also serve
  // warmups and retrains). Shed beyond the cap and re-arm the key — a later
  // hit on the still-provisional entry retries when the queue has drained.
  const std::size_t already_pending = refine_pending_.fetch_add(1, std::memory_order_acq_rel);
  if (options_.fault.refine_max_pending > 0 &&
      already_pending >= options_.fault.refine_max_pending) {
    refine_pending_.fetch_sub(1, std::memory_order_acq_rel);
    ISAAC_TM_COUNT("refine.shed");
    sync::MutexLock lock(inflight_mutex_);
    refining_.erase(key);
    return;
  }
  ISAAC_TM_COUNT("refine.enqueued");
  // Cross-thread span linkage: the refinement runs on a pool worker, so the
  // enqueuing dispatch's span id travels explicitly and the queue delay is
  // measured from here to the task's first instruction.
  const std::uint64_t parent_span = telemetry::current_span();
  const std::uint64_t enqueue_us =
      (telemetry::enabled() || telemetry::tracing()) ? telemetry::now_us() : 0;
  submit_background([this, key, shape, parent_span, enqueue_us] {
    const std::uint64_t begin_us = enqueue_us ? telemetry::now_us() : 0;
    if (begin_us) {
      ISAAC_TM_RECORD("refine.queue_us", begin_us - enqueue_us);
      telemetry::record_span("refine.queue", parent_span, enqueue_us, begin_us);
    }
    bool upgraded = false;
    bool failed = false;
    bool cancelled = false;
    {
      // Scoped so the span record lands in the ring *before* the completion
      // notification below: drain_background() returning must imply the
      // refinement's spans are observable in a snapshot.
      telemetry::Span run_span("refine.run", parent_span);
      try {
        // Chaos site: a refinement that wedges (driver hang, livelocked
        // measurement). The hang is cooperative — 1 ms slices bounded by the
        // refinement deadline and the teardown flag — and then surfaces as a
        // failure, exactly like a real watchdog expiry would.
        if (ISAAC_FAILPOINT_FIRED("refine.hang")) {
          ISAAC_TM_COUNT("refine.hang");
          const double hang_ms = options_.fault.refine_deadline_ms > 0.0
                                     ? options_.fault.refine_deadline_ms
                                     : 25.0;
          const auto hang_until = std::chrono::steady_clock::now() +
                                  std::chrono::microseconds(
                                      static_cast<std::int64_t>(hang_ms * 1000.0));
          while (std::chrono::steady_clock::now() < hang_until &&
                 !cancel_requested_.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          throw std::runtime_error("refinement hung past its deadline");
        }
        // Pin the version current *now* — possibly newer than the one whose
        // tier-1 prediction this task refines, which is fine: the refinement
        // is a fresh full search, internally consistent on its own pin, and
        // the pin keeps a concurrently swapped-out model alive until done
        // (the set_model() use-after-free this replaces).
        const auto snapshot = model_snapshot();
        if (!snapshot) throw std::logic_error("Context: model uninstalled mid-refinement");
        // Background searches run under the refinement deadline and the
        // Context's teardown flag: an anytime result at expiry still
        // upgrades, and ~Context never waits out a full search.
        search::SearchConfig refine_cfg = options_.search;
        refine_cfg.timeout_ms = options_.fault.refine_deadline_ms;
        refine_cfg.cancel = &cancel_requested_;
        const auto result = core::tune<Op>(shape, snapshot->regressor(), sim_, refine_cfg);
        upgraded = cache_.upgrade<Op>(device().name, shape, result.best.tuning,
                                      ProfileCache::provenance(kTuneSearchName,
                                                               result.measured,
                                                               EntryTier::refined));
        tuning_runs_.fetch_add(1, std::memory_order_relaxed);
        if (upgraded) {
          ISAAC_TM_COUNT("refine.upgraded");
        } else {
          ISAAC_TM_COUNT("refine.rejected");
        }
        record_observations<Op>(*snapshot, shape, result);
        breaker_for(OperationTraits<Op>::kind()).record_success();
      } catch (const TuneCancelled&) {
        // ~Context cancelled the search before it measured anything: an
        // outcome of teardown, not a fault of the shape or the device.
        cancelled = true;
        ISAAC_TM_COUNT("refine.cancelled");
      } catch (const std::exception& e) {
        failed = true;
        ISAAC_TM_COUNT("refine.failed");
        // The provisional/fallback entry stays live and functional; the
        // backoff bookkeeping below decides whether a later hit may retry.
        ISAAC_LOG_WARN() << "background refinement failed for " << key << ": " << e.what();
      } catch (...) {
        failed = true;
        ISAAC_TM_COUNT("refine.failed");
        ISAAC_LOG_WARN() << "background refinement failed for " << key;
      }
      if (failed) {
        // Report honestly only when this refinement held the breaker's
        // half-open trial: re-open it. A refinement failing while the
        // breaker is closed must NOT trip it — leaders may be serving
        // predictions just fine, and degrading them over a background
        // hiccup would be self-inflicted damage.
        CircuitBreaker& breaker = breaker_for(OperationTraits<Op>::kind());
        if (breaker.state() == CircuitBreaker::State::half_open) breaker.record_failure();
      }
      if (begin_us) ISAAC_TM_RECORD("refine.run_us", telemetry::now_us() - begin_us);
    }
    {
      sync::MutexLock lock(inflight_mutex_);
      if (cancelled) {
        refining_.erase(key);  // teardown: release the key, count no attempt
      } else if (failed) {
        refining_.erase(key);
        // Retry-then-drop: count this failure against the key's window. Under
        // the cap a later hit re-enqueues (refine.retry); at the cap the key
        // is dropped until the reset window forgives it (refine.dropped).
        auto& backoff = refine_backoff_[key];
        const std::uint64_t fail_us = steady_now_us();
        if (backoff_expired(backoff, fail_us)) backoff.attempts = 0;
        ++backoff.attempts;
        backoff.last_failure_us = fail_us;
        if (backoff.attempts >= options_.fault.refine_max_attempts) {
          ISAAC_TM_COUNT("refine.dropped");
        } else {
          ISAAC_TM_COUNT("refine.retry");
        }
      } else if (!upgraded) {
        // Succeeded but the entry was already refined (raced with another
        // producer): nothing to retry, leave the key owned.
      } else {
        refine_backoff_.erase(key);
      }
    }
    refine_pending_.fetch_sub(1, std::memory_order_acq_rel);
  });
}

template <typename Op>
std::future<void> Context::warmup(std::vector<typename OperationTraits<Op>::Shape> shapes) {
  struct WarmupState {
    std::atomic<std::size_t> remaining;
    std::promise<void> done;
    sync::Mutex error_mutex{lock_rank::Rank::leaf};
    std::exception_ptr first_error ISAAC_GUARDED_BY(error_mutex);
  };
  auto state = std::make_shared<WarmupState>();
  auto future = state->done.get_future();
  if (shapes.empty()) {
    state->done.set_value();
    return future;
  }
  state->remaining.store(shapes.size());
  ISAAC_TM_COUNT_N("warmup.shapes", shapes.size());
  for (auto& shape : shapes) {
    submit_background([this, state, shape = std::move(shape)] {
      try {
        select<Op>(shape);
      } catch (...) {
        sync::MutexLock lock(state->error_mutex);
        if (!state->first_error) state->first_error = std::current_exception();
      }
      if (state->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Read under the lock: the decrement orders "every task finished its
        // catch", but first_error is a guarded member and the lock is what
        // publishes the write (finding from the annotation pass — the old
        // code read it bare).
        std::exception_ptr err;
        {
          sync::MutexLock lock(state->error_mutex);
          err = state->first_error;
        }
        if (err) {
          state->done.set_exception(err);
        } else {
          state->done.set_value();
        }
      }
    });
  }
  return future;
}

template <typename Op>
void Context::record_observations(
    const mlp::VersionedModel& model, const typename OperationTraits<Op>::Shape& shape,
    const TuneResult<typename OperationTraits<Op>::Tuning>& result) {
  if (!options_.online.enabled) return;
  try {
    // result.top is exactly the search's measured set (every distinct
    // candidate `search.measure` timed, best first) — the (shape, tuning,
    // gflops) triples PR 3 used to throw away.
    bool appended = false;
    bool tripped = false;
    for (const auto& candidate : result.top) {
      if (!(candidate.measured_gflops > 0.0)) continue;
      tuning::Observation obs;
      obs.op = OperationTraits<Op>::kind();
      obs.features.resize(tuning::kNumFeatures);
      OperationTraits<Op>::featurize_into(shape, candidate.tuning, obs.features.data());
      obs.measured_gflops = candidate.measured_gflops;
      // The ranking scored every candidate with this pinned model.
      obs.predicted_gflops = candidate.predicted_gflops;
      obs.model_version = model.version();
      if (drift_.observe(obs.op, obs.predicted_gflops, obs.measured_gflops)) {
        tripped = true;
        ISAAC_TM_COUNT("model.drift_trips");
      }
      observations_.append(std::move(obs));
      appended = true;
    }
    if (appended) maybe_schedule_retrain(tripped);
  } catch (const std::exception& e) {
    ISAAC_LOG_WARN() << "observation recording failed: " << e.what();
  }
}

}  // namespace isaac::core
