#include "core/isaac.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/logging.hpp"

namespace isaac::core {

namespace {

/// Runs the env wiring (ISAAC_LOG, ISAAC_TELEMETRY*, ISAAC_FAILPOINTS)
/// before any Context member — notably the profile cache, whose
/// load/compaction should already be observable (and chaos-injectable) —
/// constructs. Threaded through the first member initializer so the ordering
/// is structural, not incidental.
const gpusim::DeviceDescriptor& with_env_init(const gpusim::DeviceDescriptor& device) {
  log::init_from_env();
  telemetry::init_from_env();
  failpoint::init_from_env();
  return device;
}

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("ContextOptions: ") + what);
}

bool finite_nonneg(double v) { return std::isfinite(v) && v >= 0.0; }

/// Reject nonsense at construction with a message naming the field, instead
/// of letting a NaN cooldown or zero-capacity log surface as undefined
/// behavior deep inside dispatch.
void validate_options(const ContextOptions& o) {
  require(finite_nonneg(o.noise_sigma), "noise_sigma must be finite and >= 0");
  o.search.validate();
  const auto& f = o.fault;
  require(f.breaker_failure_threshold >= 1, "fault.breaker_failure_threshold must be >= 1");
  require(finite_nonneg(f.breaker_cooldown_ms), "fault.breaker_cooldown_ms must be >= 0");
  require(f.refine_max_attempts >= 1, "fault.refine_max_attempts must be >= 1");
  require(finite_nonneg(f.refine_retry_reset_ms), "fault.refine_retry_reset_ms must be >= 0");
  require(finite_nonneg(f.refine_deadline_ms), "fault.refine_deadline_ms must be >= 0");
  require(finite_nonneg(f.disk_retry_ms), "fault.disk_retry_ms must be >= 0");
  const auto& on = o.online;
  require(on.log_capacity >= 1, "online.log_capacity must be >= 1");
  require(std::isfinite(on.drift.threshold) && on.drift.threshold > 0.0,
          "online.drift.threshold must be finite and > 0");
  require(on.drift.window >= 1, "online.drift.window must be >= 1");
  require(on.retrain.epochs >= 1, "online.retrain.epochs must be >= 1");
  require(on.retrain.batch_size >= 1, "online.retrain.batch_size must be >= 1");
  require(std::isfinite(on.retrain.learning_rate) && on.retrain.learning_rate > 0.0,
          "online.retrain.learning_rate must be finite and > 0");
  require(finite_nonneg(on.retrain.failure_backoff_ms),
          "online.retrain.failure_backoff_ms must be >= 0");
  require(finite_nonneg(on.retrain.failure_backoff_cap_ms),
          "online.retrain.failure_backoff_cap_ms must be >= 0");
}

const ContextOptions& validated(const ContextOptions& options) {
  validate_options(options);
  return options;
}

}  // namespace

Context::Context(const gpusim::DeviceDescriptor& device, ContextOptions options)
    : sim_(with_env_init(device), validated(options).noise_sigma, options.seed),
      options_(std::move(options)),
      cache_(options_.cache_dir),
      observations_(options_.online.log_capacity, options_.online.log_dir),
      drift_(options_.online.drift),
      retrainer_(options_.online.retrain) {
  cache_.set_disk_retry_ms(options_.fault.disk_retry_ms);
  observations_.set_disk_retry_ms(options_.fault.disk_retry_ms);
}

Context::~Context() {
  // Cooperative cancellation first: background refinements poll this flag
  // between search batches (and the injected-hang loop polls it every 1 ms),
  // so the drain below waits for work to *stop*, not to finish a full search.
  cancel_requested_.store(true, std::memory_order_relaxed);
  drain_background();
  // ISAAC_TELEMETRY=<path> asks for an end-of-life dump: rewrite the target
  // with the full registry + span state. Multiple Contexts each rewrite; the
  // registry is process-wide, so the last writer holds the complete picture.
  telemetry::dump_configured();
}

std::uint64_t Context::steady_now_us() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

CircuitBreaker& Context::breaker_for(std::string_view kind) {
  sync::MutexLock lock(breaker_mutex_);
  const auto it = breakers_.find(kind);
  if (it != breakers_.end()) return it->second;
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = options_.fault.breaker_failure_threshold;
  cfg.cooldown_ms = options_.fault.breaker_cooldown_ms;
  // try_emplace constructs the (immovable: it owns a mutex) breaker in place.
  return breakers_.try_emplace(std::string(kind), cfg, std::string(kind)).first->second;
}

void Context::drain_background() {
  sync::MutexLock lock(background_mutex_);
  // Explicit predicate loop: the lambda overload would hide the guarded
  // background_pending_ read from the thread-safety analysis.
  while (background_pending_ != 0) background_cv_.wait(background_mutex_);
}

void Context::train_model(std::size_t samples, int epochs) {
  tuning::CollectorConfig cfg;
  cfg.num_samples = samples;
  cfg.seed = options_.seed ^ 0xDA7A;
  const auto report = tuning::collect_gemm(sim_, cfg);
  if (report.dataset.size() < 100) {
    throw std::runtime_error("train_model: data collection produced too few samples");
  }

  mlp::TrainConfig train_cfg;
  train_cfg.net.hidden = {64, 128, 64};
  train_cfg.epochs = epochs;
  train_cfg.seed = options_.seed;
  set_model(mlp::train(report.dataset, train_cfg));
  ISAAC_LOG_INFO() << "trained model on " << report.dataset.size() << " samples";
}

void Context::set_model(mlp::Regressor model) {
  std::shared_ptr<const mlp::VersionedModel> versioned;
  {
    // Version assignment and publication under one lock so racing installs
    // cannot mint the same version id.
    sync::MutexLock lock(model_mutex_);
    const std::uint64_t parent = model_ ? model_->version() : 0;
    mlp::TrainProvenance prov;
    prov.source = "install";
    prov.parent_version = parent;
    versioned =
        std::make_shared<mlp::VersionedModel>(std::move(model), parent + 1, std::move(prov));
    versioned.swap(model_);
  }
  // `versioned` now holds the predecessor (nullptr on first install).
  if (versioned) {
    ISAAC_TM_COUNT("model.swaps");
    drift_.reset();
  }
}

void Context::install_model(std::shared_ptr<const mlp::VersionedModel> model) {
  if (!model) throw std::invalid_argument("Context::install_model: null model");
  telemetry::Span span("model.swap");
  {
    sync::MutexLock lock(model_mutex_);
    model.swap(model_);
  }
  // `model` now holds the predecessor; dropping it here (outside the lock)
  // frees the old version only once every pinned reader has also let go.
  if (model) {
    ISAAC_TM_COUNT("model.swaps");
    // The successor starts with clean error windows: drift is judged per
    // version, not across the swap.
    drift_.reset();
  }
}

std::shared_ptr<const mlp::VersionedModel> Context::model_snapshot() const noexcept {
  sync::MutexLock lock(model_mutex_);
  return model_;
}

void Context::maybe_schedule_retrain(bool drift_tripped) {
  const auto& online = options_.online;
  if (!online.enabled) return;
  if (!drift_tripped) {
    if (online.retrain_every == 0) return;
    const std::uint64_t total = observations_.total_appended();
    const std::uint64_t mark = last_retrain_mark_.load(std::memory_order_relaxed);
    if (total - mark < online.retrain_every) return;
  }
  if (observations_.size() < online.retrain.min_observations) return;
  schedule_retrain();
}

bool Context::request_retrain() {
  if (!options_.online.enabled) return false;
  if (!model_snapshot()) return false;
  return schedule_retrain();
}

bool Context::schedule_retrain() {
  // Failure backoff: after a failed retrain, the triggers (drift trips,
  // retrain_every marks) keep firing on a busy Context — without this gate
  // the background worker would hot-loop fold-and-fail. Explicit
  // retrain_now() calls bypass it (tests and operators know best).
  if (steady_now_us() < retrain_backoff_until_us_.load(std::memory_order_relaxed)) {
    ISAAC_TM_COUNT("model.retrain_backoff");
    return false;
  }
  if (retrain_inflight_.exchange(true, std::memory_order_acq_rel)) return false;
  last_retrain_mark_.store(observations_.total_appended(), std::memory_order_relaxed);
  ISAAC_TM_COUNT("model.retrain_enqueued");
  const std::uint64_t parent_span = telemetry::current_span();
  submit_background([this, parent_span] { run_retrain(parent_span); });
  return true;
}

bool Context::retrain_now() {
  if (!options_.online.enabled) return false;
  if (retrain_inflight_.exchange(true, std::memory_order_acq_rel)) return false;
  last_retrain_mark_.store(observations_.total_appended(), std::memory_order_relaxed);
  return run_retrain(telemetry::current_span());
}

bool Context::run_retrain(std::uint64_t parent_span) {
  const std::uint64_t begin_us = steady_now_us();
  bool swapped = false;
  {
    telemetry::Span span("model.retrain", parent_span);
    try {
      const auto base = model_snapshot();
      if (base) {
        // Drain, don't snapshot: each observation trains at most one
        // successor, so a stable workload doesn't re-fold the same rows
        // into every later version.
        const auto observations = observations_.drain();
        auto next =
            std::make_shared<const mlp::VersionedModel>(retrainer_.retrain(*base, observations));
        ISAAC_LOG_INFO() << "retrained model v" << base->version() << " -> v" << next->version()
                         << " on " << next->provenance().samples << " observations";
        install_model(std::move(next));
        ISAAC_TM_COUNT("model.retrains");
        swapped = true;
      }
    } catch (const std::exception& e) {
      ISAAC_TM_COUNT("model.retrain_failed");
      ISAAC_LOG_WARN() << "retrain failed (model unchanged): " << e.what();
    } catch (...) {
      ISAAC_TM_COUNT("model.retrain_failed");
      ISAAC_LOG_WARN() << "retrain failed (model unchanged)";
    }
  }
  const std::uint64_t elapsed = steady_now_us() - begin_us;
  last_retrain_us_.store(elapsed, std::memory_order_relaxed);
  ISAAC_TM_RECORD("model.retrain_us", elapsed);
  if (swapped) {
    retrain_failures_.store(0, std::memory_order_relaxed);
    retrain_backoff_until_us_.store(0, std::memory_order_relaxed);
  } else {
    // Exponential backoff on consecutive failures, capped: the next scheduled
    // retrain (not an explicit retrain_now) waits the fault out.
    const int failures = retrain_failures_.fetch_add(1, std::memory_order_relaxed) + 1;
    const auto& cfg = retrainer_.config();
    double backoff_ms = cfg.failure_backoff_ms;
    for (int i = 1; i < failures && backoff_ms < cfg.failure_backoff_cap_ms; ++i)
      backoff_ms *= 2.0;
    backoff_ms = std::min(backoff_ms, cfg.failure_backoff_cap_ms);
    retrain_backoff_until_us_.store(
        steady_now_us() + static_cast<std::uint64_t>(backoff_ms * 1000.0),
        std::memory_order_relaxed);
  }
  retrain_inflight_.store(false, std::memory_order_release);
  return swapped;
}

}  // namespace isaac::core
