// Fault-injected hardening of the dispatch runtime (DESIGN.md, "Failure
// domains"): corrupt-cache quarantine, the fallback tier, the circuit
// breaker, measurement retry, refinement admission control and retry-then-
// drop, disk-write degradation with re-probe, retrain backoff, and the
// constructor-time option validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/circuit_breaker.hpp"
#include "common/failpoint.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/isaac.hpp"
#include "gpusim/device.hpp"
#include "mlp/regressor.hpp"
#include "search/config.hpp"
#include "support/counter_delta.hpp"
#include "support/latency_bounds.hpp"
#include "tuning/dataset.hpp"
#include "tuning/observation_log.hpp"

namespace isaac {
namespace {

namespace fp = isaac::failpoint;

/// Every test disarms what it armed, but a crashed expectation must not
/// poison the rest of the binary: sweep on fixture teardown too.
class RobustnessTest : public ::testing::Test {
 protected:
  void TearDown() override { fp::disarm_all(); }
};

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("isaac_robust_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

/// A cheap synthetic-law model: dispatch quality is irrelevant to these
/// tests — only that predict/tune can rank with *a* model.
const mlp::Regressor& unit_model() {
  static const mlp::Regressor model = [] {
    tuning::Dataset data;
    Rng rng(7);
    for (std::size_t i = 0; i < 1200; ++i) {
      tuning::Sample s;
      s.x.assign(tuning::kNumFeatures, 1.0);
      for (std::size_t f = 0; f < 6; ++f) s.x[f] = std::exp(rng.uniform(0.0, 6.0));
      s.y = 50.0 * std::pow(s.x[0], 0.7) * std::pow(s.x[1], 0.4) / s.x[2];
      data.add(std::move(s));
    }
    mlp::TrainConfig cfg;
    cfg.net.hidden = {24, 16};
    cfg.epochs = 6;
    cfg.seed = 99;
    return mlp::train(data, cfg);
  }();
  return model;
}

codegen::GemmShape gemm_shape(std::int64_t m, std::int64_t n, std::int64_t k) {
  codegen::GemmShape s;
  s.m = m;
  s.n = n;
  s.k = k;
  return s;
}

core::ContextOptions fast_options() {
  core::ContextOptions opts;
  opts.search.budget = 6;
  opts.search.reeval_reps = 1;
  opts.search.retry_backoff_ms = 0.0;  // tests should not sleep between retries
  return opts;
}

}  // namespace

// ---- profile cache failure domain --------------------------------------

TEST_F(RobustnessTest, CacheLoadQuarantinesGarbageLines) {
  TempDir dir("garbage");
  const auto shape = gemm_shape(64, 64, 64);
  const auto& tuning = core::OperationTraits<core::GemmOp>::seed_grid().front();
  {
    core::ProfileCache cache(dir.path.string());
    cache.store<core::GemmOp>("devA", shape, tuning,
                              core::ProfileCache::provenance("model_topk", 10,
                                                             core::EntryTier::refined));
  }
  {
    // Foreign garbage, a torn tail, binary junk: every flavor of corruption
    // the append-only file accumulates in the field.
    std::ofstream os(dir.path / "isaac_profiles.txt", std::ios::app);
    os << "complete nonsense without tabs\n";
    os << "one\ttab-but-bad-schema\tno-pipe\textra\n";
    os << "\x01\x02\x03 binary junk\n";
    os << "torn|line|without|value";  // no trailing newline: a torn tail
  }
  const test::CounterDelta corrupt("cache.load_corrupt");
  core::ProfileCache reloaded(dir.path.string());
  EXPECT_EQ(corrupt.value(), 4u);
  // The surviving entry is intact and served.
  const auto hit = reloaded.lookup<core::GemmOp>("devA", shape);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(core::OperationTraits<core::GemmOp>::encode_tuning(*hit),
            core::OperationTraits<core::GemmOp>::encode_tuning(tuning));
}

TEST_F(RobustnessTest, FallbackTierRoundTripsAndUpgrades) {
  core::ProfileCache cache;
  const auto shape = gemm_shape(32, 32, 32);
  const auto& grid = core::OperationTraits<core::GemmOp>::seed_grid();
  const std::string meta =
      core::ProfileCache::provenance("fallback", 0, core::EntryTier::fallback);
  EXPECT_NE(meta.find("tier=fallback"), std::string::npos);
  EXPECT_EQ(core::ProfileCache::tier_from_meta(meta), core::EntryTier::fallback);

  cache.store<core::GemmOp>("devA", shape, grid.front(), meta);
  core::EntryTier tier = core::EntryTier::refined;
  ASSERT_TRUE(cache.lookup<core::GemmOp>("devA", shape, &tier).has_value());
  EXPECT_EQ(tier, core::EntryTier::fallback);

  // Fallback sits at the bottom of the ladder: a refinement may replace it…
  EXPECT_TRUE(cache.upgrade<core::GemmOp>(
      "devA", shape, grid.back(),
      core::ProfileCache::provenance("model_topk", 10, core::EntryTier::refined)));
  ASSERT_TRUE(cache.lookup<core::GemmOp>("devA", shape, &tier).has_value());
  EXPECT_EQ(tier, core::EntryTier::refined);
  // …and nothing may demote the refined result back down.
  EXPECT_FALSE(cache.upgrade<core::GemmOp>(
      "devA", shape, grid.front(),
      core::ProfileCache::provenance("fallback", 0, core::EntryTier::fallback)));
}

TEST_F(RobustnessTest, CacheDiskDegradesAndReprobes) {
  TempDir dir("degrade");
  const test::CounterDelta skipped("cache.disk_write_skipped");
  core::ProfileCache cache(dir.path.string());
  cache.set_disk_retry_ms(50.0);
  const auto& grid = core::OperationTraits<core::GemmOp>::seed_grid();

  fp::arm("cache.write_fail", "once");
  cache.store<core::GemmOp>("devA", gemm_shape(32, 32, 32), grid.front());
  EXPECT_TRUE(cache.disk_degraded());
  // Inside the retry window every append is served memory-only.
  cache.store<core::GemmOp>("devA", gemm_shape(48, 48, 48), grid.front());
  EXPECT_GE(skipped.value(), 1u);
  EXPECT_TRUE(cache.disk_degraded());

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  // The failpoint spent its one shot: the re-probe succeeds and disk writes
  // resume.
  cache.store<core::GemmOp>("devA", gemm_shape(64, 64, 64), grid.front());
  EXPECT_FALSE(cache.disk_degraded());

  // Memory never degraded — all three entries serve.
  EXPECT_TRUE(cache.lookup<core::GemmOp>("devA", gemm_shape(32, 32, 32)).has_value());
  EXPECT_TRUE(cache.lookup<core::GemmOp>("devA", gemm_shape(48, 48, 48)).has_value());
  // The disk lost the degraded-window lines but holds the post-recovery one.
  core::ProfileCache reloaded(dir.path.string());
  EXPECT_TRUE(reloaded.lookup<core::GemmOp>("devA", gemm_shape(64, 64, 64)).has_value());
  EXPECT_FALSE(reloaded.lookup<core::GemmOp>("devA", gemm_shape(32, 32, 32)).has_value());
}

TEST_F(RobustnessTest, ObservationLogDiskDegradesAndReprobes) {
  TempDir dir("obslog");
  const test::CounterDelta skipped("obslog.disk_write_skipped");
  tuning::ObservationLog log(64, dir.path.string());
  log.set_disk_retry_ms(50.0);
  tuning::Observation obs;
  obs.op = "gemm";
  obs.features.assign(tuning::kNumFeatures, 1.0);
  obs.measured_gflops = 100.0;
  obs.predicted_gflops = 90.0;

  fp::arm("obslog.write_fail", "once");
  log.append(obs);
  EXPECT_TRUE(log.disk_degraded());
  log.append(obs);
  EXPECT_GE(skipped.value(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  log.append(obs);
  EXPECT_FALSE(log.disk_degraded());
  // The ring kept everything regardless of the disk.
  EXPECT_EQ(log.size(), 3u);
}

// ---- circuit breaker state machine -------------------------------------

TEST_F(RobustnessTest, CircuitBreakerStateMachine) {
  CircuitBreakerConfig cfg;
  cfg.failure_threshold = 2;
  cfg.cooldown_ms = 40.0;
  CircuitBreaker breaker(cfg, "test");

  EXPECT_EQ(breaker.state(), CircuitBreaker::State::closed);
  EXPECT_TRUE(breaker.allow_request());
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::closed);  // 1 < threshold
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::open);
  EXPECT_EQ(breaker.opens(), 1u);
  EXPECT_FALSE(breaker.allow_request());  // cooling down

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(breaker.allow_request());   // the half-open trial
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::half_open);
  EXPECT_FALSE(breaker.allow_request());  // only one trial at a time
  breaker.record_failure();               // trial failed: re-open
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::open);
  EXPECT_EQ(breaker.opens(), 2u);

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(breaker.allow_request());
  breaker.record_success();               // trial passed: close + clear streak
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::closed);
  EXPECT_EQ(breaker.consecutive_failures(), 0u);
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::closed);  // fresh streak
}

// ---- dispatch runtime under injected faults ----------------------------

TEST_F(RobustnessTest, TransientMeasureFailuresAreRetriedTransparently) {
  const test::CounterDelta fallbacks("breaker.fallbacks");
  auto opts = fast_options();
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(mlp::Regressor(unit_model()));

  // Two transient device failures, then clean: the refinement's drive loop
  // has bounded retry (default measure_retries = 2) and absorbs both
  // without surfacing anything to the caller or the breaker.
  fp::arm("measure.throw", "count:2");
  const auto shape = gemm_shape(48, 32, 96);
  EXPECT_NO_THROW(ctx.select<core::GemmOp>(shape));
  ctx.drain_background();
  core::EntryTier tier = core::EntryTier::provisional;
  EXPECT_NO_THROW(ctx.select<core::GemmOp>(shape, nullptr, &tier));
  EXPECT_EQ(tier, core::EntryTier::refined);
  EXPECT_EQ(fallbacks.value(), 0u);
  EXPECT_EQ(fp::fires("measure.throw"), 2u);
  EXPECT_EQ(ctx.breaker_state("gemm"), CircuitBreaker::State::closed);
}

TEST_F(RobustnessTest, LeaderFailureServesFallbackThenRefinesBack) {
  const test::CounterDelta fallbacks("breaker.fallbacks");
  const test::CounterDelta refinements("refine.upgraded");
  auto opts = fast_options();
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(mlp::Regressor(unit_model()));

  const auto shape = gemm_shape(64, 48, 128);
  fp::arm("predict.throw", "once");
  core::EntryTier tier = core::EntryTier::refined;
  bool from_cache = true;
  EXPECT_NO_THROW(ctx.select<core::GemmOp>(shape, &from_cache, &tier));
  EXPECT_FALSE(from_cache);
  EXPECT_EQ(tier, core::EntryTier::fallback);
  EXPECT_EQ(fallbacks.value(), 1u);
  // One failure < threshold: the breaker never opened.
  EXPECT_EQ(ctx.breaker_state("gemm"), CircuitBreaker::State::closed);

  // The catch path re-armed refinement; once the fault clears the entry
  // converges to refined without any caller doing anything special.
  fp::disarm_all();
  ctx.drain_background();
  ctx.select<core::GemmOp>(shape, &from_cache, &tier);
  EXPECT_TRUE(from_cache);
  EXPECT_EQ(tier, core::EntryTier::refined);
  EXPECT_GE(refinements.value(), 1u);
}

TEST_F(RobustnessTest, PersistentFailureOpensBreakerAndShortCircuits) {
  const test::CounterDelta short_circuits("breaker.short_circuit");
  auto opts = fast_options();
  opts.search.measure_retries = 0;  // fail fast: the fault is persistent
  opts.fault.breaker_failure_threshold = 2;
  opts.fault.breaker_cooldown_ms = 60.0;
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(mlp::Regressor(unit_model()));

  // The leaders' predictions fail, and so do the refinements they re-arm:
  // a refinement that succeeded would close the breaker's failure streak.
  fp::arm("predict.throw", "prob:1");
  fp::arm("measure.throw", "prob:1");
  core::EntryTier tier = core::EntryTier::refined;
  // Every select survives: fallback entries, never an exception.
  EXPECT_NO_THROW(ctx.select<core::GemmOp>(gemm_shape(32, 32, 64), nullptr, &tier));
  EXPECT_EQ(tier, core::EntryTier::fallback);
  EXPECT_NO_THROW(ctx.select<core::GemmOp>(gemm_shape(48, 32, 64), nullptr, &tier));
  EXPECT_EQ(ctx.breaker_state("gemm"), CircuitBreaker::State::open);
  // With the breaker open the leader doesn't even attempt the prediction.
  const auto fires_before = fp::fires("predict.throw");
  EXPECT_NO_THROW(ctx.select<core::GemmOp>(gemm_shape(64, 32, 64), nullptr, &tier));
  EXPECT_EQ(tier, core::EntryTier::fallback);
  EXPECT_GE(short_circuits.value(), 1u);
  EXPECT_EQ(fp::fires("predict.throw"), fires_before);

  // Fault clears; after the cooldown the half-open trial succeeds and the
  // breaker re-closes — fresh shapes get real selections again.
  fp::disarm_all();
  ctx.drain_background();
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_NO_THROW(ctx.select<core::GemmOp>(gemm_shape(96, 32, 64), nullptr, &tier));
  EXPECT_EQ(tier, core::EntryTier::provisional);
  EXPECT_EQ(ctx.breaker_state("gemm"), CircuitBreaker::State::closed);
  ctx.drain_background();
  EXPECT_NO_THROW(ctx.select<core::GemmOp>(gemm_shape(96, 32, 64), nullptr, &tier));
  EXPECT_EQ(tier, core::EntryTier::refined);
}

TEST_F(RobustnessTest, RefinementAdmissionControlShedsThenConverges) {
  const test::CounterDelta shed("refine.shed");
  auto opts = fast_options();
  opts.fault.refine_max_pending = 1;
  opts.fault.refine_deadline_ms = 150.0;  // bounds the injected hang below
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(mlp::Regressor(unit_model()));

  std::vector<codegen::GemmShape> shapes;
  for (std::int64_t m : {32, 48, 64, 96, 128, 160}) shapes.push_back(gemm_shape(m, 32, 64));

  // Every refinement wedges for the full deadline: the queue caps at one
  // pending task and the rest are shed (re-armed, not lost).
  fp::arm("refine.hang", "prob:1");
  for (const auto& shape : shapes) EXPECT_NO_THROW(ctx.select<core::GemmOp>(shape));
  EXPECT_GE(shed.value(), 1u);
  ctx.drain_background();
  EXPECT_EQ(ctx.refinements_pending(), 0u);
  // A hung refinement is a failure, not an open breaker: leaders were fine.
  EXPECT_EQ(ctx.breaker_state("gemm"), CircuitBreaker::State::closed);

  // Storm over: repeated hits re-arm refinement (shed keys and failed keys
  // alike) and the cache converges to all-refined.
  fp::disarm_all();
  bool all_refined = false;
  for (int round = 0; round < 20 && !all_refined; ++round) {
    all_refined = true;
    for (const auto& shape : shapes) {
      core::EntryTier tier = core::EntryTier::refined;
      ctx.select<core::GemmOp>(shape, nullptr, &tier);
      all_refined = all_refined && tier == core::EntryTier::refined;
    }
    ctx.drain_background();
  }
  EXPECT_TRUE(all_refined);
}

TEST_F(RobustnessTest, RetrainFailureBacksOffInsteadOfHotLooping) {
  const test::CounterDelta retrains("model.retrains");
  auto opts = fast_options();
  opts.online.enabled = true;
  opts.online.retrain.min_observations = 4;
  opts.online.retrain.epochs = 2;
  opts.online.retrain.failure_backoff_ms = 10000.0;  // plainly observable
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(mlp::Regressor(unit_model()));
  ctx.select<core::GemmOp>(gemm_shape(48, 32, 96));  // seed the log
  ctx.drain_background();

  fp::arm("retrain.throw", "prob:1");
  EXPECT_FALSE(ctx.retrain_now());  // the injected failure surfaces as false
  EXPECT_FALSE(ctx.retrain_in_flight());
  EXPECT_EQ(retrains.value(), 0u);
  // Scheduled retrains now refuse to enqueue until the backoff expires — the
  // trigger storm cannot hot-loop the worker.
  EXPECT_FALSE(ctx.request_retrain());
  fp::disarm_all();
  EXPECT_FALSE(ctx.request_retrain());  // still backing off, fault or not
}

// ---- fault storm end to end ----------------------------------------------

namespace {

/// Zipf-shaped index stream over a pool of `k` shapes: rank r drawn with
/// probability proportional to 1/(r+1), so a few hot shapes dominate and the
/// tail stays cold.
std::vector<std::size_t> zipf_stream(std::size_t k, std::size_t n, std::uint64_t seed) {
  std::vector<double> cum(k);
  double acc = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    acc += 1.0 / static_cast<double>(i + 1);
    cum[i] = acc;
  }
  Rng rng(seed);
  std::vector<std::size_t> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform(0.0, acc);
    out.push_back(static_cast<std::size_t>(
        std::lower_bound(cum.begin(), cum.end(), u) - cum.begin()));
  }
  return out;
}

/// `pool_id` keys distinct shape pools: baseline and storm must not share
/// cache entries, or the storm would run entirely on baseline-warmed hits.
std::vector<codegen::GemmShape> chaos_pool(std::size_t k, std::int64_t pool_id) {
  std::vector<codegen::GemmShape> pool;
  pool.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::int64_t m = 32 + 16 * static_cast<std::int64_t>(i % 8);
    const std::int64_t n = 16 + 8 * static_cast<std::int64_t>(i / 8);
    pool.push_back(gemm_shape(m, n, m + n + 64 * pool_id));
  }
  return pool;
}

struct ChaosReplay {
  std::vector<double> select_us;
  std::size_t escapes = 0;  ///< exceptions that escaped select()
};

ChaosReplay chaos_replay(core::Context& ctx, const std::vector<codegen::GemmShape>& pool,
                         const std::vector<std::size_t>& stream) {
  using Clock = std::chrono::steady_clock;
  ChaosReplay out;
  out.select_us.reserve(stream.size());
  for (const std::size_t idx : stream) {
    const auto t0 = Clock::now();
    try {
      ctx.select<core::GemmOp>(pool[idx]);
    } catch (...) {
      ++out.escapes;
    }
    out.select_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return out;
}

}  // namespace

TEST_F(RobustnessTest, FaultStormNeverEscapesSelectAndReconverges) {
  // A Zipf shape stream replayed three times: fault-free, under a storm
  // across every fault domain (device measurement, model prediction, hung
  // refinements, cache and observation-log disk writes, retraining), and
  // after the faults clear. No exception may escape select() in any phase,
  // the storm's select p99 stays within 2x the fault-free one (with a 10 ms
  // floor for sub-millisecond baselines), recovery converges every
  // storm-era entry back to refined with the breaker closed, and the cache
  // file and observation log the storm's write failures degraded take
  // writes again.
  TempDir dir("storm");
  const test::CounterDelta cache_skipped("cache.disk_write_skipped");
  const test::CounterDelta obslog_skipped("obslog.disk_write_skipped");
  core::ContextOptions opts;
  opts.cache_dir = (dir.path / "cache").string();
  opts.online.log_dir = (dir.path / "obslog").string();
  opts.search.budget = 10;
  opts.search.reeval_reps = 3;
  opts.search.max_candidates = 8000;
  opts.online.enabled = true;
  opts.online.drift.threshold = 1e9;  // retrains via cadence, not drift
  opts.online.retrain_every = 128;
  opts.online.retrain.min_observations = 64;
  opts.online.retrain.epochs = 4;
  opts.fault.refine_deadline_ms = 100.0;     // bound injected hangs
  opts.fault.refine_max_pending = 8;         // admission control active
  opts.fault.breaker_cooldown_ms = 100.0;
  opts.fault.refine_retry_reset_ms = 200.0;  // forgive dropped keys quickly
  opts.fault.disk_retry_ms = 50.0;
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(mlp::Regressor(unit_model()));

  constexpr std::size_t kPool = 24;
  constexpr std::size_t kStream = 400;

  const auto pool_a = chaos_pool(kPool, 0);
  const auto baseline = chaos_replay(ctx, pool_a, zipf_stream(kPool, kStream, 17));
  ctx.drain_background();
  const double p99_base = stats::percentile(baseline.select_us, 0.99);

  // The storm runs on a fresh (cold) pool, so leaders, refinements, disk
  // appends and retrains all run under fire.
  fp::arm("measure.throw", "prob:0.15:1");
  fp::arm("predict.throw", "prob:0.12:2");
  fp::arm("refine.hang", "prob:0.12:3");
  fp::arm("cache.write_fail", "prob:0.25:4");
  fp::arm("obslog.write_fail", "prob:0.25:5");
  fp::arm("retrain.throw", "prob:0.5:6");
  const auto pool_b = chaos_pool(kPool, 1);
  const auto storm = chaos_replay(ctx, pool_b, zipf_stream(kPool, kStream, 23));
  ctx.drain_background();
  const double p99_storm = stats::percentile(storm.select_us, 0.99);

  // Recovery: repeated hits re-arm what the storm shed, dropped, or left
  // behind an open breaker, until every storm-era entry is refined.
  fp::disarm_all();
  bool converged = false;
  int rounds = 0;
  std::size_t recovery_escapes = 0;
  for (; rounds < 40 && !converged; ++rounds) {
    converged = true;
    for (const auto& shape : pool_b) {
      core::EntryTier tier = core::EntryTier::refined;
      try {
        ctx.select<core::GemmOp>(shape, nullptr, &tier);
      } catch (...) {
        ++recovery_escapes;
      }
      converged = converged && tier == core::EntryTier::refined;
    }
    ctx.drain_background();
    // Dropped keys sit behind the retry-reset window: give it time to
    // forgive before the next round re-arms them.
    if (!converged) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // A degraded disk path re-probes on its first write after the retry
  // window: wait it out, then make one cold select whose provisional store
  // and refinement write to both files.
  std::this_thread::sleep_for(
      std::chrono::duration<double, std::milli>(2.0 * opts.fault.disk_retry_ms));
  ctx.select<core::GemmOp>(gemm_shape(72, 40, 200));
  ctx.drain_background();

  EXPECT_EQ(baseline.escapes, 0u);
  EXPECT_EQ(storm.escapes, 0u);
  EXPECT_EQ(recovery_escapes, 0u);
  if (test::kLatencyBoundsChecked) {
    EXPECT_LE(p99_storm, std::max(2.0 * p99_base, p99_base + 10000.0))
        << "storm p99 " << p99_storm << " us vs baseline " << p99_base << " us";
  }
  EXPECT_TRUE(converged) << "not all refined after " << rounds << " recovery rounds";
  EXPECT_EQ(ctx.breaker_state("gemm"), CircuitBreaker::State::closed);
  // The storm's write failures did degrade both files (writes were skipped
  // between re-probes), and both take writes again.
  EXPECT_GT(cache_skipped.value(), 0u);
  EXPECT_GT(obslog_skipped.value(), 0u);
  EXPECT_FALSE(ctx.cache().disk_degraded());
  EXPECT_FALSE(ctx.observation_log().disk_degraded());
}

// ---- construction-time validation --------------------------------------

TEST_F(RobustnessTest, SearchConfigValidateRejectsNonsense) {
  search::SearchConfig good;
  EXPECT_NO_THROW(good.validate());

  search::SearchConfig cfg;
  cfg.measure_retries = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = {};
  cfg.retry_backoff_ms = -0.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = {};
  cfg.timeout_ms = std::nan("");
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = {};
  cfg.retry_backoff_cap_ms = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST_F(RobustnessTest, ContextOptionsValidateAtConstruction) {
  const auto device = gpusim::tesla_p100();

  core::ContextOptions opts;
  opts.search.measure_retries = -3;
  EXPECT_THROW(core::Context ctx(device, opts), std::invalid_argument);

  opts = {};
  opts.fault.breaker_failure_threshold = 0;
  EXPECT_THROW(core::Context ctx(device, opts), std::invalid_argument);

  opts = {};
  opts.fault.breaker_cooldown_ms = std::nan("");
  EXPECT_THROW(core::Context ctx(device, opts), std::invalid_argument);

  opts = {};
  opts.online.log_capacity = 0;
  EXPECT_THROW(core::Context ctx(device, opts), std::invalid_argument);

  opts = {};
  opts.online.drift.threshold = -1.0;
  EXPECT_THROW(core::Context ctx(device, opts), std::invalid_argument);

  opts = {};
  opts.online.retrain.learning_rate = 0.0;
  EXPECT_THROW(core::Context ctx(device, opts), std::invalid_argument);

  opts = {};
  opts.noise_sigma = -0.1;
  EXPECT_THROW(core::Context ctx(device, opts), std::invalid_argument);
}

}  // namespace isaac
