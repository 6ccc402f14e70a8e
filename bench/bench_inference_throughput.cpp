// Microbenchmarks (google-benchmark) for the §6 runtime-inference claims:
// the regression model evaluates "very quickly, in parallel, with constant
// latency" — up to a million configurations per second — while the legality
// check and the simulator launch stay negligible next to real kernel timing.
//
// BM_DispatchThroughput adds the concurrency baseline for the "millions of
// users" runtime: queries/sec through the shared Context's cached dispatch
// path (shared-locked cache lookup + kernel execution) at 1, 4 and 8 threads.
//
// Dispatch-latency mode: `--dispatch_latency` times cold `select()` calls
// under two-tier dispatch vs blocking tuning (p50/p99 per mode, speedup,
// refined-entry agreement) — the headline number for the tier-1 fast path.
//
// Rank-throughput mode: `--rank_throughput` measures whole-space model
// ranking (the §6 recipe's fixed cost and, since the two-tier dispatch, the
// cold-select latency driver) per operation: candidates scored per second
// through the allocation-free pipeline vs the generate-and-test reference
// ranking of tests/support/reference_rank.hpp (with ordering agreement over
// the whole best-first sequence between the two), the pruned walk vs the generate-and-test sweep as
// enumeration engines, cold `select()` p50/p99, per-chunk scoring-time
// flatness (an allocations-per-candidate proxy: chunks after the first cost
// the same when nothing allocates), and the blocked GEMM's speedup over
// gemm_reference on the MLP-shaped case with the micro-kernel variant
// (`gemm_kernel`: sse2, avx2 or avx512) this CPU ran it on.
// One JSON line per op plus a summary line, for cross-PR trajectory diffing.
//
// Online-learning mode: `--online_learning` replays a cold shape stream
// against a degraded tesla_p100 with the model lifecycle enabled (DESIGN.md,
// "Online model lifecycle") and emits the probe-set error trajectory, drift
// trip / retrain / hot-swap counts, the stale-vs-fresh error improvement,
// and hot select() p99 with a retrain active vs idle — stdout JSON lines
// plus BENCH_online_learning.json for the CI artifact.
//
// Chaos mode: `--chaos` replays a Zipf shape stream fault-free, under a
// failpoint storm across every fault domain, and through recovery — asserting
// that no exception escapes select(), storm p99 stays bounded, and the cache
// converges back to refined entries once faults clear (DESIGN.md, "Failure
// domains"). Emits BENCH_chaos.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "codegen/gemm.hpp"
#include "common/cpu_isa.hpp"
#include "common/failpoint.hpp"
#include "common/page_allocator.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/isaac.hpp"
#include "gpusim/device.hpp"
#include "gpusim/simulator.hpp"
#include "linalg/blas.hpp"
#include "mlp/regressor.hpp"
#include "search/model_topk.hpp"
#include "support/reference_rank.hpp"
#include "telemetry/telemetry.hpp"
#include "tuning/collector.hpp"
#include "tuning/dataset.hpp"
#include "tuning/feature_batch.hpp"
#include "tuning/search_space.hpp"

namespace {

using namespace isaac;

const mlp::Regressor& model() {
  static const mlp::Regressor m = [] {
    gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 9);
    tuning::CollectorConfig cfg;
    cfg.num_samples = 1500;
    cfg.seed = 9;
    const auto report = tuning::collect_gemm(sim, cfg);
    mlp::TrainConfig tc;
    tc.net.hidden = {64, 128, 64};
    tc.epochs = 6;
    return mlp::train(report.dataset, tc);
  }();
  return m;
}

codegen::GemmShape bench_shape() {
  codegen::GemmShape s;
  s.m = 2560;
  s.n = 32;
  s.k = 2560;
  return s;
}

void BM_ValidateConfig(benchmark::State& state) {
  const tuning::GemmSearchSpace space;
  Rng rng(1);
  const auto shape = bench_shape();
  const auto& dev = gpusim::tesla_p100();
  std::vector<codegen::GemmTuning> configs;
  for (int i = 0; i < 512; ++i) configs.push_back(space.sample_uniform(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codegen::validate(shape, configs[i++ % configs.size()], dev));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ValidateConfig);

void BM_AnalyzeConfig(benchmark::State& state) {
  const auto shape = bench_shape();
  const auto& dev = gpusim::tesla_p100();
  codegen::GemmTuning t;
  t.ms = 4;
  t.ns = 4;
  t.ml = 64;
  t.nl = 32;
  t.u = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codegen::analyze(shape, t, dev));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnalyzeConfig);

void BM_SimulatorLaunch(benchmark::State& state) {
  const auto shape = bench_shape();
  const auto& dev = gpusim::tesla_p100();
  gpusim::Simulator sim(dev, 0.03, 3);
  codegen::GemmTuning t;
  t.ms = 4;
  t.ns = 4;
  t.ml = 64;
  t.nl = 32;
  t.u = 8;
  const auto profile = codegen::analyze(shape, t, dev);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.launch(profile));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorLaunch);

void BM_ModelScoring(benchmark::State& state) {
  // Batched MLP scoring — the paper's "million configurations per second"
  // claim lives or dies here. items/s in the report = configurations/s.
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto shape = bench_shape();
  const tuning::GemmSearchSpace space;
  Rng rng(7);
  tuning::FeatureBatch rows(tuning::kNumFeatures);
  for (std::size_t i = 0; i < batch; ++i) {
    tuning::features_into(shape, space.sample_uniform(rng), rows.append_row());
  }
  const auto& m = model();
  std::vector<double> scores(batch);
  for (auto _ : state) {
    m.predict_gflops_rows(rows, 0, batch, scores.data());
    benchmark::DoNotOptimize(scores.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ModelScoring)->Arg(256)->Arg(4096)->Arg(16384);

// ---------------------------------------------------------------- dispatch --

core::ContextOptions dispatch_options() {
  core::ContextOptions opts;
  opts.search.budget = 10;
  opts.search.reeval_reps = 3;
  opts.search.max_candidates = 8000;
  return opts;
}

core::Context& dispatch_context() {
  // Context is non-movable (it owns mutexes): build it in place and install
  // the model inside the thread-safe one-time initialization.
  static core::Context& ctx = []() -> core::Context& {
    static core::Context c(gpusim::tesla_p100(), dispatch_options());
    c.set_model(model());
    return c;
  }();
  return ctx;
}

std::vector<codegen::GemmShape> dispatch_shapes() {
  std::vector<codegen::GemmShape> shapes;
  for (const std::int64_t n : {8, 16, 24, 32}) {
    codegen::GemmShape s;
    s.m = 64;
    s.n = n;
    s.k = 64;
    shapes.push_back(s);
  }
  return shapes;
}

void BM_DispatchThroughput(benchmark::State& state) {
  // Hot-path queries/sec against one shared Context: every call takes the
  // shared-locked cache lookup, executes the selected kernel functionally,
  // and re-times it on the device model. Threads(N) reports aggregate
  // items/s across N concurrent callers.
  auto& ctx = dispatch_context();
  const auto shapes = dispatch_shapes();
  if (state.thread_index() == 0) {
    ctx.warmup<core::GemmOp>(shapes).wait();  // all shapes hot before timing starts
    ctx.drain_background();     // …and fully refined: no tuning noise in-loop
  }

  // Per-thread buffers sized for the largest shape.
  std::vector<float> a(64 * 64, 0.5f), b(64 * 32, 0.25f), c(64 * 32, 0.0f);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& shape = shapes[i++ % shapes.size()];
    const auto info = ctx.run<core::GemmOp>(shape, 1.0f, a.data(), shape.m, b.data(), shape.k, 0.0f,
                               c.data(), shape.m);
    benchmark::DoNotOptimize(info.gflops);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchThroughput)->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

void BM_DispatchSelectOnly(benchmark::State& state) {
  // The selection path alone (no kernel execution): the pure dispatch
  // overhead a server pays per query once everything is cached.
  auto& ctx = dispatch_context();
  const auto shapes = dispatch_shapes();
  if (state.thread_index() == 0) {
    ctx.warmup<core::GemmOp>(shapes).wait();
    ctx.drain_background();
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.select<core::GemmOp>(shapes[i++ % shapes.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchSelectOnly)->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

void BM_GenerativeSampling(benchmark::State& state) {
  const tuning::GemmSearchSpace space;
  tuning::CategoricalModel gen(space.domains());
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GenerativeSampling);

// ---------------------------------------------------------- online learning --

/// tesla_p100 after "the device changed under us": fewer SMs, lower clocks,
/// a third of the advertised peak. A model trained on the real p100
/// over-predicts on every shape here — the drift scenario's ground truth.
gpusim::DeviceDescriptor degraded_p100() {
  gpusim::DeviceDescriptor dev = gpusim::tesla_p100();
  dev.name = "tesla_p100_degraded";
  dev.num_sms /= 2;
  dev.boost_clock_ghz *= 0.6;
  dev.peak_sp_tflops *= 0.3;
  return dev;
}

/// Ground-truth (features, measured gflops) pairs on the degraded device —
/// the held-out probe set the error trajectory is evaluated against.
const tuning::Dataset& degraded_probe() {
  static const tuning::Dataset data = [] {
    gpusim::Simulator sim(degraded_p100(), 0.0, 31);
    tuning::CollectorConfig cfg;
    cfg.num_samples = 400;
    cfg.seed = 31;
    return tuning::collect_gemm(sim, cfg).dataset;
  }();
  return data;
}

double mean_rel_error(const mlp::Regressor& m, const tuning::Dataset& data) {
  double acc = 0.0;
  for (const auto& s : data.samples()) {
    acc += std::abs(m.predict_gflops(s.x) - s.y) / s.y;
  }
  return acc / static_cast<double>(data.size());
}

struct RetrainLatency {
  double p99_baseline_us = 0.0;   ///< hot select p99, no retrain running
  double p99_during_us = 0.0;     ///< hot select p99 while the retrain trains
  std::size_t during_samples = 0; ///< selects timed inside the retrain window
  double retrain_wall_ms = 0.0;
  bool retrained = false;         ///< the retrain actually ran and hot-swapped
};

/// Hot-path select() latency with and without an active background retrain —
/// the "retraining must never block dispatch" number. The retrain runs on the
/// global thread pool; the measuring thread owns the hot cache-hit path, so
/// any p99 regression here would be lock contention, which is exactly what
/// the snapshot API removes. Raw per-select p99 over tens of thousands of
/// samples: scheduler preemptions (sub-0.1% of samples on a busy runner)
/// stay below the 1% tail.
RetrainLatency measure_select_under_retrain() {
  core::ContextOptions opts = dispatch_options();
  opts.online.enabled = true;
  opts.online.drift.threshold = 1e9;  // retrain only on explicit request
  opts.online.retrain.min_observations = 32;
  opts.online.retrain.epochs = 150;   // a deliberately wide retrain window
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(model());
  const auto shapes = dispatch_shapes();
  ctx.warmup<core::GemmOp>(shapes).wait();
  ctx.drain_background();

  using Clock = std::chrono::steady_clock;
  const auto time_select_us = [&](std::size_t i) {
    const auto t0 = Clock::now();
    ctx.select<core::GemmOp>(shapes[i % shapes.size()]);
    return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  };

  constexpr std::size_t kBaselineSamples = 20000;
  std::vector<double> baseline_us;
  baseline_us.reserve(kBaselineSamples);
  for (std::size_t i = 0; i < kBaselineSamples; ++i) baseline_us.push_back(time_select_us(i));

  // Feed the log a fold big enough to keep the trainer busy for a while.
  const auto& probe = degraded_probe();
  const std::uint64_t version = ctx.model_snapshot()->version();
  for (int rep = 0; rep < 4; ++rep) {
    for (const auto& s : probe.samples()) {
      tuning::Observation o;
      o.op = "gemm";
      o.features = s.x;
      o.measured_gflops = s.y;
      o.predicted_gflops = s.y;
      o.model_version = version;
      ctx.observation_log().append(std::move(o));
    }
  }

  RetrainLatency out;
  std::vector<double> during_us;
  during_us.reserve(kBaselineSamples);
  if (ctx.request_retrain()) {
    constexpr std::size_t kMaxDuringSamples = 400000;
    std::size_t i = 0;
    while (ctx.retrain_in_flight() && during_us.size() < kMaxDuringSamples) {
      during_us.push_back(time_select_us(i++));
    }
  }
  ctx.drain_background();
  out.retrained = ctx.retrains() > 0;
  out.retrain_wall_ms = static_cast<double>(ctx.last_retrain_us()) / 1000.0;
  out.during_samples = during_us.size();
  // Bracket the retrain window with a second idle baseline and keep the
  // worse of the two: ambient machine drift (frequency scaling, a noisy
  // neighbour) inflates both baselines, while model-path lock contention —
  // what this measurement exists to catch — only inflates the during-window.
  std::vector<double> baseline2_us;
  baseline2_us.reserve(kBaselineSamples);
  for (std::size_t i = 0; i < kBaselineSamples; ++i) baseline2_us.push_back(time_select_us(i));
  out.p99_baseline_us =
      std::max(stats::percentile(baseline_us, 0.99), stats::percentile(baseline2_us, 0.99));
  out.p99_during_us = during_us.empty() ? 0.0 : stats::percentile(during_us, 0.99);
  return out;
}

/// Online-learning mode: `--online_learning` replays a cold GEMM stream
/// against the degraded device with the full lifecycle enabled — blocking
/// searches feed the observation log, drift trips, warm-start retrains run
/// on the pool, successors hot-swap in — and emits the error trajectory
/// (serving-model error on the degraded probe set after every batch), the
/// drift/retrain/swap counts, the stale-vs-fresh error improvement, and the
/// hot select() p99 with a retrain active vs idle. One JSON object per line
/// on stdout, mirrored to BENCH_online_learning.json for CI upload.
int run_online_learning() {
  const auto& m = model();
  const auto& probe = degraded_probe();
  const double err_stale = mean_rel_error(m, probe);
  std::string json;

  core::ContextOptions opts = dispatch_options();
  opts.two_tier = false;  // the leader records synchronously: deterministic counts
  opts.online.enabled = true;
  opts.online.drift.threshold = 0.35;
  opts.online.drift.window = 32;
  opts.online.drift.min_observations = 16;
  opts.online.retrain.min_observations = 48;
  opts.online.retrain.epochs = 40;
  core::Context ctx(degraded_p100(), opts);
  ctx.set_model(m);

  // A cold shape stream: every select is a blocking search whose measured
  // set lands in the observation log.
  std::vector<codegen::GemmShape> stream;
  for (const std::int64_t base : {48, 64, 96, 128, 192, 256}) {
    for (const std::int64_t n : {16, 32, 64, 96}) {
      codegen::GemmShape s;
      s.m = base;
      s.n = n;
      s.k = base + n;
      stream.push_back(s);
    }
  }

  constexpr std::size_t kBatch = 4;
  char line[512];
  for (std::size_t begin = 0; begin < stream.size(); begin += kBatch) {
    const std::size_t end = std::min(stream.size(), begin + kBatch);
    for (std::size_t i = begin; i < end; ++i) ctx.select<core::GemmOp>(stream[i]);
    ctx.drain_background();  // land any scheduled retrain before evaluating
    const auto snap = ctx.model_snapshot();
    std::snprintf(line, sizeof(line),
                  "{\"bench\":\"online_learning\",\"phase\":\"trajectory\",\"batch\":%zu,"
                  "\"shapes_replayed\":%zu,\"observations\":%llu,\"model_version\":%llu,"
                  "\"probe_rel_err\":%.4f}\n",
                  begin / kBatch, end,
                  static_cast<unsigned long long>(ctx.observation_log().total_appended()),
                  static_cast<unsigned long long>(snap->version()),
                  mean_rel_error(snap->regressor(), probe));
    std::fputs(line, stdout);
    std::fflush(stdout);
    json.append(line);
  }

  const double err_fresh = mean_rel_error(ctx.model_snapshot()->regressor(), probe);
  const double improvement = err_fresh > 0.0 ? err_stale / err_fresh : 0.0;
  const auto rl = measure_select_under_retrain();
  const double p99_ratio =
      rl.p99_baseline_us > 0.0 ? rl.p99_during_us / rl.p99_baseline_us : 0.0;

  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"online_learning\",\"phase\":\"summary\",\"drift_trips\":%zu,"
      "\"retrains\":%zu,\"swaps\":%zu,\"model_version\":%llu,"
      "\"err_stale\":%.4f,\"err_fresh\":%.4f,\"err_improvement\":%.2f,"
      "\"retrain_wall_ms\":%.1f,\"p99_select_baseline_us\":%.2f,"
      "\"p99_select_during_retrain_us\":%.2f,\"p99_ratio\":%.3f,"
      "\"during_samples\":%zu}\n",
      ctx.drift_trips(), ctx.retrains(), ctx.model_swaps(),
      static_cast<unsigned long long>(ctx.model_snapshot()->version()), err_stale, err_fresh,
      improvement, rl.retrain_wall_ms, rl.p99_baseline_us, rl.p99_during_us, p99_ratio,
      rl.during_samples);
  std::fputs(line, stdout);
  std::fflush(stdout);
  json.append(line);

  if (std::FILE* f = std::fopen("BENCH_online_learning.json", "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
  return 0;
}

// ------------------------------------------------------------------ chaos --

/// Zipf-shaped index stream over a pool of `k` shapes: rank r drawn with
/// probability ∝ 1/(r+1) — a few hot shapes dominate, the tail stays cold.
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
    codegen::GemmShape s;
    s.m = 32 + 16 * static_cast<std::int64_t>(i % 8);
    s.n = 16 + 8 * static_cast<std::int64_t>(i / 8);
    s.k = s.m + s.n + 64 * pool_id;
    pool.push_back(s);
  }
  return pool;
}

const char* breaker_state_name(CircuitBreaker::State s) {
  switch (s) {
    case CircuitBreaker::State::closed: return "closed";
    case CircuitBreaker::State::open: return "open";
    case CircuitBreaker::State::half_open: return "half_open";
  }
  return "unknown";
}

struct ChaosReplay {
  std::vector<double> select_us;
  std::size_t escapes = 0;  ///< exceptions that escaped select() — must be 0
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
    out.select_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
  }
  return out;
}

/// Chaos mode: `--chaos` replays a Zipf shape stream through the two-tier
/// dispatch runtime three times — fault-free baseline, then under a fault
/// storm (every failpoint domain armed probabilistically: device measurement,
/// model prediction, hung refinements, cache and observation-log disk writes,
/// retraining), then with the faults cleared — and asserts the hardening
/// contract: zero exceptions escape select() during the storm, storm-time
/// select p99 stays within 2× the fault-free baseline (with a 10 ms floor
/// for sub-millisecond baselines on noisy runners), and once the faults
/// clear the cache converges back to all-refined entries with the circuit
/// breaker closed. JSON lines on stdout, mirrored to BENCH_chaos.json.
int run_chaos() {
  const auto& m = model();

  core::ContextOptions opts = dispatch_options();
  opts.online.enabled = true;
  opts.online.drift.threshold = 1e9;  // retrains via cadence, not drift
  opts.online.retrain_every = 128;
  opts.online.retrain.min_observations = 64;
  opts.online.retrain.epochs = 4;
  opts.fault.refine_deadline_ms = 100.0;   // bound injected hangs
  opts.fault.refine_max_pending = 8;       // admission control active
  opts.fault.breaker_cooldown_ms = 100.0;
  opts.fault.refine_retry_reset_ms = 200.0;  // forgive dropped keys quickly
  opts.fault.disk_retry_ms = 50.0;
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(m);

  constexpr std::size_t kPool = 24;
  constexpr std::size_t kStream = 400;
  std::string json;
  char line[768];
  const auto emit_phase = [&](const char* phase, const ChaosReplay& r) {
    std::snprintf(line, sizeof(line),
                  "{\"bench\":\"chaos\",\"phase\":\"%s\",\"selects\":%zu,\"escapes\":%zu,"
                  "\"p50_select_us\":%.1f,\"p99_select_us\":%.1f,\"max_select_us\":%.1f}\n",
                  phase, r.select_us.size(), r.escapes, stats::percentile(r.select_us, 0.50),
                  stats::percentile(r.select_us, 0.99),
                  *std::max_element(r.select_us.begin(), r.select_us.end()));
    std::fputs(line, stdout);
    std::fflush(stdout);
    json.append(line);
  };

  // Phase 1 — fault-free baseline on pool A.
  const auto pool_a = chaos_pool(kPool, 0);
  const auto baseline = chaos_replay(ctx, pool_a, zipf_stream(kPool, kStream, 17));
  ctx.drain_background();
  emit_phase("baseline", baseline);
  const double p99_base = stats::percentile(baseline.select_us, 0.99);

  // Phase 2 — the storm: every fault domain armed, fresh (cold) pool B so
  // leaders, refinements, disk appends and retrains all run under fire.
  failpoint::arm("measure.throw", "prob:0.15:1");
  failpoint::arm("predict.throw", "prob:0.12:2");
  failpoint::arm("refine.hang", "prob:0.12:3");
  failpoint::arm("cache.write_fail", "prob:0.25:4");
  failpoint::arm("obslog.write_fail", "prob:0.25:5");
  failpoint::arm("retrain.throw", "prob:0.5:6");
  const auto pool_b = chaos_pool(kPool, 1);
  const auto storm = chaos_replay(ctx, pool_b, zipf_stream(kPool, kStream, 23));
  ctx.drain_background();
  emit_phase("storm", storm);
  const double p99_storm = stats::percentile(storm.select_us, 0.99);
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"chaos\",\"phase\":\"storm_faults\",\"fallbacks_served\":%zu,"
      "\"breaker_short_circuits\":%zu,\"refinements_shed\":%zu,\"refinements_dropped\":%zu,"
      "\"cache_disk_writes_skipped\":%llu,\"obslog_disk_writes_skipped\":%llu,"
      "\"breaker_state\":\"%s\"}\n",
      ctx.fallbacks_served(), ctx.breaker_short_circuits(), ctx.refinements_shed(),
      ctx.refinements_dropped(),
      static_cast<unsigned long long>(ctx.cache().disk_writes_skipped()),
      static_cast<unsigned long long>(ctx.observation_log().disk_writes_skipped()),
      breaker_state_name(ctx.breaker_state("gemm")));
  std::fputs(line, stdout);
  std::fflush(stdout);
  json.append(line);

  // Phase 3 — recovery: faults clear; repeated hits must converge every
  // storm-era entry (fallback or provisional) back to the refined tier and
  // re-close the breaker. Each round re-arms what the previous round shed,
  // dropped, or left behind an open breaker.
  failpoint::disarm_all();
  bool converged = false;
  int rounds = 0;
  ChaosReplay recovery;
  for (; rounds < 40 && !converged; ++rounds) {
    converged = true;
    for (const auto& shape : pool_b) {
      using Clock = std::chrono::steady_clock;
      const auto t0 = Clock::now();
      core::EntryTier tier = core::EntryTier::refined;
      try {
        ctx.select<core::GemmOp>(shape, nullptr, &tier);
      } catch (...) {
        ++recovery.escapes;
      }
      recovery.select_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
      converged = converged && tier == core::EntryTier::refined;
    }
    ctx.drain_background();
    if (!converged) {
      // Dropped keys sit behind the retry-reset window: give it time to
      // forgive before the next round re-arms them.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  converged = converged && ctx.breaker_state("gemm") == CircuitBreaker::State::closed;
  emit_phase("recovery", recovery);

  const bool p99_ok = p99_storm <= std::max(2.0 * p99_base, p99_base + 10000.0);
  const bool escapes_ok = storm.escapes == 0 && baseline.escapes == 0 && recovery.escapes == 0;
  const bool disk_ok = !ctx.cache().disk_degraded() && !ctx.observation_log().disk_degraded();
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"chaos\",\"phase\":\"summary\",\"escapes\":%zu,\"p99_base_us\":%.1f,"
      "\"p99_storm_us\":%.1f,\"p99_ratio\":%.2f,\"p99_ok\":%s,\"recovery_rounds\":%d,"
      "\"converged\":%s,\"breaker_state\":\"%s\",\"disk_recovered\":%s}\n",
      storm.escapes + baseline.escapes + recovery.escapes, p99_base, p99_storm,
      p99_base > 0.0 ? p99_storm / p99_base : 0.0, p99_ok ? "true" : "false", rounds,
      converged ? "true" : "false", breaker_state_name(ctx.breaker_state("gemm")),
      disk_ok ? "true" : "false");
  std::fputs(line, stdout);
  std::fflush(stdout);
  json.append(line);

  if (std::FILE* f = std::fopen("BENCH_chaos.json", "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }

  if (!escapes_ok) {
    std::fprintf(stderr, "[chaos] %zu exception(s) escaped select() — dispatch must never throw under faults\n",
                 storm.escapes + baseline.escapes + recovery.escapes);
    return 1;
  }
  if (!p99_ok) {
    std::fprintf(stderr, "[chaos] storm select p99 %.1fus exceeds 2x baseline %.1fus\n",
                 p99_storm, p99_base);
    return 1;
  }
  if (!converged) {
    std::fprintf(stderr, "[chaos] cache failed to converge to refined tier after %d recovery rounds (breaker %s)\n",
                 rounds, breaker_state_name(ctx.breaker_state("gemm")));
    return 1;
  }
  if (!disk_ok) {
    std::fprintf(stderr, "[chaos] disk paths still degraded after faults cleared\n");
    return 1;
  }
  return 0;
}

// ------------------------------------------------------- dispatch latency --

/// Cold-dispatch latency mode: `--dispatch_latency` times the first
/// `select()` for a grid of distinct cold shapes under two-tier dispatch
/// (tier 1: the model's instant argmax + background refinement) and under
/// blocking tuning, reporting p50/p99 per mode, the speedup, and how often
/// the refined entry agrees with the blocking search's selection. One JSON
/// line per mode plus a summary line on stdout.
int run_dispatch_latency() {
  const auto& m = model();

  // Distinct cold shapes spanning square, skinny and deep regimes.
  std::vector<codegen::GemmShape> shapes;
  for (const std::int64_t base : {64, 96, 128, 192, 256, 384, 512, 768}) {
    for (const std::int64_t n : {16, 48, 133, 301, 512, 1024}) {
      codegen::GemmShape s;
      s.m = base;
      s.n = n;
      s.k = base + n;  // keep every (m, n, k) distinct
      shapes.push_back(s);
    }
  }

  core::ContextOptions opts = dispatch_options();
  opts.noise_sigma = 0.0;  // deterministic measurements: selections comparable
  core::Context fast(gpusim::tesla_p100(), opts);
  fast.set_model(m);
  auto blocking_opts = opts;
  blocking_opts.two_tier = false;
  core::Context blocking(gpusim::tesla_p100(), blocking_opts);
  blocking.set_model(m);

  const auto time_select_us = [](core::Context& ctx, const codegen::GemmShape& shape) {
    const auto t0 = std::chrono::steady_clock::now();
    ctx.select<core::GemmOp>(shape);
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  std::vector<double> fast_us, blocking_us;
  fast_us.reserve(shapes.size());
  blocking_us.reserve(shapes.size());
  for (const auto& shape : shapes) {
    fast_us.push_back(time_select_us(fast, shape));
    // Land the refinement outside the timed section: each sample then
    // measures the pure tier-1 path instead of racing the previous shape's
    // background search for cores (which would swamp p99 on small CI
    // runners; refinement/dispatch overlap is the throughput benches' job).
    fast.drain_background();
  }
  for (const auto& shape : shapes) blocking_us.push_back(time_select_us(blocking, shape));

  std::size_t agree = 0;
  const std::string& dev = fast.device().name;
  for (const auto& shape : shapes) {
    const auto refined = fast.cache().lookup<core::GemmOp>(dev, shape);
    const auto truth = blocking.cache().lookup<core::GemmOp>(dev, shape);
    if (refined && truth && *refined == *truth) ++agree;
  }

  const auto emit = [&](const char* mode, const std::vector<double>& us) {
    std::printf(
        "{\"bench\":\"dispatch_latency\",\"op\":\"gemm\",\"mode\":\"%s\","
        "\"cold_shapes\":%zu,\"p50_us\":%.1f,\"p99_us\":%.1f,\"p999_us\":%.1f,"
        "\"max_us\":%.1f}\n",
        mode, us.size(), stats::percentile(us, 0.50), stats::percentile(us, 0.99),
        stats::percentile(us, 0.999), *std::max_element(us.begin(), us.end()));
  };
  emit("two_tier", fast_us);
  emit("blocking", blocking_us);
  std::printf(
      "{\"bench\":\"dispatch_latency\",\"op\":\"gemm\",\"mode\":\"summary\","
      "\"p99_speedup\":%.1f,\"p999_speedup\":%.1f,\"refined_agreement\":%.3f,"
      "\"predictions\":%zu,\"refinements\":%zu}\n",
      stats::percentile(blocking_us, 0.99) / stats::percentile(fast_us, 0.99),
      stats::percentile(blocking_us, 0.999) / stats::percentile(fast_us, 0.999),
      static_cast<double>(agree) / static_cast<double>(shapes.size()), fast.predictions(),
      fast.refinements());
  std::fflush(stdout);

  // Retraining must never block dispatch: hot select() p99 with a warm-start
  // retrain actively training on the pool must stay within 1.2× of the
  // no-retrain baseline. Asserted here (not just reported) so any future
  // lock added to the model path fails this mode loudly.
  const auto rl = measure_select_under_retrain();
  const double p99_ratio =
      rl.p99_baseline_us > 0.0 ? rl.p99_during_us / rl.p99_baseline_us : 0.0;
  std::printf(
      "{\"bench\":\"dispatch_latency\",\"op\":\"gemm\",\"mode\":\"retrain_overlap\","
      "\"p99_baseline_us\":%.2f,\"p99_during_retrain_us\":%.2f,\"p99_ratio\":%.3f,"
      "\"during_samples\":%zu,\"retrain_wall_ms\":%.1f,\"retrained\":%s}\n",
      rl.p99_baseline_us, rl.p99_during_us, p99_ratio, rl.during_samples, rl.retrain_wall_ms,
      rl.retrained ? "true" : "false");
  std::fflush(stdout);
  if (!rl.retrained || rl.during_samples == 0) {
    std::fprintf(stderr,
                 "[dispatch_latency] retrain-overlap window never materialized "
                 "(retrained=%d, during_samples=%zu)\n",
                 rl.retrained ? 1 : 0, rl.during_samples);
    return 1;
  }
  if (p99_ratio > 1.2) {
    std::fprintf(stderr,
                 "[dispatch_latency] hot select p99 degraded %.3fx (> 1.2x) during an "
                 "active retrain — retraining is blocking dispatch\n",
                 p99_ratio);
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------- rank throughput --

/// Per-op outcome of the rank-throughput bench, so the summary (and CI) can
/// gate on the weakest op instead of just the last one printed.
struct RankThroughputResult {
  double agreement = 0.0;     ///< top-k ordering agreement vs reference_rank
  double enum_speedup = 0.0;  ///< pruned-walk enumeration vs generate-and-test
  bool walk_match = true;     ///< walk survivor list == sweep survivor list
};

template <typename Op>
RankThroughputResult rank_throughput_op(
    const char* opname, const typename core::OperationTraits<Op>::Shape& rank_shape,
    const typename core::OperationTraits<Op>::Shape& enum_shape,
    const std::vector<typename core::OperationTraits<Op>::Shape>& cold_shapes,
    std::size_t max_candidates, const mlp::Regressor& m, std::string* json_sink) {
  using Clock = std::chrono::steady_clock;
  const auto secs = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const auto& dev = gpusim::tesla_p100();
  const typename core::OperationTraits<Op>::SearchSpace space;
  search::SearchProblem<Op> problem;
  problem.shape = &rank_shape;
  problem.device = &dev;
  problem.space = &space;
  problem.model = &m;
  search::SearchConfig cfg;
  cfg.max_candidates = max_candidates;
  constexpr std::size_t kTopK = 100;

  // Cold pass: grows the thread-local arenas.
  auto t0 = Clock::now();
  const auto first = search::rank_legal_space(problem, cfg, kTopK);
  const double cold_s = secs(t0);

  // Steady state: what a tuning pass / cold dispatch actually costs. The
  // ranking keeps only its k winners; throughput counts every point scored.
  constexpr int kReps = 3;
  t0 = Clock::now();
  std::size_t scored = 0;
  search::RankedCandidates<Op> fast;
  for (int i = 0; i < kReps; ++i) {
    fast = search::rank_legal_space(problem, cfg, kTopK);
    scored += fast.scored;
  }
  const double warm_s = secs(t0);

  // Generate-and-test reference on the same machine/thread count, ranked in
  // full, and ordering agreement between the two pipelines over the whole
  // best-first sequence — every scored point, choice and score bits (must
  // be 1.0).
  constexpr std::size_t kAll = std::numeric_limits<std::size_t>::max();
  t0 = Clock::now();
  const auto legacy = reference::reference_rank(problem, cfg, kAll);
  const double legacy_s = secs(t0);
  const auto full_rank = search::rank_legal_space(problem, cfg, kAll);
  std::size_t agree = 0;
  const std::size_t k = std::min(full_rank.order.size(), legacy.order.size());
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t a = full_rank.order[i];
    const std::size_t b = legacy.order[i];
    if (full_rank.candidates[a] == legacy.candidates[b] &&
        std::bit_cast<std::uint64_t>(full_rank.scores[a]) ==
            std::bit_cast<std::uint64_t>(legacy.scores[b])) {
      ++agree;
    }
  }
  const double agreement =
      (full_rank.order.size() == legacy.candidates.size() && full_rank.scored == fast.scored &&
       k > 0)
          ? static_cast<double>(agree) / static_cast<double>(k)
          : 0.0;

  // Allocations-per-candidate proxy: re-score the reference's scored set
  // chunk by chunk (reusing one chunk-sized staging batch) and compare
  // per-chunk times. A pipeline that allocates per candidate/chunk shows a
  // fat first chunk and a long tail; an allocation-free one is flat.
  std::vector<double> chunk_us;
  {
    tuning::FeatureBatch full(m.num_features(), legacy.candidates.size());
    ThreadPool::global().parallel_for_each(legacy.candidates.size(), [&](std::size_t i) {
      problem.featurize_into(problem.space->decode(legacy.candidates[i]), full.row(i));
    });
    tuning::FeatureBatch staging(m.num_features());
    const std::size_t chunk = cfg.batch;
    for (std::size_t begin = 0; begin < full.rows(); begin += chunk) {
      const std::size_t end = std::min(full.rows(), begin + chunk);
      staging.resize(end - begin);
      std::copy(full.row(begin), full.row(begin) + (end - begin) * full.arity(),
                staging.data());
      const auto c0 = Clock::now();
      const auto s = m.predict_gflops_chunked(staging, 0);
      benchmark::DoNotOptimize(s.data());
      chunk_us.push_back(secs(c0) * 1e6);
    }
  }

  // Enumeration engines head-to-head on `enum_shape`: the generate-and-test
  // flat-range sweep vs the constraint-propagating pruned walk that
  // rank_legal_space enumerates through — same thread pool, same legality
  // gate, survivor lists compared exactly. Three timed reps of each engine,
  // interleaved so both sides sample the same machine-noise window; the
  // engines are deterministic, so the per-side minimum is the measurement
  // least polluted by noise.
  search::SearchProblem<Op> enum_problem = problem;
  enum_problem.shape = &enum_shape;
  double enum_sweep_s = 0.0;
  double enum_walk_s = 0.0;
  std::vector<std::uint64_t> sweep;
  PageVector<std::uint64_t> walked;
  constexpr int kEnumReps = 3;
  for (int rep = 0; rep < kEnumReps; ++rep) {
    t0 = Clock::now();
    sweep = reference::sweep_legal(enum_problem);
    const double sweep_s = secs(t0);
    if (rep == 0 || sweep_s < enum_sweep_s) enum_sweep_s = sweep_s;

    t0 = Clock::now();
    walked = search::detail::enumerate_legal(enum_problem);
    const double walk_s = secs(t0);
    if (rep == 0 || walk_s < enum_walk_s) enum_walk_s = walk_s;
  }
  const bool walk_match = std::equal(walked.begin(), walked.end(), sweep.begin(), sweep.end());

  // Cold select() latency: fresh two-tier context, every shape a cache miss.
  core::ContextOptions opts = dispatch_options();
  opts.noise_sigma = 0.0;
  core::Context ctx(dev, opts);
  ctx.set_model(m);
  std::vector<double> select_us;
  select_us.reserve(cold_shapes.size());
  for (const auto& shape : cold_shapes) {
    const auto s0 = Clock::now();
    ctx.select<Op>(shape);
    select_us.push_back(secs(s0) * 1e6);
    ctx.drain_background();  // keep refinement out of the next timed select
  }

  RankThroughputResult result;
  result.agreement = agreement;
  result.enum_speedup = enum_walk_s > 0.0 ? enum_sweep_s / enum_walk_s : 0.0;
  result.walk_match = walk_match;

  char line[1024];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"rank_throughput\",\"op\":\"%s\",\"space\":%zu,\"candidates\":%zu,"
      "\"cands_per_sec\":%.0f,\"cold_cands_per_sec\":%.0f,\"legacy_cands_per_sec\":%.0f,"
      "\"speedup_vs_legacy\":%.2f,\"ordering_agreement\":%.3f,"
      "\"walk_points\":%zu,\"enum_sweep_s\":%.3f,\"enum_pruned_s\":%.3f,"
      "\"enum_speedup\":%.2f,\"walk_match\":%s,"
      "\"p50_select_us\":%.1f,\"p99_select_us\":%.1f,"
      "\"chunk_us_first\":%.1f,\"chunk_us_p50\":%.1f,\"chunk_us_max\":%.1f}\n",
      opname, space.size(), fast.scored,
      static_cast<double>(scored) / warm_s,
      static_cast<double>(first.scored) / cold_s,
      static_cast<double>(legacy.candidates.size()) / legacy_s,
      (static_cast<double>(scored) / warm_s) /
          (static_cast<double>(legacy.candidates.size()) / legacy_s),
      agreement, walked.size(), enum_sweep_s, enum_walk_s, result.enum_speedup,
      walk_match ? "true" : "false", stats::percentile(select_us, 0.50),
      stats::percentile(select_us, 0.99), chunk_us.front(),
      stats::percentile(chunk_us, 0.50),
      *std::max_element(chunk_us.begin(), chunk_us.end()));
  std::fputs(line, stdout);
  std::fflush(stdout);
  if (json_sink) json_sink->append(line);
  return result;
}

int run_rank_throughput() {
  const auto& m = model();

  // The MLP-regime GEMM the ranking pipeline actually runs (chunk × features
  // through the 64-128-64 stack): blocked kernel vs the naive reference.
  double gemm_speedup = 0.0;
  {
    using Clock = std::chrono::steady_clock;
    Rng rng(11);
    linalg::Matrix a(2048, 64), b(64, 128), c1(2048, 128), c2(2048, 128);
    a.randomize_uniform(rng, -1.0f, 1.0f);
    b.randomize_uniform(rng, -1.0f, 1.0f);
    linalg::gemm(linalg::Trans::No, linalg::Trans::No, 1.0f, a, b, 0.0f, c1);  // warm packs
    constexpr int kReps = 20;
    auto t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      linalg::gemm(linalg::Trans::No, linalg::Trans::No, 1.0f, a, b, 0.0f, c1);
    }
    const double blocked_s = std::chrono::duration<double>(Clock::now() - t0).count();
    t0 = Clock::now();
    for (int i = 0; i < kReps; ++i) {
      linalg::gemm_reference(linalg::Trans::No, linalg::Trans::No, 1.0f, a, b, 0.0f, c2);
    }
    const double reference_s = std::chrono::duration<double>(Clock::now() - t0).count();
    gemm_speedup = reference_s / blocked_s;
  }

  std::vector<codegen::GemmShape> gemm_cold;
  for (const std::int64_t base : {64, 128, 256, 512, 768, 1024}) {
    for (const std::int64_t n : {16, 133, 512}) {
      codegen::GemmShape s;
      s.m = base;
      s.n = n;
      s.k = base + n;
      gemm_cold.push_back(s);
    }
  }
  std::vector<codegen::ConvShape> conv_cold;
  for (const std::int64_t hw : {7, 14, 28, 54}) {
    for (const std::int64_t c : {64, 128, 256}) {
      conv_cold.push_back(codegen::ConvShape::from_npq(8, hw, hw, c, c, 3, 3));
    }
  }
  std::vector<codegen::BatchedGemmShape> bgemm_cold;
  for (const std::int64_t batch : {4, 16, 64}) {
    for (const std::int64_t mm : {64, 128, 256, 512}) {
      codegen::BatchedGemmShape s;
      s.batch = batch;
      s.gemm.m = mm;
      s.gemm.n = 32;
      s.gemm.k = mm + batch;
      bgemm_cold.push_back(s);
    }
  }

  codegen::GemmShape gemm_rank = bench_shape();  // 2560×32×2560, ranked densely
  auto conv_rank = codegen::ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3);
  codegen::BatchedGemmShape bgemm_rank;
  bgemm_rank.batch = 16;
  bgemm_rank.gemm.m = 512;
  bgemm_rank.gemm.n = 64;
  bgemm_rank.gemm.k = 512;

  // The enumeration head-to-head's shapes: dtype, layout and filter geometry
  // kept, every other dimension blown up so the shape-dependent legality
  // checks (KG ≤ K, U·KL ≤ ⌈K/KG⌉, output-extent tiles, C·R·S reduction
  // depth) pass whenever they can — the walk then wins on structural
  // pruning alone, not on a legal set the real shape happens to shrink.
  codegen::GemmShape gemm_enum = gemm_rank;
  gemm_enum.m = gemm_enum.n = gemm_enum.k = std::int64_t{1} << 30;
  codegen::ConvShape conv_enum = conv_rank;
  conv_enum.n = conv_enum.c = conv_enum.k = std::int64_t{1} << 20;
  conv_enum.h = conv_enum.w = std::int64_t{1} << 20;
  codegen::BatchedGemmShape bgemm_enum = bgemm_rank;
  bgemm_enum.batch = 1;
  bgemm_enum.gemm.m = bgemm_enum.gemm.n = bgemm_enum.gemm.k = std::int64_t{1} << 30;

  std::string json;
  const auto gemm_res = rank_throughput_op<core::GemmOp>("gemm", gemm_rank, gemm_enum,
                                                         gemm_cold, 0, m, &json);
  const auto conv_res = rank_throughput_op<core::ConvOp>("conv", conv_rank, conv_enum,
                                                         conv_cold, 200000, m, &json);
  const auto bgemm_res = rank_throughput_op<core::BatchedGemmOp>(
      "bgemm", bgemm_rank, bgemm_enum, bgemm_cold, 0, m, &json);
  const double min_agreement =
      std::min({gemm_res.agreement, conv_res.agreement, bgemm_res.agreement});
  const bool all_match = gemm_res.walk_match && conv_res.walk_match && bgemm_res.walk_match;

  char line[512];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"rank_throughput\",\"op\":\"summary\",\"gemm_speedup_vs_reference\":%.2f,"
      "\"min_ordering_agreement\":%.3f,\"conv_enum_speedup\":%.2f,"
      "\"min_enum_speedup\":%.2f,\"all_walk_match\":%s,\"gemm_kernel\":\"%s\"}\n",
      gemm_speedup, min_agreement, conv_res.enum_speedup,
      std::min({gemm_res.enum_speedup, conv_res.enum_speedup, bgemm_res.enum_speedup}),
      all_match ? "true" : "false",
      cpu::name(cpu::widest()));
  std::fputs(line, stdout);
  std::fflush(stdout);
  json.append(line);

  // Artifact copy for CI upload / trajectory diffing: one JSON object per
  // line, same content as stdout.
  if (std::FILE* f = std::fopen("BENCH_rank_throughput.json", "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --telemetry_dump[=path]: enable metrics + tracing before the selected
  // mode runs and write the JSON snapshot afterwards. Default target
  // telemetry.json; "stderr" writes to stderr. Never stdout — the modes own
  // stdout for their machine-readable BENCH lines.
  std::string telemetry_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    constexpr const char* kFlag = "--telemetry_dump";
    if (arg == kFlag) {
      telemetry_path = "telemetry.json";
    } else if (arg.rfind(std::string(kFlag) + "=", 0) == 0) {
      telemetry_path = arg.substr(std::string(kFlag).size() + 1);
      if (telemetry_path.empty()) telemetry_path = "telemetry.json";
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!telemetry_path.empty()) {
    isaac::telemetry::set_enabled(true);
    isaac::telemetry::set_tracing(true);
  }
  const auto finish = [&](int rc) {
    if (!telemetry_path.empty() && !isaac::telemetry::dump_to_file(telemetry_path)) return 1;
    return rc;
  };
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (std::string(args[i]) == "--dispatch_latency") return finish(run_dispatch_latency());
    if (std::string(args[i]) == "--rank_throughput") return finish(run_rank_throughput());
    if (std::string(args[i]) == "--online_learning") return finish(run_online_learning());
    if (std::string(args[i]) == "--chaos") return finish(run_chaos());
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return finish(0);
}
