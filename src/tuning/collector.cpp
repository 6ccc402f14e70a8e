#include "tuning/collector.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "core/operation.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace isaac::tuning {

namespace {

std::int64_t log_uniform(Rng& rng, std::int64_t lo, std::int64_t hi) {
  const double v = rng.uniform(std::log(static_cast<double>(lo)),
                               std::log(static_cast<double>(hi)));
  return std::max<std::int64_t>(lo, std::min<std::int64_t>(hi,
                                                           static_cast<std::int64_t>(std::exp(v))));
}

gpusim::DataType random_dtype(Rng& rng) {
  // f32-weighted mix: most training traffic is single precision, as in the
  // paper's tuning runs.
  const double r = rng.uniform();
  if (r < 0.6) return gpusim::DataType::F32;
  if (r < 0.8) return gpusim::DataType::F16;
  return gpusim::DataType::F64;
}

}  // namespace

codegen::GemmShape random_gemm_shape(const CollectorConfig& config, Rng& rng) {
  codegen::GemmShape s;
  s.m = log_uniform(rng, config.min_mn, config.max_mn);
  s.n = log_uniform(rng, config.min_mn, config.max_mn);
  s.k = log_uniform(rng, config.min_k, config.max_k);
  s.dtype = config.sample_dtypes ? random_dtype(rng) : gpusim::DataType::F32;
  if (config.sample_layouts) {
    s.trans_a = rng.bernoulli(0.5);
    s.trans_b = rng.bernoulli(0.5);
  }
  return s;
}

codegen::ConvShape random_conv_shape(const CollectorConfig& config, Rng& rng) {
  // Spatial extents and channel counts spanning Table 5's applications.
  codegen::ConvShape s;
  s.n = log_uniform(rng, 1, 32);
  s.c = log_uniform(rng, 1, 1024);
  s.k = log_uniform(rng, 8, 1024);
  const std::int64_t p = log_uniform(rng, 4, 128);
  const std::int64_t q = log_uniform(rng, 4, 128);
  const std::int64_t rs = rng.choice(std::vector<std::int64_t>{1, 3, 5, 7});
  s.r = rs;
  s.s = rs;
  s.h = p + rs - 1;
  s.w = q + rs - 1;
  s.dtype = config.sample_dtypes
                ? (rng.uniform() < 0.75 ? gpusim::DataType::F32 : gpusim::DataType::F16)
                : gpusim::DataType::F32;
  return s;
}

codegen::BatchedGemmShape random_batched_gemm_shape(const CollectorConfig& config, Rng& rng) {
  // Deep-learning inference regime: many small per-batch problems. The batch
  // count is log-uniform and the per-batch panel stays modest so the product
  // of both matches the data sizes GEMM collection spans.
  codegen::BatchedGemmShape s;
  s.batch = log_uniform(rng, 1, 256);
  CollectorConfig per_batch = config;
  per_batch.max_mn = std::min<std::int64_t>(config.max_mn, 512);
  per_batch.max_k = std::min<std::int64_t>(config.max_k, 4096);
  s.gemm = random_gemm_shape(per_batch, rng);
  return s;
}

namespace {

/// Shared implementation: the Op trait selects the generator; only the shape
/// distribution (config-dependent) is passed in.
template <typename Op, typename ShapeFn>
CollectionReport collect_impl(const gpusim::Simulator& sim, const CollectorConfig& config,
                              const ShapeFn& shape_fn) {
  using Traits = core::OperationTraits<Op>;
  using ShapeT = typename Traits::Shape;

  telemetry::Span span("collect");
  ISAAC_TM_COUNT("collect.runs");
  const std::uint64_t t0 = telemetry::enabled() ? telemetry::now_us() : 0;
  const typename Traits::SearchSpace space;
  const auto& dev = sim.device();
  const auto validate_fn = [&](const ShapeT& s, const typename Traits::Tuning& t) {
    return Traits::validate(s, t, dev);
  };

  CollectionReport report;
  Rng fit_rng(config.seed);

  // Collection owns its noise stream: two collect() calls with the same
  // config produce bit-identical datasets regardless of what else ran on the
  // caller's simulator.
  const gpusim::Simulator local_sim(sim.device(), sim.noise_sigma(), config.seed ^ 0x51A0);

  // Fit the categorical model by probing legality against shapes drawn from
  // the same distribution collection will use — the model learns which
  // parameter values survive resource limits *in general*.
  CategoricalModel model(space.domains(), config.alpha);
  Rng shape_rng = fit_rng.fork(17);
  report.probe = model.fit(
      [&](const std::vector<std::size_t>& choice) {
        const auto tuning = space.decode(choice);
        const ShapeT shape = shape_fn(shape_rng);
        return validate_fn(shape, tuning);
      },
      config.probe_samples, fit_rng);

  // Parallel collection: each worker owns a forked RNG stream; samples are
  // gathered per-chunk and spliced in order for determinism.
  const std::size_t n = config.num_samples;
  std::vector<std::vector<Sample>> chunks(n == 0 ? 0 : (n + 499) / 500);
  std::atomic<std::uint64_t> attempted{0}, accepted{0};
  std::mutex time_mutex;
  double simulated_time = 0.0;

  ThreadPool::global().parallel_for_each(chunks.size(), [&](std::size_t ci) {
    Rng rng = Rng(config.seed).fork(1000 + ci);
    const std::size_t begin = ci * 500;
    const std::size_t end = std::min(n, begin + 500);
    auto& out = chunks[ci];
    out.reserve(end - begin);
    double local_time = 0.0;
    std::uint64_t local_attempted = 0, local_accepted = 0;

    for (std::size_t i = begin; i < end; ++i) {
      // Rejection-sample a legal (shape, tuning) pair from the model.
      for (int tries = 0; tries < 200; ++tries) {
        const ShapeT shape = shape_fn(rng);
        const auto choice = model.sample(rng);
        const auto tuning = space.decode(choice);
        ++local_attempted;
        if (!validate_fn(shape, tuning)) continue;
        ++local_accepted;

        const auto profile = Traits::analyze(shape, tuning, dev);
        const auto result = local_sim.launch_median(profile, config.timing_reps);
        if (!result.valid) continue;

        Sample s;
        s.x.resize(kNumFeatures);
        Traits::featurize_into(shape, tuning, s.x.data());
        s.y = result.tflops * 1000.0;  // GFLOPS
        out.push_back(std::move(s));
        local_time += result.seconds * config.timing_reps;
        break;
      }
    }
    attempted += local_attempted;
    accepted += local_accepted;
    std::lock_guard<std::mutex> lock(time_mutex);
    simulated_time += local_time;
  });

  for (auto& chunk : chunks) {
    for (auto& s : chunk) report.dataset.add(std::move(s));
  }
  report.generation.attempted = attempted;
  report.generation.accepted = accepted;
  report.wall_seconds_simulated = simulated_time;

  ISAAC_TM_COUNT_N("collect.samples", report.dataset.size());
  ISAAC_TM_COUNT_N("collect.attempted", report.generation.attempted);
  ISAAC_TM_COUNT_N("collect.accepted", report.generation.accepted);
  if (t0) ISAAC_TM_RECORD("collect.run_us", telemetry::now_us() - t0);

  ISAAC_LOG_INFO() << "collected " << report.dataset.size() << " samples (model acceptance "
                   << report.generation.rate() * 100.0 << "%, simulated device time "
                   << simulated_time << " s)";
  return report;
}

}  // namespace

CollectionReport collect_gemm(const gpusim::Simulator& sim, const CollectorConfig& config) {
  return collect_impl<core::GemmOp>(sim, config,
                                    [&](Rng& rng) { return random_gemm_shape(config, rng); });
}

CollectionReport collect_conv(const gpusim::Simulator& sim, const CollectorConfig& config) {
  return collect_impl<core::ConvOp>(sim, config,
                                    [&](Rng& rng) { return random_conv_shape(config, rng); });
}

CollectionReport collect_batched_gemm(const gpusim::Simulator& sim,
                                      const CollectorConfig& config) {
  return collect_impl<core::BatchedGemmOp>(
      sim, config, [&](Rng& rng) { return random_batched_gemm_shape(config, rng); });
}

}  // namespace isaac::tuning
