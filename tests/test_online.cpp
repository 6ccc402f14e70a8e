// Online model lifecycle tests (DESIGN.md, "Online model lifecycle"):
// versioned model artifacts, the observation log, drift detection,
// warm-start retraining, and the Context end-to-end loop — dispatch on a
// changed device records observations, trips drift, retrains off the hot
// path, and hot-swaps the successor version.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/isaac.hpp"
#include "gpusim/device.hpp"
#include "gpusim/simulator.hpp"
#include "mlp/regressor.hpp"
#include "mlp/versioned_model.hpp"
#include "support/counter_delta.hpp"
#include "support/latency_bounds.hpp"
#include "tuning/collector.hpp"
#include "tuning/dataset.hpp"
#include "tuning/observation_log.hpp"
#include "tuning/online.hpp"

namespace isaac {
namespace {

// Synthetic multiplicative law over the 15-feature schema — the same shape
// of problem the regressor faces in production, cheap enough for unit tests.
tuning::Dataset synth(std::size_t n, std::uint64_t seed, double scale = 1.0) {
  tuning::Dataset data;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    tuning::Sample s;
    s.x.assign(tuning::kNumFeatures, 1.0);
    for (std::size_t f = 0; f < 6; ++f) s.x[f] = std::exp(rng.uniform(0.0, 6.0));
    s.y = scale * 50.0 * std::pow(s.x[0], 0.7) * std::pow(s.x[1], 0.4) / s.x[2];
    data.add(std::move(s));
  }
  return data;
}

const mlp::Regressor& unit_model() {
  static const mlp::Regressor model = [] {
    mlp::TrainConfig cfg;
    cfg.net.hidden = {24, 16};
    cfg.epochs = 6;
    cfg.seed = 99;
    return mlp::train(synth(1200, 7), cfg);
  }();
  return model;
}

/// One dispatch-quality model shared by the Context tests (training is the
/// expensive part of this binary).
const mlp::Regressor& dispatch_model() {
  static const mlp::Regressor model = [] {
    gpusim::Simulator sim(gpusim::tesla_p100(), 0.03, 123);
    tuning::CollectorConfig cfg;
    cfg.num_samples = 1500;
    cfg.seed = 424242;
    const auto report = tuning::collect_gemm(sim, cfg);
    mlp::TrainConfig tc;
    tc.net.hidden = {48, 48};
    tc.epochs = 8;
    return mlp::train(report.dataset, tc);
  }();
  return model;
}

std::vector<tuning::Observation> observations_from(const tuning::Dataset& data,
                                                   std::uint64_t model_version) {
  std::vector<tuning::Observation> obs;
  for (const auto& s : data.samples()) {
    tuning::Observation o;
    o.op = "gemm";
    o.features = s.x;
    o.measured_gflops = s.y;
    o.predicted_gflops = s.y * 2.0;  // a stale model's view
    o.model_version = model_version;
    obs.push_back(std::move(o));
  }
  return obs;
}

// ----------------------------------------------------------- VersionedModel --
TEST(VersionedModel, RejectsVersionZero) {
  EXPECT_THROW(mlp::VersionedModel(mlp::Regressor(unit_model()), 0), std::invalid_argument);
}

TEST(VersionedModel, SaveLoadRoundTripsVersionProvenanceAndWeights) {
  mlp::TrainProvenance prov;
  prov.source = "warm_start";
  prov.parent_version = 6;
  prov.samples = 321;
  prov.epochs = 30;
  const mlp::VersionedModel model(mlp::Regressor(unit_model()), 7, prov);

  std::stringstream ss;
  model.save(ss);
  const mlp::VersionedModel back = mlp::VersionedModel::load(ss);

  EXPECT_EQ(back.version(), 7u);
  EXPECT_EQ(back.provenance().source, "warm_start");
  EXPECT_EQ(back.provenance().parent_version, 6u);
  EXPECT_EQ(back.provenance().samples, 321u);
  EXPECT_EQ(back.provenance().epochs, 30);

  // The wrapped regressor round-trips bit-identically (max_digits10 text).
  const auto probe = synth(32, 1234);
  for (const auto& s : probe.samples()) {
    EXPECT_EQ(back.regressor().predict_gflops(s.x), model.regressor().predict_gflops(s.x));
  }
}

TEST(VersionedModel, LoadRejectsForeignHeader) {
  std::stringstream ss("not-a-model v1\n");
  EXPECT_THROW(mlp::VersionedModel::load(ss), std::runtime_error);
}

// ----------------------------------------------------------- ObservationLog --
TEST(ObservationLog, RingDropsOldestAtCapacity) {
  tuning::ObservationLog log(4);
  for (int i = 0; i < 10; ++i) {
    tuning::Observation o;
    o.op = "gemm";
    o.features = {static_cast<double>(i)};
    o.measured_gflops = 100.0 + i;
    log.append(std::move(o));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.total_appended(), 10u);
  const auto kept = log.snapshot();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_DOUBLE_EQ(kept.front().features[0], 6.0);  // oldest survivor
  EXPECT_DOUBLE_EQ(kept.back().features[0], 9.0);   // newest

  const auto drained = log.drain();
  EXPECT_EQ(drained.size(), 4u);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_appended(), 10u);  // drain never forgets history
}

TEST(ObservationLog, DiskAppendPersistsExactValues) {
  const auto dir = std::filesystem::temp_directory_path() / "isaac_obs_log_test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  tuning::Observation expect;
  expect.op = "conv";
  expect.features = {1.0, 0.1234567890123456789, 3e-7};
  expect.measured_gflops = 5432.109876;
  expect.predicted_gflops = 5000.5;
  expect.model_version = 42;
  {
    tuning::ObservationLog log(16, dir.string());
    log.append(expect);
  }

  std::ifstream in(dir / tuning::ObservationLog::filename());
  ASSERT_TRUE(in.good());
  const auto loaded = tuning::ObservationLog::load(in);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].op, expect.op);
  EXPECT_EQ(loaded[0].model_version, expect.model_version);
  ASSERT_EQ(loaded[0].features.size(), expect.features.size());
  for (std::size_t i = 0; i < expect.features.size(); ++i) {
    EXPECT_EQ(loaded[0].features[i], expect.features[i]);  // bit-exact round trip
  }
  EXPECT_EQ(loaded[0].measured_gflops, expect.measured_gflops);
  EXPECT_EQ(loaded[0].predicted_gflops, expect.predicted_gflops);
  std::filesystem::remove_all(dir);
}

TEST(ObservationLog, LoadSkipsTornLines) {
  std::stringstream ss;
  ss << "gemm\t3\t100\t110\t1,2,3\n"
     << "gemm\t3\t100\n"          // torn tail
     << "gemm\t3\tjunk\t110\t1\n"  // unparsable field
     << "bgemm\t4\t200\t210\t4,5\n";
  const auto loaded = tuning::ObservationLog::load(ss);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].op, "gemm");
  EXPECT_EQ(loaded[1].op, "bgemm");
}

TEST(ObservationLog, ToDatasetSkipsForeignArityAndNonPositive) {
  std::vector<tuning::Observation> obs;
  tuning::Observation good;
  good.op = "gemm";
  good.features.assign(tuning::kNumFeatures, 2.0);
  good.measured_gflops = 1234.0;
  obs.push_back(good);
  tuning::Observation bad_arity = good;
  bad_arity.features.resize(3);
  obs.push_back(bad_arity);
  tuning::Observation bad_measured = good;
  bad_measured.measured_gflops = 0.0;
  obs.push_back(bad_measured);

  const auto data = tuning::ObservationLog::to_dataset(obs);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_DOUBLE_EQ(data[0].y, 1234.0);
}

// ------------------------------------------------------------ DriftDetector --
TEST(DriftDetector, AccurateModelNeverTrips) {
  tuning::DriftConfig cfg;
  cfg.threshold = 0.3;
  cfg.window = 8;
  cfg.min_observations = 4;
  tuning::DriftDetector drift(cfg);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(drift.observe("gemm", 1000.0, 1000.0 * (1.0 + 0.02 * (i % 3))));
  }
  EXPECT_LT(drift.mean_rel_error("gemm"), 0.05);
}

TEST(DriftDetector, TripsAfterMinObservationsAndReArms) {
  tuning::DriftConfig cfg;
  cfg.threshold = 0.3;
  cfg.window = 8;
  cfg.min_observations = 4;
  tuning::DriftDetector drift(cfg);

  // A 2× over-prediction: rel error 1.0, way past threshold — but no trip
  // before the window holds min_observations samples.
  EXPECT_FALSE(drift.observe("gemm", 2000.0, 1000.0));
  EXPECT_FALSE(drift.observe("gemm", 2000.0, 1000.0));
  EXPECT_FALSE(drift.observe("gemm", 2000.0, 1000.0));
  EXPECT_TRUE(drift.observe("gemm", 2000.0, 1000.0));  // 4th sample trips

  // The trip reset the window: fresh evidence is needed before the next one.
  EXPECT_FALSE(drift.observe("gemm", 2000.0, 1000.0));
  EXPECT_FALSE(drift.observe("gemm", 2000.0, 1000.0));
  EXPECT_FALSE(drift.observe("gemm", 2000.0, 1000.0));
  EXPECT_TRUE(drift.observe("gemm", 2000.0, 1000.0));
}

TEST(DriftDetector, WindowsArePerOpAndIgnoreDegenerateSamples) {
  tuning::DriftConfig cfg;
  cfg.threshold = 0.3;
  cfg.window = 4;
  cfg.min_observations = 2;
  tuning::DriftDetector drift(cfg);
  // Degenerate inputs never count.
  EXPECT_FALSE(drift.observe("gemm", 0.0, 1000.0));
  EXPECT_FALSE(drift.observe("gemm", 1000.0, 0.0));
  // conv drifting must not trip gemm.
  EXPECT_FALSE(drift.observe("conv", 3000.0, 1000.0));
  EXPECT_TRUE(drift.observe("conv", 3000.0, 1000.0));
  EXPECT_LT(drift.mean_rel_error("gemm"), 1e-12);
}

// ---------------------------------------------------------------- Retrainer --
TEST(Retrainer, ProducesSuccessorVersionThatTracksTheShift) {
  const mlp::VersionedModel base(mlp::Regressor(unit_model()), 3);

  // The device halved: measured gflops are 0.5× what the base model learned.
  const auto shifted = synth(400, 555, 0.5);
  const auto obs = observations_from(shifted, base.version());

  tuning::RetrainConfig cfg;
  cfg.min_observations = 100;
  cfg.epochs = 30;
  const tuning::Retrainer retrainer(cfg);
  const mlp::VersionedModel next = retrainer.retrain(base, obs);

  EXPECT_EQ(next.version(), 4u);
  EXPECT_EQ(next.provenance().source, "warm_start");
  EXPECT_EQ(next.provenance().parent_version, 3u);
  EXPECT_EQ(next.provenance().samples, obs.size());
  EXPECT_EQ(next.provenance().epochs, 30);

  auto mean_rel_error = [&](const mlp::Regressor& m) {
    double acc = 0.0;
    for (const auto& s : shifted.samples()) {
      acc += std::abs(m.predict_gflops(s.x) - s.y) / s.y;
    }
    return acc / static_cast<double>(shifted.size());
  };
  const double stale = mean_rel_error(base.regressor());
  const double fresh = mean_rel_error(next.regressor());
  EXPECT_GT(stale, 0.5);
  EXPECT_LT(fresh, stale * 0.5);  // the successor recovered ≥2×
}

TEST(Retrainer, RefusesUnderfedFold) {
  const mlp::VersionedModel base(mlp::Regressor(unit_model()), 1);
  const auto obs = observations_from(synth(10, 3), 1);
  tuning::RetrainConfig cfg;
  cfg.min_observations = 48;
  EXPECT_THROW(tuning::Retrainer(cfg).retrain(base, obs), std::invalid_argument);
}

// ------------------------------------------------------- Context end-to-end --

/// tesla_p100 after "the device changed under us": half the SMs, 60% clock,
/// a third of the advertised peak. A model trained on the real p100
/// over-predicts on every shape here.
gpusim::DeviceDescriptor degraded_p100() {
  gpusim::DeviceDescriptor dev = gpusim::tesla_p100();
  dev.name = "tesla_p100_degraded";
  dev.num_sms /= 2;
  dev.boost_clock_ghz *= 0.6;
  dev.peak_sp_tflops *= 0.3;
  return dev;
}

/// Noise-free (features, measured gflops) pairs on the degraded device: the
/// held-out probe set a serving model's error is judged on.
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
  for (const auto& s : data.samples()) acc += std::abs(m.predict_gflops(s.x) - s.y) / s.y;
  return acc / static_cast<double>(data.size());
}

core::ContextOptions dispatch_options() {
  core::ContextOptions opts;
  opts.search.budget = 10;
  opts.search.reeval_reps = 3;
  opts.search.max_candidates = 8000;
  return opts;
}

TEST(OnlineContext, DisabledLifecycleRecordsNothing) {
  const test::CounterDelta drift_trips("model.drift_trips");
  const test::CounterDelta model_swaps("model.swaps");
  core::ContextOptions opts;
  opts.search.budget = 8;
  opts.search.reeval_reps = 2;
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(mlp::Regressor(dispatch_model()));

  codegen::GemmShape shape;
  shape.m = 48;
  shape.n = 32;
  shape.k = 96;
  ctx.select<core::GemmOp>(shape);
  ctx.drain_background();

  EXPECT_EQ(ctx.observation_log().total_appended(), 0u);
  EXPECT_EQ(drift_trips.value(), 0u);
  EXPECT_FALSE(ctx.retrain_now());  // lifecycle off: never retrains
  EXPECT_EQ(model_swaps.value(), 0u);
  EXPECT_EQ(ctx.model_snapshot()->version(), 1u);
}

TEST(OnlineContext, DriftOnPerturbedDeviceRetrainsAndHotSwaps) {
  // The model learned tesla_p100; the serving device is the degraded copy,
  // so the model over-predicts on every shape. The full loop must close by
  // itself: background refinements record their measured sets, drift trips,
  // a retrain is scheduled off the hot path, and the successor version is
  // swapped in — cutting the serving model's error on the held-out probe set
  // at least 2x.
  const auto& probe = degraded_probe();
  const double err_stale = mean_rel_error(dispatch_model(), probe);

  const test::CounterDelta drift_trips("model.drift_trips");
  const test::CounterDelta retrains("model.retrains");
  const test::CounterDelta model_swaps("model.swaps");
  core::ContextOptions opts = dispatch_options();
  opts.online.enabled = true;
  opts.online.drift.threshold = 0.35;
  opts.online.drift.window = 32;
  opts.online.drift.min_observations = 16;
  opts.online.retrain.min_observations = 48;
  opts.online.retrain.epochs = 40;
  core::Context ctx(degraded_p100(), opts);
  ctx.set_model(mlp::Regressor(dispatch_model()));
  ASSERT_EQ(ctx.model_snapshot()->version(), 1u);

  // A cold shape stream, replayed four shapes at a time. After each batch
  // (and the refinements and retrains it scheduled) the trajectory records
  // the serving version and its probe-set error.
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
  struct Point {
    std::uint64_t version;
    double err;
  };
  std::vector<Point> trajectory;
  constexpr std::size_t kBatch = 4;
  for (std::size_t begin = 0; begin < stream.size(); begin += kBatch) {
    for (std::size_t i = begin; i < begin + kBatch; ++i) ctx.select<core::GemmOp>(stream[i]);
    ctx.drain_background();
    const auto snap = ctx.model_snapshot();
    trajectory.push_back({snap->version(), mean_rel_error(snap->regressor(), probe)});
  }

  EXPECT_GT(ctx.observation_log().total_appended(), 0u);
  EXPECT_GE(drift_trips.value(), 1u);
  EXPECT_GE(retrains.value(), 1u);
  EXPECT_GE(model_swaps.value(), 1u);
  EXPECT_FALSE(ctx.retrain_in_flight());
  EXPECT_GT(ctx.last_retrain_us(), 0u);

  const auto current = ctx.model_snapshot();
  EXPECT_EQ(current->version(), 1u + retrains.value());
  EXPECT_EQ(current->provenance().source, "warm_start");
  EXPECT_GE(current->provenance().samples, opts.online.retrain.min_observations);

  // The trajectory descends: the last point's serving model beats the first
  // point's, which it replaced.
  const double err_fresh = mean_rel_error(current->regressor(), probe);
  EXPECT_GE(err_stale / err_fresh, 2.0) << "stale " << err_stale << ", fresh " << err_fresh;
  EXPECT_LT(trajectory.back().err, trajectory.front().err);
  EXPECT_GT(trajectory.back().version, trajectory.front().version);
}

TEST(OnlineContext, RetrainNeverBlocksHotSelect) {
  // Hot select() p99 while a warm-start retrain trains on the pool stays
  // within 1.2x of the idle p99. The measuring thread owns the hot
  // cache-hit path, so a regression here is lock contention between the
  // retrain and dispatch.
  core::ContextOptions opts = dispatch_options();
  opts.online.enabled = true;
  opts.online.drift.threshold = 1e9;  // retrain only on explicit request
  opts.online.retrain.min_observations = 32;
  opts.online.retrain.epochs = 150;  // a deliberately wide retrain window
  const test::CounterDelta retrains("model.retrains");
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(mlp::Regressor(dispatch_model()));
  std::vector<codegen::GemmShape> shapes;
  for (const std::int64_t n : {8, 16, 24, 32}) {
    codegen::GemmShape s;
    s.m = 64;
    s.n = n;
    s.k = 64;
    shapes.push_back(s);
  }
  ctx.warmup<core::GemmOp>(shapes).wait();
  ctx.drain_background();

  using Clock = std::chrono::steady_clock;
  const auto time_select_us = [&](std::size_t i) {
    const auto t0 = Clock::now();
    ctx.select<core::GemmOp>(shapes[i % shapes.size()]);
    return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  };
  constexpr std::size_t kBaselineSamples = 20000;
  const auto idle_p99 = [&] {
    std::vector<double> us;
    us.reserve(kBaselineSamples);
    for (std::size_t i = 0; i < kBaselineSamples; ++i) us.push_back(time_select_us(i));
    return stats::percentile(us, 0.99);
  };

  const double p99_before = idle_p99();
  // Feed the log a fold big enough to keep the trainer busy for a while.
  const std::uint64_t version = ctx.model_snapshot()->version();
  for (int rep = 0; rep < 4; ++rep) {
    for (const auto& s : degraded_probe().samples()) {
      tuning::Observation o;
      o.op = "gemm";
      o.features = s.x;
      o.measured_gflops = s.y;
      o.predicted_gflops = s.y;
      o.model_version = version;
      ctx.observation_log().append(std::move(o));
    }
  }
  std::vector<double> during_us;
  ASSERT_TRUE(ctx.request_retrain());
  constexpr std::size_t kMaxDuringSamples = 400000;
  for (std::size_t i = 0; ctx.retrain_in_flight() && during_us.size() < kMaxDuringSamples; ++i) {
    during_us.push_back(time_select_us(i));
  }
  ctx.drain_background();
  ASSERT_EQ(retrains.value(), 1u);
  ASSERT_GT(during_us.size(), 0u);

  // Bracket the window with a second idle baseline and keep the worse of
  // the two: ambient machine drift inflates both baselines, while
  // contention only inflates the window.
  const double p99_base = std::max(p99_before, idle_p99());
  const double p99_during = stats::percentile(during_us, 0.99);
  if (test::kLatencyBoundsChecked) {
    EXPECT_LE(p99_during / p99_base, 1.2)
        << "p99 " << p99_during << " us over " << during_us.size()
        << " samples during the retrain vs " << p99_base << " us idle";
  }
}

TEST(OnlineContext, RequestRetrainFoldsTheLogOnDemand) {
  core::ContextOptions opts;
  opts.search.budget = 10;
  opts.search.reeval_reps = 2;
  opts.online.enabled = true;
  opts.online.drift.threshold = 1e9;  // drift never trips on its own
  opts.online.retrain.min_observations = 8;
  opts.online.retrain.epochs = 4;
  const test::CounterDelta retrains("model.retrains");
  core::Context ctx(gpusim::tesla_p100(), opts);
  ctx.set_model(mlp::Regressor(dispatch_model()));

  codegen::GemmShape shape;
  shape.m = 56;
  shape.n = 40;
  shape.k = 112;
  ctx.select<core::GemmOp>(shape);
  ctx.drain_background();
  ASSERT_GE(ctx.observation_log().size(), 8u);
  ASSERT_EQ(retrains.value(), 0u);  // nothing scheduled without drift or cadence

  EXPECT_TRUE(ctx.request_retrain());
  ctx.drain_background();
  EXPECT_EQ(retrains.value(), 1u);
  EXPECT_EQ(ctx.model_snapshot()->version(), 2u);
  // The fold drained the ring: the same rows never train two successors.
  EXPECT_EQ(ctx.observation_log().size(), 0u);
}

}  // namespace
}  // namespace isaac
