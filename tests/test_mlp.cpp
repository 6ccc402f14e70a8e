// Tests for the MLP: forward/backward correctness (finite-difference gradient
// check), optimizer behaviour, the preprocessing pipeline, training on
// learnable synthetic targets, and the log-transform property the paper's
// §5.2 rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mlp/net.hpp"
#include "mlp/regressor.hpp"
#include "support/reference_scorer.hpp"
#include "support/reference_trainer.hpp"
#include "tuning/dataset.hpp"
#include "tuning/feature_batch.hpp"

// Allocation counting for the training-loop test below: every operator new
// on a thread bumps that thread's counter. Sanitizers bring their own
// allocator, so sanitized builds keep it and skip the test.
#ifndef ISAAC_SANITIZED_BUILD
namespace {
thread_local std::size_t tl_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++tl_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++tl_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++tl_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#endif

namespace isaac::mlp {
namespace {

using linalg::Matrix;

MlpConfig tiny_config() {
  MlpConfig cfg;
  cfg.inputs = 4;
  cfg.hidden = {8, 8};
  cfg.seed = 42;
  return cfg;
}

// --------------------------------------------------------------------- net --
TEST(Mlp, OutputShape) {
  Mlp net(tiny_config());
  Mlp::Workspace ws;
  ws.x = Matrix(5, 4, 0.5f);
  const Matrix& y = net.forward_into(ws);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 1u);
}

TEST(Mlp, ParameterCount) {
  Mlp net(tiny_config());
  // 4*8 + 8 + 8*8 + 8 + 8*1 + 1 = 121
  EXPECT_EQ(net.num_parameters(), 121u);
}

TEST(Mlp, DeterministicInit) {
  Mlp a(tiny_config()), b(tiny_config());
  EXPECT_EQ(Matrix::max_abs_diff(a.weights()[0], b.weights()[0]), 0.0);
}

TEST(Mlp, GradientsMatchFiniteDifferences) {
  Mlp net(tiny_config());
  Rng rng(7);
  Matrix x(3, 4);
  x.randomize_uniform(rng, -1, 1);
  Matrix target(3, 1);
  target.randomize_uniform(rng, -1, 1);

  auto loss_value = [&]() {
    const Matrix y = reference::forward(net, x);
    double loss = 0.0;
    for (std::size_t i = 0; i < y.rows(); ++i) {
      const double d = y(i, 0) - target(i, 0);
      loss += d * d;
    }
    return loss / static_cast<double>(y.rows());
  };

  // Analytic gradients.
  Mlp::Workspace ws;
  ws.x = x;
  const Matrix& y = net.forward_into(ws);
  Matrix dLdy(3, 1);
  for (std::size_t i = 0; i < 3; ++i) {
    dLdy(i, 0) = 2.0f * (y(i, 0) - target(i, 0)) / 3.0f;
  }
  Mlp::Gradients grads;
  net.backward(ws, dLdy, grads);
  const std::vector<Matrix>& dW = grads.dW;
  const std::vector<Matrix>& db = grads.db;

  // Spot-check several weights in each layer with central differences.
  const float eps = 1e-3f;
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    for (std::size_t idx : {std::size_t{0}, net.weights()[l].size() / 2}) {
      float& w = net.weights()[l].data()[idx];
      const float orig = w;
      w = orig + eps;
      const double up = loss_value();
      w = orig - eps;
      const double down = loss_value();
      w = orig;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(dW[l].data()[idx], numeric, 5e-2 * std::max(1.0, std::abs(numeric)))
          << "layer " << l << " idx " << idx;
    }
    // And one bias per layer.
    float& bval = net.biases()[l].data()[0];
    const float orig = bval;
    bval = orig + eps;
    const double up = loss_value();
    bval = orig - eps;
    const double down = loss_value();
    bval = orig;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(db[l].data()[0], numeric, 5e-2 * std::max(1.0, std::abs(numeric)));
  }
}

TEST(Mlp, BackwardRejectsWorkspaceFromAnotherNetwork) {
  Mlp net(tiny_config());
  MlpConfig wide = tiny_config();
  wide.hidden = {16, 8};
  Mlp::Workspace ws;
  ws.x = Matrix(3, 4, 0.5f);
  Mlp(wide).forward_into(ws);
  Mlp::Gradients grads;
  EXPECT_THROW(net.backward(ws, Matrix(3, 1), grads), std::invalid_argument);
  net.forward_into(ws);
  EXPECT_THROW(net.backward(ws, Matrix(2, 1), grads), std::invalid_argument);
  EXPECT_NO_THROW(net.backward(ws, Matrix(3, 1), grads));
}

/// A one-layer net holding a single 1×1 weight (and a 1×1 bias).
MlpConfig scalar_config() {
  MlpConfig cfg;
  cfg.inputs = 1;
  cfg.hidden = {};
  return cfg;
}

TEST(Adam, ReducesQuadraticLoss) {
  // Minimize ||w - 3||^2 for the single weight; the bias sees no gradient.
  Mlp net(scalar_config());
  float& w = net.weights()[0](0, 0);
  w = 0.0f;
  Adam adam(0.1);
  Mlp::Gradients g;
  g.db = {Matrix(1, 1, 0.0f)};
  for (int i = 0; i < 300; ++i) {
    g.dW = {Matrix(1, 1, 2.0f * (w - 3.0f))};
    adam.step(net, g);
  }
  EXPECT_NEAR(w, 3.0f, 0.05f);
  EXPECT_EQ(net.biases()[0](0, 0), 0.0f);
}

TEST(Adam, ShapeMismatchThrows) {
  MlpConfig cfg = scalar_config();
  cfg.inputs = 2;  // a 2×1 weight
  Mlp net(cfg);
  Adam adam;
  Mlp::Gradients g;
  g.dW = {Matrix(1, 1)};
  g.db = {Matrix(1, 1)};
  EXPECT_THROW(adam.step(net, g), std::invalid_argument);
  g.dW.clear();
  EXPECT_THROW(adam.step(net, g), std::invalid_argument);
}

// ------------------------------------------------------------------ scaler --
tuning::FeatureBatch batch_of(const std::vector<std::vector<double>>& rows) {
  tuning::FeatureBatch batch(rows.front().size());
  for (const auto& r : rows) std::copy(r.begin(), r.end(), batch.append_row());
  return batch;
}

TEST(Scaler, StandardizesToZeroMeanUnitVar) {
  Scaler s;
  s.fit(batch_of({{1, 10}, {3, 30}, {5, 50}}));
  std::vector<double> r{3, 30};
  s.apply(r);
  EXPECT_NEAR(r[0], 0.0, 1e-12);
  EXPECT_NEAR(r[1], 0.0, 1e-12);
  std::vector<double> hi{5, 50};
  s.apply(hi);
  EXPECT_GT(hi[0], 0.9);
}

TEST(Scaler, ConstantFeaturePassesThrough) {
  Scaler s;
  s.fit(batch_of({{7, 1}, {7, 2}, {7, 3}}));
  std::vector<double> r{7, 2};
  EXPECT_NO_THROW(s.apply(r));
  EXPECT_NEAR(r[0], 0.0, 1e-12);
}

// --------------------------------------------------------------- regressor --

/// Synthetic dataset with a multiplicative performance-like law:
///   y = c * x0^a * x1^b / x2  (+ lognormal noise)
/// — linear in log space, so the log transform should make it easy and its
/// absence should hurt, mirroring the paper's §5.2 observation.
tuning::Dataset synthetic_dataset(std::size_t n, double noise_sigma, std::uint64_t seed) {
  tuning::Dataset data;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    tuning::Sample s;
    s.x.assign(tuning::kNumFeatures, 1.0);
    for (std::size_t f = 0; f < 6; ++f) {
      s.x[f] = std::exp(rng.uniform(0.0, 6.0));  // 1 .. ~400
    }
    const double y = 50.0 * std::pow(s.x[0], 0.7) * std::pow(s.x[1], 0.4) / s.x[2];
    s.y = y * rng.lognormal_factor(noise_sigma);
    data.add(std::move(s));
  }
  return data;
}

TEST(Regressor, LearnsMultiplicativeLaw) {
  auto data = synthetic_dataset(3000, 0.02, 1);
  Rng rng(2);
  data.shuffle(rng);
  const auto [test, train_set] = data.split(500);

  TrainConfig cfg;
  cfg.net.hidden = {32, 32};
  cfg.epochs = 40;
  cfg.learning_rate = 3e-3;
  const Regressor model = train(train_set, cfg);
  const double mse = model.mse(test);
  EXPECT_LT(mse, 0.05) << "validation MSE too high: " << mse;
}

TEST(Regressor, LogTransformBeatsRawFeatures) {
  auto data = synthetic_dataset(2500, 0.02, 3);
  Rng rng(4);
  data.shuffle(rng);
  const auto [test, train_set] = data.split(400);

  TrainConfig with_log;
  with_log.net.hidden = {32, 32};
  with_log.epochs = 25;
  with_log.learning_rate = 3e-3;
  TrainConfig without_log = with_log;
  without_log.log_features = false;

  const double mse_log = train(train_set, with_log).mse(test);
  const double mse_raw = train(train_set, without_log).mse(test);
  EXPECT_LT(mse_log * 2.0, mse_raw)
      << "log " << mse_log << " raw " << mse_raw;  // §5.2: the transform matters
}

TEST(Regressor, MoreDataHelps) {
  // Fig. 5 property: validation MSE decreases with training-set size.
  auto data = synthetic_dataset(4000, 0.05, 9);
  Rng rng(10);
  data.shuffle(rng);
  const auto [test, rest] = data.split(500);

  TrainConfig cfg;
  cfg.net.hidden = {32, 32};
  cfg.epochs = 25;
  cfg.learning_rate = 3e-3;

  const double mse_small = train(rest.take(250), cfg).mse(test);
  const double mse_large = train(rest.take(3000), cfg).mse(test);
  EXPECT_LT(mse_large, mse_small);
}

// ------------------------------------------------ allocation-free forward --
TEST(Mlp, ForwardIntoMatchesForwardBitExact) {
  for (const auto& hidden : std::vector<std::vector<int>>{{8, 8}, {16}, {}}) {
    MlpConfig cfg = tiny_config();
    cfg.hidden = hidden;
    Mlp net(cfg);
    Rng rng(7 + hidden.size());
    Mlp::Workspace ws;
    // Shrinking batches exercise reshape-reuse of the workspace buffers.
    for (const std::size_t batch : {33u, 64u, 5u, 1u}) {
      Matrix x(batch, 4);
      x.randomize_uniform(rng, -2.0f, 2.0f);
      const Matrix legacy = reference::forward(net, x);
      ws.x = x;
      const Matrix& fast = net.forward_into(ws);
      ASSERT_EQ(fast.rows(), legacy.rows());
      ASSERT_EQ(fast.cols(), legacy.cols());
      for (std::size_t i = 0; i < legacy.size(); ++i) {
        ASSERT_EQ(fast.data()[i], legacy.data()[i]) << "batch " << batch << " idx " << i;
      }
    }
  }
}

/// Every weight and bias of `a` and `b` has the same bits.
void expect_same_parameters(const Regressor& a, const Regressor& b, const char* what) {
  ASSERT_EQ(a.net().num_layers(), b.net().num_layers()) << what;
  for (std::size_t l = 0; l < a.net().num_layers(); ++l) {
    for (const auto& [pa, pb] : {std::pair{&a.net().weights()[l], &b.net().weights()[l]},
                                 std::pair{&a.net().biases()[l], &b.net().biases()[l]}}) {
      ASSERT_EQ(pa->rows(), pb->rows()) << what << " layer " << l;
      ASSERT_EQ(pa->cols(), pb->cols()) << what << " layer " << l;
      EXPECT_EQ(std::memcmp(pa->data(), pb->data(), pa->size() * sizeof(float)), 0)
          << what << " layer " << l;
    }
  }
  std::ostringstream sa, sb;
  a.save(sa);
  b.save(sb);
  EXPECT_EQ(sa.str(), sb.str()) << what;
}

TEST(Mlp, TrainingMatchesReferenceTrainerBitExact) {
  // train and train_warm_start run the fused encode, forward_into, the
  // workspace backward and reused buffers; the reference trainer runs the
  // allocating forward with a Cache, fresh gradient matrices and a
  // row-by-row encode. Both sample counts leave a last minibatch shorter
  // than the rest.
  const auto base_data = synthetic_dataset(700, 0.05, 41);  // 256 + 256 + 188
  const auto delta_source = synthetic_dataset(150, 0.05, 43);
  tuning::Dataset delta;  // 32 × 4 + 22
  for (auto s : delta_source.samples()) {
    s.y *= 0.7;
    delta.add(std::move(s));
  }
  for (const auto& hidden : std::vector<std::vector<int>>{{8, 8}, MlpConfig{}.hidden}) {
    TrainConfig cfg;
    cfg.net.hidden = hidden;
    cfg.epochs = 3;
    cfg.seed = 0x15AAC;
    const Regressor fused = train(base_data, cfg);
    expect_same_parameters(fused, reference::train(base_data, cfg), "train");

    TrainConfig warm;
    warm.epochs = 4;
    warm.batch_size = 32;
    warm.seed = 0x0911E;
    expect_same_parameters(train_warm_start(fused, delta, warm),
                           reference::train_warm_start(fused, delta, warm), "warm start");
  }
}

TEST(Regressor, TrainingAllocatesNothingAfterTheFirstMinibatch) {
#ifdef ISAAC_SANITIZED_BUILD
  GTEST_SKIP() << "sanitized builds keep their own operator new";
#else
  // Allocations on this thread from the call to each epoch's end. Training
  // runs on the calling thread, so this counts all of its allocations.
  const auto allocations_by_epoch = [](const auto& fit, std::size_t samples,
                                       TrainConfig cfg) {
    const auto data = synthetic_dataset(samples, 0.05, 47);
    std::vector<std::size_t> counts;
    counts.reserve(static_cast<std::size_t>(cfg.epochs));
    std::size_t before = 0;
    cfg.on_epoch = [&](int, double) { counts.push_back(tl_allocations - before); };
    before = tl_allocations;
    fit(data, cfg);
    return counts;
  };
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.net.hidden = {32, 16};
  const auto cold = [](const tuning::Dataset& d, const TrainConfig& c) { return train(d, c); };
  // 3 minibatches per epoch against 9: six more, no more allocations; and
  // none at all in the epochs after the first. The GEMM's thread-local
  // packing arenas grow once per thread, so a first run warms them.
  allocations_by_epoch(cold, 3 * 256 - 50, cfg);
  const auto few = allocations_by_epoch(cold, 3 * 256 - 50, cfg);
  const auto many = allocations_by_epoch(cold, 9 * 256 - 50, cfg);
  ASSERT_EQ(many.size(), 3u);
  EXPECT_EQ(few[0], many[0]);
  EXPECT_EQ(many[1], many[0]);
  EXPECT_EQ(many[2], many[0]);

  const Regressor base = train(synthetic_dataset(300, 0.05, 53), cfg);
  const auto warm = [&](const tuning::Dataset& d, const TrainConfig& c) {
    return train_warm_start(base, d, c);
  };
  const auto warm_few = allocations_by_epoch(warm, 3 * 256 - 50, cfg);
  const auto warm_many = allocations_by_epoch(warm, 9 * 256 - 50, cfg);
  EXPECT_EQ(warm_few[0], warm_many[0]);
  EXPECT_EQ(warm_many[2], warm_many[0]);
#endif
}

// Contraction canary: the exact output bits of the default network on a
// fixed input, as produced by a portable (SSE2, no FMA) build. Any build
// flag or GEMM variant that fuses a multiply and an add into an FMA moves
// these bits, and with them every score and ranking.
TEST(Mlp, ForwardIntoBitsPinnedAcrossBuildsAndIsas) {
  const Mlp net{MlpConfig{}};
  Mlp::Workspace ws;
  ws.x = Matrix(2048, 15);
  Rng rng(2026);
  ws.x.randomize_uniform(rng, -2.0f, 2.0f);
  const Matrix& y = net.forward_into(ws);
  ASSERT_EQ(y.rows(), 2048u);
  ASSERT_EQ(y.cols(), 1u);
  const auto bits = [&](std::size_t i) {
    std::uint32_t b = 0;
    std::memcpy(&b, y.data() + i, sizeof b);
    return b;
  };
  std::uint64_t fnv1a = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < y.size(); ++i) fnv1a = (fnv1a ^ bits(i)) * 0x100000001b3ULL;
  EXPECT_EQ(bits(0), 0xbdd45e58u);
  EXPECT_EQ(bits(1), 0x3c0a8e30u);
  EXPECT_EQ(bits(1000), 0x3fa3a5a4u);
  EXPECT_EQ(bits(2047), 0xc006f0d0u);
  EXPECT_EQ(fnv1a, 0xa783bf8ad74e1987ULL);
}

TEST(Mlp, ForwardIntoRejectsArityMismatch) {
  Mlp net(tiny_config());
  Mlp::Workspace ws;
  ws.x = Matrix(3, 5);  // net expects 4 inputs
  EXPECT_THROW(net.forward_into(ws), std::invalid_argument);
}

TEST(Regressor, FlatBatchMatchesLegacyRowsBitExact) {
  // The FeatureBatch pipeline (fused encode + thread-local workspaces) must
  // reproduce the legacy vector-of-vectors scores exactly, for every chunk
  // size — rank orderings depend on it.
  auto data = synthetic_dataset(900, 0.05, 17);
  TrainConfig cfg;
  cfg.net.hidden = {16, 8};
  cfg.epochs = 6;
  const Regressor model = train(data, cfg);

  std::vector<std::vector<double>> rows;
  tuning::FeatureBatch batch(tuning::kNumFeatures);
  for (std::size_t i = 0; i < 333; ++i) {
    rows.push_back(data[i].x);
    std::copy(data[i].x.begin(), data[i].x.end(), batch.append_row());
  }
  ASSERT_EQ(batch.rows(), rows.size());
  ASSERT_EQ(model.num_features(), tuning::kNumFeatures);

  for (const std::size_t chunk : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                  std::size_t{128}, std::size_t{1000}}) {
    const auto legacy = reference::predict_gflops_chunked(model, rows, chunk);
    const auto flat = model.predict_gflops_chunked(batch, chunk);
    ASSERT_EQ(legacy.size(), flat.size());
    for (std::size_t i = 0; i < legacy.size(); ++i) {
      ASSERT_DOUBLE_EQ(legacy[i], flat[i]) << "chunk " << chunk << " row " << i;
    }
  }
}

TEST(Regressor, FlatBatchArityValidatedOnceAtBoundary) {
  auto data = synthetic_dataset(400, 0.05, 19);
  TrainConfig cfg;
  cfg.net.hidden = {8};
  cfg.epochs = 4;
  const Regressor model = train(data, cfg);

  tuning::FeatureBatch wrong(tuning::kNumFeatures - 1, 10);
  for (std::size_t r = 0; r < wrong.rows(); ++r) {
    for (std::size_t c = 0; c < wrong.arity(); ++c) wrong.row(r)[c] = 2.0;
  }
  EXPECT_THROW(model.predict_gflops_chunked(wrong, 4), std::invalid_argument);
}

TEST(Regressor, SerialRowsMatchChunkedBitExact) {
  // predict_gflops_rows is the one scoring body: predict_gflops_chunked is a
  // pool loop over it, and dense ranking calls it per block. Scoring any row
  // range on the calling thread must give the chunked pass's bits, and a
  // wrong arity must throw the same error from both.
  auto data = synthetic_dataset(2200, 0.05, 23);
  TrainConfig cfg;
  cfg.net.hidden = {16, 8};
  cfg.epochs = 3;
  const Regressor model = train(data, cfg);

  for (const std::size_t rows : {std::size_t{1}, std::size_t{7}, std::size_t{2048},
                                 std::size_t{2049}}) {
    tuning::FeatureBatch batch(tuning::kNumFeatures);
    for (std::size_t i = 0; i < rows; ++i) {
      std::copy(data[i].x.begin(), data[i].x.end(), batch.append_row());
    }
    const auto chunked = model.predict_gflops_chunked(batch, 128);
    std::vector<double> whole(rows), split(rows);
    model.predict_gflops_rows(batch, 0, rows, whole.data());
    // Two uneven blocks: a row's score must not depend on its block mates.
    const std::size_t mid = rows / 3;
    model.predict_gflops_rows(batch, 0, mid, split.data());
    model.predict_gflops_rows(batch, mid, rows, split.data() + mid);
    ASSERT_EQ(chunked.size(), rows);
    EXPECT_EQ(std::memcmp(whole.data(), chunked.data(), rows * sizeof(double)), 0) << rows;
    EXPECT_EQ(std::memcmp(split.data(), chunked.data(), rows * sizeof(double)), 0) << rows;
  }

  tuning::FeatureBatch wrong(tuning::kNumFeatures - 1, 10);
  for (std::size_t r = 0; r < wrong.rows(); ++r) {
    for (std::size_t c = 0; c < wrong.arity(); ++c) wrong.row(r)[c] = 2.0;
  }
  std::vector<double> out(wrong.rows());
  std::string serial_error, chunked_error;
  try {
    model.predict_gflops_rows(wrong, 0, wrong.rows(), out.data());
  } catch (const std::invalid_argument& e) {
    serial_error = e.what();
  }
  try {
    model.predict_gflops_chunked(wrong, 4);
  } catch (const std::invalid_argument& e) {
    chunked_error = e.what();
  }
  EXPECT_FALSE(serial_error.empty());
  EXPECT_EQ(serial_error, chunked_error);
}

TEST(Regressor, PredictBatchMatchesScalar) {
  auto data = synthetic_dataset(800, 0.02, 5);
  TrainConfig cfg;
  cfg.net.hidden = {16};
  cfg.epochs = 10;
  const Regressor model = train(data, cfg);

  std::vector<std::vector<double>> rows{data[0].x, data[1].x, data[2].x};
  const auto batch = reference::predict_gflops_batch(model, rows);
  ASSERT_EQ(batch.size(), 3u);
  // Single-row scoring is one row of the batched path, so the bits agree.
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(batch[i], model.predict_gflops(rows[i]));
}

TEST(Regressor, PredictionsArePositive) {
  auto data = synthetic_dataset(500, 0.1, 6);
  TrainConfig cfg;
  cfg.net.hidden = {16};
  cfg.epochs = 8;
  const Regressor model = train(data, cfg);
  for (int i = 0; i < 20; ++i) {
    EXPECT_GT(model.predict_gflops(data[static_cast<std::size_t>(i)].x), 0.0);
  }
}

TEST(Regressor, SaveLoadRoundTrip) {
  auto data = synthetic_dataset(600, 0.05, 7);
  TrainConfig cfg;
  cfg.net.hidden = {16, 8};
  cfg.epochs = 6;
  const Regressor model = train(data, cfg);

  std::stringstream ss;
  model.save(ss);
  const Regressor back = Regressor::load(ss);

  for (int i = 0; i < 10; ++i) {
    const auto& x = data[static_cast<std::size_t>(i)].x;
    EXPECT_NEAR(back.predict_gflops(x), model.predict_gflops(x),
                1e-4 * std::abs(model.predict_gflops(x)));
  }
}

TEST(Regressor, SaveLoadRoundTripIsBitIdentical) {
  // The serialized artifact is the unit of model exchange in the online
  // lifecycle, so a loaded model must not merely approximate the original —
  // every prediction must be the exact same double, through both the legacy
  // rows path and the flat FeatureBatch hot path.
  auto data = synthetic_dataset(800, 0.05, 21);
  TrainConfig cfg;
  cfg.net.hidden = {24, 16};
  cfg.epochs = 5;
  cfg.seed = 77;
  const Regressor model = train(data, cfg);

  std::stringstream ss;
  model.save(ss);
  const Regressor back = Regressor::load(ss);

  // Scaler statistics and target scale survive exactly.
  ASSERT_EQ(back.num_features(), model.num_features());
  for (std::size_t f = 0; f < model.num_features(); ++f) {
    EXPECT_EQ(back.feature_scaler().mean[f], model.feature_scaler().mean[f]);
    EXPECT_EQ(back.feature_scaler().stddev[f], model.feature_scaler().stddev[f]);
  }
  EXPECT_EQ(back.y_mean(), model.y_mean());
  EXPECT_EQ(back.y_std(), model.y_std());
  EXPECT_EQ(back.log_features(), model.log_features());

  std::vector<std::vector<double>> rows;
  tuning::FeatureBatch batch(tuning::kNumFeatures);
  for (std::size_t i = 0; i < 64; ++i) {
    rows.push_back(data[i].x);
    double* dst = batch.append_row();
    for (std::size_t c = 0; c < tuning::kNumFeatures; ++c) dst[c] = data[i].x[c];
  }

  const auto expected_rows = reference::predict_gflops_chunked(model, rows, 16);
  const auto loaded_rows = reference::predict_gflops_chunked(back, rows, 16);
  const auto expected_flat = model.predict_gflops_chunked(batch, 16);
  const auto loaded_flat = back.predict_gflops_chunked(batch, 16);
  ASSERT_EQ(loaded_rows.size(), expected_rows.size());
  ASSERT_EQ(loaded_flat.size(), expected_flat.size());
  for (std::size_t i = 0; i < expected_rows.size(); ++i) {
    EXPECT_EQ(loaded_rows[i], expected_rows[i]) << "rows path diverged at " << i;
    EXPECT_EQ(loaded_flat[i], expected_flat[i]) << "flat path diverged at " << i;
  }
}

TEST(Regressor, WarmStartKeepsEncodingAndImprovesOnShiftedData) {
  // Base model fits the synthetic law; the "device" then halves: same
  // features, targets scaled by 0.5. Warm-start training on the shifted
  // delta must (a) freeze the preprocessing so both versions share one
  // encode, and (b) cut the prediction error on the shifted distribution.
  auto base_data = synthetic_dataset(2000, 0.02, 31);
  TrainConfig cfg;
  cfg.net.hidden = {32, 16};
  cfg.epochs = 10;
  cfg.seed = 5;
  const Regressor base = train(base_data, cfg);

  tuning::Dataset shifted;
  auto delta_source = synthetic_dataset(400, 0.02, 37);
  for (const auto& s : delta_source.samples()) {
    tuning::Sample d = s;
    d.y *= 0.5;
    shifted.add(std::move(d));
  }

  TrainConfig warm_cfg;
  warm_cfg.epochs = 30;
  warm_cfg.batch_size = 32;
  warm_cfg.learning_rate = 2e-3;
  warm_cfg.seed = 11;
  const Regressor warmed = train_warm_start(base, shifted, warm_cfg);

  // Frozen preprocessing: identical scaler and target statistics.
  for (std::size_t f = 0; f < base.num_features(); ++f) {
    EXPECT_EQ(warmed.feature_scaler().mean[f], base.feature_scaler().mean[f]);
    EXPECT_EQ(warmed.feature_scaler().stddev[f], base.feature_scaler().stddev[f]);
  }
  EXPECT_EQ(warmed.y_mean(), base.y_mean());
  EXPECT_EQ(warmed.y_std(), base.y_std());

  // Error on the shifted distribution: the stale model over-predicts ~2×,
  // the warmed one should track it far better.
  auto mean_rel_error = [&](const Regressor& m) {
    double acc = 0.0;
    for (const auto& s : shifted.samples()) {
      acc += std::abs(m.predict_gflops(s.x) - s.y) / s.y;
    }
    return acc / static_cast<double>(shifted.size());
  };
  const double stale = mean_rel_error(base);
  const double fresh = mean_rel_error(warmed);
  EXPECT_GT(stale, 0.5);           // the shift is real
  EXPECT_LT(fresh, stale * 0.5);   // warm start recovered ≥2×
}

TEST(Regressor, WarmStartOnEmptyDeltaThrows) {
  auto data = synthetic_dataset(400, 0.05, 19);
  TrainConfig cfg;
  cfg.net.hidden = {8};
  cfg.epochs = 2;
  const Regressor base = train(data, cfg);
  tuning::Dataset empty;
  EXPECT_THROW(train_warm_start(base, empty, TrainConfig{}), std::invalid_argument);
}

TEST(Regressor, LoadRejectsGarbage) {
  std::stringstream ss("not a model at all");
  EXPECT_THROW(Regressor::load(ss), std::runtime_error);
}

TEST(Regressor, EmptyTrainingThrows) {
  tuning::Dataset empty;
  EXPECT_THROW(train(empty, TrainConfig{}), std::invalid_argument);
}

TEST(Regressor, EpochCallbackReportsDecreasingLoss) {
  auto data = synthetic_dataset(1500, 0.02, 8);
  TrainConfig cfg;
  cfg.net.hidden = {32};
  cfg.epochs = 15;
  cfg.learning_rate = 3e-3;
  std::vector<double> losses;
  cfg.on_epoch = [&](int, double loss) { losses.push_back(loss); };
  train(data, cfg);
  ASSERT_EQ(losses.size(), 15u);
  EXPECT_LT(losses.back(), losses.front() * 0.5);
}

}  // namespace
}  // namespace isaac::mlp
