// The reference trainer: minibatch Adam the allocating way. Every minibatch
// is copied into fresh matrices, runs the reference forward pass with a
// Cache (reference_scorer.hpp), backpropagates from the cached
// pre-activations through linalg::gemm into fresh gradient
// matrices, and the features are encoded row by row (log transform, then
// Scaler::apply). mlp::train and mlp::train_warm_start run the same math on
// reused buffers; tests/test_mlp.cpp holds them to this trainer's bits.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"
#include "mlp/net.hpp"
#include "mlp/regressor.hpp"
#include "reference_scorer.hpp"
#include "tuning/dataset.hpp"
#include "tuning/feature_batch.hpp"

namespace isaac::reference {

/// dLdy: [batch × 1] loss gradient w.r.t. the output; returns per-layer
/// weight/bias gradients, masked by relu'(z) from the cache.
inline mlp::Mlp::Gradients backward(const mlp::Mlp& net, const Cache& cache,
                                    const linalg::Matrix& dLdy) {
  const std::size_t L = net.num_layers();
  mlp::Mlp::Gradients g;
  g.dW.assign(L, linalg::Matrix());
  g.db.assign(L, linalg::Matrix());
  linalg::Matrix delta = dLdy;
  for (std::size_t l = L; l-- > 0;) {
    if (l + 1 != L) {
      for (std::size_t i = 0; i < delta.size(); ++i) {
        if (cache.z[l].data()[i] <= 0.0f) delta.data()[i] = 0.0f;
      }
    }
    g.dW[l] = linalg::Matrix(net.weights()[l].rows(), net.weights()[l].cols());
    linalg::gemm(linalg::Trans::Yes, linalg::Trans::No, 1.0f, cache.a[l], delta, 0.0f, g.dW[l]);
    g.db[l] = linalg::Matrix(1, delta.cols(), 0.0f);
    for (std::size_t r = 0; r < delta.rows(); ++r) {
      for (std::size_t c = 0; c < delta.cols(); ++c) g.db[l](0, c) += delta(r, c);
    }
    if (l > 0) {
      linalg::Matrix next(delta.rows(), net.weights()[l].rows());
      linalg::gemm(linalg::Trans::No, linalg::Trans::Yes, 1.0f, delta, net.weights()[l], 0.0f,
                   next);
      delta = std::move(next);
    }
  }
  return g;
}

/// Minibatch Adam over already-encoded (x_all, y_all), `net` in place.
inline void fit_minibatch(mlp::Mlp& net, const linalg::Matrix& x_all,
                          const linalg::Matrix& y_all, const mlp::TrainConfig& config) {
  const std::size_t n = x_all.rows();
  const std::size_t width = x_all.cols();
  mlp::Adam adam(config.learning_rate);
  Rng rng(config.seed ^ 0xABCD);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  const std::size_t batch = static_cast<std::size_t>(std::max(config.batch_size, 1));
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t start = 0; start < n; start += batch) {
      const std::size_t bs = std::min(n, start + batch) - start;
      linalg::Matrix xb(bs, width);
      linalg::Matrix yb(bs, 1);
      for (std::size_t i = 0; i < bs; ++i) {
        for (std::size_t c = 0; c < width; ++c) xb(i, c) = x_all(order[start + i], c);
        yb(i, 0) = y_all(order[start + i], 0);
      }
      Cache cache;
      const linalg::Matrix pred = forward(net, xb, &cache);
      linalg::Matrix dLdy(bs, 1);
      for (std::size_t i = 0; i < bs; ++i) {
        dLdy(i, 0) = 2.0f * (pred(i, 0) - yb(i, 0)) / static_cast<float>(bs);
      }
      adam.step(net, backward(net, cache, dLdy));
    }
  }
}

/// Row-by-row §5.2 encode of a dataset with the given statistics.
inline void encode(const tuning::Dataset& data, const mlp::Scaler& scaler, bool log_features,
                   double y_mean, double y_std, linalg::Matrix& x_all, linalg::Matrix& y_all) {
  x_all = linalg::Matrix(data.size(), scaler.mean.size());
  y_all = linalg::Matrix(data.size(), 1);
  for (std::size_t i = 0; i < data.size(); ++i) {
    std::vector<double> row = preprocess(data[i].x, log_features);
    scaler.apply(row);
    for (std::size_t c = 0; c < row.size(); ++c) x_all(i, c) = static_cast<float>(row[c]);
    const double target = std::log(std::max(data[i].y, 1e-6));
    y_all(i, 0) = static_cast<float>((target - y_mean) / y_std);
  }
}

/// mlp::train, the reference way.
inline mlp::Regressor train(const tuning::Dataset& data, const mlp::TrainConfig& config) {
  tuning::FeatureBatch logged(tuning::kNumFeatures);
  std::vector<double> targets;
  for (const auto& s : data.samples()) {
    const std::vector<double> row = preprocess(s.x, config.log_features);
    std::copy(row.begin(), row.end(), logged.append_row());
    targets.push_back(std::log(std::max(s.y, 1e-6)));
  }
  mlp::Scaler scaler;
  scaler.fit(logged);
  double y_mean = 0.0;
  for (double t : targets) y_mean += t;
  y_mean /= static_cast<double>(targets.size());
  double y_var = 0.0;
  for (double t : targets) y_var += (t - y_mean) * (t - y_mean);
  const double y_std = std::max(std::sqrt(y_var / static_cast<double>(targets.size())), 1e-9);

  mlp::MlpConfig net_cfg = config.net;
  net_cfg.inputs = static_cast<int>(tuning::kNumFeatures);
  net_cfg.seed = config.seed;
  mlp::Mlp net(net_cfg);
  linalg::Matrix x_all, y_all;
  encode(data, scaler, config.log_features, y_mean, y_std, x_all, y_all);
  fit_minibatch(net, x_all, y_all, config);
  return mlp::Regressor(std::move(net), std::move(scaler), y_mean, y_std, config.log_features);
}

/// mlp::train_warm_start, the reference way.
inline mlp::Regressor train_warm_start(const mlp::Regressor& base, const tuning::Dataset& delta,
                                       const mlp::TrainConfig& config) {
  linalg::Matrix x_all, y_all;
  encode(delta, base.feature_scaler(), base.log_features(), base.y_mean(), base.y_std(), x_all,
         y_all);
  mlp::Mlp net = base.net();
  fit_minibatch(net, x_all, y_all, config);
  return mlp::Regressor(std::move(net), base.feature_scaler(), base.y_mean(), base.y_std(),
                        base.log_features());
}

}  // namespace isaac::reference
