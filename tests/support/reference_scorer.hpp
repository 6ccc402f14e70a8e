// The reference scorer: the allocating MLP forward pass
// (linalg::gemm, a separate bias broadcast, then ReLU) and the §5.2 encode
// written the plain way (log each row, apply the Scaler, cast to float).
// Production runs one fused forward (Mlp::forward_into) and one fused encode
// loop over a FeatureBatch; tests hold them to these bits (tests/test_mlp.cpp)
// and the reference ranking scores through it (reference_rank.hpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"
#include "mlp/regressor.hpp"

namespace isaac::reference {

/// Activations a reference forward pass retains for backprop
/// (reference_trainer.hpp).
struct Cache {
  std::vector<linalg::Matrix> a;  // a[0] = input, a[L] = output
  std::vector<linalg::Matrix> z;  // pre-activations per layer
};

/// x: [batch × inputs]; returns [batch × 1] predictions.
inline linalg::Matrix forward(const mlp::Mlp& net, const linalg::Matrix& x,
                              Cache* cache = nullptr) {
  if (x.cols() != static_cast<std::size_t>(net.config().inputs)) {
    throw std::invalid_argument("reference::forward: feature arity mismatch");
  }
  if (cache) {
    cache->a.clear();
    cache->z.clear();
    cache->a.push_back(x);
  }
  linalg::Matrix a = x;
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    linalg::Matrix z(a.rows(), net.weights()[l].cols());
    linalg::gemm(linalg::Trans::No, linalg::Trans::No, 1.0f, a, net.weights()[l], 0.0f, z);
    for (std::size_t r = 0; r < z.rows(); ++r) {
      for (std::size_t c = 0; c < z.cols(); ++c) z(r, c) += net.biases()[l](0, c);
    }
    if (cache) cache->z.push_back(z);
    if (l + 1 != net.num_layers()) {
      for (std::size_t i = 0; i < z.size(); ++i) {
        z.data()[i] = z.data()[i] > 0.0f ? z.data()[i] : 0.0f;  // relu
      }
    }
    if (cache) cache->a.push_back(z);
    a = std::move(z);
  }
  return a;
}

/// The §5.2 log transform of one raw feature row (standardizing is the
/// Scaler's part).
inline std::vector<double> preprocess(std::vector<double> row, bool log_features) {
  if (log_features) {
    for (double& v : row) {
      if (v <= 0.0) throw std::invalid_argument("log feature transform: non-positive feature");
      v = std::log(v);
    }
  }
  return row;
}

/// Score rows[begin, end) into out[0, end - begin).
inline void predict_gflops_range(const mlp::Regressor& model,
                                 const std::vector<std::vector<double>>& rows,
                                 std::size_t begin, std::size_t end, double* out) {
  linalg::Matrix x(end - begin, model.num_features());
  for (std::size_t r = begin; r < end; ++r) {
    std::vector<double> row = preprocess(rows[r], model.log_features());
    model.feature_scaler().apply(row);
    for (std::size_t c = 0; c < row.size(); ++c) x(r - begin, c) = static_cast<float>(row[c]);
  }
  const linalg::Matrix y = forward(model.net(), x);
  for (std::size_t i = 0; i < end - begin; ++i) {
    const double z = static_cast<double>(y(i, 0)) * model.y_std() + model.y_mean();
    out[i] = std::exp(z);
  }
}

/// All rows in one forward pass.
inline std::vector<double> predict_gflops_batch(const mlp::Regressor& model,
                                                const std::vector<std::vector<double>>& rows) {
  std::vector<double> out(rows.size());
  if (!rows.empty()) predict_gflops_range(model, rows, 0, rows.size(), out.data());
  return out;
}

/// `batch`-row chunks scored in parallel on the global pool (0: one chunk).
inline std::vector<double> predict_gflops_chunked(const mlp::Regressor& model,
                                                  const std::vector<std::vector<double>>& rows,
                                                  std::size_t batch) {
  if (batch == 0 || rows.size() <= batch) return predict_gflops_batch(model, rows);
  std::vector<double> out(rows.size());
  const std::size_t num_chunks = (rows.size() + batch - 1) / batch;
  ThreadPool::global().parallel_for_each(num_chunks, [&](std::size_t ci) {
    const std::size_t begin = ci * batch;
    const std::size_t end = std::min(rows.size(), begin + batch);
    predict_gflops_range(model, rows, begin, end, out.data() + begin);
  });
  return out;
}

}  // namespace isaac::reference
