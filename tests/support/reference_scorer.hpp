// The vector-of-vectors reference scorer: the §5.2 encode written the
// plain way (preprocess each row, apply the Scaler, cast to float) followed
// by one Mlp::forward per chunk. Regressor's production path fuses the same
// operations into one loop over a FeatureBatch; tests hold it to these bits
// (tests/test_mlp.cpp) and the reference ranking scores through it
// (reference_rank.hpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/thread_pool.hpp"
#include "linalg/matrix.hpp"
#include "mlp/regressor.hpp"

namespace isaac::reference {

/// Score rows[begin, end) into out[0, end - begin).
inline void predict_gflops_range(const mlp::Regressor& model,
                                 const std::vector<std::vector<double>>& rows,
                                 std::size_t begin, std::size_t end, double* out) {
  linalg::Matrix x(end - begin, model.num_features());
  for (std::size_t r = begin; r < end; ++r) {
    std::vector<double> row = rows[r];
    if (model.log_features()) {
      for (double& v : row) {
        if (v <= 0.0) throw std::invalid_argument("log feature transform: non-positive feature");
        v = std::log(v);
      }
    }
    model.feature_scaler().apply(row);
    for (std::size_t c = 0; c < row.size(); ++c) x(r - begin, c) = static_cast<float>(row[c]);
  }
  const linalg::Matrix y = model.net().forward(x);
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
