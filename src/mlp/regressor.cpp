#include "mlp/regressor.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "linalg/blas.hpp"

namespace isaac::mlp {

using linalg::Matrix;

void Scaler::fit(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) throw std::invalid_argument("Scaler::fit: empty data");
  const std::size_t f = rows.front().size();
  mean.assign(f, 0.0);
  stddev.assign(f, 0.0);
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < f; ++i) mean[i] += row[i];
  }
  for (double& m : mean) m /= static_cast<double>(rows.size());
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < f; ++i) {
      const double d = row[i] - mean[i];
      stddev[i] += d * d;
    }
  }
  for (double& s : stddev) {
    s = std::sqrt(s / static_cast<double>(rows.size()));
    if (s < 1e-12) s = 1.0;  // constant feature: pass through centred
  }
}

void Scaler::apply(std::vector<double>& row) const {
  if (row.size() != mean.size()) throw std::invalid_argument("Scaler::apply: arity mismatch");
  for (std::size_t i = 0; i < row.size(); ++i) row[i] = (row[i] - mean[i]) / stddev[i];
}

namespace {

std::vector<double> preprocess(const std::vector<double>& raw, bool log_features) {
  std::vector<double> out = raw;
  if (log_features) {
    for (double& v : out) {
      if (v <= 0.0) throw std::invalid_argument("log feature transform: non-positive feature");
      v = std::log(v);
    }
  }
  return out;
}

}  // namespace

Regressor::Regressor(Mlp net, Scaler feature_scaler, double y_mean, double y_std,
                     bool log_features)
    : net_(std::move(net)),
      feature_scaler_(std::move(feature_scaler)),
      y_mean_(y_mean),
      y_std_(y_std),
      log_features_(log_features) {}

double Regressor::predict_gflops(const std::vector<double>& raw_features) const {
  tuning::FeatureBatch row(raw_features.size(), 1);
  std::copy(raw_features.begin(), raw_features.end(), row.row(0));
  double out = 0.0;
  predict_gflops_rows(row, 0, 1, &out);
  return out;
}

void Regressor::encode_rows(const tuning::FeatureBatch& batch, std::size_t begin,
                            std::size_t end, Matrix& x) const {
  if (batch.arity() != feature_scaler_.mean.size()) {
    throw std::invalid_argument(
        strings::format("Regressor: batch arity %zu does not match the model's %zu features",
                        batch.arity(), feature_scaler_.mean.size()));
  }
  if (begin == end) return;
  const std::size_t arity = feature_scaler_.mean.size();
  const double* mean = feature_scaler_.mean.data();
  const double* stddev = feature_scaler_.stddev.data();
  x.reshape(end - begin, arity);
  // Fused §5.2 pipeline: log transform, standardize, float cast — one loop,
  // written straight into the input matrix. Same operation order as
  // preprocess() + Scaler::apply(), which training uses; arity was validated
  // above, once per call.
  //
  // Enumerated candidate batches repeat values heavily down each column (the
  // shape features are constant, and adjacent candidates differ only in the
  // fast-advancing parameters), so a per-column last-value memo skips the
  // transcendental for most entries. Reusing the identical encoded float
  // keeps results exactly equal to recomputing it.
  constexpr std::size_t kMemoCap = 64;
  double last_raw[kMemoCap];
  float last_enc[kMemoCap];
  const bool memo = arity <= kMemoCap;
  if (memo) std::fill_n(last_raw, arity, std::numeric_limits<double>::quiet_NaN());
  for (std::size_t r = begin; r < end; ++r) {
    const double* src = batch.row(r);
    float* dst = x.data() + (r - begin) * arity;
    for (std::size_t c = 0; c < arity; ++c) {
      double v = src[c];
      if (memo && v == last_raw[c]) {
        dst[c] = last_enc[c];
        continue;
      }
      if (memo) last_raw[c] = v;
      if (log_features_) {
        if (v <= 0.0) throw std::invalid_argument("log feature transform: non-positive feature");
        v = std::log(v);
      }
      const float enc = static_cast<float>((v - mean[c]) / stddev[c]);
      if (memo) last_enc[c] = enc;
      dst[c] = enc;
    }
  }
}

void Regressor::predict_gflops_rows(const tuning::FeatureBatch& batch, std::size_t begin,
                                    std::size_t end, double* out) const {
  // One forward-pass arena per thread, reused across calls: after the first
  // block at a given size the pipeline performs no transient allocations.
  thread_local Mlp::Workspace ws;
  encode_rows(batch, begin, end, ws.x);
  if (begin == end) return;
  const Matrix& y = net_.forward_into(ws);
  for (std::size_t i = 0; i < end - begin; ++i) {
    const double z = static_cast<double>(y(i, 0)) * y_std_ + y_mean_;  // log-GFLOPS
    out[i] = std::exp(z);
  }
}

std::vector<double> Regressor::predict_gflops_chunked(const tuning::FeatureBatch& batch,
                                                      std::size_t chunk) const {
  if (batch.empty()) return {};
  std::vector<double> out(batch.rows());
  if (chunk == 0) chunk = batch.rows();
  const std::size_t num_chunks = (batch.rows() + chunk - 1) / chunk;
  // An arity error thrown by a chunk reaches the caller through the pool,
  // which rethrows the first chunk's exception.
  ThreadPool::global().parallel_for_each(num_chunks, [&](std::size_t ci) {
    const std::size_t begin = ci * chunk;
    const std::size_t end = std::min(batch.rows(), begin + chunk);
    predict_gflops_rows(batch, begin, end, out.data() + begin);
  });
  return out;
}

double Regressor::mse(const tuning::Dataset& data) const {
  if (data.empty()) throw std::invalid_argument("Regressor::mse: empty dataset");
  tuning::FeatureBatch batch(num_features());
  for (const auto& s : data.samples()) {
    if (s.x.size() != num_features()) {
      throw std::invalid_argument("Regressor::mse: sample arity mismatch");
    }
    std::copy(s.x.begin(), s.x.end(), batch.append_row());
  }
  Matrix x;
  encode_rows(batch, 0, batch.rows(), x);
  const Matrix y = net_.forward(x);
  double acc = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double target = (std::log(std::max(data[i].y, 1e-6)) - y_mean_) / y_std_;
    const double d = static_cast<double>(y(i, 0)) - target;
    acc += d * d;
  }
  return acc / static_cast<double>(data.size());
}

void Regressor::save(std::ostream& os) const {
  // max_digits10 makes the decimal text round-trip every float weight and
  // double statistic exactly — a loaded model predicts bit-identically.
  const std::streamsize saved_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "isaac-regressor v1\n";
  os << "log_features " << (log_features_ ? 1 : 0) << "\n";
  os << "y_scale " << y_mean_ << " " << y_std_ << "\n";
  os << "features " << feature_scaler_.mean.size() << "\n";
  for (std::size_t i = 0; i < feature_scaler_.mean.size(); ++i) {
    os << feature_scaler_.mean[i] << " " << feature_scaler_.stddev[i] << "\n";
  }
  const auto& cfg = net_.config();
  os << "inputs " << cfg.inputs << "\nhidden " << cfg.hidden.size();
  for (int h : cfg.hidden) os << " " << h;
  os << "\n";
  for (std::size_t l = 0; l < net_.num_layers(); ++l) {
    const auto& w = net_.weights()[l];
    const auto& b = net_.biases()[l];
    os << "layer " << w.rows() << " " << w.cols() << "\n";
    for (std::size_t i = 0; i < w.size(); ++i) os << w.data()[i] << " ";
    os << "\n";
    for (std::size_t i = 0; i < b.size(); ++i) os << b.data()[i] << " ";
    os << "\n";
  }
  os.precision(saved_precision);
}

Regressor Regressor::load(std::istream& is) {
  std::string tag, version;
  is >> tag >> version;
  if (tag != "isaac-regressor") throw std::runtime_error("Regressor::load: bad header");
  std::string key;
  int logf = 1;
  is >> key >> logf;
  double y_mean = 0.0, y_std = 1.0;
  is >> key >> y_mean >> y_std;
  std::size_t nf = 0;
  is >> key >> nf;
  Scaler scaler;
  scaler.mean.resize(nf);
  scaler.stddev.resize(nf);
  for (std::size_t i = 0; i < nf; ++i) is >> scaler.mean[i] >> scaler.stddev[i];
  MlpConfig cfg;
  is >> key >> cfg.inputs;
  std::size_t nh = 0;
  is >> key >> nh;
  cfg.hidden.resize(nh);
  for (auto& h : cfg.hidden) is >> h;
  Mlp net(cfg);
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    std::size_t r = 0, c = 0;
    is >> key >> r >> c;
    if (key != "layer" || r != net.weights()[l].rows() || c != net.weights()[l].cols()) {
      throw std::runtime_error("Regressor::load: layer shape mismatch");
    }
    for (std::size_t i = 0; i < net.weights()[l].size(); ++i) is >> net.weights()[l].data()[i];
    for (std::size_t i = 0; i < net.biases()[l].size(); ++i) is >> net.biases()[l].data()[i];
  }
  if (!is) throw std::runtime_error("Regressor::load: truncated stream");
  return Regressor(std::move(net), std::move(scaler), y_mean, y_std, logf != 0);
}

namespace {

/// The minibatch-Adam loop shared by cold training and warm-start training:
/// optimize `net` in place over the already-encoded (x_all, y_all).
void fit_minibatch(Mlp& net, const Matrix& x_all, const Matrix& y_all,
                   const TrainConfig& config) {
  const std::size_t n = x_all.rows();
  const std::size_t width = x_all.cols();

  Adam adam(config.learning_rate);
  Rng rng(config.seed ^ 0xABCD);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  const std::size_t batch = static_cast<std::size_t>(std::max(config.batch_size, 1));
  std::vector<Matrix> dW, db;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t batches = 0;

    for (std::size_t start = 0; start < n; start += batch) {
      const std::size_t end = std::min(n, start + batch);
      const std::size_t bs = end - start;
      Matrix xb(bs, width);
      Matrix yb(bs, 1);
      for (std::size_t i = 0; i < bs; ++i) {
        const std::size_t src = order[start + i];
        for (std::size_t c = 0; c < width; ++c) xb(i, c) = x_all(src, c);
        yb(i, 0) = y_all(src, 0);
      }

      Mlp::Cache cache;
      const Matrix pred = net.forward(xb, &cache);
      Matrix dLdy(bs, 1);
      double loss = 0.0;
      for (std::size_t i = 0; i < bs; ++i) {
        const float d = pred(i, 0) - yb(i, 0);
        loss += static_cast<double>(d) * d;
        dLdy(i, 0) = 2.0f * d / static_cast<float>(bs);
      }
      epoch_loss += loss / static_cast<double>(bs);
      ++batches;

      net.backward(cache, dLdy, dW, db);
      std::vector<Matrix*> params;
      std::vector<const Matrix*> grads;
      for (std::size_t l = 0; l < net.num_layers(); ++l) {
        params.push_back(&net.weights()[l]);
        grads.push_back(&dW[l]);
        params.push_back(&net.biases()[l]);
        grads.push_back(&db[l]);
      }
      adam.step(params, grads);
    }

    if (config.on_epoch) {
      config.on_epoch(epoch, epoch_loss / static_cast<double>(std::max<std::size_t>(batches, 1)));
    }
  }
}

}  // namespace

Regressor train(const tuning::Dataset& train_data, const TrainConfig& config) {
  if (train_data.empty()) throw std::invalid_argument("train: empty dataset");

  // ---- fit preprocessing on training data ----
  std::vector<std::vector<double>> rows;
  rows.reserve(train_data.size());
  std::vector<double> targets;
  targets.reserve(train_data.size());
  for (const auto& s : train_data.samples()) {
    rows.push_back(preprocess(s.x, config.log_features));
    targets.push_back(std::log(std::max(s.y, 1e-6)));
  }
  Scaler scaler;
  scaler.fit(rows);
  for (auto& r : rows) scaler.apply(r);

  double y_mean = 0.0;
  for (double t : targets) y_mean += t;
  y_mean /= static_cast<double>(targets.size());
  double y_var = 0.0;
  for (double t : targets) y_var += (t - y_mean) * (t - y_mean);
  const double y_std = std::max(std::sqrt(y_var / static_cast<double>(targets.size())), 1e-9);

  // ---- encode once ----
  MlpConfig net_cfg = config.net;
  net_cfg.inputs = static_cast<int>(tuning::kNumFeatures);
  net_cfg.seed = config.seed;
  Mlp net(net_cfg);

  const std::size_t n = rows.size();
  Matrix x_all(n, tuning::kNumFeatures);
  Matrix y_all(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < tuning::kNumFeatures; ++c) {
      x_all(i, c) = static_cast<float>(rows[i][c]);
    }
    y_all(i, 0) = static_cast<float>((targets[i] - y_mean) / y_std);
  }

  // ---- minibatch Adam ----
  fit_minibatch(net, x_all, y_all, config);

  return Regressor(std::move(net), std::move(scaler), y_mean, y_std, config.log_features);
}

Regressor train_warm_start(const Regressor& base, const tuning::Dataset& delta,
                           const TrainConfig& config) {
  if (delta.empty()) throw std::invalid_argument("train_warm_start: empty dataset");
  const std::size_t arity = base.num_features();

  // ---- encode with base's frozen preprocessing ----
  const Scaler& scaler = base.feature_scaler();
  const std::size_t n = delta.size();
  Matrix x_all(n, arity);
  Matrix y_all(n, 1);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row = preprocess(delta[i].x, base.log_features());
    scaler.apply(row);  // throws on arity mismatch with the base model
    for (std::size_t c = 0; c < arity; ++c) x_all(i, c) = static_cast<float>(row[c]);
    const double target = std::log(std::max(delta[i].y, 1e-6));
    y_all(i, 0) = static_cast<float>((target - base.y_mean()) / base.y_std());
  }

  // ---- resume the optimizer from the copied network ----
  Mlp net = base.net();
  fit_minibatch(net, x_all, y_all, config);

  return Regressor(std::move(net), scaler, base.y_mean(), base.y_std(), base.log_features());
}

}  // namespace isaac::mlp
