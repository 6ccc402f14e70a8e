#include "mlp/regressor.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "common/strings.hpp"
#include "common/thread_pool.hpp"

namespace isaac::mlp {

using linalg::Matrix;

void Scaler::fit(const tuning::FeatureBatch& rows) {
  if (rows.empty()) throw std::invalid_argument("Scaler::fit: empty data");
  const std::size_t f = rows.arity();
  const double n = static_cast<double>(rows.rows());
  mean.assign(f, 0.0);
  stddev.assign(f, 0.0);
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    for (std::size_t i = 0; i < f; ++i) mean[i] += rows.row(r)[i];
  }
  for (double& m : mean) m /= n;
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    for (std::size_t i = 0; i < f; ++i) {
      const double d = rows.row(r)[i] - mean[i];
      stddev[i] += d * d;
    }
  }
  for (double& s : stddev) {
    s = std::sqrt(s / n);
    if (s < 1e-12) s = 1.0;  // constant feature: pass through centred
  }
}

void Scaler::apply(std::vector<double>& row) const {
  if (row.size() != mean.size()) throw std::invalid_argument("Scaler::apply: arity mismatch");
  for (std::size_t i = 0; i < row.size(); ++i) row[i] = (row[i] - mean[i]) / stddev[i];
}

namespace {

/// The §5.2 feature transform of one raw value.
double log_feature(double v) {
  if (v <= 0.0) throw std::invalid_argument("log feature transform: non-positive feature");
  return std::log(v);
}

/// The §5.2 target encode: log GFLOPS, standardized.
double encode_target(double gflops, double y_mean, double y_std) {
  return (std::log(std::max(gflops, 1e-6)) - y_mean) / y_std;
}

/// A dataset's feature rows as one flat batch; std::invalid_argument when a
/// sample does not carry `arity` features.
tuning::FeatureBatch gather_features(const tuning::Dataset& data, std::size_t arity,
                                     const char* who) {
  tuning::FeatureBatch batch(arity, data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i].x.size() != arity) {
      throw std::invalid_argument(strings::format("%s: sample arity mismatch", who));
    }
    std::copy(data[i].x.begin(), data[i].x.end(), batch.row(i));
  }
  return batch;
}

/// The fused §5.2 encode of batch rows [begin, end) into `x`: log transform
/// (when `log_features`), standardize by `scaler`, float cast. Throws
/// std::invalid_argument when the batch's arity is not the scaler's; leaves
/// `x` alone for an empty range. Scoring and training both encode here.
void encode_rows(const Scaler& scaler, bool log_features, const tuning::FeatureBatch& batch,
                 std::size_t begin, std::size_t end, Matrix& x) {
  if (batch.arity() != scaler.mean.size()) {
    throw std::invalid_argument(
        strings::format("Regressor: batch arity %zu does not match the model's %zu features",
                        batch.arity(), scaler.mean.size()));
  }
  if (begin == end) return;
  const std::size_t arity = scaler.mean.size();
  const double* mean = scaler.mean.data();
  const double* stddev = scaler.stddev.data();
  x.reshape(end - begin, arity);
  // One loop, written straight into the input matrix, in the same operation
  // order as Scaler::apply on a logged row; arity was validated above, once
  // per call.
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
      if (log_features) v = log_feature(v);
      const float enc = static_cast<float>((v - mean[c]) / stddev[c]);
      if (memo) last_enc[c] = enc;
      dst[c] = enc;
    }
  }
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

void Regressor::predict_gflops_rows(const tuning::FeatureBatch& batch, std::size_t begin,
                                    std::size_t end, double* out) const {
  // One forward-pass arena per thread, reused across calls: after the first
  // block at a given size the pipeline performs no transient allocations.
  thread_local Mlp::Workspace ws;
  encode_rows(feature_scaler_, log_features_, batch, begin, end, ws.x);
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
  Mlp::Workspace ws;
  encode_rows(feature_scaler_, log_features_,
              gather_features(data, num_features(), "Regressor::mse"), 0, data.size(), ws.x);
  const Matrix& y = net_.forward_into(ws);
  double acc = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double d = static_cast<double>(y(i, 0)) - encode_target(data[i].y, y_mean_, y_std_);
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
/// encode `data` through the §5.2 pipeline with the given statistics, then
/// optimize `net` in place over it. Each minibatch is gathered into one
/// reused forward workspace and backpropagated into one reused gradient set,
/// so nothing is allocated after the first (largest) minibatch.
void fit_minibatch(Mlp& net, const Scaler& scaler, bool log_features, double y_mean,
                   double y_std, const tuning::FeatureBatch& features,
                   const tuning::Dataset& data, const TrainConfig& config) {
  const std::size_t n = data.size();
  const std::size_t width = features.arity();
  Matrix x_all;
  encode_rows(scaler, log_features, features, 0, n, x_all);
  std::vector<float> y_all(n);
  for (std::size_t i = 0; i < n; ++i) {
    y_all[i] = static_cast<float>(encode_target(data[i].y, y_mean, y_std));
  }

  Adam adam(config.learning_rate);
  Rng rng(config.seed ^ 0xABCD);
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  const std::size_t batch = static_cast<std::size_t>(std::max(config.batch_size, 1));
  Mlp::Workspace ws;
  Mlp::Gradients grads;
  Matrix dLdy;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t batches = 0;

    for (std::size_t start = 0; start < n; start += batch) {
      const std::size_t bs = std::min(n, start + batch) - start;
      ws.x.reshape(bs, width);
      for (std::size_t i = 0; i < bs; ++i) {
        std::copy_n(x_all.data() + order[start + i] * width, width, ws.x.data() + i * width);
      }

      const Matrix& pred = net.forward_into(ws);
      dLdy.reshape(bs, 1);
      double loss = 0.0;
      for (std::size_t i = 0; i < bs; ++i) {
        const float d = pred(i, 0) - y_all[order[start + i]];
        loss += static_cast<double>(d) * d;
        dLdy(i, 0) = 2.0f * d / static_cast<float>(bs);
      }
      epoch_loss += loss / static_cast<double>(bs);
      ++batches;

      net.backward(ws, dLdy, grads);
      adam.step(net, grads);
    }

    if (config.on_epoch) {
      config.on_epoch(epoch, epoch_loss / static_cast<double>(std::max<std::size_t>(batches, 1)));
    }
  }
}

}  // namespace

Regressor train(const tuning::Dataset& train_data, const TrainConfig& config) {
  if (train_data.empty()) throw std::invalid_argument("train: empty dataset");

  // ---- fit the §5.2 statistics on the training data ----
  const tuning::FeatureBatch features =
      gather_features(train_data, tuning::kNumFeatures, "train");
  tuning::FeatureBatch logged = features;
  if (config.log_features) {
    double* v = logged.data();
    for (std::size_t i = 0; i < logged.rows() * logged.arity(); ++i) v[i] = log_feature(v[i]);
  }
  Scaler scaler;
  scaler.fit(logged);

  const double n = static_cast<double>(train_data.size());
  double y_mean = 0.0;
  for (const auto& s : train_data.samples()) y_mean += std::log(std::max(s.y, 1e-6));
  y_mean /= n;
  double y_var = 0.0;
  for (const auto& s : train_data.samples()) {
    const double d = std::log(std::max(s.y, 1e-6)) - y_mean;
    y_var += d * d;
  }
  const double y_std = std::max(std::sqrt(y_var / n), 1e-9);

  // ---- minibatch Adam from a fresh network ----
  MlpConfig net_cfg = config.net;
  net_cfg.inputs = static_cast<int>(tuning::kNumFeatures);
  net_cfg.seed = config.seed;
  Mlp net(net_cfg);
  fit_minibatch(net, scaler, config.log_features, y_mean, y_std, features, train_data, config);

  return Regressor(std::move(net), std::move(scaler), y_mean, y_std, config.log_features);
}

Regressor train_warm_start(const Regressor& base, const tuning::Dataset& delta,
                           const TrainConfig& config) {
  if (delta.empty()) throw std::invalid_argument("train_warm_start: empty dataset");
  // ---- resume the optimizer from the copied network, on base's frozen
  //      preprocessing ----
  Mlp net = base.net();
  fit_minibatch(net, base.feature_scaler(), base.log_features(), base.y_mean(), base.y_std(),
                gather_features(delta, base.num_features(), "train_warm_start"), delta,
                config);
  return Regressor(std::move(net), base.feature_scaler(), base.y_mean(), base.y_std(),
                   base.log_features());
}

}  // namespace isaac::mlp
