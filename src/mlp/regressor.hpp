// Regressor: the trained performance model R of the paper.
//
// Wraps the MLP with the §5.2 preprocessing pipeline:
//   features:  x -> log(x) (unless ablated) -> standardize (train statistics)
//   target:    y GFLOPS -> log(y) -> standardize
// One fused encode loop (regressor.cpp) applies it for scoring, training and
// mse alike.
// Cross-validation MSE is reported in standardized log-target units — the
// scale on which Table 2's 0.06–0.17 values live.
#pragma once

#include <functional>
#include <iosfwd>
#include <vector>

#include "linalg/matrix.hpp"
#include "mlp/net.hpp"
#include "tuning/dataset.hpp"
#include "tuning/feature_batch.hpp"

namespace isaac::mlp {

struct TrainConfig {
  MlpConfig net;
  int epochs = 12;
  int batch_size = 256;
  double learning_rate = 1e-3;
  bool log_features = true;  // the §5.2 transform; false = ablation
  std::uint64_t seed = 0x5EED;
  /// Optional per-epoch callback (epoch index, train MSE in model units).
  std::function<void(int, double)> on_epoch;
};

/// Per-feature affine standardization fitted on training data.
struct Scaler {
  std::vector<double> mean;
  std::vector<double> stddev;

  void fit(const tuning::FeatureBatch& rows);
  /// Per-row standardization (throws on arity mismatch). Scoring and
  /// training do not call this: they validate arity once per FeatureBatch
  /// and fuse the standardization into Regressor's encode loop. It is the
  /// plain form that loop is tested against (tests/support).
  void apply(std::vector<double>& row) const;
};

class Regressor {
 public:
  Regressor(Mlp net, Scaler feature_scaler, double y_mean, double y_std, bool log_features);

  /// Predicted GFLOPS for a raw feature vector: one row through
  /// predict_gflops_rows, so it carries the batched path's bits.
  double predict_gflops(const std::vector<double>& raw_features) const;

  /// Allocation-free serial scoring — the ranking hot path
  /// (search/model_topk.hpp), whose walk chunks each score their own blocks.
  /// Scores batch rows [begin, end) into out[0, end - begin) on the calling
  /// thread: the §5.2 log transform and the scaler are fused into one encode
  /// loop that writes straight into a thread-local, capacity-recycling
  /// forward workspace (Mlp::Workspace), so after warmup a call performs no
  /// transient allocations. Feature arity is validated once per call, not
  /// per candidate (std::invalid_argument). A row's score depends only on
  /// that row: it is bit-identical whichever rows share its block.
  void predict_gflops_rows(const tuning::FeatureBatch& batch, std::size_t begin,
                           std::size_t end, double* out) const;

  /// Whole-batch scoring: predict_gflops_rows over `chunk`-row slices on the
  /// global pool (chunk == 0: one slice). Scores are bit-identical
  /// independent of chunk size and thread count.
  std::vector<double> predict_gflops_chunked(const tuning::FeatureBatch& batch,
                                             std::size_t chunk) const;

  /// Number of raw features one candidate row carries.
  std::size_t num_features() const noexcept { return feature_scaler_.mean.size(); }

  /// Frozen preprocessing statistics — the encode a warm-started successor
  /// must reuse so old and new versions score candidates on the same scale.
  const Scaler& feature_scaler() const noexcept { return feature_scaler_; }
  double y_mean() const noexcept { return y_mean_; }
  double y_std() const noexcept { return y_std_; }

  /// MSE in standardized log-target units over a dataset (Table 2 metric).
  double mse(const tuning::Dataset& data) const;

  const Mlp& net() const noexcept { return net_; }
  bool log_features() const noexcept { return log_features_; }

  /// Model serialization (text format). Weights and statistics are written
  /// with max_digits10 precision, so save/load round-trips bit-identically:
  /// a loaded model's predictions equal the in-memory original's exactly.
  void save(std::ostream& os) const;
  static Regressor load(std::istream& is);

 private:
  Mlp net_;
  Scaler feature_scaler_;
  double y_mean_, y_std_;
  bool log_features_;
};

/// Train on `train_data`, reporting per-epoch progress via config.on_epoch.
Regressor train(const tuning::Dataset& train_data, const TrainConfig& config);

/// Warm-start training: resume from `base`'s weights on an appended dataset
/// instead of fitting from scratch. The §5.2 preprocessing is *frozen* —
/// base's Scaler, target statistics, and log-feature setting are reused
/// unchanged (config.net / config.log_features are ignored) — so the copied
/// weights stay meaningful and predictions from consecutive versions live on
/// one encode. Only the optimizer runs: minibatch Adam for config.epochs over
/// `delta` starting from the copied network. This is the online retrainer's
/// primitive: `delta` is the folded observation log, typically small, and the
/// result is the successor model version.
Regressor train_warm_start(const Regressor& base, const tuning::Dataset& delta,
                           const TrainConfig& config);

}  // namespace isaac::mlp
