// Multi-layer perceptron (paper §5, Figure 4 / Algorithm 1).
//
// Fully connected layers with ReLU activations and a linear scalar output,
// trained with minibatch gradient descent on the MSE loss. The forward pass
// is exactly Algorithm 1: a_{-1} = x; z_n = W_n a_{n-1}; a_n = f_n(z_n).
// ReLU is chosen because the performance surface is built from maxima
// (eq. (2)-(3)); multiplicative relationships are handled by the log feature
// transform applied upstream (§5.2).
//
// One forward body serves scoring and training: forward_into runs over a
// caller-owned Workspace, and backward reads that workspace's activations
// into caller-owned Gradients, so a training loop that reuses both allocates
// nothing after its first minibatch. All math runs serially on the in-repo
// linalg BLAS (linalg::gemm) — fittingly, MLP inference over
// ~15-feature vectors is itself the highly rectangular GEMM regime ISAAC
// targets (§5: the system "could itself be bootstrapped").
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace isaac::mlp {

struct MlpConfig {
  int inputs = 15;
  std::vector<int> hidden{64, 128, 64};
  std::uint64_t seed = 0x11A0;
};

class Mlp {
 public:
  explicit Mlp(const MlpConfig& config);

  /// Caller-owned forward-pass arena: the input matrix plus one activation
  /// buffer per layer, reshaped (never reallocated past their high-water
  /// mark) on every forward_into call. One workspace per thread lets a
  /// chunked scoring pass run arbitrarily many forward passes with zero
  /// transient allocations after warmup. Workspaces are not tied to one Mlp:
  /// forward_into re-sizes the buffers to whatever network uses them.
  struct Workspace {
    linalg::Matrix x;               // [batch × inputs], filled by the caller
    std::vector<linalg::Matrix> a;  // per-layer activations, a.back() = output
  };

  /// Caller-owned backward-pass buffers, reshaped like Workspace's.
  struct Gradients {
    std::vector<linalg::Matrix> dW, db;  // same shapes as weights()/biases()
    std::vector<linalg::Matrix> delta;   // dL/dz per hidden layer
  };

  /// Allocation-free forward pass over ws.x (batch = ws.x.rows()): runs
  /// entirely on the calling thread (linalg::gemm) and reuses the
  /// workspace's buffers. Returns ws.a.back(), valid until the next call.
  const linalg::Matrix& forward_into(Workspace& ws) const;

  /// Backpropagate dLdy ([batch × 1], the loss gradient w.r.t. the output)
  /// through the activations the last forward_into(ws) on this network left
  /// in `ws`, filling g.dW / g.db. Runs on the calling thread and reuses g's
  /// buffers. ReLU's derivative is masked where the activation is ≤ 0, which
  /// for any finite pre-activation is where the pre-activation is ≤ 0.
  void backward(const Workspace& ws, const linalg::Matrix& dLdy, Gradients& g) const;

  std::size_t num_layers() const noexcept { return weights_.size(); }
  std::size_t num_parameters() const noexcept;

  std::vector<linalg::Matrix>& weights() noexcept { return weights_; }
  std::vector<linalg::Matrix>& biases() noexcept { return biases_; }
  const std::vector<linalg::Matrix>& weights() const noexcept { return weights_; }
  const std::vector<linalg::Matrix>& biases() const noexcept { return biases_; }

  const MlpConfig& config() const noexcept { return config_; }

 private:
  MlpConfig config_;
  std::vector<linalg::Matrix> weights_;  // [fan_in × fan_out] per layer
  std::vector<linalg::Matrix> biases_;   // [1 × fan_out] per layer
};

/// Adam optimizer over an MLP's weights and biases.
class Adam {
 public:
  explicit Adam(double lr = 1e-3, double beta1 = 0.9, double beta2 = 0.999,
                double epsilon = 1e-8);

  /// One update of every layer's weights and biases, in place, from `grads`
  /// (shapes must match the network's; std::invalid_argument otherwise).
  void step(Mlp& net, const Mlp::Gradients& grads);

 private:
  double lr_, beta1_, beta2_, epsilon_;
  std::int64_t t_ = 0;
  std::vector<linalg::Matrix> m_, v_;  // per parameter: W0, b0, W1, b1, ...
};

}  // namespace isaac::mlp
