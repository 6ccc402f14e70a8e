#include "mlp/net.hpp"

#include <cmath>
#include <stdexcept>

#include "linalg/blas.hpp"

namespace isaac::mlp {

using linalg::Matrix;
using linalg::Trans;

Mlp::Mlp(const MlpConfig& config) : config_(config) {
  if (config.inputs <= 0) throw std::invalid_argument("Mlp: inputs must be positive");
  Rng rng(config.seed);
  std::vector<int> dims;
  dims.push_back(config.inputs);
  for (int h : config.hidden) {
    if (h <= 0) throw std::invalid_argument("Mlp: hidden sizes must be positive");
    dims.push_back(h);
  }
  dims.push_back(1);  // scalar performance prediction

  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    Matrix w(static_cast<std::size_t>(dims[l]), static_cast<std::size_t>(dims[l + 1]));
    // He initialization: ReLU halves the variance.
    w.randomize_normal(rng, 0.0f,
                       static_cast<float>(std::sqrt(2.0 / static_cast<double>(dims[l]))));
    weights_.push_back(std::move(w));
    biases_.emplace_back(1, static_cast<std::size_t>(dims[l + 1]), 0.0f);
  }
}

std::size_t Mlp::num_parameters() const noexcept {
  std::size_t n = 0;
  for (const auto& w : weights_) n += w.size();
  for (const auto& b : biases_) n += b.size();
  return n;
}

const Matrix& Mlp::forward_into(Workspace& ws) const {
  if (ws.x.cols() != static_cast<std::size_t>(config_.inputs)) {
    throw std::invalid_argument("Mlp::forward_into: feature arity mismatch");
  }
  const std::size_t batch = ws.x.rows();
  ws.a.resize(weights_.size());
  const Matrix* prev = &ws.x;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    Matrix& z = ws.a[l];
    z.reshape(batch, weights_[l].cols());
    linalg::gemm(Trans::No, Trans::No, 1.0f, *prev, weights_[l], 0.0f, z);
    // Bias broadcast and ReLU fused into one pass over z.
    const float* bias = biases_[l].data();
    const std::size_t cols = z.cols();
    const bool is_output = l + 1 == weights_.size();
    for (std::size_t r = 0; r < batch; ++r) {
      float* zrow = z.data() + r * cols;
      if (is_output) {
        for (std::size_t c = 0; c < cols; ++c) zrow[c] += bias[c];
      } else {
        for (std::size_t c = 0; c < cols; ++c) {
          const float v = zrow[c] + bias[c];
          zrow[c] = v > 0.0f ? v : 0.0f;
        }
      }
    }
    prev = &z;
  }
  return ws.a.back();
}

void Mlp::backward(const Workspace& ws, const Matrix& dLdy, Gradients& g) const {
  const std::size_t L = weights_.size();
  const std::size_t batch = ws.x.rows();
  bool matches = ws.a.size() == L && dLdy.rows() == batch && dLdy.cols() == 1;
  for (std::size_t l = 0; matches && l < L; ++l) {
    matches = ws.a[l].rows() == batch && ws.a[l].cols() == weights_[l].cols();
  }
  if (!matches) throw std::invalid_argument("Mlp::backward: workspace does not match network");
  g.dW.resize(L);
  g.db.resize(L);
  g.delta.resize(L - 1);
  for (std::size_t l = L; l-- > 0;) {
    // delta = dL/dz_l: dLdy at the output, else g.delta[l] ⊙ relu'(z_l).
    if (l + 1 != L) {
      const float* a = ws.a[l].data();
      float* d = g.delta[l].data();
      for (std::size_t i = 0; i < g.delta[l].size(); ++i) {
        if (a[i] <= 0.0f) d[i] = 0.0f;
      }
    }
    const Matrix& delta = l + 1 == L ? dLdy : g.delta[l];
    // dW_l = a_{l-1}^T · delta ; db_l = column sums of delta
    const Matrix& input = l == 0 ? ws.x : ws.a[l - 1];
    g.dW[l].reshape(weights_[l].rows(), weights_[l].cols());
    linalg::gemm(Trans::Yes, Trans::No, 1.0f, input, delta, 0.0f, g.dW[l]);
    Matrix& db = g.db[l];
    db.reshape(1, delta.cols());
    db.set_zero();
    for (std::size_t r = 0; r < batch; ++r) {
      const float* row = delta.data() + r * delta.cols();
      for (std::size_t c = 0; c < delta.cols(); ++c) db.data()[c] += row[c];
    }
    if (l > 0) {
      g.delta[l - 1].reshape(batch, weights_[l].rows());
      linalg::gemm(Trans::No, Trans::Yes, 1.0f, delta, weights_[l], 0.0f, g.delta[l - 1]);
    }
  }
}

Adam::Adam(double lr, double beta1, double beta2, double epsilon)
    : lr_(lr), beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {}

void Adam::step(Mlp& net, const Mlp::Gradients& grads) {
  const std::size_t L = net.num_layers();
  if (grads.dW.size() != L || grads.db.size() != L) {
    throw std::invalid_argument("Adam::step: arity mismatch");
  }
  if (m_.empty()) {
    for (std::size_t l = 0; l < L; ++l) {
      for (const Matrix* p : {&net.weights()[l], &net.biases()[l]}) {
        m_.emplace_back(p->rows(), p->cols(), 0.0f);
        v_.emplace_back(p->rows(), p->cols(), 0.0f);
      }
    }
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const auto update = [&](std::size_t slot, Matrix& p, const Matrix& g) {
    if (p.rows() != g.rows() || p.cols() != g.cols()) {
      throw std::invalid_argument("Adam::step: gradient shape mismatch");
    }
    float* mp = m_[slot].data();
    float* vp = v_[slot].data();
    float* pp = p.data();
    const float* gp = g.data();
    for (std::size_t j = 0; j < p.size(); ++j) {
      mp[j] = static_cast<float>(beta1_ * mp[j] + (1.0 - beta1_) * gp[j]);
      vp[j] = static_cast<float>(beta2_ * vp[j] + (1.0 - beta2_) * gp[j] * gp[j]);
      const double mhat = mp[j] / bc1;
      const double vhat = vp[j] / bc2;
      pp[j] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + epsilon_));
    }
  };
  for (std::size_t l = 0; l < L; ++l) {
    update(2 * l, net.weights()[l], grads.dW[l]);
    update(2 * l + 1, net.biases()[l], grads.db[l]);
  }
}

}  // namespace isaac::mlp
