// GEMM kernel parameterization (paper §3.2, Figure 3).
//
// C = A · B with C ∈ R^{M×N}, A ∈ R^{M×K}, B ∈ R^{K×N}, all column-major
// (BLAS convention, matching cuBLAS). trans_a/trans_b select the stored
// layout: when trans_a is set, A is stored K×M and the kernel reads A^T.
//
// Tuning parameters (blue in Figure 3):
//   ms, ns   — per-thread micro-tile of C (MS × NS accumulators)
//   ml, nl   — per-block tile of C (ML × NL)
//   u        — prefetch depth along K per reduction group
//   ks       — unroll grouping inside a thread (ILP shaping)
//   kl       — reduction split across warp groups inside a block
//   kg       — reduction split across the grid (atomics accumulation)
//   vec      — vector width of global loads (1/2/4)
//
// Layout note (why NT is the "easy" case): the block stages A as a k-major
// [U·KL][ML] shared tile and B as [U·KL][NL]. Column-major A ('N') is
// m-contiguous and matches the A tile directly, while B ('N') is k-contiguous
// and must be transposed while being stored to shared memory; symmetric for
// the 'T' cases. LINPACK's (N,T) therefore needs no transposes, DeepBench
// forward (N,N) needs one, and backward (T,N) needs both — exactly the
// paper's §7.3 narrative.
#pragma once

#include <cstdint>
#include <string>

#include "gpusim/device.hpp"
#include "gpusim/kernel_profile.hpp"

namespace isaac::codegen {

struct GemmShape {
  std::int64_t m = 0, n = 0, k = 0;
  gpusim::DataType dtype = gpusim::DataType::F32;
  bool trans_a = false;
  bool trans_b = false;

  double flops() const noexcept { return 2.0 * static_cast<double>(m) * n * k; }
  std::string to_string() const;
  bool operator==(const GemmShape&) const = default;
};

struct GemmTuning {
  int ms = 4, ns = 4;
  int ml = 64, nl = 64;
  int u = 8;
  int ks = 1;
  int kl = 1;
  int kg = 1;
  int vec = 1;
  gpusim::BoundsMode bounds = gpusim::BoundsMode::Predicated;

  int threads_per_block() const noexcept { return (ml / ms) * (nl / ns) * kl; }
  std::string to_string() const;
  bool operator==(const GemmTuning&) const = default;
};

/// Is (shape, tuning) in the legal space X for `dev`? On failure, `why`
/// (optional) receives the violated constraint. Mirrors the paper's
/// distinction between the possible space X̂ (anything the sampler can emit)
/// and the legal space X (compilable *and* runnable).
bool validate(const GemmShape& shape, const GemmTuning& tuning,
              const gpusim::DeviceDescriptor& dev, std::string* why = nullptr);

/// Static analysis: lower (shape, tuning) to the KernelProfile the simulator
/// consumes. Callers must validate() first; analyze() throws on illegal
/// configs.
gpusim::KernelProfile analyze(const GemmShape& shape, const GemmTuning& tuning,
                              const gpusim::DeviceDescriptor& dev);

/// Estimated registers per thread (shared by validate/analyze; exposed for
/// tests and the §8.1 analysis bench).
int estimate_registers(const GemmShape& shape, const GemmTuning& tuning);

/// Shared memory bytes per block (main loop staging + K_L reduction buffer).
int smem_bytes(const GemmShape& shape, const GemmTuning& tuning);

}  // namespace isaac::codegen
