// Simulated cuBLAS: a fixed set of statically "optimized" GEMM kernels plus
// handcrafted runtime selection heuristics (paper §2: "high-budget vendor
// libraries engineer a set of several highly-optimized assembly kernels, and
// handcraft heuristics for runtime kernel selection").
//
// The kernel set and heuristics encode the deficiencies the paper documents:
//   * N-dimension tiling only 64- or 128-wide for the regular kernels (§8.1),
//     so skinny DeepBench batches waste threads on a non-existent part of C;
//   * split-K "reduction kernels" exist (small 32×32 tiles, K_G ∈ {2..64})
//     but always with K_L = 1 (§7.3: "cuBLAS not implementing reduction
//     splitting within streaming multi-processors");
//   * the selection heuristic only reaches for split-K when min(M,N) ≤ 16,
//     missing the ICA regime (M = N ∈ {32, 64, 256}, K huge) by an order of
//     magnitude (§7.3), and missing DeepBench N ∈ {32, 64} splits;
//   * fp16x2 math only in the 128×128 LINPACK-style kernel (§7.3.2), all
//     other tiles fall back to scalar half-precision math.
//
// "Best Kernel" mode models the cublasGemmEx bypass of §7.2: every kernel in
// the fixed set legal for the shape is timed and the fastest wins —
// discriminating bad heuristics from missing tiling schemes.
#pragma once

#include <string>
#include <vector>

#include "codegen/gemm.hpp"
#include "gpusim/simulator.hpp"

namespace isaac::baselines {

struct GemmKernel {
  std::string name;           // e.g. "sgemm_128x64"
  codegen::GemmTuning tuning;
  bool fp16x2 = false;        // whether the half-precision build uses fp16x2
};

struct BaselineRun {
  bool valid = false;
  GemmKernel kernel;
  double seconds = 0.0;
  double gflops = 0.0;
  gpusim::PerfBreakdown breakdown;
};

class CublasSim {
 public:
  explicit CublasSim(const gpusim::DeviceDescriptor& dev);

  /// The full fixed kernel set (before per-shape legality filtering and
  /// dtype adjustment).
  const std::vector<GemmKernel>& kernel_set() const noexcept { return kernels_; }

  /// Kernels from the set that are legal for `shape`, built for its dtype:
  /// vector width min(4, 16 / element size), so f64 loads 2-wide.
  std::vector<GemmKernel> legal_kernels(const codegen::GemmShape& shape) const;

  /// Handcrafted heuristic selection (the library's default path).
  GemmKernel choose(const codegen::GemmShape& shape) const;

  /// Profile with cuBLAS-specific adjustments (fp16x2 availability).
  gpusim::KernelProfile profile(const codegen::GemmShape& shape,
                                const GemmKernel& kernel) const;

  /// Run the heuristic path on a simulator.
  BaselineRun run_heuristic(const gpusim::Simulator& sim, const codegen::GemmShape& shape,
                            int reps = 5) const;

  /// cublasGemmEx-style bypass: time every legal kernel, return the fastest.
  BaselineRun run_best_kernel(const gpusim::Simulator& sim, const codegen::GemmShape& shape,
                              int reps = 5) const;

 private:
  const gpusim::DeviceDescriptor& dev_;
  std::vector<GemmKernel> kernels_;
};

}  // namespace isaac::baselines
