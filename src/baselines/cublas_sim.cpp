#include "baselines/cublas_sim.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace isaac::baselines {

namespace {

codegen::GemmTuning regular_tile(int ml, int nl) {
  codegen::GemmTuning t;
  t.ms = 8;
  t.ns = 8;
  t.ml = ml;
  t.nl = nl;
  t.u = 8;
  t.vec = 4;
  t.kl = 1;
  t.kg = 1;
  return t;
}

codegen::GemmTuning splitk_tile(int kg) {
  codegen::GemmTuning t;
  t.ms = 4;
  t.ns = 4;
  t.ml = 32;
  t.nl = 32;
  t.u = 8;
  t.vec = 4;
  t.kl = 1;  // the paper's point: no intra-SM split in cuBLAS
  t.kg = kg;
  return t;
}

/// `kernel` built for `dtype`: the set's tiles load 4-wide vectors, which
/// a 128-bit load holds only up to 4-byte elements, so wider types load
/// 16 / size elements at a time (2 in f64). f16 and f32 keep 4.
GemmKernel for_dtype(GemmKernel kernel, gpusim::DataType dtype) {
  kernel.tuning.vec =
      std::min(kernel.tuning.vec, static_cast<int>(16 / gpusim::dtype_size(dtype)));
  return kernel;
}

}  // namespace

CublasSim::CublasSim(const gpusim::DeviceDescriptor& dev) : dev_(dev) {
  // Regular kernels: N-dimension tiling is 64- or 128-wide only (§8.1).
  // Only the 128x128 "LINPACK" kernel carries the fp16x2 build.
  kernels_.push_back({"gemm_128x128", regular_tile(128, 128), /*fp16x2=*/true});
  kernels_.push_back({"gemm_128x64", regular_tile(128, 64), false});
  kernels_.push_back({"gemm_64x128", regular_tile(64, 128), false});
  kernels_.push_back({"gemm_64x64", regular_tile(64, 64), false});
  // Panel-split variants of the regular tiles (grid-level split only).
  for (int kg : {2, 4}) {
    auto wide_m = regular_tile(128, 64);
    wide_m.kg = kg;
    kernels_.push_back({strings::format("gemm_128x64_splitK%d", kg), wide_m, false});
    auto wide_n = regular_tile(64, 128);
    wide_n.kg = kg;
    kernels_.push_back({strings::format("gemm_64x128_splitK%d", kg), wide_n, false});
  }
  // Split-K reduction kernels: small tiles, global split only (K_L = 1).
  for (int kg : {2, 4, 8, 16, 32, 64}) {
    kernels_.push_back({strings::format("gemm_32x32_splitK%d", kg), splitk_tile(kg), false});
  }
}

std::vector<GemmKernel> CublasSim::legal_kernels(const codegen::GemmShape& shape) const {
  std::vector<GemmKernel> out;
  for (const auto& k : kernels_) {
    auto kernel = for_dtype(k, shape.dtype);
    if (codegen::validate(shape, kernel.tuning, dev_)) out.push_back(std::move(kernel));
  }
  return out;
}

GemmKernel CublasSim::choose(const codegen::GemmShape& shape) const {
  const auto legal = legal_kernels(shape);

  // Handcrafted heuristic tree (deficiencies deliberate — see header).
  auto find = [&](const std::string& name) -> const GemmKernel* {
    for (const auto& k : legal) {
      if (k.name == name) return &k;
    }
    return nullptr;
  };

  // Rule 1a: split-K reduction kernels only when the output is truly tiny
  // AND the reduction is deep. ICA's 32x32..256x256 outputs miss this test —
  // the documented order-of-magnitude hole (§7.3).
  if (shape.m * shape.n <= 256 && shape.k >= 4096) {
    const int kg = shape.k >= 16384 ? 64 : 16;
    if (const auto* k = find(strings::format("gemm_32x32_splitK%d", kg))) return *k;
  }

  // Rule 1b: skinny-panel splitting only when the thin dimension is <= 16.
  // DeepBench N ∈ {32, 64} falls through — "poor handling of
  // reduction-splitting in the library's heuristics" (§7.3).
  if (shape.n <= 16 && shape.m >= 512 && shape.k >= 1024) {
    if (const auto* k = find("gemm_128x64_splitK4")) return *k;
  }
  if (shape.m <= 16 && shape.n >= 512 && shape.k >= 1024) {
    if (const auto* k = find("gemm_64x128_splitK4")) return *k;
  }

  // Rule 2: half precision prefers the fp16x2 LINPACK kernel when the shape
  // can feed 128-wide tiles; otherwise falls to scalar-f16 builds.
  if (shape.dtype == gpusim::DataType::F16 && shape.m >= 128 && shape.n >= 128) {
    if (const auto* k = find("gemm_128x128")) return *k;
  }

  // Rule 3: among the four regular (non-split) tiles, vendor heuristics are
  // excellent — they were tuned offline against exactly these kernels. Model
  // that with a noise-free pick over the regular set, so the heuristic path
  // matches the Best-Kernel bypass everywhere except where reduction
  // splitting is the answer (the paper's finding: the heuristic holes are
  // split-related, §7.3).
  const GemmKernel* best = nullptr;
  double best_seconds = 0.0;
  for (const auto& k : legal) {
    if (k.tuning.kg != 1) continue;  // heuristics never reach split kernels here
    const auto perf = gpusim::evaluate(dev_, profile(shape, k));
    if (!perf.valid) continue;
    if (best == nullptr || perf.seconds < best_seconds) {
      best = &k;
      best_seconds = perf.seconds;
    }
  }
  if (best != nullptr) return *best;

  if (!legal.empty()) return legal.front();
  // Nothing legal: the caller's run will report invalid.
  return for_dtype(kernels_.front(), shape.dtype);
}

gpusim::KernelProfile CublasSim::profile(const codegen::GemmShape& shape,
                                         const GemmKernel& kernel) const {
  gpusim::KernelProfile p = codegen::analyze(shape, kernel.tuning, dev_);
  p.label = "cublas:" + kernel.name + " / " + shape.to_string();
  if (shape.dtype == gpusim::DataType::F16 && !kernel.fp16x2 && p.uses_fp16x2) {
    // This kernel has no fp16x2 build: scalar half math, twice the FMA issue.
    p.uses_fp16x2 = false;
    p.fma_insts *= 2.0;
    p.st_global_insts *= 2.0;
  }
  return p;
}

BaselineRun CublasSim::run_heuristic(const gpusim::Simulator& sim,
                                     const codegen::GemmShape& shape, int reps) const {
  BaselineRun out;
  out.kernel = choose(shape);
  if (!codegen::validate(shape, out.kernel.tuning, dev_)) return out;
  const auto prof = profile(shape, out.kernel);
  const auto timed = sim.launch_median(prof, reps);
  if (!timed.valid) return out;
  out.valid = true;
  out.seconds = timed.seconds;
  out.gflops = timed.tflops * 1000.0;
  out.breakdown = timed.model;
  return out;
}

BaselineRun CublasSim::run_best_kernel(const gpusim::Simulator& sim,
                                       const codegen::GemmShape& shape, int reps) const {
  BaselineRun best;
  for (const auto& k : legal_kernels(shape)) {
    const auto prof = profile(shape, k);
    const auto timed = sim.launch_median(prof, reps);
    if (!timed.valid) continue;
    if (!best.valid || timed.seconds < best.seconds) {
      best.valid = true;
      best.kernel = k;
      best.seconds = timed.seconds;
      best.gflops = timed.tflops * 1000.0;
      best.breakdown = timed.model;
    }
  }
  return best;
}

}  // namespace isaac::baselines
