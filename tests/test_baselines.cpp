// Tests for the simulated vendor libraries: kernel sets, heuristic selection
// (including the paper-documented deficiencies), Best-Kernel bypass, and the
// fp16x2 availability rules.
#include <gtest/gtest.h>

#include "baselines/cublas_sim.hpp"
#include "baselines/cudnn_sim.hpp"
#include "gpusim/device.hpp"

namespace isaac::baselines {
namespace {

using gpusim::DataType;

codegen::GemmShape gemm_shape(std::int64_t m, std::int64_t n, std::int64_t k,
                              DataType dt = DataType::F32, bool ta = false, bool tb = false) {
  codegen::GemmShape s;
  s.m = m;
  s.n = n;
  s.k = k;
  s.dtype = dt;
  s.trans_a = ta;
  s.trans_b = tb;
  return s;
}

// ------------------------------------------------------------------ cuBLAS --
TEST(CublasSim, RegularKernelsOnlyTile64Or128AlongN) {
  CublasSim lib(gpusim::tesla_p100());
  for (const auto& k : lib.kernel_set()) {
    if (k.tuning.kg == 1) {
      EXPECT_TRUE(k.tuning.nl == 64 || k.tuning.nl == 128) << k.name;
    }
  }
}

TEST(CublasSim, NoKernelUsesIntraSmSplit) {
  // §7.3: cuBLAS does not implement K_L > 1.
  CublasSim lib(gpusim::tesla_p100());
  for (const auto& k : lib.kernel_set()) EXPECT_EQ(k.tuning.kl, 1) << k.name;
}

TEST(CublasSim, HeuristicMatchesBestKernelOnLinpack) {
  // The paper's premise: vendor heuristics are excellent on the dense
  // regular path (LINPACK home turf) — only the split-related selection has
  // holes. The heuristic choice must match the bypass on large squares.
  gpusim::Simulator sim(gpusim::tesla_p100(), 0.0, 1);
  CublasSim lib(sim.device());
  const auto shape = gemm_shape(2048, 2048, 2048, DataType::F32, false, true);
  const auto h = lib.run_heuristic(sim, shape);
  const auto b = lib.run_best_kernel(sim, shape);
  ASSERT_TRUE(h.valid);
  ASSERT_TRUE(b.valid);
  EXPECT_GT(h.gflops, 0.90 * b.gflops);
  EXPECT_GE(h.kernel.tuning.ml, 64);
  EXPECT_GE(h.kernel.tuning.nl, 64);
}

TEST(CublasSim, SkinnyBatchStillGetsWideNTile) {
  // The §8.1 deficiency: N = 16 is served by a 64-wide N tile.
  CublasSim lib(gpusim::tesla_p100());
  const auto k = lib.choose(gemm_shape(2560, 16, 2560));
  EXPECT_GE(k.tuning.nl, 64) << k.name;
}

TEST(CublasSim, Sec81ComparatorIsLegalOnDeepBenchBatch32) {
  // bench_paper's §8.1 deep dive compares against this kernel at
  // (2560, 32, 2560) and fails when it is not legal there.
  CublasSim lib(gpusim::tesla_p100());
  bool found = false;
  for (const auto& k : lib.legal_kernels(gemm_shape(2560, 32, 2560))) {
    found = found || k.name == "gemm_128x64_splitK4";
  }
  EXPECT_TRUE(found);
}

TEST(CublasSim, IcaShapeMissesSplitK) {
  // §7.3 ICA: M = N = 32, K = 60000 — the heuristic does NOT reach for the
  // split-K kernels (the documented order-of-magnitude hole).
  CublasSim lib(gpusim::tesla_p100());
  const auto k = lib.choose(gemm_shape(32, 32, 60000, DataType::F32, false, true));
  EXPECT_EQ(k.tuning.kg, 1) << k.name;
}

TEST(CublasSim, BestKernelRecoversSplitKForIca) {
  // The bypass finds the split-K kernel the heuristic missed.
  gpusim::Simulator sim(gpusim::tesla_p100(), 0.0, 1);
  CublasSim lib(sim.device());
  const auto shape = gemm_shape(32, 32, 60000, DataType::F32, false, true);
  const auto heuristic = lib.run_heuristic(sim, shape);
  const auto best = lib.run_best_kernel(sim, shape);
  ASSERT_TRUE(heuristic.valid);
  ASSERT_TRUE(best.valid);
  EXPECT_GT(best.kernel.tuning.kg, 1) << best.kernel.name;
  // "drastic slow-downs (over an order of magnitude)" for the heuristic path.
  EXPECT_GT(best.gflops, heuristic.gflops * 5.0);
}

TEST(CublasSim, BestKernelNeverSlowerThanHeuristic) {
  gpusim::Simulator sim(gpusim::tesla_p100(), 0.0, 1);
  CublasSim lib(sim.device());
  for (const auto& shape :
       {gemm_shape(512, 512, 512, DataType::F32, false, true), gemm_shape(2560, 32, 2560),
        gemm_shape(4096, 4096, 32, DataType::F32, false, true),
        gemm_shape(64, 64, 60000, DataType::F32, false, true)}) {
    const auto h = lib.run_heuristic(sim, shape);
    const auto b = lib.run_best_kernel(sim, shape);
    ASSERT_TRUE(h.valid) << shape.to_string();
    ASSERT_TRUE(b.valid) << shape.to_string();
    EXPECT_GE(b.gflops, h.gflops * 0.999) << shape.to_string();
  }
}

TEST(CublasSim, Fp16x2OnlyInLinpackKernel) {
  CublasSim lib(gpusim::tesla_p100());
  const auto shape = gemm_shape(2560, 64, 2560, DataType::F16);
  for (const auto& k : lib.legal_kernels(shape)) {
    const auto prof = lib.profile(shape, k);
    if (k.name == "gemm_128x128") {
      EXPECT_TRUE(prof.uses_fp16x2);
    } else {
      EXPECT_FALSE(prof.uses_fp16x2) << k.name;
    }
  }
}

TEST(CublasSim, ScalarF16DoublesFmaIssue) {
  CublasSim lib(gpusim::tesla_p100());
  const auto shape = gemm_shape(2048, 2048, 2048, DataType::F16);
  GemmKernel paired, scalar;
  for (const auto& k : lib.legal_kernels(shape)) {
    if (k.name == "gemm_128x128") paired = k;
    if (k.name == "gemm_64x64") scalar = k;
  }
  ASSERT_FALSE(paired.name.empty());
  ASSERT_FALSE(scalar.name.empty());
  const auto p1 = lib.profile(shape, paired);
  const auto p2 = lib.profile(shape, scalar);
  // Per-thread MAC count is identical (same micro-tile): the scalar build
  // issues twice the instructions per MAC.
  EXPECT_NEAR(p2.fma_insts, p1.fma_insts * 2.0, 1e-6);
}

TEST(CublasSim, HeuristicValidOnAllPaperShapes) {
  gpusim::Simulator sim(gpusim::gtx980ti(), 0.0, 1);
  CublasSim lib(sim.device());
  // All Table 4 shapes must resolve to a runnable kernel.
  const std::vector<codegen::GemmShape> shapes = {
      gemm_shape(512, 512, 512, DataType::F32, false, true),
      gemm_shape(1024, 1024, 1024, DataType::F32, false, true),
      gemm_shape(2048, 2048, 2048, DataType::F32, false, true),
      gemm_shape(2560, 16, 2560), gemm_shape(2560, 128, 2560),
      gemm_shape(2560, 16, 2560, DataType::F32, true, false),
      gemm_shape(32, 32, 60000, DataType::F32, false, true),
      gemm_shape(256, 256, 60000, DataType::F32, false, true),
      gemm_shape(4096, 4096, 32, DataType::F32, false, true),
      gemm_shape(896, 896, 32, DataType::F32, false, true)};
  for (const auto& s : shapes) {
    const auto run = lib.run_heuristic(sim, s);
    EXPECT_TRUE(run.valid) << s.to_string();
    EXPECT_GT(run.gflops, 0.0) << s.to_string();
  }
}

TEST(CublasSim, Fig8DoublePrecisionShapesHaveALegalKernel) {
  // A 128-bit load holds two doubles, so the set's 4-wide tiles are built
  // 2-wide in f64; with 4-wide loads no kernel was legal and Fig. 8's
  // cuBLAS column read 0.
  gpusim::Simulator sim(gpusim::tesla_p100(), 0.0, 1);
  CublasSim lib(sim.device());
  const std::vector<codegen::GemmShape> shapes = {
      gemm_shape(512, 512, 512, DataType::F64, false, true),
      gemm_shape(1024, 1024, 1024, DataType::F64, false, true),
      gemm_shape(2048, 2048, 2048, DataType::F64, false, true),
      gemm_shape(32, 32, 60000, DataType::F64, false, true),
      gemm_shape(64, 64, 60000, DataType::F64, false, true),
      gemm_shape(256, 256, 60000, DataType::F64, false, true),
      gemm_shape(896, 896, 32, DataType::F64, false, true),
      gemm_shape(2048, 2048, 32, DataType::F64, false, true),
      gemm_shape(4096, 4096, 32, DataType::F64, false, true)};
  for (const auto& s : shapes) {
    const auto legal = lib.legal_kernels(s);
    ASSERT_FALSE(legal.empty()) << s.to_string();
    for (const auto& k : legal) EXPECT_EQ(k.tuning.vec, 2) << k.name;
    const auto heuristic = lib.run_heuristic(sim, s);
    EXPECT_TRUE(heuristic.valid) << s.to_string();
    EXPECT_GT(heuristic.gflops, 0.0) << s.to_string();
    EXPECT_TRUE(lib.run_best_kernel(sim, s).valid) << s.to_string();
  }
}

TEST(CublasSim, SinglePrecisionKernelListsAreTheSetsLegalKernels) {
  // f32 (and f16) keep the set's 4-wide tiles: the legal list is exactly
  // the set filtered by validate, tunings unchanged.
  CublasSim lib(gpusim::tesla_p100());
  const std::vector<codegen::GemmShape> shapes = {
      gemm_shape(2048, 2048, 2048, DataType::F32, false, true),
      gemm_shape(2560, 16, 2560), gemm_shape(2560, 64, 2560, DataType::F32, true, false),
      gemm_shape(32, 32, 60000, DataType::F32, false, true),
      gemm_shape(896, 896, 32, DataType::F32, false, true),
      gemm_shape(2560, 64, 2560, DataType::F16)};
  for (const auto& s : shapes) {
    std::vector<GemmKernel> expected;
    for (const auto& k : lib.kernel_set()) {
      if (codegen::validate(s, k.tuning, gpusim::tesla_p100())) expected.push_back(k);
    }
    const auto legal = lib.legal_kernels(s);
    ASSERT_EQ(legal.size(), expected.size()) << s.to_string();
    ASSERT_FALSE(legal.empty()) << s.to_string();
    for (std::size_t i = 0; i < legal.size(); ++i) {
      EXPECT_EQ(legal[i].name, expected[i].name) << s.to_string();
      EXPECT_EQ(legal[i].tuning, expected[i].tuning) << legal[i].name;
      EXPECT_EQ(legal[i].tuning.vec, 4) << legal[i].name;
    }
  }
}

// ------------------------------------------------------------------- cuDNN --
TEST(CudnnSim, NoKernelSplitsTheReduction) {
  CudnnSim lib(gpusim::gtx980ti());
  for (const auto& k : lib.kernel_set()) {
    EXPECT_EQ(k.tuning.cg, 1) << k.name;
    EXPECT_EQ(k.tuning.cl, 1) << k.name;
  }
}

TEST(CudnnSim, SelectionIsNearOptimalOnMaxwell) {
  // Home turf: on the device the heuristics were tuned for, the selection
  // must be (near-)optimal within the fixed kernel set.
  gpusim::Simulator sim(gpusim::gtx980ti(), 0.0, 1);
  CudnnSim lib(sim.device());
  const auto shape = codegen::ConvShape::from_npq(16, 24, 240, 32, 16, 3, 3);  // OCR Conv3
  const auto chosen = lib.run_heuristic(sim, shape);
  ASSERT_TRUE(chosen.valid);
  double best = 0.0;
  for (const auto& k : lib.legal_kernels(shape)) {
    const auto perf = sim.evaluate(lib.profile(shape, k));
    if (perf.valid) best = std::max(best, perf.achieved_tflops * 1000.0);
  }
  EXPECT_GT(chosen.gflops, 0.90 * best);
}

TEST(CudnnSim, MaxwellTunedSelectionCanMisrankOnPascal) {
  // The same selection logic scores kernels with the Maxwell model even when
  // running on Pascal; choose() must still return something legal there.
  CudnnSim pascal(gpusim::tesla_p100());
  const auto shape = codegen::ConvShape::from_npq(16, 7, 7, 128, 832, 5, 5);  // Conv8
  const auto k = pascal.choose(shape);
  EXPECT_TRUE(codegen::validate(shape, k.tuning, gpusim::tesla_p100()));
}

TEST(CudnnSim, HeuristicValidOnAllTable5Shapes) {
  gpusim::Simulator sim(gpusim::gtx980ti(), 0.0, 1);
  CudnnSim lib(sim.device());
  const std::vector<codegen::ConvShape> shapes = {
      codegen::ConvShape::from_npq(16, 79, 341, 32, 1, 5, 20),
      codegen::ConvShape::from_npq(16, 38, 166, 32, 32, 5, 10),
      codegen::ConvShape::from_npq(16, 24, 240, 32, 16, 3, 3),
      codegen::ConvShape::from_npq(16, 12, 120, 64, 32, 3, 3),
      codegen::ConvShape::from_npq(8, 54, 54, 64, 64, 3, 3),
      codegen::ConvShape::from_npq(8, 27, 27, 128, 128, 3, 3),
      codegen::ConvShape::from_npq(16, 14, 14, 48, 512, 5, 5),
      codegen::ConvShape::from_npq(16, 7, 7, 128, 832, 5, 5),
      codegen::ConvShape::from_npq(8, 112, 112, 128, 64, 3, 3),
      codegen::ConvShape::from_npq(8, 56, 56, 256, 128, 3, 3),
      codegen::ConvShape::from_npq(16, 128, 39, 174, 64, 5, 5),
      codegen::ConvShape::from_npq(16, 256, 19, 87, 128, 5, 5),
      codegen::ConvShape::from_npq(16, 7, 7, 512, 512, 3, 3),
      codegen::ConvShape::from_npq(16, 7, 7, 2048, 1024, 1, 1)};
  for (const auto& s : shapes) {
    const auto run = lib.run_heuristic(sim, s);
    EXPECT_TRUE(run.valid) << s.to_string();
    EXPECT_GT(run.gflops, 0.0) << s.to_string();
  }
}

TEST(CudnnSim, MaxwellKernelsLoseOccupancyOnPascal) {
  // The smem-hungry staging kernels (u = 16) were sized for Maxwell's 96 KiB
  // SMs; Pascal offers 64 KiB, costing an occupancy step.
  CudnnSim maxwell(gpusim::gtx980ti());
  CudnnSim pascal(gpusim::tesla_p100());
  const auto shape = codegen::ConvShape::from_npq(8, 56, 56, 256, 128, 3, 3);
  const auto km = maxwell.choose(shape);
  const auto pm = maxwell.profile(shape, km);
  const auto pp = pascal.profile(shape, pascal.choose(shape));
  const auto occ_m = gpusim::occupancy(gpusim::gtx980ti(), pm.threads_per_block,
                                       pm.regs_per_thread, pm.smem_bytes_per_block);
  const auto occ_p = gpusim::occupancy(gpusim::tesla_p100(), pp.threads_per_block,
                                       pp.regs_per_thread, pp.smem_bytes_per_block);
  EXPECT_GT(occ_m.blocks_per_sm, occ_p.blocks_per_sm);
}

TEST(CudnnSim, NoFp16x2Anywhere) {
  CudnnSim lib(gpusim::tesla_p100());
  auto shape = codegen::ConvShape::from_npq(16, 14, 14, 48, 512, 5, 5);
  shape.dtype = gpusim::DataType::F16;
  for (const auto& k : lib.legal_kernels(shape)) {
    EXPECT_FALSE(lib.profile(shape, k).uses_fp16x2) << k.name;
  }
}

}  // namespace
}  // namespace isaac::baselines
