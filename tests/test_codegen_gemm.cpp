// Tests for the GEMM parameterization: validity (legal space X), static
// analysis (KernelProfile), and the single and batched functional executors
// against the naive references across shapes, layouts, reduction splits,
// strides, and a seeded sample of the legal space. KG = 1 outputs are also
// compared bit for bit with an ordered-sum oracle.

// The oracle must round each multiply and each add on its own, as the
// executors do, in every build (see gemm_executor.cpp).
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "codegen/batched_gemm.hpp"
#include "codegen/batched_gemm_executor.hpp"
#include "codegen/gemm.hpp"
#include "codegen/gemm_executor.hpp"
#include "common/cpu_isa.hpp"
#include "common/rng.hpp"
#include "gpusim/device.hpp"
#include "telemetry/metrics.hpp"
#include "tuning/search_space.hpp"

namespace isaac::codegen {
namespace {

using gpusim::DataType;

GemmShape make_shape(std::int64_t m, std::int64_t n, std::int64_t k,
                     DataType dt = DataType::F32, bool ta = false, bool tb = false) {
  GemmShape s;
  s.m = m;
  s.n = n;
  s.k = k;
  s.dtype = dt;
  s.trans_a = ta;
  s.trans_b = tb;
  return s;
}

GemmTuning make_tuning(int ms, int ns, int ml, int nl, int u, int kl = 1, int kg = 1,
                       int vec = 1) {
  GemmTuning t;
  t.ms = ms;
  t.ns = ns;
  t.ml = ml;
  t.nl = nl;
  t.u = u;
  t.kl = kl;
  t.kg = kg;
  t.vec = vec;
  return t;
}

// --------------------------------------------------------------- validity --
TEST(GemmValidity, TypicalConfigIsLegal) {
  std::string why;
  EXPECT_TRUE(validate(make_shape(1024, 1024, 1024), make_tuning(8, 8, 64, 64, 8),
                       gpusim::gtx980ti(), &why))
      << why;
}

TEST(GemmValidity, NonPowerOfTwoRejected) {
  GemmTuning t = make_tuning(8, 8, 64, 64, 8);
  t.u = 6;
  std::string why;
  EXPECT_FALSE(validate(make_shape(512, 512, 512), t, gpusim::gtx980ti(), &why));
  EXPECT_NE(why.find("powers of two"), std::string::npos);
}

TEST(GemmValidity, TileDivisibilityRequired) {
  GemmTuning t = make_tuning(8, 8, 64, 64, 8);
  t.ms = 16;
  t.ml = 8;  // ML < MS
  EXPECT_FALSE(validate(make_shape(512, 512, 512), t, gpusim::gtx980ti()));
}

TEST(GemmValidity, OversizedBlockRejected) {
  // 128/1 * 128/1 = 16384 threads.
  std::string why;
  EXPECT_FALSE(
      validate(make_shape(512, 512, 512), make_tuning(1, 1, 128, 128, 8), gpusim::gtx980ti(), &why));
  EXPECT_NE(why.find("threads"), std::string::npos);
}

TEST(GemmValidity, SmemBudgetEnforced) {
  // (128+128)*32*2*4B*2 = 128 KiB of staging: far over the 48 KiB limit.
  GemmTuning t = make_tuning(8, 8, 128, 128, 32, 2);
  std::string why;
  EXPECT_FALSE(validate(make_shape(4096, 4096, 4096), t, gpusim::gtx980ti(), &why));
  EXPECT_NE(why.find("hared memory"), std::string::npos);
}

TEST(GemmValidity, KgBeyondKRejected) {
  GemmTuning t = make_tuning(4, 4, 32, 32, 4);
  t.kg = 64;
  EXPECT_FALSE(validate(make_shape(128, 128, 32), t, gpusim::gtx980ti()));
}

TEST(GemmValidity, DeepSplitNeedsDepth) {
  // U*KL = 64 > K/KG = 16.
  GemmTuning t = make_tuning(4, 4, 32, 32, 16, 4);
  t.kg = 4;
  std::string why;
  EXPECT_FALSE(validate(make_shape(128, 128, 64), t, gpusim::gtx980ti(), &why));
}

TEST(GemmValidity, F16AtomicsRejected) {
  GemmTuning t = make_tuning(4, 4, 32, 32, 8);
  t.kg = 2;
  std::string why;
  EXPECT_FALSE(
      validate(make_shape(512, 512, 4096, DataType::F16), t, gpusim::tesla_p100(), &why));
  EXPECT_NE(why.find("f16"), std::string::npos);
  t.kg = 1;
  EXPECT_TRUE(validate(make_shape(512, 512, 4096, DataType::F16), t, gpusim::tesla_p100()));
}

TEST(GemmValidity, PrefetchMustDivideAmongThreads) {
  // threads = (8/1)*(8/8) = 8... choose tile where (ml*u*kl) % threads != 0.
  GemmTuning t = make_tuning(1, 8, 8, 64, 4);  // threads = 8*8=64; elems_a=8*4=32 < 64
  std::string why;
  EXPECT_FALSE(validate(make_shape(512, 512, 512), t, gpusim::gtx980ti(), &why));
  EXPECT_NE(why.find("divide"), std::string::npos);
}

// --------------------------------------------------------------- analysis --
TEST(GemmAnalyze, ProfileBasics) {
  const auto shape = make_shape(2048, 2048, 2048);
  const auto tuning = make_tuning(8, 8, 64, 64, 8);
  const auto p = analyze(shape, tuning, gpusim::gtx980ti());
  EXPECT_EQ(p.grid_blocks, 32 * 32);
  EXPECT_EQ(p.threads_per_block, 64);
  EXPECT_DOUBLE_EQ(p.useful_flops, 2.0 * 2048 * 2048 * 2048);
  // fma per thread = K * MS * NS.
  EXPECT_DOUBLE_EQ(p.fma_insts, 2048.0 * 8 * 8);
  EXPECT_GT(p.regs_per_thread, 64);  // 64 accumulators + staging
  EXPECT_EQ(p.st_global_insts, 64.0);
  EXPECT_EQ(p.atom_global_insts, 0.0);
  EXPECT_EQ(p.extra_launches, 0);
  EXPECT_DOUBLE_EQ(p.bounds_overhead_factor, 1.0);  // tiles divide exactly
}

TEST(GemmAnalyze, EdgePredicationOverheadOnlyWhenRagged) {
  const auto tuning = make_tuning(8, 8, 64, 64, 8);
  const auto clean = analyze(make_shape(2048, 2048, 2048), tuning, gpusim::gtx980ti());
  const auto ragged = analyze(make_shape(2000, 2000, 2000), tuning, gpusim::gtx980ti());
  EXPECT_DOUBLE_EQ(clean.bounds_overhead_factor, 1.0);
  EXPECT_NEAR(ragged.bounds_overhead_factor, 1.02, 1e-9);
}

TEST(GemmAnalyze, BranchyBoundsCostMore) {
  GemmTuning t = make_tuning(8, 8, 64, 64, 8);
  t.bounds = gpusim::BoundsMode::Branchy;
  const auto p = analyze(make_shape(2000, 2000, 2000), t, gpusim::gtx980ti());
  EXPECT_NEAR(p.bounds_overhead_factor, 1.18, 1e-9);
}

TEST(GemmAnalyze, PaddedModeInflatesWork) {
  GemmTuning t = make_tuning(8, 8, 64, 64, 8);
  t.bounds = gpusim::BoundsMode::Padded;
  const auto p = analyze(make_shape(2000, 2000, 2000), t, gpusim::gtx980ti());
  // Grid covers the padded extent.
  EXPECT_EQ(p.grid_blocks, 32 * 32);
  EXPECT_DOUBLE_EQ(p.bounds_overhead_factor, 1.0);
  EXPECT_GT(p.extra_launches, 0);  // pad/unpad pass
}

TEST(GemmAnalyze, SplitReductionUsesAtomics) {
  GemmTuning t = make_tuning(4, 4, 32, 32, 8);
  t.kg = 8;
  const auto p = analyze(make_shape(64, 64, 60000), t, gpusim::tesla_p100());
  EXPECT_GT(p.atom_global_insts, 0.0);
  EXPECT_EQ(p.st_global_insts, 0.0);
  EXPECT_EQ(p.extra_launches, 1);
  EXPECT_EQ(p.grid_blocks, 2 * 2 * 8);
}

TEST(GemmAnalyze, KlAddsWarpsAndSmem) {
  const auto shape = make_shape(64, 64, 60000);
  const auto base = analyze(shape, make_tuning(4, 4, 32, 32, 8, 1), gpusim::tesla_p100());
  const auto split = analyze(shape, make_tuning(4, 4, 32, 32, 8, 4), gpusim::tesla_p100());
  EXPECT_EQ(split.threads_per_block, base.threads_per_block * 4);
  EXPECT_GT(split.smem_bytes_per_block, base.smem_bytes_per_block);
  // Same FLOPs, split across 4x the threads.
  EXPECT_LT(split.fma_insts, base.fma_insts);
}

TEST(GemmAnalyze, Fp16PairingHalvesInstructions) {
  const auto f32 = analyze(make_shape(2048, 2048, 2048, DataType::F32),
                           make_tuning(8, 8, 64, 64, 8), gpusim::tesla_p100());
  const auto f16 = analyze(make_shape(2048, 2048, 2048, DataType::F16),
                           make_tuning(8, 8, 64, 64, 8), gpusim::tesla_p100());
  EXPECT_TRUE(f16.uses_fp16x2);
  EXPECT_DOUBLE_EQ(f16.fma_insts * 2.0, f32.fma_insts);
}

TEST(GemmAnalyze, TransposeLayoutsRaiseSmemCost) {
  // (N,T) — LINPACK — needs no smem transposes; (T,N) needs both. In-flight
  // transposition scalarizes the vectorized staging stores.
  const auto nt = analyze(make_shape(1024, 1024, 1024, DataType::F32, false, true),
                          make_tuning(8, 8, 64, 64, 8, 1, 1, 4), gpusim::gtx980ti());
  const auto tn = analyze(make_shape(1024, 1024, 1024, DataType::F32, true, false),
                          make_tuning(8, 8, 64, 64, 8, 1, 1, 4), gpusim::gtx980ti());
  EXPECT_LT(nt.smem_conflict_ways, tn.smem_conflict_ways);
  EXPECT_LT(nt.st_shared_insts, tn.st_shared_insts);
}

TEST(GemmAnalyze, IllegalConfigThrows) {
  GemmTuning t = make_tuning(1, 1, 128, 128, 8);
  EXPECT_THROW(analyze(make_shape(512, 512, 512), t, gpusim::gtx980ti()),
               std::invalid_argument);
}

TEST(GemmAnalyze, RequestedTrafficScalesWithGrid) {
  const auto small = analyze(make_shape(512, 512, 512), make_tuning(8, 8, 64, 64, 8),
                             gpusim::gtx980ti());
  const auto large = analyze(make_shape(2048, 2048, 512), make_tuning(8, 8, 64, 64, 8),
                             gpusim::gtx980ti());
  EXPECT_GT(large.requested_read_bytes, small.requested_read_bytes * 10);
}

// --------------------------------------------------------------- executor --
struct ExecCase {
  std::int64_t m, n, k;
  bool ta, tb;
  GemmTuning tuning;
};

class GemmExecutorMatchesReference : public ::testing::TestWithParam<ExecCase> {};

TEST_P(GemmExecutorMatchesReference, Float) {
  const ExecCase& ec = GetParam();
  const GemmShape shape =
      make_shape(ec.m, ec.n, ec.k, DataType::F32, ec.ta, ec.tb);
  Rng rng(static_cast<std::uint64_t>(ec.m * 7 + ec.n * 3 + ec.k));

  const std::int64_t lda = ec.ta ? ec.k : ec.m;
  const std::int64_t ldb = ec.tb ? ec.n : ec.k;
  std::vector<float> a(static_cast<std::size_t>(lda * (ec.ta ? ec.m : ec.k)));
  std::vector<float> b(static_cast<std::size_t>(ldb * (ec.tb ? ec.k : ec.n)));
  for (auto& x : a) x = static_cast<float>(rng.uniform(-1, 1));
  for (auto& x : b) x = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> c(static_cast<std::size_t>(ec.m * ec.n));
  for (auto& x : c) x = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> c_ref = c;

  execute_gemm(shape, ec.tuning, 1.5f, a.data(), lda, b.data(), ldb, 0.5f, c.data(), ec.m);
  reference_gemm(shape, 1.5f, a.data(), lda, b.data(), ldb, 0.5f, c_ref.data(), ec.m);

  double max_diff = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    max_diff = std::max(max_diff, static_cast<double>(std::abs(c[i] - c_ref[i])));
  }
  EXPECT_LT(max_diff, 1e-3 * static_cast<double>(ec.k))
      << "shape " << shape.to_string() << " tuning " << ec.tuning.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    ShapesLayoutsSplits, GemmExecutorMatchesReference,
    ::testing::Values(
        // Exact tiles, all four layouts.
        ExecCase{64, 64, 64, false, false, make_tuning(4, 4, 32, 32, 8)},
        ExecCase{64, 64, 64, false, true, make_tuning(4, 4, 32, 32, 8)},
        ExecCase{64, 64, 64, true, false, make_tuning(4, 4, 32, 32, 8)},
        ExecCase{64, 64, 64, true, true, make_tuning(4, 4, 32, 32, 8)},
        // Ragged edges in every dimension (predication paths).
        ExecCase{61, 67, 53, false, false, make_tuning(4, 4, 32, 32, 8)},
        ExecCase{33, 31, 17, false, true, make_tuning(4, 4, 32, 32, 8)},
        ExecCase{7, 100, 129, true, false, make_tuning(2, 4, 16, 32, 4)},
        // Skinny shapes (the paper's DeepBench/ICA regimes).
        ExecCase{256, 16, 256, false, false, make_tuning(4, 2, 64, 16, 8)},
        ExecCase{32, 32, 4096, false, true, make_tuning(4, 4, 32, 32, 8)},
        // Split reductions: KL, KG, and both.
        ExecCase{64, 64, 512, false, false, make_tuning(4, 4, 32, 32, 8, 2, 1)},
        ExecCase{64, 64, 512, false, true, make_tuning(4, 4, 32, 32, 8, 1, 4)},
        ExecCase{48, 48, 1000, true, false, make_tuning(4, 4, 32, 32, 4, 2, 8)},
        // K not divisible by KG (empty tail slices).
        ExecCase{32, 32, 100, false, false, make_tuning(4, 4, 32, 32, 4, 1, 8)},
        // Single-element micro-tiles.
        ExecCase{16, 16, 32, false, false, make_tuning(1, 1, 8, 8, 4)}));

TEST(GemmExecutor, DoublePrecision) {
  const GemmShape shape = make_shape(40, 40, 200, DataType::F64, false, true);
  Rng rng(9);
  std::vector<double> a(40 * 200), b(40 * 200), c(40 * 40, 0.0), c_ref(40 * 40, 0.0);
  for (auto& x : a) x = rng.uniform(-1, 1);
  for (auto& x : b) x = rng.uniform(-1, 1);
  execute_gemm(shape, make_tuning(4, 4, 8, 8, 4, 1, 4), 1.0, a.data(), 40, b.data(), 40, 0.0,
               c.data(), 40);
  reference_gemm(shape, 1.0, a.data(), 40, b.data(), 40, 0.0, c_ref.data(), 40);
  double max_diff = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(c[i] - c_ref[i]));
  }
  EXPECT_LT(max_diff, 1e-9);
}

TEST(GemmExecutor, BetaZeroIgnoresGarbage) {
  const GemmShape shape = make_shape(8, 8, 8);
  std::vector<float> a(64, 1.0f), b(64, 1.0f);
  std::vector<float> c(64, std::numeric_limits<float>::quiet_NaN());
  execute_gemm(shape, make_tuning(2, 2, 8, 8, 4), 1.0f, a.data(), 8, b.data(), 8, 0.0f,
               c.data(), 8);
  for (float v : c) EXPECT_FLOAT_EQ(v, 8.0f);
}

TEST(GemmExecutor, LeadingDimensionValidated) {
  const GemmShape shape = make_shape(16, 16, 16);
  std::vector<float> a(256), b(256), c(256);
  EXPECT_THROW(execute_gemm(shape, make_tuning(2, 2, 8, 8, 4), 1.0f, a.data(), 8, b.data(), 16,
                            0.0f, c.data(), 16),
               std::invalid_argument);
}

TEST(GemmExecutor, EmptyProblemThrows) {
  const GemmShape shape = make_shape(0, 8, 8);
  std::vector<float> dummy(64);
  EXPECT_THROW(execute_gemm(shape, make_tuning(2, 2, 8, 8, 4), 1.0f, dummy.data(), 8,
                            dummy.data(), 8, 0.0f, dummy.data(), 8),
               std::invalid_argument);
}

TEST(GemmExecutor, OnePoolPassPerCallWithoutSplit) {
  // KG = 1 fuses beta into the block epilogue, and batched GEMM folds the
  // batch into the block grid: one parallel_for per call either way. KG > 1
  // adds the scale pass.
  telemetry::set_enabled(true);
  telemetry::Counter& passes = telemetry::counter("pool.parallel_for");
  const GemmShape shape = make_shape(64, 64, 64);
  std::vector<float> a(8 * 64 * 64, 1.0f), b(8 * 64 * 64, 1.0f), c(8 * 64 * 64, 1.0f);
  const auto count = [&](const auto& call) {
    const std::uint64_t before = passes.value();
    call();
    return passes.value() - before;
  };
  EXPECT_EQ(count([&] {
              execute_gemm(shape, make_tuning(4, 4, 16, 16, 4), 1.0f, a.data(), 64, b.data(), 64,
                           0.5f, c.data(), 64);
            }),
            1u);
  EXPECT_EQ(count([&] {
              execute_gemm(shape, make_tuning(4, 4, 16, 16, 4, 1, 2), 1.0f, a.data(), 64,
                           b.data(), 64, 0.5f, c.data(), 64);
            }),
            2u);
  BatchedGemmShape batched;
  batched.batch = 8;
  batched.gemm = shape;
  EXPECT_EQ(count([&] {
              execute_batched_gemm(batched, make_tuning(4, 4, 16, 16, 4), 1.0f, a.data(), 64,
                                   64 * 64, b.data(), 64, 64 * 64, 0.5f, c.data(), 64, 64 * 64);
            }),
            1u);
  telemetry::set_enabled(false);
}

// ------------------------------------------------------- bit-exact oracle --
/// C = alpha·op(A)·op(B) + beta·C as the engine computes it with KG = 1:
/// each element is the d-ascending sum from zero, one rounded multiply and
/// one rounded add per step, then alpha·sum, plus beta·C unless beta = 0.
template <typename T>
void ordered_sum_gemm(const GemmShape& s, T alpha, const T* a, std::int64_t lda, const T* b,
                      std::int64_t ldb, T beta, T* c, std::int64_t ldc) {
  for (std::int64_t j = 0; j < s.n; ++j) {
    for (std::int64_t i = 0; i < s.m; ++i) {
      T sum = 0;
      for (std::int64_t d = 0; d < s.k; ++d) {
        const T av = s.trans_a ? a[d + i * lda] : a[i + d * lda];
        const T bv = s.trans_b ? b[j + d * ldb] : b[d + j * ldb];
        sum += av * bv;
      }
      T& out = c[i + j * ldc];
      out = beta == T(0) ? alpha * sum : alpha * sum + beta * out;
    }
  }
}

/// Seeded operands of one GEMM, leading dimensions `pad` past minimal.
template <typename T>
struct GemmOperands {
  std::int64_t lda, ldb, ldc;
  std::vector<T> a, b, c;
};

template <typename T>
GemmOperands<T> make_operands(const GemmShape& s, std::int64_t pad, std::uint64_t seed) {
  Rng rng(seed);
  GemmOperands<T> o;
  o.lda = (s.trans_a ? s.k : s.m) + pad;
  o.ldb = (s.trans_b ? s.n : s.k) + pad;
  o.ldc = s.m + pad;
  o.a.resize(static_cast<std::size_t>(o.lda * (s.trans_a ? s.m : s.k)));
  o.b.resize(static_cast<std::size_t>(o.ldb * (s.trans_b ? s.k : s.n)));
  o.c.resize(static_cast<std::size_t>(o.ldc * s.n));
  for (std::vector<T>* v : {&o.a, &o.b, &o.c}) {
    for (T& x : *v) x = static_cast<T>(rng.uniform(-1, 1));
  }
  return o;
}

template <typename T>
bool bit_identical(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

/// The micro-kernel variants this CPU runs.
std::vector<cpu::Isa> supported_isas() {
  std::vector<cpu::Isa> out;
  for (const cpu::Isa isa : {cpu::Isa::sse2, cpu::Isa::avx2, cpu::Isa::avx512}) {
    if (cpu::supported(isa)) out.push_back(isa);
  }
  return out;
}

/// Every supported variant's output, from the same seeded operands, against
/// the ordered sum.
template <typename T>
void expect_ordered_sum(const GemmShape& s, const GemmTuning& t, T beta, std::int64_t pad,
                        std::uint64_t seed) {
  const GemmOperands<T> o = make_operands<T>(s, pad, seed);
  std::vector<T> want = o.c;
  ordered_sum_gemm(s, T(1.5), o.a.data(), o.lda, o.b.data(), o.ldb, beta, want.data(), o.ldc);
  for (const cpu::Isa isa : supported_isas()) {
    std::vector<T> got = o.c;
    detail::with_isa(isa, [&] {
      execute_gemm(s, t, T(1.5), o.a.data(), o.lda, o.b.data(), o.ldb, beta, got.data(), o.ldc);
    });
    EXPECT_TRUE(bit_identical(got, want))
        << s.to_string() << " tuning " << t.to_string() << " beta " << beta << " pad " << pad
        << " " << (sizeof(T) == 4 ? "float" : "double") << " " << cpu::name(isa);
  }
}

TEST(GemmExecutor, BitIdenticalToOrderedSum) {
  // Ragged M, N and K against every tile, KL = 1 and 4, in all four layouts,
  // with minimal and padded leading dimensions, on every micro-kernel
  // variant the CPU supports. The last shape (10 MFLOP) is over the engine's
  // inline threshold, so its blocks spread across the pool. The ML sweep
  // leaves a last row block of ML − 1 rows (ML > 1), which runs every
  // register block of the vector chain and the leftover rows; its N leaves
  // NL − 3 columns, so every column-group width runs too. Leftover rows (1,
  // 2 or 3 under one 16-byte vector: ML = 1, 2 and 3, and the last blocks
  // of the others) run as column vectors when B is transposed (b_j = 1) and
  // as scalar chains when it is not; the ML = 1, NL = 128 tile runs the
  // widest column-vector groups, and its ragged N their narrower tails.
  struct Case {
    std::int64_t m, n, k;
    GemmTuning tuning;
  };
  std::vector<Case> cases = {{61, 67, 53, make_tuning(4, 4, 32, 32, 8)},
                             {33, 31, 17, make_tuning(2, 2, 16, 8, 4, 4)},
                             {7, 100, 129, make_tuning(2, 4, 16, 32, 4)},
                             {130, 70, 300, make_tuning(4, 4, 64, 16, 2, 4)},
                             {190, 210, 131, make_tuning(4, 4, 32, 32, 8)},
                             {3, 253, 21, make_tuning(1, 4, 1, 128, 4)}};
  for (const int ml : {1, 2, 3, 4, 8, 16, 32, 64}) {
    const int nl = ml % 16 == 0 ? 8 : 16;
    cases.push_back({ml == 1 ? 5 : 3 * ml - 1, 3 * nl - 3, 29, make_tuning(1, 1, ml, nl, 4, 2)});
  }
  std::uint64_t seed = 30;
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      for (const Case& c : cases) {
        for (const std::int64_t pad : {0, 3}) {
          expect_ordered_sum(make_shape(c.m, c.n, c.k, DataType::F32, ta, tb), c.tuning, 0.5f,
                             pad, ++seed);
          expect_ordered_sum(make_shape(c.m, c.n, c.k, DataType::F32, ta, tb), c.tuning, 0.0f,
                             pad, ++seed);
          expect_ordered_sum(make_shape(c.m, c.n, c.k, DataType::F64, ta, tb), c.tuning, 0.5,
                             pad, ++seed);
          expect_ordered_sum(make_shape(c.m, c.n, c.k, DataType::F64, ta, tb), c.tuning, 0.0,
                             pad, ++seed);
        }
      }
    }
  }
}

TEST(GemmExecutor, WithIsaRejectsUnsupportedVariant) {
  for (const cpu::Isa isa : {cpu::Isa::sse2, cpu::Isa::avx2, cpu::Isa::avx512}) {
    bool ran = false;
    if (cpu::supported(isa)) {
      detail::with_isa(isa, [&] { ran = true; });
      EXPECT_TRUE(ran) << cpu::name(isa);
    } else {
      EXPECT_THROW(detail::with_isa(isa, [&] { ran = true; }), std::invalid_argument)
          << cpu::name(isa);
      EXPECT_FALSE(ran) << cpu::name(isa);
    }
  }
  EXPECT_TRUE(cpu::supported(cpu::Isa::sse2));
  EXPECT_TRUE(cpu::supported(cpu::widest()));
}

TEST(GemmExecutor, SmallCallRunsOnCallingThread) {
  // A hot-set-sized GEMM (0.5 MFLOP) is under the inline threshold: it runs
  // on the caller and queues nothing. A Table 4-sized grid still spreads.
  telemetry::set_enabled(true);
  telemetry::Counter& submitted = telemetry::counter("pool.submitted");
  const auto submissions = [&](std::int64_t size) {
    const GemmShape shape = make_shape(size, size, size);
    GemmOperands<float> o = make_operands<float>(shape, 0, 40);
    const std::uint64_t before = submitted.value();
    execute_gemm(shape, make_tuning(4, 4, 32, 32, 8), 1.0f, o.a.data(), o.lda, o.b.data(), o.ldb,
                 0.5f, o.c.data(), o.ldc);
    return submitted.value() - before;
  };
  EXPECT_EQ(submissions(64), 0u);
  EXPECT_GT(submissions(256), 0u);
  telemetry::set_enabled(false);
}

TEST(GemmExecutor, ConcurrentSmallCallsMatchOrderedSum) {
  // Four clients serve small GEMMs at once, each on its own thread, over
  // shared A and B and private C.
  const GemmShape shape = make_shape(48, 40, 96, DataType::F32, false, true);
  const GemmTuning tuning = make_tuning(4, 4, 16, 16, 4);
  const GemmOperands<float> o = make_operands<float>(shape, 1, 41);
  std::vector<float> want = o.c;
  ordered_sum_gemm(shape, 1.5f, o.a.data(), o.lda, o.b.data(), o.ldb, 0.5f, want.data(), o.ldc);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int call = 0; call < 25; ++call) {
        std::vector<float> c = o.c;
        execute_gemm(shape, tuning, 1.5f, o.a.data(), o.lda, o.b.data(), o.ldb, 0.5f, c.data(),
                     o.ldc);
        if (!bit_identical(c, want)) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ------------------------------------------------------- batched executor --
/// Operands for a batched call: each member's A, B and C padded by `gap`
/// elements past its footprint, gaps filled with a sentinel.
struct BatchedBuffers {
  std::int64_t lda, ldb, ldc, stride_a, stride_b, stride_c;
  std::vector<float> a, b, c;
};

constexpr float kSentinel = -12345.0f;

BatchedBuffers make_batched(const BatchedGemmShape& s, std::int64_t gap, Rng& rng) {
  const GemmShape& g = s.gemm;
  BatchedBuffers buf;
  buf.lda = g.trans_a ? g.k : g.m;
  buf.ldb = g.trans_b ? g.n : g.k;
  buf.ldc = g.m;
  buf.stride_a = buf.lda * (g.trans_a ? g.m : g.k) + gap;
  buf.stride_b = buf.ldb * (g.trans_b ? g.k : g.n) + gap;
  buf.stride_c = buf.ldc * g.n + gap;
  const auto fill = [&](std::vector<float>& v, std::int64_t stride, std::int64_t footprint) {
    v.assign(static_cast<std::size_t>(stride * s.batch), kSentinel);
    for (std::int64_t i = 0; i < s.batch; ++i) {
      for (std::int64_t e = 0; e < footprint; ++e) {
        v[static_cast<std::size_t>(i * stride + e)] = static_cast<float>(rng.uniform(-1, 1));
      }
    }
  };
  fill(buf.a, buf.stride_a, buf.stride_a - gap);
  fill(buf.b, buf.stride_b, buf.stride_b - gap);
  fill(buf.c, buf.stride_c, buf.stride_c - gap);
  return buf;
}

/// Run the batched executor and the reference on the same operands; return
/// the largest difference over the whole C buffer, gaps included.
double batched_max_diff(const BatchedGemmShape& s, const GemmTuning& t, float beta,
                        std::int64_t gap, std::uint64_t seed) {
  Rng rng(seed);
  BatchedBuffers buf = make_batched(s, gap, rng);
  std::vector<float> c_ref = buf.c;
  execute_batched_gemm(s, t, 1.5f, buf.a.data(), buf.lda, buf.stride_a, buf.b.data(), buf.ldb,
                       buf.stride_b, beta, buf.c.data(), buf.ldc, buf.stride_c);
  reference_batched_gemm(s, 1.5f, buf.a.data(), buf.lda, buf.stride_a, buf.b.data(), buf.ldb,
                         buf.stride_b, beta, c_ref.data(), buf.ldc, buf.stride_c);
  double max_diff = 0;
  for (std::size_t i = 0; i < buf.c.size(); ++i) {
    max_diff = std::max(max_diff, static_cast<double>(std::abs(buf.c[i] - c_ref[i])));
  }
  return max_diff;
}

BatchedGemmShape make_batched_shape(std::int64_t batch, std::int64_t m, std::int64_t n,
                                    std::int64_t k, bool ta, bool tb) {
  BatchedGemmShape s;
  s.batch = batch;
  s.gemm = make_shape(m, n, k, DataType::F32, ta, tb);
  return s;
}

TEST(BatchedGemmExecutor, MatchesReferenceInAllLayouts) {
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      const auto s = make_batched_shape(5, 37, 29, 23, ta, tb);
      EXPECT_LT(batched_max_diff(s, make_tuning(4, 4, 16, 16, 4), 0.5f, 0, 11), 1e-3 * 23)
          << s.gemm.to_string();
    }
  }
}

TEST(BatchedGemmExecutor, SplitReductionPerBatchMember) {
  // KG > 1 accumulates each member's tiles under its own stripe locks.
  const auto s = make_batched_shape(6, 40, 24, 300, false, true);
  EXPECT_LT(batched_max_diff(s, make_tuning(4, 4, 16, 8, 4, 2, 4), 0.5f, 0, 12), 1e-3 * 300);
}

TEST(BatchedGemmExecutor, StridesBeyondFootprintLeaveGapsUntouched) {
  // The reference never writes the gaps either, so any write there (or a
  // wrong member offset) shows up as a difference against the sentinel.
  for (const int kg : {1, 2}) {
    const auto s = make_batched_shape(4, 21, 19, 40, true, false);
    EXPECT_LT(batched_max_diff(s, make_tuning(2, 4, 8, 8, 4, 1, kg), 0.5f, 13, 13), 1e-3 * 40)
        << "kg=" << kg;
  }
}

TEST(BatchedGemmExecutor, BetaZeroIgnoresNaN) {
  const auto s = make_batched_shape(4, 19, 23, 17, false, false);
  Rng rng(14);
  BatchedBuffers buf = make_batched(s, 0, rng);
  std::vector<float> c_ref(buf.c.size(), 0.0f);
  std::fill(buf.c.begin(), buf.c.end(), std::numeric_limits<float>::quiet_NaN());
  execute_batched_gemm(s, make_tuning(4, 4, 8, 16, 4), 1.0f, buf.a.data(), buf.lda, buf.stride_a,
                       buf.b.data(), buf.ldb, buf.stride_b, 0.0f, buf.c.data(), buf.ldc,
                       buf.stride_c);
  reference_batched_gemm(s, 1.0f, buf.a.data(), buf.lda, buf.stride_a, buf.b.data(), buf.ldb,
                         buf.stride_b, 0.0f, c_ref.data(), buf.ldc, buf.stride_c);
  for (std::size_t i = 0; i < buf.c.size(); ++i) {
    ASSERT_TRUE(std::isfinite(buf.c[i])) << i;
    EXPECT_NEAR(buf.c[i], c_ref[i], 1e-3 * 17) << i;
  }
}

// ----------------------------------------------------- legal => correct --
/// A seeded reservoir sample of kLegalSample points of the legal space: the
/// pruned walk over the space's prefix constraints, gated by `legal`.
constexpr std::size_t kLegalSample = 32;

template <typename Space, typename Legal>
std::vector<GemmTuning> sample_legal(const Space& space, const tuning::ConstraintSet& cs,
                                     const Legal& legal, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<GemmTuning> out;
  std::int64_t seen = 0;
  tuning::walk_legal(space.domains(), cs.empty() ? nullptr : &cs,
                     [&](const std::vector<std::size_t>& choice, std::uint64_t) {
                       const GemmTuning t = space.decode(choice);
                       if (!legal(t)) return true;
                       ++seen;
                       if (out.size() < kLegalSample) {
                         out.push_back(t);
                       } else if (const auto r = rng.uniform_int(0, seen - 1);
                                  r < static_cast<std::int64_t>(kLegalSample)) {
                         out[static_cast<std::size_t>(r)] = t;
                       }
                       return true;
                     });
  return out;
}

TEST(GemmExecutor, SampledLegalTuningsMatchReference) {
  const auto dev = gpusim::tesla_p100();
  const tuning::GemmSearchSpace space;
  for (const GemmShape& shape : {make_shape(40, 24, 72, DataType::F32, false, true),
                                 make_shape(33, 17, 50, DataType::F32, true, false)}) {
    const auto tunings = sample_legal(space, space.prefix_constraints(shape, dev),
                                      [&](const GemmTuning& t) { return validate(shape, t, dev); },
                                      static_cast<std::uint64_t>(shape.m));
    ASSERT_EQ(tunings.size(), kLegalSample) << shape.to_string();
    for (const GemmTuning& t : tunings) {
      const auto s = make_batched_shape(1, shape.m, shape.n, shape.k, shape.trans_a,
                                        shape.trans_b);
      Rng rng(15);
      BatchedBuffers buf = make_batched(s, 0, rng);
      std::vector<float> c_ref = buf.c;
      execute_gemm(shape, t, 1.5f, buf.a.data(), buf.lda, buf.b.data(), buf.ldb, 0.5f,
                   buf.c.data(), buf.ldc);
      reference_gemm(shape, 1.5f, buf.a.data(), buf.lda, buf.b.data(), buf.ldb, 0.5f,
                     c_ref.data(), buf.ldc);
      double max_diff = 0;
      for (std::size_t i = 0; i < buf.c.size(); ++i) {
        max_diff = std::max(max_diff, static_cast<double>(std::abs(buf.c[i] - c_ref[i])));
      }
      EXPECT_LT(max_diff, 1e-3 * static_cast<double>(shape.k))
          << shape.to_string() << " tuning " << t.to_string();
    }
  }
}

TEST(BatchedGemmExecutor, SampledLegalTuningsMatchReference) {
  const auto dev = gpusim::tesla_p100();
  const tuning::BatchedGemmSearchSpace space;
  const auto s = make_batched_shape(3, 24, 40, 32, false, false);
  const auto tunings = sample_legal(space, space.prefix_constraints(s.gemm, dev),
                                    [&](const GemmTuning& t) { return validate(s, t, dev); }, 16);
  ASSERT_EQ(tunings.size(), kLegalSample);
  for (const GemmTuning& t : tunings) {
    EXPECT_LT(batched_max_diff(s, t, 0.5f, 3, 16), 1e-3 * 32) << t.to_string();
  }
}

}  // namespace
}  // namespace isaac::codegen
