// Unit + property tests for the CPU BLAS substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace isaac::linalg {
namespace {

// ----------------------------------------------------------------- matrix --
TEST(Matrix, InitializerList) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FLOAT_EQ(m(1, 2), 6.0f);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW(m.at(1, 1));
}

TEST(Matrix, Transposed) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_FLOAT_EQ(t(2, 1), 6.0f);
}

TEST(Matrix, NormOfUnitVector) {
  Matrix m{{3}, {4}};
  EXPECT_NEAR(m.norm(), 5.0, 1e-6);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a{{1, 2}}, b{{1, 5}};
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(a, b), 3.0);
  Matrix c(3, 1);
  EXPECT_THROW(Matrix::max_abs_diff(a, c), std::invalid_argument);
}

// ------------------------------------------------------------------- gemm --
struct GemmCase {
  std::size_t m, n, k;
  Trans ta, tb;
  float alpha, beta;
};

class GemmMatchesReference : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmMatchesReference, BlockedEqualsNaive) {
  const GemmCase& c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.m * 131 + c.n * 17 + c.k));
  Matrix a(c.ta == Trans::No ? c.m : c.k, c.ta == Trans::No ? c.k : c.m);
  Matrix b(c.tb == Trans::No ? c.k : c.n, c.tb == Trans::No ? c.n : c.k);
  a.randomize_uniform(rng, -1.0f, 1.0f);
  b.randomize_uniform(rng, -1.0f, 1.0f);
  Matrix c_blocked(c.m, c.n);
  c_blocked.randomize_uniform(rng, -1.0f, 1.0f);
  Matrix c_ref = c_blocked;

  gemm(c.ta, c.tb, c.alpha, a, b, c.beta, c_blocked);
  gemm_reference(c.ta, c.tb, c.alpha, a, b, c.beta, c_ref);

  const double tol = 1e-3 * static_cast<double>(c.k + 1);
  EXPECT_LT(Matrix::max_abs_diff(c_blocked, c_ref), tol)
      << "m=" << c.m << " n=" << c.n << " k=" << c.k;
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndLayouts, GemmMatchesReference,
    ::testing::Values(
        GemmCase{1, 1, 1, Trans::No, Trans::No, 1.0f, 0.0f},
        GemmCase{5, 7, 3, Trans::No, Trans::No, 1.0f, 0.0f},
        GemmCase{16, 16, 16, Trans::No, Trans::No, 1.0f, 1.0f},
        GemmCase{33, 65, 17, Trans::No, Trans::No, 2.0f, 0.5f},
        GemmCase{64, 1, 128, Trans::No, Trans::No, 1.0f, 0.0f},
        GemmCase{1, 64, 128, Trans::No, Trans::No, 1.0f, 0.0f},
        GemmCase{20, 30, 40, Trans::Yes, Trans::No, 1.0f, 0.0f},
        GemmCase{20, 30, 40, Trans::No, Trans::Yes, 1.0f, 0.0f},
        GemmCase{20, 30, 40, Trans::Yes, Trans::Yes, 1.0f, 0.0f},
        GemmCase{37, 41, 53, Trans::Yes, Trans::Yes, -1.5f, 2.0f},
        GemmCase{128, 96, 64, Trans::No, Trans::No, 1.0f, 0.0f},
        GemmCase{100, 100, 1, Trans::No, Trans::No, 1.0f, 0.0f}));

// Odd, even and panel-straddling extents, and the alpha/beta corner values.
constexpr std::size_t kGridExtents[] = {1, 3, 8, 17, 64, 129};
constexpr float kGridCoeffs[] = {0.0f, 1.0f, 0.5f};

// Exhaustive parity grid for the register-blocked kernel: every combination
// of extents, both transposes, and the alpha/beta corners, against the
// double-accumulating reference within 1e-4.
TEST(Gemm, ParityGridAgainstReference) {
  const auto& extents = kGridExtents;
  const auto& coeffs = kGridCoeffs;
  Rng rng(2024);
  for (const std::size_t m : extents) {
    for (const std::size_t n : extents) {
      for (const std::size_t k : extents) {
        for (const Trans ta : {Trans::No, Trans::Yes}) {
          for (const Trans tb : {Trans::No, Trans::Yes}) {
            Matrix a(ta == Trans::No ? m : k, ta == Trans::No ? k : m);
            Matrix b(tb == Trans::No ? k : n, tb == Trans::No ? n : k);
            a.randomize_uniform(rng, -1.0f, 1.0f);
            b.randomize_uniform(rng, -1.0f, 1.0f);
            Matrix c0(m, n);
            c0.randomize_uniform(rng, -1.0f, 1.0f);
            for (const float alpha : coeffs) {
              for (const float beta : coeffs) {
                Matrix c_blocked = c0, c_ref = c0;
                gemm(ta, tb, alpha, a, b, beta, c_blocked);
                gemm_reference(ta, tb, alpha, a, b, beta, c_ref);
                ASSERT_LT(Matrix::max_abs_diff(c_blocked, c_ref), 1e-4)
                    << "m=" << m << " n=" << n << " k=" << k << " ta=" << (ta == Trans::Yes)
                    << " tb=" << (tb == Trans::Yes) << " alpha=" << alpha << " beta=" << beta;
              }
            }
          }
        }
      }
    }
  }
}

// A zero in A multiplied with Inf/NaN in B must produce NaN (0·Inf = NaN in
// IEEE 754), exactly like the reference. The old kernel's `if (av == 0.0f)
// continue;` skip silently produced finite values here.
TEST(Gemm, NonFiniteOperandsPropagateLikeReference) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  const std::size_t m = 9, n = 21, k = 6;
  Rng rng(77);
  Matrix a(m, k), b(k, n);
  a.randomize_uniform(rng, -1.0f, 1.0f);
  b.randomize_uniform(rng, -1.0f, 1.0f);
  // Row 2 of A is all zeros; rows 1/4 of B carry non-finite columns.
  for (std::size_t x = 0; x < k; ++x) a(2, x) = 0.0f;
  b(1, 5) = kInf;
  b(4, 7) = kNaN;
  b(1, n - 1) = -kInf;

  Matrix c_blocked(m, n, 0.0f), c_ref(m, n, 0.0f);
  gemm(Trans::No, Trans::No, 1.0f, a, b, 0.0f, c_blocked);
  gemm_reference(Trans::No, Trans::No, 1.0f, a, b, 0.0f, c_ref);

  std::size_t nan_cells = 0;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(std::isnan(c_blocked(i, j)), std::isnan(c_ref(i, j))) << i << "," << j;
      ASSERT_EQ(std::isinf(c_blocked(i, j)), std::isinf(c_ref(i, j))) << i << "," << j;
      if (std::isnan(c_blocked(i, j))) ++nan_cells;
    }
  }
  // The zero row times the Inf columns is where the old skip diverged: those
  // cells must be NaN, not 0.
  EXPECT_TRUE(std::isnan(c_blocked(2, 5)));
  EXPECT_TRUE(std::isnan(c_blocked(2, 7)));
  EXPECT_TRUE(std::isnan(c_blocked(2, n - 1)));
  EXPECT_GE(nan_cells, 3u * 1u);
}

// ------------------------------------------------- micro-kernel variants --
// Every panel width the CPU picks from must give the SSE2 variant's exact
// bits: same per-element operation order, no fused multiply-adds. A variant
// this CPU lacks skips by name instead of passing.
::testing::AssertionResult SameBits(const Matrix& x, const Matrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    std::uint32_t bx = 0, by = 0;
    std::memcpy(&bx, x.data() + i, sizeof bx);
    std::memcpy(&by, y.data() + i, sizeof by);
    if (bx != by) {
      return ::testing::AssertionFailure()
             << "element " << i << ": " << x.data()[i] << " vs " << y.data()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

class GemmKernelVariant : public ::testing::TestWithParam<cpu::Isa> {
 protected:
  void SetUp() override {
    if (!cpu::supported(GetParam())) {
      GTEST_SKIP() << "CPU does not support the " << cpu::name(GetParam()) << " GEMM kernel";
    }
  }

  // The variant and the SSE2 kernel on copies of c0; returns whether the
  // bits agree.
  ::testing::AssertionResult MatchesSse2(Trans ta, Trans tb, float alpha, const Matrix& a,
                                         const Matrix& b, float beta, const Matrix& c0) const {
    Matrix c_variant = c0, c_sse2 = c0;
    detail::gemm_with(GetParam(), ta, tb, alpha, a, b, beta, c_variant);
    detail::gemm_with(cpu::Isa::sse2, ta, tb, alpha, a, b, beta, c_sse2);
    return SameBits(c_variant, c_sse2);
  }
};

TEST_P(GemmKernelVariant, ParityGridBitIdenticalToSse2) {
  Rng rng(2024);
  for (const std::size_t m : kGridExtents) {
    for (const std::size_t n : kGridExtents) {
      for (const std::size_t k : kGridExtents) {
        for (const Trans ta : {Trans::No, Trans::Yes}) {
          for (const Trans tb : {Trans::No, Trans::Yes}) {
            Matrix a(ta == Trans::No ? m : k, ta == Trans::No ? k : m);
            Matrix b(tb == Trans::No ? k : n, tb == Trans::No ? n : k);
            a.randomize_uniform(rng, -1.0f, 1.0f);
            b.randomize_uniform(rng, -1.0f, 1.0f);
            Matrix c0(m, n);
            c0.randomize_uniform(rng, -1.0f, 1.0f);
            for (const float alpha : kGridCoeffs) {
              for (const float beta : kGridCoeffs) {
                ASSERT_TRUE(MatchesSse2(ta, tb, alpha, a, b, beta, c0))
                    << "m=" << m << " n=" << n << " k=" << k << " ta=" << (ta == Trans::Yes)
                    << " tb=" << (tb == Trans::Yes) << " alpha=" << alpha << " beta=" << beta;
              }
            }
          }
        }
      }
    }
  }
}

// The layer shapes of a chunked MLP scoring pass: 2048 candidates through
// 15→64, 64→128 and 128→64.
TEST_P(GemmKernelVariant, MlpLayerShapesBitIdenticalToSse2) {
  struct Layer {
    std::size_t in, out;
  };
  Rng rng(15);
  for (const Layer l : {Layer{15, 64}, Layer{64, 128}, Layer{128, 64}}) {
    Matrix a(2048, l.in), w(l.in, l.out), c0(2048, l.out, 0.0f);
    a.randomize_uniform(rng, -2.0f, 2.0f);
    w.randomize_normal(rng, 0.0f, 0.3f);
    EXPECT_TRUE(MatchesSse2(Trans::No, Trans::No, 1.0f, a, w, 0.0f, c0))
        << l.in << "→" << l.out;
  }
}

TEST_P(GemmKernelVariant, NonFiniteOperandsBitIdenticalToSse2) {
  const std::size_t m = 9, n = 41, k = 6;
  Rng rng(77);
  Matrix a(m, k), b(k, n);
  a.randomize_uniform(rng, -1.0f, 1.0f);
  b.randomize_uniform(rng, -1.0f, 1.0f);
  for (std::size_t x = 0; x < k; ++x) a(2, x) = 0.0f;
  b(1, 5) = std::numeric_limits<float>::infinity();
  b(4, 7) = std::numeric_limits<float>::quiet_NaN();
  b(1, n - 1) = -std::numeric_limits<float>::infinity();
  a(5, 3) = std::numeric_limits<float>::max();
  EXPECT_TRUE(MatchesSse2(Trans::No, Trans::No, 1.0f, a, b, 0.0f, Matrix(m, n, 0.0f)));
  EXPECT_TRUE(MatchesSse2(Trans::No, Trans::No, 2.0f, a, b, 0.5f, Matrix(m, n, 1.0f)));
}

INSTANTIATE_TEST_SUITE_P(
    Wider, GemmKernelVariant,
    ::testing::Values(cpu::Isa::avx2, cpu::Isa::avx512),
    [](const ::testing::TestParamInfo<cpu::Isa>& info) {
      return std::string(cpu::name(info.param));
    });

// The public entry point runs the active variant, which is one the CPU has.
TEST(Gemm, ActiveKernelIsSupportedAndServesGemm) {
  const cpu::Isa active = cpu::widest();
  ASSERT_TRUE(cpu::supported(active)) << cpu::name(active);
  Rng rng(3);
  Matrix a(70, 33), b(33, 90);
  a.randomize_uniform(rng, -1.0f, 1.0f);
  b.randomize_uniform(rng, -1.0f, 1.0f);
  Matrix c_public(70, 90, 0.0f), c_active(70, 90, 0.0f);
  gemm(Trans::No, Trans::No, 1.0f, a, b, 0.0f, c_public);
  detail::gemm_with(active, Trans::No, Trans::No, 1.0f, a, b, 0.0f, c_active);
  EXPECT_TRUE(SameBits(c_public, c_active));
}

TEST(Matrix, ReshapeKeepsCapacityAndRedimensions) {
  Matrix m(4, 8, 1.0f);
  const float* before = m.data();
  m.reshape(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_EQ(m.data(), before);  // shrink never reallocates
  m.reshape(4, 8);
  EXPECT_EQ(m.data(), before);  // regrow within the high-water mark either
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(2, 3), b(4, 5), c(2, 5);
  EXPECT_THROW(gemm(Trans::No, Trans::No, 1.0f, a, b, 0.0f, c), std::invalid_argument);
}

TEST(Gemm, CShapeMismatchThrows) {
  Matrix a(2, 3), b(3, 5), c(3, 5);
  EXPECT_THROW(gemm(Trans::No, Trans::No, 1.0f, a, b, 0.0f, c), std::invalid_argument);
}

TEST(Gemm, AlphaZeroOnlyScalesC) {
  Matrix a(2, 3), b(3, 2);
  Matrix c{{1, 2}, {3, 4}};
  a.fill(7.0f);
  b.fill(9.0f);
  gemm(Trans::No, Trans::No, 0.0f, a, b, 2.0f, c);
  EXPECT_FLOAT_EQ(c(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(c(1, 1), 8.0f);
}

TEST(Gemm, KZeroActsAsScale) {
  Matrix a(2, 0), b(0, 2);
  Matrix c{{1, 2}, {3, 4}};
  gemm(Trans::No, Trans::No, 1.0f, a, b, 3.0f, c);
  EXPECT_FLOAT_EQ(c(0, 1), 6.0f);
}

TEST(Gemm, IdentityIsNeutral) {
  Rng rng(99);
  Matrix a(8, 8);
  a.randomize_normal(rng, 0.0f, 1.0f);
  Matrix eye(8, 8);
  for (std::size_t i = 0; i < 8; ++i) eye(i, i) = 1.0f;
  Matrix c(8, 8);
  gemm(Trans::No, Trans::No, 1.0f, a, eye, 0.0f, c);
  EXPECT_LT(Matrix::max_abs_diff(a, c), 1e-6);
}

// Property: (A*B)^T == B^T * A^T, checked via the transpose flags.
TEST(Gemm, TransposeIdentityProperty) {
  Rng rng(123);
  Matrix a(13, 9), b(9, 21);
  a.randomize_uniform(rng, -1, 1);
  b.randomize_uniform(rng, -1, 1);
  Matrix ab(13, 21);
  gemm(Trans::No, Trans::No, 1.0f, a, b, 0.0f, ab);
  // C2 = op(B,T) * op(A,T) with operand matrices swapped = (A*B)^T.
  Matrix c2(21, 13);
  gemm(Trans::Yes, Trans::Yes, 1.0f, b, a, 0.0f, c2);
  EXPECT_LT(Matrix::max_abs_diff(ab.transposed(), c2), 1e-4);
}

}  // namespace
}  // namespace isaac::linalg
