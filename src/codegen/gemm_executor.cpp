// Contraction is off for the whole file, the block engine's templates
// included: every C element must round each multiply and each add on its
// own, so it is the same ordered sum in every build (see block_engine.hpp).
// The pragma precedes the includes because it applies only to functions
// defined after it.
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

#include "codegen/gemm_executor.hpp"

#include <stdexcept>

#include "codegen/block_engine.hpp"
#include "common/failpoint.hpp"

namespace isaac::codegen {

namespace {

/// One round's operand tiles. Only a transposed A (k contiguous) is staged,
/// column by column into sa; a non-transposed A and B in either layout are
/// read in place.
template <typename T>
engine::Tiles<T> stage_gemm(const GemmShape& s, const engine::Block& blk, const T* a,
                            std::int64_t lda, const T* b, std::int64_t ldb, int ml,
                            std::int64_t k0, int dv, T* sa) {
  engine::Tiles<T> t{};
  if (!s.trans_a) {  // A is M×K: m contiguous
    t.a = a + blk.m0 + k0 * lda;
    t.a_d = lda;
  } else {  // A stored K×M: k contiguous
    for (int i = 0; i < blk.mv; ++i) {
      const T* src = a + k0 + (blk.m0 + i) * lda;
      for (int d = 0; d < dv; ++d) sa[static_cast<std::ptrdiff_t>(d) * ml + i] = src[d];
    }
    t.a = sa;
    t.a_d = ml;
  }
  if (!s.trans_b) {  // B is K×N: k contiguous
    t.b = b + k0 + blk.n0 * ldb;
    t.b_d = 1;
    t.b_j = ldb;
  } else {  // B stored N×K: n contiguous
    t.b = b + blk.n0 + k0 * ldb;
    t.b_d = ldb;
    t.b_j = 1;
  }
  return t;
}

template <typename T>
void run_gemm_impl(const GemmShape& shape, std::int64_t batch, const GemmTuning& tuning, T alpha,
                   const T* a, std::int64_t lda, std::int64_t stride_a, const T* b,
                   std::int64_t ldb, std::int64_t stride_b, T beta, T* c, std::int64_t ldc,
                   std::int64_t stride_c) {
  if (shape.m <= 0 || shape.n <= 0 || shape.k <= 0) {
    throw std::invalid_argument("execute_gemm: empty problem");
  }
  if (tuning.ml % tuning.ms != 0 || tuning.nl % tuning.ns != 0) {
    throw std::invalid_argument("execute_gemm: tile divisibility violated");
  }
  const std::int64_t min_lda = shape.trans_a ? shape.k : shape.m;
  const std::int64_t min_ldb = shape.trans_b ? shape.n : shape.k;
  if (lda < min_lda || ldb < min_ldb || ldc < shape.m) {
    throw std::invalid_argument("execute_gemm: leading dimension too small");
  }

  const engine::Grid grid{shape.m,   shape.n,   shape.k,
                          batch,     tuning.ml, tuning.nl,
                          tuning.u * tuning.kl, tuning.kg};
  const engine::Output<T> out{alpha, beta, c, ldc, stride_c};
  engine::run(grid, out, [&](const engine::Block& blk) {
    const T* ab = a + blk.batch * stride_a;
    const T* bb = b + blk.batch * stride_b;
    return [&shape, &grid, blk, ab, bb, lda, ldb](std::int64_t k0, int dv, T* sa) {
      return stage_gemm(shape, blk, ab, lda, bb, ldb, grid.ml, k0, dv, sa);
    };
  });
}

template <typename T>
void reference_impl(const GemmShape& shape, T alpha, const T* a, std::int64_t lda, const T* b,
                    std::int64_t ldb, T beta, T* c, std::int64_t ldc) {
  for (std::int64_t n = 0; n < shape.n; ++n) {
    for (std::int64_t m = 0; m < shape.m; ++m) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < shape.k; ++k) {
        const T av = shape.trans_a ? a[k + m * lda] : a[m + k * lda];
        const T bv = shape.trans_b ? b[n + k * ldb] : b[k + n * ldb];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      c[m + n * ldc] = alpha * static_cast<T>(acc) + beta * c[m + n * ldc];
    }
  }
}

}  // namespace

namespace engine {

void run_gemm(const GemmShape& shape, std::int64_t batch, const GemmTuning& tuning, float alpha,
              const float* a, std::int64_t lda, std::int64_t stride_a, const float* b,
              std::int64_t ldb, std::int64_t stride_b, float beta, float* c, std::int64_t ldc,
              std::int64_t stride_c) {
  run_gemm_impl(shape, batch, tuning, alpha, a, lda, stride_a, b, ldb, stride_b, beta, c, ldc,
                stride_c);
}

void run_gemm(const GemmShape& shape, std::int64_t batch, const GemmTuning& tuning, double alpha,
              const double* a, std::int64_t lda, std::int64_t stride_a, const double* b,
              std::int64_t ldb, std::int64_t stride_b, double beta, double* c, std::int64_t ldc,
              std::int64_t stride_c) {
  run_gemm_impl(shape, batch, tuning, alpha, a, lda, stride_a, b, ldb, stride_b, beta, c, ldc,
                stride_c);
}

}  // namespace engine

void execute_gemm(const GemmShape& shape, const GemmTuning& tuning, float alpha, const float* a,
                  std::int64_t lda, const float* b, std::int64_t ldb, float beta, float* c,
                  std::int64_t ldc) {
  ISAAC_FAILPOINT("execute.throw");
  engine::run_gemm(shape, 1, tuning, alpha, a, lda, 0, b, ldb, 0, beta, c, ldc, 0);
}

void execute_gemm(const GemmShape& shape, const GemmTuning& tuning, double alpha,
                  const double* a, std::int64_t lda, const double* b, std::int64_t ldb,
                  double beta, double* c, std::int64_t ldc) {
  ISAAC_FAILPOINT("execute.throw");
  engine::run_gemm(shape, 1, tuning, alpha, a, lda, 0, b, ldb, 0, beta, c, ldc, 0);
}

void reference_gemm(const GemmShape& shape, float alpha, const float* a, std::int64_t lda,
                    const float* b, std::int64_t ldb, float beta, float* c, std::int64_t ldc) {
  reference_impl(shape, alpha, a, lda, b, ldb, beta, c, ldc);
}

void reference_gemm(const GemmShape& shape, double alpha, const double* a, std::int64_t lda,
                    const double* b, std::int64_t ldb, double beta, double* c,
                    std::int64_t ldc) {
  reference_impl(shape, alpha, a, lda, b, ldb, beta, c, ldc);
}

}  // namespace isaac::codegen
