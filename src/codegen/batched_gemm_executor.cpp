#include "codegen/batched_gemm_executor.hpp"

#include <stdexcept>

#include "codegen/block_engine.hpp"
#include "codegen/gemm_executor.hpp"
#include "common/failpoint.hpp"
#include "common/strings.hpp"

namespace isaac::codegen {

namespace {

void check_strides(const BatchedGemmShape& shape, std::int64_t lda, std::int64_t stride_a,
                   std::int64_t ldb, std::int64_t stride_b, std::int64_t ldc,
                   std::int64_t stride_c) {
  if (shape.batch <= 0) throw std::invalid_argument("batched gemm: batch must be positive");
  if (shape.batch == 1) return;  // strides never dereferenced past batch 0
  const GemmShape& g = shape.gemm;
  const std::int64_t a_cols = g.trans_a ? g.m : g.k;
  const std::int64_t b_cols = g.trans_b ? g.k : g.n;
  if (stride_a < lda * a_cols || stride_b < ldb * b_cols || stride_c < ldc * g.n) {
    throw std::invalid_argument(
        strings::format("batched gemm: stride smaller than one operand footprint "
                        "(%lld/%lld/%lld)",
                        static_cast<long long>(stride_a), static_cast<long long>(stride_b),
                        static_cast<long long>(stride_c)));
  }
}

template <typename T>
void execute_impl(const BatchedGemmShape& shape, const GemmTuning& tuning, T alpha, const T* a,
                  std::int64_t lda, std::int64_t stride_a, const T* b, std::int64_t ldb,
                  std::int64_t stride_b, T beta, T* c, std::int64_t ldc,
                  std::int64_t stride_c) {
  check_strides(shape, lda, stride_a, ldb, stride_b, ldc, stride_c);
  ISAAC_FAILPOINT("execute.throw");
  engine::run_gemm(shape.gemm, shape.batch, tuning, alpha, a, lda, stride_a, b, ldb, stride_b,
                   beta, c, ldc, stride_c);
}

}  // namespace

void execute_batched_gemm(const BatchedGemmShape& shape, const GemmTuning& tuning, float alpha,
                          const float* a, std::int64_t lda, std::int64_t stride_a,
                          const float* b, std::int64_t ldb, std::int64_t stride_b, float beta,
                          float* c, std::int64_t ldc, std::int64_t stride_c) {
  execute_impl(shape, tuning, alpha, a, lda, stride_a, b, ldb, stride_b, beta, c, ldc, stride_c);
}

void execute_batched_gemm(const BatchedGemmShape& shape, const GemmTuning& tuning, double alpha,
                          const double* a, std::int64_t lda, std::int64_t stride_a,
                          const double* b, std::int64_t ldb, std::int64_t stride_b, double beta,
                          double* c, std::int64_t ldc, std::int64_t stride_c) {
  execute_impl(shape, tuning, alpha, a, lda, stride_a, b, ldb, stride_b, beta, c, ldc, stride_c);
}

void reference_batched_gemm(const BatchedGemmShape& shape, float alpha, const float* a,
                            std::int64_t lda, std::int64_t stride_a, const float* b,
                            std::int64_t ldb, std::int64_t stride_b, float beta, float* c,
                            std::int64_t ldc, std::int64_t stride_c) {
  check_strides(shape, lda, stride_a, ldb, stride_b, ldc, stride_c);
  for (std::int64_t i = 0; i < shape.batch; ++i) {
    reference_gemm(shape.gemm, alpha, a + i * stride_a, lda, b + i * stride_b, ldb, beta,
                   c + i * stride_c, ldc);
  }
}

}  // namespace isaac::codegen
