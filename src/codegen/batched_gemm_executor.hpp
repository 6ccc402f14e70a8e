// Functional executor for strided-batched GEMM.
//
// Each batch element is the tiled GEMM algorithm of gemm_executor.hpp applied
// to operand slices at a constant stride: A_i = A + i·stride_a, etc. The
// batch is folded into the block grid, so a call with KG = 1 is one pool pass
// over batch × (M/ML) × (N/NL) blocks, and `execute.throw` fires at most once
// per call, not once per member.
//
// All buffers column-major per batch element (BLAS convention). Strides are
// in elements, and must be at least the footprint of one batch operand.
#pragma once

#include <cstdint>

#include "codegen/batched_gemm.hpp"

namespace isaac::codegen {

/// C_i = alpha * op(A_i) * op(B_i) + beta * C_i for i in [0, batch), executed
/// with the tiling of `tuning`. Throws std::invalid_argument on inconsistent
/// divisibility or stride smaller than one operand's footprint.
void execute_batched_gemm(const BatchedGemmShape& shape, const GemmTuning& tuning, float alpha,
                          const float* a, std::int64_t lda, std::int64_t stride_a,
                          const float* b, std::int64_t ldb, std::int64_t stride_b, float beta,
                          float* c, std::int64_t ldc, std::int64_t stride_c);

void execute_batched_gemm(const BatchedGemmShape& shape, const GemmTuning& tuning, double alpha,
                          const double* a, std::int64_t lda, std::int64_t stride_a,
                          const double* b, std::int64_t ldb, std::int64_t stride_b, double beta,
                          double* c, std::int64_t ldc, std::int64_t stride_c);

/// Naive per-batch reference (serial; for tests).
void reference_batched_gemm(const BatchedGemmShape& shape, float alpha, const float* a,
                            std::int64_t lda, std::int64_t stride_a, const float* b,
                            std::int64_t ldb, std::int64_t stride_b, float beta, float* c,
                            std::int64_t ldc, std::int64_t stride_c);

}  // namespace isaac::codegen
