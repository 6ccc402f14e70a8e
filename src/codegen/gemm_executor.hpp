// Functional executor for generated GEMM kernels.
//
// Runs the tiled algorithm the PTX generator emits on the CPU thread pool,
// through the block engine shared with batched GEMM and conv
// (block_engine.hpp). What "the same algorithm" guarantees: the block grid
// over (M/ML) × (N/NL) × KG, k-major staging of U·KL-deep tiles per block,
// KG-split accumulation into C, and predicated edges, so a block never reads
// or writes outside the matrices. What it does not reproduce: the kernel's
// zero staging of predicated-off lanes (the engine bounds its loops by the
// valid extent instead), its per-thread MS×NS register tiles (the host
// micro-kernel has its own blocking), or its summation order. This is the
// semantic ground truth for correctness tests and what the public
// isaac::gemm() API executes after kernel selection.
//
// With KG = 1 a call is one pool pass whose block epilogues write
// C = alpha·acc + beta·C; when beta = 0, C is written without being read, so
// it may hold garbage (NaN included). KG > 1 first scales C by beta, then
// accumulates the slices under stripe locks. `execute.throw` fires at most
// once per call.
//
// All buffers are column-major (BLAS convention). The executor computes in
// fp32 for F16/F32 shapes and fp64 for F64 shapes; simulated device precision
// is not modelled (see DESIGN.md).
#pragma once

#include <cstdint>
#include <functional>

#include "codegen/gemm.hpp"
#include "common/cpu_isa.hpp"

namespace isaac::codegen {

/// C = alpha * op(A) * op(B) + beta * C, executed with the tiling of
/// `tuning`. Layouts: op(A) is M×K; A is stored M×K (lda ≥ M) when
/// !trans_a, K×M (lda ≥ K) otherwise. B symmetric. C is M×N, ldc ≥ M.
/// Throws std::invalid_argument when (shape, tuning) has inconsistent
/// divisibility constraints (validate() against a device first for the
/// full legality check).
void execute_gemm(const GemmShape& shape, const GemmTuning& tuning, float alpha,
                  const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                  float beta, float* c, std::int64_t ldc);

/// Double-precision variant for F64 shapes.
void execute_gemm(const GemmShape& shape, const GemmTuning& tuning, double alpha,
                  const double* a, std::int64_t lda, const double* b, std::int64_t ldb,
                  double beta, double* c, std::int64_t ldc);

/// Naive column-major reference (serial; for tests).
void reference_gemm(const GemmShape& shape, float alpha, const float* a, std::int64_t lda,
                    const float* b, std::int64_t ldb, float beta, float* c, std::int64_t ldc);
void reference_gemm(const GemmShape& shape, double alpha, const double* a, std::int64_t lda,
                    const double* b, std::int64_t ldb, double beta, double* c,
                    std::int64_t ldc);

namespace detail {

/// Run fn with every executor call it makes on the calling thread (GEMM,
/// batched GEMM and conv) computing its blocks with the named micro-kernel
/// variant instead of cpu::widest(). Throws std::invalid_argument when the
/// CPU does not support it. For tests that compare variants.
void with_isa(cpu::Isa isa, const std::function<void()>& fn);

}  // namespace detail

}  // namespace isaac::codegen
