// Blocked, threaded BLAS-like routines on Matrix.
//
// Only what the MLP and the reference checks need: GEMM with optional
// transposes, GEMV, rank-agnostic elementwise ops, and row/col reductions.
//
// The GEMM is a register-blocked panel kernel (see blas.cpp): op(A) is packed
// into MR-interleaved row panels, op(B) into NR-wide column panels, and an
// MR×NR accumulator tile lives in registers across the whole K loop — no
// per-element branches, no C traffic inside the inner loop. NR is picked once
// per process from the CPU (8 on SSE2, 16 on AVX2, 32 on AVX-512F). Every
// variant performs each C element's multiplies and adds in the same order,
// separately rounded (never fused into FMAs), so results are bit-identical
// across thread counts, entry points, instruction sets and build flags.
#pragma once

#include "common/cpu_isa.hpp"
#include "linalg/matrix.hpp"

namespace isaac::linalg {

enum class Trans { No, Yes };

/// C = alpha * op(A) * op(B) + beta * C.
/// op(A) is rows(A) x cols(A) after the optional transpose; shapes are
/// validated against C. Parallelized over row blocks *and* column panels of C
/// on the global pool; falls back to the serial kernel when the problem is
/// too small to split.
void gemm(Trans trans_a, Trans trans_b, float alpha, const Matrix& a, const Matrix& b,
          float beta, Matrix& c);

/// Same math and bit-identical results as `gemm`, guaranteed to run entirely
/// on the calling thread. This is the entry point for callers that already
/// execute on the global pool (the chunked model-scoring pipeline runs one
/// forward pass per worker) — nesting the parallel `gemm` there would only
/// fight its own siblings for the queue.
void gemm_serial(Trans trans_a, Trans trans_b, float alpha, const Matrix& a, const Matrix& b,
                 float beta, Matrix& c);

/// Naive triple loop, serial; used to validate the blocked kernel.
void gemm_reference(Trans trans_a, Trans trans_b, float alpha, const Matrix& a, const Matrix& b,
                    float beta, Matrix& c);

/// y = alpha * op(A) * x + beta * y (x, y are n x 1 matrices).
void gemv(Trans trans_a, float alpha, const Matrix& a, const Matrix& x, float beta, Matrix& y);

/// y += alpha * x (elementwise over equal shapes).
void axpy(float alpha, const Matrix& x, Matrix& y);

/// x *= alpha.
void scale(float alpha, Matrix& x);

/// Per-column sum of rows: returns 1 x cols.
Matrix col_sums(const Matrix& a);

/// Broadcast-add a 1 x cols row vector onto every row of a.
void add_row_vector(Matrix& a, const Matrix& row);

namespace detail {

/// gemm_serial on the given micro-kernel variant (panel width 8, 16 or 32;
/// the library runs cpu::widest()); throws std::invalid_argument when the
/// CPU does not support it.
void gemm_serial_with(cpu::Isa isa, Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
                      const Matrix& b, float beta, Matrix& c);

}  // namespace detail

}  // namespace isaac::linalg
