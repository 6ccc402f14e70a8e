// Blocked BLAS-like GEMM on Matrix.
//
// Only what the MLP and the reference checks need: GEMM with optional
// transposes, run on the calling thread. The MLP's forward and backward
// passes, for scoring and for training alike, call gemm; the chunked
// scoring pipeline already runs one forward pass per pool worker.
//
// The GEMM is a register-blocked panel kernel (see blas.cpp): op(A) is packed
// into MR-interleaved row panels, op(B) into NR-wide column panels, and an
// MR×NR accumulator tile lives in registers across the whole K loop — no
// per-element branches, no C traffic inside the inner loop. NR is picked once
// per process from the CPU (8 on SSE2, 16 on AVX2, 32 on AVX-512F). Every
// variant performs each C element's multiplies and adds in the same order,
// separately rounded (never fused into FMAs), so results are bit-identical
// across instruction sets and build flags.
#pragma once

#include "common/cpu_isa.hpp"
#include "linalg/matrix.hpp"

namespace isaac::linalg {

enum class Trans { No, Yes };

/// C = alpha * op(A) * op(B) + beta * C, on the calling thread.
/// op(A) is rows(A) x cols(A) after the optional transpose; shapes are
/// validated against C.
void gemm(Trans trans_a, Trans trans_b, float alpha, const Matrix& a, const Matrix& b,
          float beta, Matrix& c);

/// Naive triple loop, serial; used to validate the blocked kernel.
void gemm_reference(Trans trans_a, Trans trans_b, float alpha, const Matrix& a, const Matrix& b,
                    float beta, Matrix& c);

namespace detail {

/// gemm on the given micro-kernel variant (panel width 8, 16 or 32; the
/// library runs cpu::widest()); throws std::invalid_argument when the CPU
/// does not support it.
void gemm_with(cpu::Isa isa, Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
               const Matrix& b, float beta, Matrix& c);

}  // namespace detail

}  // namespace isaac::linalg
