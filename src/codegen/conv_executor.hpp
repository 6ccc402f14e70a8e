// Functional executor for multi-channel convolution.
//
// Runs the implicit-GEMM algorithm of §3.3 on the CPU pool, through the block
// engine shared with GEMM (block_engine.hpp, with the guarantees listed in
// gemm_executor.hpp): the block grid tiles (NPQ × K × CG), each block stages
// a gathered I tile and an F tile k-major and accumulates them, handling
// padding and edge predication. The gather goes through index tables, the
// "scrambling" metadata of §3.3: a per-call table maps each reduction index
// to its (r, s) filter offset and I address part, and a per-block table
// splits the block's rows into runs that share one window (consecutive n),
// each copied, or zero-filled in the padding, under one bounds check. A 1×1,
// stride-1, unpadded conv skips the gather and reads I in place. O's columns
// are contiguous (O[k, p, q, n] = O[k·NPQ + row]), so the epilogue is GEMM's.
// Ground truth for correctness tests and the execution backend of
// isaac::conv().
//
// Layouts (paper §3.3, last index fastest):
//   I ∈ R^{C×H×W×N},  F ∈ R^{C×R×S×K},  O ∈ R^{K×P×Q×N}
#pragma once

#include "codegen/conv.hpp"

namespace isaac::codegen {

/// O = conv(I, F) with the tiling of `tuning` (alpha/beta as in GEMM).
void execute_conv(const ConvShape& shape, const ConvTuning& tuning, float alpha,
                  const float* input, const float* filters, float beta, float* output);

/// Naive direct convolution (serial over K; for tests).
void reference_conv(const ConvShape& shape, float alpha, const float* input,
                    const float* filters, float beta, float* output);

}  // namespace isaac::codegen
