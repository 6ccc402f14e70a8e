// The instruction sets the hand-vectorized kernels are compiled for, and the
// one CPU probe that picks among them.
//
// linalg's GEMM and the codegen block engine each build one body per
// instruction set (`[[gnu::target]]` wrappers around an always-inline
// template) and run the widest one this CPU supports. Every variant does the
// same rounded multiplies and adds in the same order, so the choice changes
// speed, never bits. Off x86 only sse2, the portable-vector variant, exists.
#pragma once

namespace isaac::cpu {

/// Kernel variants by vector width: 16, 32 and 64 bytes.
enum class Isa { sse2, avx2, avx512 };

/// Whether this CPU can run the variant.
bool supported(Isa isa);

/// The widest supported variant, probed once per process.
Isa widest();

const char* name(Isa isa);

}  // namespace isaac::cpu
