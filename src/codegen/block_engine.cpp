// The block engine's micro-kernel, compiled once per instruction set.
//
// One always-inline body, multiply_rows<T, VB>, covers a round's valid tile
// with register blocks of about eight independent accumulators: rows go in
// 2-vector × 4-column blocks, then a 1-vector × 8-column block, then on down
// the vector chain (64 → 32 → 16 bytes); the rows left under one 16-byte
// vector run as scalars across 8 column chains. Columns past the last full
// group halve the group (4 → 2 → 1, or 8 → 4 → 2 → 1). Each variant wraps the
// body for its widest vector: sse2 (16 bytes, the portable vector extension
// off x86), target("avx2") (32) and target("avx512f") (64).
//
// Every accumulator lane is one C element's running sum, so however a tile
// is blocked each element sees the same d-ascending sequence of one rounded
// multiply then one rounded add. That only holds while the compiler never
// fuses the two into an FMA (AVX2 and AVX-512F targets have FMA, and GCC
// contracts by default), hence contraction is off for this whole file. The
// pragma precedes the includes because it applies only to functions defined
// after it.
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

#include "codegen/block_engine.hpp"

#include <cstddef>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>

#include "codegen/gemm_executor.hpp"
#include "common/cpu_isa.hpp"

namespace isaac::codegen {

namespace {

/// The variant detail::with_isa names on this thread; null outside it.
thread_local const cpu::Isa* t_isa = nullptr;

}  // namespace

namespace engine {

namespace {

/// Rows [i, i + R·W) × columns [j, j + C) of the tile, W = VB / sizeof(T)
/// lanes per vector: R·C vector accumulators live in registers over the
/// round, each step loading R vectors of A and broadcasting C elements of B.
template <typename T, int VB, int R, int C>
[[gnu::always_inline]] inline void vector_block(int i, int j, int dv, const Tiles<T>& t, int ml,
                                                T* __restrict acc) {
  typedef T V __attribute__((vector_size(VB)));
  constexpr int kW = VB / static_cast<int>(sizeof(T));
  V r[C][R];
  for (int c = 0; c < C; ++c) {
    for (int v = 0; v < R; ++v) std::memcpy(&r[c][v], acc + (j + c) * ml + i + v * kW, VB);
  }
  const T* __restrict a = t.a + i;
  const T* __restrict b = t.b + j * t.b_j;
  const std::ptrdiff_t a_d = t.a_d, b_d = t.b_d, b_j = t.b_j;
  for (int d = 0; d < dv; ++d) {
    V av[R];
    for (int v = 0; v < R; ++v) std::memcpy(&av[v], a + d * a_d + v * kW, VB);
    const T* __restrict bd = b + d * b_d;
    for (int c = 0; c < C; ++c) {
      const T bc = bd[c * b_j];
      for (int v = 0; v < R; ++v) r[c][v] += av[v] * bc;
    }
  }
  for (int c = 0; c < C; ++c) {
    for (int v = 0; v < R; ++v) std::memcpy(acc + (j + c) * ml + i + v * kW, &r[c][v], VB);
  }
}

/// Row i × columns [j, j + C) as C scalar chains.
template <typename T, int C>
[[gnu::always_inline]] inline void scalar_block(int i, int j, int dv, const Tiles<T>& t, int ml,
                                                T* __restrict acc) {
  T r[C];
  for (int c = 0; c < C; ++c) r[c] = acc[(j + c) * ml + i];
  const T* __restrict a = t.a + i;
  const T* __restrict b = t.b + j * t.b_j;
  const std::ptrdiff_t a_d = t.a_d, b_d = t.b_d, b_j = t.b_j;
  for (int d = 0; d < dv; ++d) {
    const T ad = a[d * a_d];
    const T* __restrict bd = b + d * b_d;
    for (int c = 0; c < C; ++c) r[c] += ad * bd[c * b_j];
  }
  for (int c = 0; c < C; ++c) acc[(j + c) * ml + i] = r[c];
}

/// Every column of rows [i, i + R·W) (R = 0: the scalar row i), in groups
/// of C columns, then of C/2, … down to one.
template <typename T, int VB, int R, int C>
[[gnu::always_inline]] inline void column_groups(int i, int j, int nv, int dv, const Tiles<T>& t,
                                                 int ml, T* __restrict acc) {
  for (; j + C <= nv; j += C) {
    if constexpr (R == 0) {
      scalar_block<T, C>(i, j, dv, t, ml, acc);
    } else {
      vector_block<T, VB, R, C>(i, j, dv, t, ml, acc);
    }
  }
  if constexpr (C > 1) column_groups<T, VB, R, C / 2>(i, j, nv, dv, t, ml, acc);
}

/// Rows [i, mv) at VB-byte vectors and narrower.
template <typename T, int VB>
[[gnu::always_inline]] inline void multiply_rows(int i, int mv, int nv, int dv, const Tiles<T>& t,
                                                 int ml, T* __restrict acc) {
  constexpr int kW = VB / static_cast<int>(sizeof(T));
  for (; i + 2 * kW <= mv; i += 2 * kW) column_groups<T, VB, 2, 4>(i, 0, nv, dv, t, ml, acc);
  for (; i + kW <= mv; i += kW) column_groups<T, VB, 1, 8>(i, 0, nv, dv, t, ml, acc);
  if constexpr (VB > 16) {
    multiply_rows<T, VB / 2>(i, mv, nv, dv, t, ml, acc);
  } else {
    for (; i < mv; ++i) column_groups<T, VB, 0, 8>(i, 0, nv, dv, t, ml, acc);
  }
}

template <typename T>
void multiply_sse2(int mv, int nv, int dv, const Tiles<T>& t, int ml, T* __restrict acc) {
  multiply_rows<T, 16>(0, mv, nv, dv, t, ml, acc);
}
#if defined(__x86_64__) || defined(__i386__)
template <typename T>
[[gnu::target("avx2")]] void multiply_avx2(int mv, int nv, int dv, const Tiles<T>& t, int ml,
                                           T* __restrict acc) {
  multiply_rows<T, 32>(0, mv, nv, dv, t, ml, acc);
}
template <typename T>
[[gnu::target("avx512f")]] void multiply_avx512(int mv, int nv, int dv, const Tiles<T>& t, int ml,
                                                T* __restrict acc) {
  multiply_rows<T, 64>(0, mv, nv, dv, t, ml, acc);
}
#endif

template <typename T>
Multiply<T> multiply_for(cpu::Isa isa) {
  switch (isa) {
#if defined(__x86_64__) || defined(__i386__)
    case cpu::Isa::avx512:
      return multiply_avx512<T>;
    case cpu::Isa::avx2:
      return multiply_avx2<T>;
#endif
    default:
      return multiply_sse2<T>;
  }
}

cpu::Isa call_isa() { return t_isa ? *t_isa : cpu::widest(); }

}  // namespace

template <>
Multiply<float> multiply_kernel<float>() {
  return multiply_for<float>(call_isa());
}

template <>
Multiply<double> multiply_kernel<double>() {
  return multiply_for<double>(call_isa());
}

}  // namespace engine

namespace detail {

void with_isa(cpu::Isa isa, const std::function<void()>& fn) {
  if (!cpu::supported(isa)) {
    throw std::invalid_argument(std::string("with_isa: CPU lacks ") + cpu::name(isa));
  }
  struct Restore {
    const cpu::Isa* saved;
    ~Restore() { t_isa = saved; }
  } restore{t_isa};
  t_isa = &isa;
  fn();
}

}  // namespace detail

}  // namespace isaac::codegen
