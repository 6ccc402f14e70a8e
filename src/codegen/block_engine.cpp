// The block engine's micro-kernel, compiled once per instruction set.
//
// Two always-inline bodies cover a round's valid tile with register blocks
// of about eight independent accumulators. vector_rows<T, VB> takes rows in
// 2-vector × 4-column blocks, then a 1-vector × 8-column block, then on down
// the vector chain (64 → 32 → 16 bytes); columns past the last full group
// halve the group (4 → 2 → 1, or 8 → 4 → 2 → 1). leftover_rows<T, VB> takes
// the rows left under one 16-byte vector (at most three floats or one
// double): when B's columns are contiguous (b_j = 1: conv filters, a
// transposed B) they vectorize along the columns instead, all of them in one
// block, each row's accumulators held in column vectors of the variant's
// width; otherwise, and for the last columns under one 16-byte vector, they
// run as scalars across 8 column chains. Each variant wraps both bodies for
// its widest vector: sse2 (16 bytes, the portable vector extension off x86),
// target("avx2") (32) and target("avx512f") (64).
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

/// Rows [i, i + R) × columns [j, j + G·W) when B's columns are contiguous
/// (b_j = 1), W = VB / sizeof(T) lanes per vector: each row's accumulators
/// lie along G column vectors, each step broadcasting one element of A per
/// row and loading G vectors of B.
template <typename T, int VB, int R, int G>
[[gnu::always_inline]] inline void column_block(int i, int j, int dv, const Tiles<T>& t, int ml,
                                                T* __restrict acc) {
  typedef T V __attribute__((vector_size(VB)));
  constexpr int kW = VB / static_cast<int>(sizeof(T));
  V r[R][G];
  T lanes[kW];
  for (int v = 0; v < R; ++v) {
    for (int g = 0; g < G; ++g) {
      for (int l = 0; l < kW; ++l) lanes[l] = acc[(j + g * kW + l) * ml + i + v];
      std::memcpy(&r[v][g], lanes, VB);
    }
  }
  const T* __restrict a = t.a + i;
  const T* __restrict b = t.b + j;
  const std::ptrdiff_t a_d = t.a_d, b_d = t.b_d;
  for (int d = 0; d < dv; ++d) {
    V bv[G];
    for (int g = 0; g < G; ++g) std::memcpy(&bv[g], b + d * b_d + g * kW, VB);
    for (int v = 0; v < R; ++v) {
      const T av = a[d * a_d + v];
      for (int g = 0; g < G; ++g) r[v][g] += av * bv[g];
    }
  }
  for (int v = 0; v < R; ++v) {
    for (int g = 0; g < G; ++g) {
      std::memcpy(lanes, &r[v][g], VB);
      for (int l = 0; l < kW; ++l) acc[(j + g * kW + l) * ml + i + v] = lanes[l];
    }
  }
}

/// Every column of rows [i, i + R) with B's columns contiguous: groups of G
/// VB-byte column vectors, then of G/2, … down to one, then one narrower
/// vector at a time; the columns left under one 16-byte vector run as
/// scalar chains.
template <typename T, int VB, int R, int G>
[[gnu::always_inline]] inline void column_vector_groups(int i, int j, int nv, int dv,
                                                        const Tiles<T>& t, int ml,
                                                        T* __restrict acc) {
  constexpr int kW = VB / static_cast<int>(sizeof(T));
  for (; j + G * kW <= nv; j += G * kW) column_block<T, VB, R, G>(i, j, dv, t, ml, acc);
  if constexpr (G > 1) {
    column_vector_groups<T, VB, R, G / 2>(i, j, nv, dv, t, ml, acc);
  } else if constexpr (VB > 16) {
    column_vector_groups<T, VB / 2, R, 1>(i, j, nv, dv, t, ml, acc);
  } else {
    for (int v = 0; v < R; ++v) column_groups<T, VB, 0, 8>(i + v, j, nv, dv, t, ml, acc);
  }
}

/// Rows [i, mv) in vector blocks at VB-byte vectors and narrower; returns
/// the first row of those left under one 16-byte vector.
template <typename T, int VB>
[[gnu::always_inline]] inline int vector_rows(int i, int mv, int nv, int dv, const Tiles<T>& t,
                                              int ml, T* __restrict acc) {
  constexpr int kW = VB / static_cast<int>(sizeof(T));
  for (; i + 2 * kW <= mv; i += 2 * kW) column_groups<T, VB, 2, 4>(i, 0, nv, dv, t, ml, acc);
  for (; i + kW <= mv; i += kW) column_groups<T, VB, 1, 8>(i, 0, nv, dv, t, ml, acc);
  if constexpr (VB > 16) {
    return vector_rows<T, VB / 2>(i, mv, nv, dv, t, ml, acc);
  } else {
    return i;
  }
}

/// Rows [i, mv), those left under one 16-byte vector (at most three): one
/// column-vector block of about eight accumulators when B's columns are
/// contiguous, scalar chains otherwise.
template <typename T, int VB>
[[gnu::always_inline]] inline void leftover_rows(int i, int mv, int nv, int dv,
                                                 const Tiles<T>& t, int ml, T* __restrict acc) {
  if (t.b_j != 1) {
    for (; i < mv; ++i) column_groups<T, 16, 0, 8>(i, 0, nv, dv, t, ml, acc);
  } else if (mv - i == 1) {
    column_vector_groups<T, VB, 1, 8>(i, 0, nv, dv, t, ml, acc);
  } else if (mv - i == 2) {
    column_vector_groups<T, VB, 2, 4>(i, 0, nv, dv, t, ml, acc);
  } else {
    column_vector_groups<T, VB, 3, 2>(i, 0, nv, dv, t, ml, acc);
  }
}

// Each variant runs its leftover rows out of line: inlined into the
// variant's body, their blocks changed how the vector rows' loops were
// register-allocated, and GEMM tiles with no leftover rows ran 2-6% slower.
template <typename T>
[[gnu::noinline]] void leftover_sse2(int i, int mv, int nv, int dv, const Tiles<T>& t, int ml,
                                     T* __restrict acc) {
  leftover_rows<T, 16>(i, mv, nv, dv, t, ml, acc);
}
template <typename T>
void multiply_sse2(int mv, int nv, int dv, const Tiles<T>& t, int ml, T* __restrict acc) {
  const int i = vector_rows<T, 16>(0, mv, nv, dv, t, ml, acc);
  if (i < mv) leftover_sse2<T>(i, mv, nv, dv, t, ml, acc);
}
#if defined(__x86_64__) || defined(__i386__)
template <typename T>
[[gnu::target("avx2"), gnu::noinline]] void leftover_avx2(int i, int mv, int nv, int dv,
                                                          const Tiles<T>& t, int ml,
                                                          T* __restrict acc) {
  leftover_rows<T, 32>(i, mv, nv, dv, t, ml, acc);
}
template <typename T>
[[gnu::target("avx2")]] void multiply_avx2(int mv, int nv, int dv, const Tiles<T>& t, int ml,
                                           T* __restrict acc) {
  const int i = vector_rows<T, 32>(0, mv, nv, dv, t, ml, acc);
  if (i < mv) leftover_avx2<T>(i, mv, nv, dv, t, ml, acc);
}
template <typename T>
[[gnu::target("avx512f"), gnu::noinline]] void leftover_avx512(int i, int mv, int nv, int dv,
                                                               const Tiles<T>& t, int ml,
                                                               T* __restrict acc) {
  leftover_rows<T, 64>(i, mv, nv, dv, t, ml, acc);
}
template <typename T>
[[gnu::target("avx512f")]] void multiply_avx512(int mv, int nv, int dv, const Tiles<T>& t, int ml,
                                                T* __restrict acc) {
  const int i = vector_rows<T, 64>(0, mv, nv, dv, t, ml, acc);
  if (i < mv) leftover_avx512<T>(i, mv, nv, dv, t, ml, acc);
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
