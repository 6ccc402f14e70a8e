// The block engine shared by the functional executors (GEMM, batched GEMM,
// conv). Internal to codegen; callers use the *_executor.hpp entry points.
//
// Runs the tile template the PTX generator emits on the CPU pool: a grid of
// batch × KG × ⌈M/ML⌉ × ⌈N/NL⌉ blocks, each staging k-major [U·KL][ML] and
// [U·KL][NL] tiles round by round into per-thread scratch, accumulating an
// ML×NL tile, and storing it through predicated edges. Conv reaches it via
// its implicit-GEMM lowering (§3.3). Staging, the micro-kernel and the
// epilogue are bounded by each block's valid extent (mv rows, nv columns, dv
// reduction steps per round), so predicated-off lanes are skipped rather than
// staged as zeros; the arithmetic on valid lanes is the same.
//
// With KG = 1 a call is one pool pass: each block owns its C tile and its
// epilogue writes C = alpha·acc + beta·C, or alpha·acc when beta = 0 (C is
// then never read). With KG > 1 a scale pass runs first and the KG slices of
// a tile accumulate into C under a stripe lock, the functional analogue of
// the kernel's global atomics.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "codegen/gemm.hpp"
#include "common/thread_pool.hpp"

namespace isaac::codegen::engine {

inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// One executor call as an implicit GEMM: per batch member, C is m×n and the
/// reduction runs over k.
struct Grid {
  std::int64_t m = 0, n = 0, k = 0;
  std::int64_t batch = 1;
  int ml = 1, nl = 1;  // block tile
  int depth = 1;       // U·KL: reduction steps staged per round
  int kg = 1;          // grid-level reduction split
};

/// Where and how the accumulated tiles land: column-major C per batch
/// member, members stride_c elements apart.
template <typename T>
struct Output {
  T alpha, beta;
  T* c;
  std::int64_t ldc;
  std::int64_t stride_c;
};

/// The valid part of one block's tile.
struct Block {
  std::int64_t batch;   // batch member
  std::int64_t m0, n0;  // tile origin in C
  int mv, nv;           // valid rows and columns (≤ ML, NL)
};

/// Stripe locks serializing KG-split accumulation into one C tile.
constexpr int kNumLocks = 64;

/// Per-thread scratch, grown on demand and reused across blocks and calls.
/// A block never yields its thread, so one buffer per thread suffices.
template <typename T>
T* scratch(std::size_t n) {
  thread_local std::vector<T> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

/// acc[j·ml + i] += Σ_d sa[d·ml + i] · sb[d·nl + j] over the valid extent.
/// The micro-kernel holds a 4-column × kRows accumulator block in registers
/// across the staged depth. Leftover rows of a 4-column group sum one
/// element at a time; leftover columns take one axpy per staged row.
template <typename T>
void multiply_tiles(int mv, int nv, int dv, const T* sa, int ml, const T* sb, int nl, T* acc) {
  constexpr int kCols = 4;
  constexpr int kRows = static_cast<int>(32 / sizeof(T));
  int j = 0;
  for (; j + kCols <= nv; j += kCols) {
    int i = 0;
    for (; i + kRows <= mv; i += kRows) {
      T r[kCols][kRows];
      for (int c = 0; c < kCols; ++c) {
        for (int ii = 0; ii < kRows; ++ii) r[c][ii] = acc[(j + c) * ml + i + ii];
      }
      for (int d = 0; d < dv; ++d) {
        const T* a = sa + static_cast<std::ptrdiff_t>(d) * ml + i;
        const T* b = sb + static_cast<std::ptrdiff_t>(d) * nl + j;
        for (int c = 0; c < kCols; ++c) {
          for (int ii = 0; ii < kRows; ++ii) r[c][ii] += a[ii] * b[c];
        }
      }
      for (int c = 0; c < kCols; ++c) {
        for (int ii = 0; ii < kRows; ++ii) acc[(j + c) * ml + i + ii] = r[c][ii];
      }
    }
    for (; i < mv; ++i) {
      for (int c = 0; c < kCols; ++c) {
        T sum = acc[(j + c) * ml + i];
        for (int d = 0; d < dv; ++d) sum += sa[d * ml + i] * sb[d * nl + j + c];
        acc[(j + c) * ml + i] = sum;
      }
    }
  }
  for (; j < nv; ++j) {
    T* __restrict c0 = acc + static_cast<std::ptrdiff_t>(j) * ml;
    for (int d = 0; d < dv; ++d) {
      const T* __restrict a = sa + static_cast<std::ptrdiff_t>(d) * ml;
      const T b0 = sb[static_cast<std::ptrdiff_t>(d) * nl + j];
      for (int i = 0; i < mv; ++i) c0[i] += a[i] * b0;
    }
  }
}

/// Predicated store of one block's accumulator into C. `accumulate` is the
/// KG > 1 path, where the scale pass has already applied beta.
template <typename T>
void store_tile(const Output<T>& out, const Block& blk, const T* acc, int ml, bool accumulate) {
  const T beta = accumulate ? T(1) : out.beta;
  T* c = out.c + blk.batch * out.stride_c + blk.m0 + blk.n0 * out.ldc;
  for (int j = 0; j < blk.nv; ++j) {
    T* __restrict col = c + j * out.ldc;
    const T* __restrict a = acc + static_cast<std::ptrdiff_t>(j) * ml;
    if (beta == T(0)) {
      for (int i = 0; i < blk.mv; ++i) col[i] = out.alpha * a[i];
    } else {
      for (int i = 0; i < blk.mv; ++i) col[i] = out.alpha * a[i] + beta * col[i];
    }
  }
}

/// Run every block of `g`. make_stager(const Block&) is called once per
/// block and returns stage(k0, dv, sa, sb), which fills the A tile
/// sa[d·ML + i] for d < dv, i < mv with op(A)(m0 + i, k0 + d) and the B tile
/// sb[d·NL + j] for j < nv with op(B)(k0 + d, n0 + j).
template <typename T, typename MakeStager>
void run(const Grid& g, const Output<T>& out, const MakeStager& make_stager) {
  ThreadPool& pool = ThreadPool::global();
  const std::int64_t grid_m = ceil_div(g.m, g.ml);
  const std::int64_t grid_n = ceil_div(g.n, g.nl);
  const std::int64_t tiles = grid_m * grid_n;
  const std::int64_t blocks = tiles * g.kg * g.batch;
  const std::int64_t k_slice = ceil_div(g.k, g.kg);
  const bool split = g.kg > 1;

  std::vector<std::mutex> locks(split ? kNumLocks : 0);
  if (split) {
    // The zero-init / scale kernel that precedes split-K accumulation.
    pool.parallel_for_each(static_cast<std::size_t>(g.batch * g.n), [&](std::size_t col) {
      const auto b = static_cast<std::int64_t>(col) / g.n;
      const auto j = static_cast<std::int64_t>(col) % g.n;
      T* p = out.c + b * out.stride_c + j * out.ldc;
      if (out.beta == T(0)) {
        std::fill_n(p, g.m, T(0));
      } else if (out.beta != T(1)) {
        for (std::int64_t i = 0; i < g.m; ++i) p[i] *= out.beta;
      }
    });
  }

  const std::size_t a_elems = static_cast<std::size_t>(g.depth) * g.ml;
  const std::size_t b_elems = static_cast<std::size_t>(g.depth) * g.nl;
  const std::size_t acc_elems = static_cast<std::size_t>(g.ml) * g.nl;

  pool.parallel_for(static_cast<std::size_t>(blocks), [&](std::size_t lo, std::size_t hi) {
    T* sa = scratch<T>(a_elems + b_elems + acc_elems);
    T* sb = sa + a_elems;
    T* acc = sb + b_elems;
    for (std::size_t bi = lo; bi < hi; ++bi) {
      // n fastest, then m, then the KG slice, then the batch member (the
      // scheduling order the analyzer assumes for its reuse hints).
      const auto idx = static_cast<std::int64_t>(bi);
      const std::int64_t tn = idx % grid_n;
      const std::int64_t tm = (idx / grid_n) % grid_m;
      const std::int64_t slice = (idx / tiles) % g.kg;
      const std::int64_t member = idx / (tiles * g.kg);
      const std::int64_t k0 = slice * k_slice;
      const std::int64_t k1 = std::min(g.k, k0 + k_slice);
      if (k0 >= k1) continue;  // empty slice (K not divisible by KG)

      const Block blk{member, tm * g.ml, tn * g.nl,
                      static_cast<int>(std::min<std::int64_t>(g.ml, g.m - tm * g.ml)),
                      static_cast<int>(std::min<std::int64_t>(g.nl, g.n - tn * g.nl))};
      const auto stage = make_stager(blk);
      std::fill_n(acc, static_cast<std::size_t>(blk.nv) * g.ml, T(0));
      for (std::int64_t kk = k0; kk < k1; kk += g.depth) {
        const int dv = static_cast<int>(std::min<std::int64_t>(g.depth, k1 - kk));
        stage(kk, dv, sa, sb);
        multiply_tiles(blk.mv, blk.nv, dv, sa, g.ml, sb, g.nl, acc);
      }

      if (split) {
        const std::int64_t tile = member * tiles + tm * grid_n + tn;
        std::lock_guard<std::mutex> guard(locks[static_cast<std::size_t>(tile % kNumLocks)]);
        store_tile(out, blk, acc, g.ml, true);
      } else {
        store_tile(out, blk, acc, g.ml, false);
      }
    }
  });
}

/// The GEMM executor over `batch` operand slices at constant element strides
/// (defined in gemm_executor.cpp; shared by the single and batched entry
/// points, which fire the failpoint and check strides themselves).
void run_gemm(const GemmShape& shape, std::int64_t batch, const GemmTuning& tuning, float alpha,
              const float* a, std::int64_t lda, std::int64_t stride_a, const float* b,
              std::int64_t ldb, std::int64_t stride_b, float beta, float* c, std::int64_t ldc,
              std::int64_t stride_c);
void run_gemm(const GemmShape& shape, std::int64_t batch, const GemmTuning& tuning, double alpha,
              const double* a, std::int64_t lda, std::int64_t stride_a, const double* b,
              std::int64_t ldb, std::int64_t stride_b, double beta, double* c, std::int64_t ldc,
              std::int64_t stride_c);

}  // namespace isaac::codegen::engine
