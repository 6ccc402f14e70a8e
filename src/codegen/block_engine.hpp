// The block engine shared by the functional executors (GEMM, batched GEMM,
// conv). Internal to codegen; callers use the *_executor.hpp entry points.
//
// Runs the tile template the PTX generator emits on the CPU pool: a grid of
// batch × KG × ⌈M/ML⌉ × ⌈N/NL⌉ blocks, each walking its reduction slice in
// U·KL-deep rounds, accumulating an ML×NL tile, and storing it through
// predicated edges. Conv reaches it via its implicit-GEMM lowering (§3.3).
// Each round the op's stager hands the micro-kernel its operand tiles as
// pointers and strides: operands whose rows are contiguous are read where
// they lie, and only the rest (a k-contiguous A, conv's im2col gather) is
// staged into per-thread scratch. The micro-kernel is compiled once per
// instruction set (block_engine.cpp), and each call runs the variant its
// calling thread picks from the CPU. The micro-kernel and the epilogue are
// bounded by each block's valid extent (mv rows, nv columns, dv reduction
// steps per round), so predicated-off lanes are skipped rather than computed
// on zeros.
//
// Every C element is the d-ascending sum of its products, one rounded
// multiply then one rounded add per step, followed by the epilogue, whatever
// the tile shape, layout, staging or thread count. With KG = 1 a call is one
// pool pass: each block owns its C tile and its epilogue writes
// C = alpha·acc + beta·C, or alpha·acc when beta = 0 (C is then never read).
// With KG > 1 a scale pass runs first and the KG slices of a tile accumulate
// into C under a stripe lock, the functional analogue of the kernel's global
// atomics. A grid with less work than kMinChunkFlops per pool chunk runs on
// the calling thread.
#pragma once

#include <algorithm>
#include <cmath>
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

/// The least work, in FLOPs, worth one pool chunk. The engine hands
/// parallel_for a grain of ⌈kMinChunkFlops / block FLOPs⌉ blocks, so a grid
/// under kMinChunkFlops runs on the calling thread with no queue hop. Set
/// from inline-against-pooled latency and throughput of hot-set-sized grids,
/// with one client and with four (DESIGN.md, "Functional executors").
constexpr double kMinChunkFlops = 4e6;

/// Items of `work` FLOPs each that make one chunk of at least kMinChunkFlops.
inline std::size_t grain_for(double work) {
  return static_cast<std::size_t>(std::max(1.0, std::ceil(kMinChunkFlops / work)));
}

/// Per-thread scratch, grown on demand and reused across blocks and calls.
/// A block never yields its thread, so one buffer per thread suffices.
template <typename T>
T* scratch(std::size_t n) {
  thread_local std::vector<T> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

/// One round's operand tiles: op(A)(m0 + i, k0 + d) is a[d·a_d + i] and
/// op(B)(k0 + d, n0 + j) is b[d·b_d + j·b_j]. A is read along i, so its rows
/// must be contiguous; B takes any strides.
template <typename T>
struct Tiles {
  const T* a;
  std::ptrdiff_t a_d;
  const T* b;
  std::ptrdiff_t b_d, b_j;
};

/// The micro-kernel: acc[j·ml + i] += Σ_d op(A)(i, d) · op(B)(d, j) over the
/// valid extent (mv rows, nv columns, dv reduction steps), d ascending, one
/// rounded multiply then one rounded add per step. It is compiled once per
/// cpu::Isa (block_engine.cpp) and holds about eight independent
/// accumulators in registers for every tile height.
template <typename T>
using Multiply = void (*)(int mv, int nv, int dv, const Tiles<T>& t, int ml, T* __restrict acc);

/// The variant an executor call runs, chosen on the calling thread:
/// cpu::widest(), or the one codegen::detail::with_isa names.
template <typename T>
Multiply<T> multiply_kernel();
template <>
Multiply<float> multiply_kernel<float>();
template <>
Multiply<double> multiply_kernel<double>();

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
/// block and returns stage(k0, dv, sa), which returns the Tiles of the
/// reduction steps [k0, k0 + dv) for rows m0 + i, i < mv, and columns
/// n0 + j, j < nv. A stager that cannot point A at memory laid out that way
/// fills sa[d·ML + i] and returns it with a_d = ML.
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
    pool.parallel_for(
        static_cast<std::size_t>(g.batch * g.n),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t col = lo; col < hi; ++col) {
            const auto b = static_cast<std::int64_t>(col) / g.n;
            const auto j = static_cast<std::int64_t>(col) % g.n;
            T* p = out.c + b * out.stride_c + j * out.ldc;
            if (out.beta == T(0)) {
              std::fill_n(p, g.m, T(0));
            } else if (out.beta != T(1)) {
              for (std::int64_t i = 0; i < g.m; ++i) p[i] *= out.beta;
            }
          }
        },
        grain_for(static_cast<double>(g.m)));
  }

  const Multiply<T> multiply = multiply_kernel<T>();
  const std::size_t a_elems = static_cast<std::size_t>(g.depth) * g.ml;
  const std::size_t acc_elems = static_cast<std::size_t>(g.ml) * g.nl;
  const double block_flops = 2.0 * g.ml * g.nl * static_cast<double>(k_slice);

  pool.parallel_for(
      static_cast<std::size_t>(blocks),
      [&](std::size_t lo, std::size_t hi) {
        T* sa = scratch<T>(a_elems + acc_elems);
        T* acc = sa + a_elems;
        // Blocks run n fastest, then m, then the KG slice, then the batch
        // member (the scheduling order the analyzer assumes for its reuse
        // hints): decode the chunk's first block, then count on from it.
        const auto first = static_cast<std::int64_t>(lo);
        std::int64_t tn = first % grid_n;
        std::int64_t tm = first / grid_n % grid_m;
        std::int64_t slice = first / tiles % g.kg;
        std::int64_t member = first / (tiles * g.kg);
        for (std::size_t bi = lo; bi < hi; ++bi) {
          const std::int64_t k0 = slice * k_slice;
          const std::int64_t k1 = std::min(g.k, k0 + k_slice);
          if (k0 < k1) {  // else an empty slice (K not divisible by KG)
            const Block blk{member, tm * g.ml, tn * g.nl,
                            static_cast<int>(std::min<std::int64_t>(g.ml, g.m - tm * g.ml)),
                            static_cast<int>(std::min<std::int64_t>(g.nl, g.n - tn * g.nl))};
            const auto stage = make_stager(blk);
            std::fill_n(acc, static_cast<std::size_t>(blk.nv) * g.ml, T(0));
            for (std::int64_t kk = k0; kk < k1; kk += g.depth) {
              const int dv = static_cast<int>(std::min<std::int64_t>(g.depth, k1 - kk));
              multiply(blk.mv, blk.nv, dv, stage(kk, dv, sa), g.ml, acc);
            }
            if (split) {
              const std::int64_t tile = member * tiles + tm * grid_n + tn;
              std::lock_guard<std::mutex> guard(locks[static_cast<std::size_t>(tile % kNumLocks)]);
              store_tile(out, blk, acc, g.ml, true);
            } else {
              store_tile(out, blk, acc, g.ml, false);
            }
          }
          if (++tn < grid_n) continue;
          tn = 0;
          if (++tm < grid_m) continue;
          tm = 0;
          if (++slice < g.kg) continue;
          slice = 0;
          ++member;
        }
      },
      grain_for(block_flops));
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
