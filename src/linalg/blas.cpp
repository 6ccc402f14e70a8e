#include "linalg/blas.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cpu_isa.hpp"

namespace isaac::linalg {

namespace {

struct GemmDims {
  std::size_t m, n, k;
};

GemmDims check_gemm_shapes(Trans trans_a, Trans trans_b, const Matrix& a, const Matrix& b,
                           const Matrix& c) {
  const std::size_t m = (trans_a == Trans::No) ? a.rows() : a.cols();
  const std::size_t ka = (trans_a == Trans::No) ? a.cols() : a.rows();
  const std::size_t kb = (trans_b == Trans::No) ? b.rows() : b.cols();
  const std::size_t n = (trans_b == Trans::No) ? b.cols() : b.rows();
  if (ka != kb) throw std::invalid_argument("gemm: inner dimensions disagree");
  if (c.rows() != m || c.cols() != n) throw std::invalid_argument("gemm: C shape mismatch");
  return {m, n, ka};
}

// ---- register-blocked panel kernel ----------------------------------------
//
// op(A) is packed into kMR-interleaved row panels (k × kMR, column r of the
// panel is row r of the block), op(B) into nr-wide column panels (k × nr).
// The micro-kernel keeps a kMR×nr accumulator tile in registers across the
// whole K loop: per K step it streams kMR+nr floats and performs kMR·nr
// multiplies and kMR·nr separate adds, with no C traffic and no per-element
// branches (a zero in A multiplies through, so 0·Inf correctly propagates NaN
// exactly like gemm_reference). Partial edge panels are zero-padded by the
// packers; the padding lanes accumulate zeros and are simply not written
// back.
//
// The panel width nr is picked once per process from the CPU: 8 (SSE2, or
// the portable vector extension off x86), 16 (AVX2) or 32 (AVX-512F). Each
// width is the same body over two explicit vectors per tile row. Every C
// element sees the same operations in the same order in every variant — k
// ascending, one rounded multiply then one rounded add — so the result does
// not depend on nr, block size or ISA. That only holds while the compiler
// never fuses a multiply and an add into an FMA (AVX-512F implies FMA, and
// GCC contracts by default), hence contraction is off for this whole file.

#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

constexpr std::size_t kMR = 4;
constexpr std::size_t kMC = 128;         // rows per packed A block
constexpr std::size_t kSmallN = 4;       // ≤ this many columns: dot-product path
constexpr std::size_t kTinyM = 4;        // ≤ this many rows: no-packing path

// Reusable packing arenas, one pair per thread: grown once, reused across
// every gemm on that thread, so steady-state calls allocate nothing.
thread_local std::vector<float> tl_pack_a;
thread_local std::vector<float> tl_pack_b;

std::size_t round_up(std::size_t v, std::size_t to) { return (v + to - 1) / to * to; }

/// Pack op(A) rows [r0, r1) as kMR-interleaved panels: panel p holds rows
/// [r0 + p·kMR, …), laid out k-major so the micro-kernel reads kMR
/// consecutive floats per K step. Rows past r1 are zero-padded.
void pack_a_block(Trans trans_a, const Matrix& a, std::size_t r0, std::size_t r1,
                  std::size_t k, float* dst) {
  for (std::size_t p0 = r0; p0 < r1; p0 += kMR) {
    const std::size_t rows = std::min(kMR, r1 - p0);
    if (trans_a == Trans::No) {
      const float* src = a.data() + p0 * a.cols();
      const std::size_t lda = a.cols();
      for (std::size_t x = 0; x < k; ++x) {
        for (std::size_t r = 0; r < kMR; ++r) *dst++ = (r < rows) ? src[r * lda + x] : 0.0f;
      }
    } else {
      // op(A) row i is column i of the stored k × m matrix.
      for (std::size_t x = 0; x < k; ++x) {
        const float* src = a.data() + x * a.cols() + p0;
        for (std::size_t r = 0; r < kMR; ++r) *dst++ = (r < rows) ? src[r] : 0.0f;
      }
    }
  }
}

/// Pack all column panels of op(B): panel j holds columns [j·nr, …), k-major
/// (nr consecutive floats per K step), zero-padded past n.
void pack_b_panels(Trans trans_b, const Matrix& b, std::size_t n, std::size_t k,
                   std::size_t nr, float* dst) {
  for (std::size_t c0 = 0; c0 < n; c0 += nr) {
    const std::size_t cols = std::min(nr, n - c0);
    if (trans_b == Trans::No) {
      const std::size_t ldb = b.cols();
      for (std::size_t x = 0; x < k; ++x) {
        const float* src = b.data() + x * ldb + c0;
        for (std::size_t j = 0; j < nr; ++j) *dst++ = (j < cols) ? src[j] : 0.0f;
      }
    } else {
      // op(B)(x, c) = b(c, x) over the stored n × k matrix.
      const std::size_t ldb = b.cols();
      const float* base = b.data() + c0 * ldb;
      for (std::size_t x = 0; x < k; ++x) {
        for (std::size_t j = 0; j < nr; ++j) *dst++ = (j < cols) ? base[j * ldb + x] : 0.0f;
      }
    }
  }
}

/// Everything a packed block of C needs: panels, extents, scaling.
struct BlockArgs {
  const float* pa;  // packed A block, rows [r0, r1)
  const float* pb;  // all packed B panels
  std::size_t k, n, r0, r1;
  float alpha, beta;
  float* c;  // C, row stride n
};

/// C rows [r0, r1) over nr-wide tiles: each nr×k B panel stays cache-hot
/// across the block's row panels. Forced inline into one wrapper per
/// instruction set, which compiles it for that target.
template <std::size_t NR>
[[gnu::always_inline]] inline void block_tiles(const BlockArgs& g) {
  static_assert(NR % 2 == 0, "a tile row is two vectors");
  constexpr std::size_t kW = NR / 2;  // floats per vector; two vectors per tile row
  typedef float V __attribute__((vector_size(kW * sizeof(float))));
  for (std::size_t c0 = 0; c0 < g.n; c0 += NR) {
    const float* bpanel = g.pb + (c0 / NR) * NR * g.k;
    const std::size_t cols = std::min(NR, g.n - c0);
    for (std::size_t p0 = g.r0; p0 < g.r1; p0 += kMR) {
      const float* ap = g.pa + (p0 - g.r0) * g.k;
      const float* bp = bpanel;
      V acc[kMR][2] = {};
      for (std::size_t p = 0; p < g.k; ++p) {
        V b0, b1;
        std::memcpy(&b0, bp, sizeof(V));
        std::memcpy(&b1, bp + kW, sizeof(V));
#pragma GCC unroll 4
        for (std::size_t r = 0; r < kMR; ++r) {
          acc[r][0] += ap[r] * b0;
          acc[r][1] += ap[r] * b1;
        }
        ap += kMR;
        bp += NR;
      }
      float tile[kMR][NR];
      std::memcpy(tile, acc, sizeof(tile));
      const std::size_t rows = std::min(kMR, g.r1 - p0);
      for (std::size_t r = 0; r < rows; ++r) {
        float* crow = g.c + (p0 + r) * g.n + c0;
        if (g.beta == 0.0f) {
          for (std::size_t j = 0; j < cols; ++j) crow[j] = g.alpha * tile[r][j];
        } else {
          for (std::size_t j = 0; j < cols; ++j) crow[j] = g.alpha * tile[r][j] + g.beta * crow[j];
        }
      }
    }
  }
}

void block_tiles_sse2(const BlockArgs& g) { block_tiles<8>(g); }
#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx2")]] void block_tiles_avx2(const BlockArgs& g) { block_tiles<16>(g); }
[[gnu::target("avx512f")]] void block_tiles_avx512(const BlockArgs& g) { block_tiles<32>(g); }
#endif

struct MicroKernel {
  std::size_t nr;
  void (*block)(const BlockArgs&);
};

MicroKernel micro_kernel(cpu::Isa isa) {
  switch (isa) {
#if defined(__x86_64__) || defined(__i386__)
    case cpu::Isa::avx512:
      return {32, block_tiles_avx512};
    case cpu::Isa::avx2:
      return {16, block_tiles_avx2};
#endif
    default:
      return {8, block_tiles_sse2};
  }
}

/// C rows [r0, r1): pack the A block once, then run the micro-kernel over
/// it.
void run_block(const MicroKernel& mk, Trans trans_a, float alpha, const Matrix& a, float beta,
               Matrix& c, std::size_t k, std::size_t n, std::size_t r0, std::size_t r1,
               const float* pb, std::vector<float>& pa) {
  pa.resize(round_up(r1 - r0, kMR) * k);
  pack_a_block(trans_a, a, r0, r1, k, pa.data());
  mk.block({pa.data(), pb, k, n, r0, r1, alpha, beta, c.data()});
}

/// Deterministic 4-lane dot product (fixed reduction tree, vectorizable
/// without reassociation licenses).
float dot_k(const float* __restrict__ x, const float* __restrict__ y, std::size_t k) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  std::size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    s0 += x[p] * y[p];
    s1 += x[p + 1] * y[p + 1];
    s2 += x[p + 2] * y[p + 2];
    s3 += x[p + 3] * y[p + 3];
  }
  float tail = 0.0f;
  for (; p < k; ++p) tail += x[p] * y[p];
  return ((s0 + s1) + (s2 + s3)) + tail;
}

/// Narrow-output fast path (n ≤ kSmallN — the MLP's scalar prediction head
/// and its gradient): per-row dot products against k-contiguous B columns. Skips the
/// panel machinery entirely; the packed tile kernel would spend nr/n of its
/// work multiplying padding.
void gemm_small_n(Trans trans_a, Trans trans_b, float alpha, const Matrix& a, const Matrix& b,
                  float beta, Matrix& c, const GemmDims& d) {
  const auto [m, n, k] = d;
  // B columns, k-contiguous: a transposed B already stores them as rows.
  const float* bcols;
  if (trans_b == Trans::Yes) {
    bcols = b.data();
  } else {
    tl_pack_b.resize(n * k);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t x = 0; x < k; ++x) tl_pack_b[j * k + x] = b(x, j);
    }
    bcols = tl_pack_b.data();
  }
  // A rows, k-contiguous: a non-transposed A already stores them as rows.
  const float* arows;
  if (trans_a == Trans::No) {
    arows = a.data();
  } else {
    tl_pack_a.resize(m * k);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t x = 0; x < k; ++x) tl_pack_a[i * k + x] = a(x, i);
    }
    arows = tl_pack_a.data();
  }
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c.data() + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float dot = alpha * dot_k(arows + i * k, bcols + j * k, k);
      crow[j] = (beta == 0.0f) ? dot : dot + beta * crow[j];
    }
  }
}

/// Tiny-row fast path (m ≤ kTinyM, both operands untransposed — the
/// single-candidate prediction shape): stream B rows once per K step with no
/// packing at all.
void gemm_tiny_m(float alpha, const Matrix& a, const Matrix& b, float beta, Matrix& c,
                 const GemmDims& d) {
  const auto [m, n, k] = d;
  for (std::size_t r = 0; r < m; ++r) {
    float* crow = c.data() + r * n;
    if (beta == 0.0f) {
      std::fill_n(crow, n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
    }
    const float* arow = a.data() + r * k;
    for (std::size_t x = 0; x < k; ++x) {
      const float av = alpha * arow[x];
      const float* brow = b.data() + x * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_blocked(const MicroKernel& mk, Trans trans_a, Trans trans_b, float alpha,
                  const Matrix& a, const Matrix& b, float beta, Matrix& c) {
  const GemmDims d = check_gemm_shapes(trans_a, trans_b, a, b, c);
  const auto [m, n, k] = d;
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0f) {
    for (std::size_t i = 0; i < c.size(); ++i) c.data()[i] *= beta;
    return;
  }
  if (n <= kSmallN) {
    gemm_small_n(trans_a, trans_b, alpha, a, b, beta, c, d);
    return;
  }
  if (m <= kTinyM && trans_a == Trans::No && trans_b == Trans::No) {
    gemm_tiny_m(alpha, a, b, beta, c, d);
    return;
  }

  tl_pack_b.resize(round_up(n, mk.nr) * k);
  pack_b_panels(trans_b, b, n, k, mk.nr, tl_pack_b.data());
  const float* pb = tl_pack_b.data();

  for (std::size_t r0 = 0; r0 < m; r0 += kMC) {
    run_block(mk, trans_a, alpha, a, beta, c, k, n, r0, std::min(m, r0 + kMC), pb, tl_pack_a);
  }
}

}  // namespace

namespace detail {

void gemm_with(cpu::Isa isa, Trans trans_a, Trans trans_b, float alpha, const Matrix& a,
               const Matrix& b, float beta, Matrix& c) {
  if (!cpu::supported(isa)) {
    throw std::invalid_argument(std::string("gemm_with: CPU lacks ") + cpu::name(isa));
  }
  gemm_blocked(micro_kernel(isa), trans_a, trans_b, alpha, a, b, beta, c);
}

}  // namespace detail

void gemm(Trans trans_a, Trans trans_b, float alpha, const Matrix& a, const Matrix& b,
          float beta, Matrix& c) {
  gemm_blocked(micro_kernel(cpu::widest()), trans_a, trans_b, alpha, a, b, beta, c);
}

void gemm_reference(Trans trans_a, Trans trans_b, float alpha, const Matrix& a, const Matrix& b,
                    float beta, Matrix& c) {
  const auto [m, n, k] = check_gemm_shapes(trans_a, trans_b, a, b, c);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t x = 0; x < k; ++x) {
        const float av = (trans_a == Trans::No) ? a(i, x) : a(x, i);
        const float bv = (trans_b == Trans::No) ? b(x, j) : b(j, x);
        acc += static_cast<double>(av) * bv;
      }
      c(i, j) = alpha * static_cast<float>(acc) + beta * c(i, j);
    }
  }
}

}  // namespace isaac::linalg
